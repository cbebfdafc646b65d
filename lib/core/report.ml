type verdict = Feasible | Feasible_unknown | Infeasible

type t = {
  checker : string;
  source_fn : string;
  source_loc : Pinpoint_ir.Stmt.loc;
  sink_fn : string;
  sink_loc : Pinpoint_ir.Stmt.loc;
  path : Vpath.t;
  cond : Pinpoint_smt.Expr.t;
  verdict : verdict;
  hints : (Pinpoint_smt.Expr.t * bool) list;
  rung : Pinpoint_smt.Solver.rung option;
}

let is_reported r = r.verdict <> Infeasible

let is_degraded r =
  match r.rung with
  | Some Pinpoint_smt.Solver.Rung_full | None -> false
  | Some _ -> true

let key r =
  (r.source_fn, r.source_loc.Pinpoint_ir.Stmt.line, r.sink_fn, r.sink_loc.Pinpoint_ir.Stmt.line)

let one_line r =
  Format.asprintf "%s: %a -> %a (%s -> %s)" r.checker Pinpoint_ir.Stmt.pp_loc
    r.source_loc Pinpoint_ir.Stmt.pp_loc r.sink_loc r.source_fn r.sink_fn

let pp_verdict ppf = function
  | Feasible -> Format.pp_print_string ppf "feasible"
  | Feasible_unknown -> Format.pp_print_string ppf "feasible?"
  | Infeasible -> Format.pp_print_string ppf "infeasible"

let pp ppf r =
  Format.fprintf ppf "[%s] %a -> %a (%s -> %s) : %a%t@." r.checker
    Pinpoint_ir.Stmt.pp_loc r.source_loc Pinpoint_ir.Stmt.pp_loc r.sink_loc
    r.source_fn r.sink_fn pp_verdict r.verdict
    (fun ppf ->
      if is_degraded r then
        match r.rung with
        | Some rung ->
          Format.fprintf ppf " [degraded: %a]" Pinpoint_smt.Solver.pp_rung rung
        | None -> ());
  Vpath.pp ppf r.path;
  (* trigger hints: only the comparison atoms are human-meaningful *)
  let cmps =
    List.filter
      (fun ((a : Pinpoint_smt.Expr.t), _) ->
        match a.Pinpoint_smt.Expr.node with
        | Pinpoint_smt.Expr.Eq _ | Pinpoint_smt.Expr.Ne _
        | Pinpoint_smt.Expr.Lt _ | Pinpoint_smt.Expr.Le _ ->
          true
        | _ -> false)
      r.hints
  in
  if cmps <> [] && List.length cmps <= 12 then
    Format.fprintf ppf "  trigger when: %a@."
      (Pinpoint_util.Pp.list (fun ppf (a, b) ->
           if b then Pinpoint_smt.Expr.pp ppf a
           else Format.fprintf ppf "!(%a)" Pinpoint_smt.Expr.pp a))
      cmps

let pp_summary ppf reports =
  let reported = List.filter is_reported reports in
  Format.fprintf ppf "%d report(s) (%d candidate path(s) examined)@."
    (List.length reported) (List.length reports);
  List.iter (fun r -> pp ppf r) reported
