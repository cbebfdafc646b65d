open Pinpoint_ir
module E = Pinpoint_smt.Expr
module Solver = Pinpoint_smt.Solver
module Seg = Pinpoint_seg.Seg
module Rv = Pinpoint_summary.Rv

type report = {
  alloc_fn : string;
  alloc_loc : Stmt.loc;
  cond : E.t;
  hints : (E.t * bool) list;
  frees_seen : int;
}

type config = { max_call_depth : int; max_steps : int }

let default_config = { max_call_depth = 4; max_steps = 4_000 }

(* The closure of an allocation's value over Copy edges, across calls.
   Results:
   - [frees]: (seg, sid) of free() calls consuming the value;
   - [escaped]: the value leaves the allocating region (returned, stored
     through a connector, passed to an unknown external). *)
type closure = {
  mutable frees : (Seg.t * int) list;
  mutable escaped : bool;
  mutable steps : int;
}

let rec walk cfg (cl : closure) seg_of visited ~fname ~(var : Var.t) ~depth =
  cl.steps <- cl.steps + 1;
  if cl.steps > cfg.max_steps then cl.escaped <- true
  else begin
    let key = (fname, var.Var.vid) in
    if not (Hashtbl.mem visited key) then begin
      Hashtbl.add visited key ();
      match seg_of fname with
      | None -> cl.escaped <- true
      | Some seg ->
        let f = Seg.func seg in
        (* flows *)
        List.iter
          (fun (e : Seg.edge) ->
            match e.Seg.kind with
            | Seg.Copy -> walk cfg cl seg_of visited ~fname ~var:e.Seg.dst ~depth
            | Seg.Operand -> ())
          (Seg.succs seg var);
        (* uses *)
        List.iter
          (fun (u : Seg.use) ->
            match u.Seg.ukind with
            | Seg.Call_arg { callee = "free"; arg_index = 0 } ->
              cl.frees <- (seg, u.Seg.sid) :: cl.frees
            | Seg.Call_arg { callee; arg_index } -> (
              match seg_of callee with
              | Some callee_seg when depth < cfg.max_call_depth -> (
                match
                  List.nth_opt (Seg.func callee_seg).Func.params arg_index
                with
                | Some p ->
                  walk cfg cl seg_of visited ~fname:callee ~var:p
                    ~depth:(depth + 1)
                | None -> ())
              | Some _ -> cl.escaped <- true (* too deep: assume freed *)
              | None ->
                (* intrinsic observers do not take ownership *)
                if not (List.mem callee [ "print"; "output"; "use"; "memset"; "memcpy"; "sendto" ])
                then cl.escaped <- true)
            | Seg.Ret_op _ -> cl.escaped <- true
            | Seg.Deref _ -> ())
          (Seg.uses_of seg var);
        (* a store of the value into memory makes it reachable elsewhere:
           conservatively treat any store whose VALUE is this var as an
           escape unless the target is a local allocation that never
           leaves this closure — we keep it simple and soundy: storing
           the pointer anywhere counts as an escape. *)
        Func.iter_stmts f (fun _ s ->
            match s.Stmt.kind with
            | Stmt.Store (_, _, Stmt.Ovar v) when Var.equal v var ->
              cl.escaped <- true
            | _ -> ())
    end
  end

let check ?(config = default_config) ?resilience (prog : Prog.t) ~seg_of ~rv :
    report list =
  let reports = ref [] in
  List.iter
    (fun (f : Func.t) ->
      match seg_of f.Func.fname with
      | None -> ()
      | Some seg ->
        Func.iter_stmts f (fun _ s ->
            match s.Stmt.kind with
            | Stmt.Alloc v ->
              let cl = { frees = []; escaped = false; steps = 0 } in
              let visited = Hashtbl.create 64 in
              walk config cl seg_of visited ~fname:f.Func.fname ~var:v ~depth:0;
              if not cl.escaped then begin
                (* Leak condition: the alloc executes and no free covers
                   the path.  Only the branch LITERALS of each free's
                   reachability are negated; the branch variables'
                   defining facts stay asserted (negating a whole CD would
                   let the solver falsify a definition instead of taking
                   the other branch). *)
                let close cres = fst (Rv.close rv seg cres) in
                let alloc_cd = close (Seg.cd_stmt seg s.Stmt.sid) in
                let not_freed =
                  List.fold_left
                    (fun acc (fseg, fsid) ->
                      if fseg == seg then begin
                        let lits, facts = Seg.cd_stmt_split fseg fsid in
                        E.conj [ acc; E.not_ lits; close facts ]
                      end
                      else begin
                        (* free in a callee: covering iff unconditional
                           there; a conditional callee free depends on an
                           unknown context, soundy: may not cover *)
                        let lits, _ = Seg.cd_stmt_split fseg fsid in
                        if E.is_true lits then E.fls else acc
                      end)
                    E.tru cl.frees
                in
                let cond = E.and_ alloc_cd not_freed in
                let subject =
                  Printf.sprintf "%s:%d" f.Func.fname s.Stmt.loc.Stmt.line
                in
                match
                  Solver.check_degrading ?log:resilience ~subject cond
                with
                | Solver.Sat, hints, _ ->
                  reports :=
                    {
                      alloc_fn = f.Func.fname;
                      alloc_loc = s.Stmt.loc;
                      cond;
                      hints;
                      frees_seen = List.length cl.frees;
                    }
                    :: !reports
                | Solver.Unknown, _, _ ->
                  reports :=
                    {
                      alloc_fn = f.Func.fname;
                      alloc_loc = s.Stmt.loc;
                      cond;
                      hints = [];
                      frees_seen = List.length cl.frees;
                    }
                    :: !reports
                | Solver.Unsat, _, _ -> ()
              end
            | _ -> ()))
    (Prog.functions prog);
  List.rev !reports

let pp ppf r =
  Format.fprintf ppf "[memory-leak] allocation at %a in %s%s@."
    Stmt.pp_loc r.alloc_loc r.alloc_fn
    (if r.frees_seen > 0 then
       Printf.sprintf " (escapes %d conditional free(s))" r.frees_seen
     else " (never freed)")
