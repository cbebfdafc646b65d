open Pinpoint_ir
module Seg = Pinpoint_seg.Seg

type spec = {
  follow_operands : bool;
  source_vars : Seg.t -> (Var.t * int) list;
  is_sink_use : Seg.t -> Seg.use -> bool;
}

type fsum = {
  vf1 : (int * int) list;
  vf2 : int list;
  vf3 : int list;
  vf4 : int list;
}

type t = (string, fsum) Hashtbl.t

let empty () : t = Hashtbl.create 1
let find t name = Hashtbl.find_opt t name

(* Forward reachability from a set of variables over the SEG value-flow
   edges, extended across call sites using already-computed callee
   summaries (VF1 continues the flow at the receiver). *)
let reach_from (seg : Seg.t) (t : t) (spec : spec) (starts : Var.t list) :
    Var.Set.t =
  let f = Seg.func seg in
  let stmt_by_sid = Hashtbl.create 16 in
  Func.iter_stmts f (fun _ s -> Hashtbl.replace stmt_by_sid s.Stmt.sid s);
  let visited = ref Var.Set.empty in
  let q = Queue.create () in
  List.iter
    (fun v ->
      if not (Var.Set.mem v !visited) then begin
        visited := Var.Set.add v !visited;
        Queue.add v q
      end)
    starts;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    let push w =
      if not (Var.Set.mem w !visited) then begin
        visited := Var.Set.add w !visited;
        Queue.add w q
      end
    in
    List.iter
      (fun (e : Seg.edge) ->
        match e.Seg.kind with
        | Seg.Copy -> push e.Seg.dst
        | Seg.Operand -> if spec.follow_operands then push e.Seg.dst)
      (Seg.succs seg v);
    (* Cross-call continuation via callee VF1. *)
    List.iter
      (fun (u : Seg.use) ->
        match u.Seg.ukind with
        | Seg.Call_arg { callee; arg_index } -> (
          match Hashtbl.find_opt t callee with
          | None -> ()
          | Some callee_sum -> (
            match Hashtbl.find_opt stmt_by_sid u.Seg.sid with
            | Some { Stmt.kind = Stmt.Call c; _ } ->
              List.iter
                (fun (i, j) ->
                  if i = arg_index + 1 then
                    match List.nth_opt c.Stmt.recvs j with
                    | Some r -> push r
                    | None -> ())
                callee_sum.vf1
            | _ -> ()))
        | _ -> ())
      (Seg.uses_of seg v)
  done;
  !visited

let summarize (seg : Seg.t) (t : t) (spec : spec) : fsum =
  let f = Seg.func seg in
  let stmt_by_sid = Hashtbl.create 16 in
  Func.iter_stmts f (fun _ s -> Hashtbl.replace stmt_by_sid s.Stmt.sid s);
  (* Source variables: the checker's own sources plus receivers that are
     buggy after a call (callee VF2) — actuals buggy after a call (callee
     VF3) are handled as sources too. *)
  let call_sources =
    Func.fold_stmts f ~init:[] ~f:(fun acc _ s ->
        match s.Stmt.kind with
        | Stmt.Call c -> (
          match Hashtbl.find_opt t c.Stmt.callee with
          | None -> acc
          | Some cs ->
            let from_vf2 =
              List.filter_map (fun j -> List.nth_opt c.Stmt.recvs j) cs.vf2
            in
            let from_vf3 =
              List.filter_map
                (fun i ->
                  match List.nth_opt c.Stmt.args (i - 1) with
                  | Some (Stmt.Ovar u) -> Some u
                  | _ -> None)
                cs.vf3
            in
            from_vf2 @ from_vf3 @ acc)
        | _ -> acc)
  in
  let own_sources = List.map fst (spec.source_vars seg) in
  let sources = own_sources @ call_sources in
  (* Sink-consuming variables: the checker's sinks plus actuals whose
     callee has VF4 on that parameter. *)
  let sink_vars =
    List.filter_map
      (fun (u : Seg.use) ->
        if spec.is_sink_use seg u then Some u.Seg.uvar
        else
          match u.Seg.ukind with
          | Seg.Call_arg { callee; arg_index } -> (
            match Hashtbl.find_opt t callee with
            | Some cs when List.mem (arg_index + 1) cs.vf4 -> Some u.Seg.uvar
            | _ -> None)
          | _ -> None)
      (Seg.uses seg)
    |> List.fold_left (fun acc v -> Var.Set.add v acc) Var.Set.empty
  in
  (* Return positions per variable. *)
  let ret_positions v =
    List.filter_map
      (fun (u : Seg.use) ->
        match u.Seg.ukind with
        | Seg.Ret_op j when Var.equal u.Seg.uvar v -> Some j
        | _ -> None)
      (Seg.uses_of seg v)
  in
  (* Per-parameter reachability. *)
  let vf1 = ref [] and vf3 = ref [] and vf4 = ref [] in
  let source_set =
    List.fold_left (fun acc v -> Var.Set.add v acc) Var.Set.empty sources
  in
  List.iteri
    (fun idx0 (p : Var.t) ->
      let i = idx0 + 1 in
      let reach = reach_from seg t spec [ p ] in
      Var.Set.iter
        (fun v ->
          List.iter (fun j -> if not (List.mem (i, j) !vf1) then vf1 := (i, j) :: !vf1)
            (ret_positions v);
          if Var.Set.mem v source_set && not (List.mem i !vf3) then vf3 := i :: !vf3;
          if Var.Set.mem v sink_vars && not (List.mem i !vf4) then vf4 := i :: !vf4)
        reach)
    f.Func.params;
  (* VF2: sources reaching return positions. *)
  let vf2 =
    let reach = reach_from seg t spec sources in
    Var.Set.fold (fun v acc -> ret_positions v @ acc) reach []
    |> List.sort_uniq compare
  in
  {
    vf1 = List.sort compare !vf1;
    vf2;
    vf3 = List.sort compare !vf3;
    vf4 = List.sort compare !vf4;
  }

let generate (prog : Prog.t) (seg_of : string -> Seg.t option) (spec : spec) : t
    =
  let t : t = Hashtbl.create 64 in
  List.iter
    (fun scc ->
      List.iter
        (fun (f : Func.t) ->
          match seg_of f.Func.fname with
          | None -> ()
          | Some seg -> Hashtbl.replace t f.Func.fname (summarize seg t spec))
        scc)
    (Prog.bottom_up_sccs prog);
  t

(* Incremental regeneration (DESIGN.md §4.13): same contract as
   {!Rv.update} — the dirty set is caller-closed, so every SCC is wholly
   dirty or wholly clean, and clean summaries (a function of the
   function's own SEG and its callees' summaries) are already what a full
   generate would compute. *)
let update (t : t) (seg_of : string -> Seg.t option) (spec : spec)
    (sccs : Func.t list list) =
  List.iter (List.iter (fun (f : Func.t) -> Hashtbl.remove t f.Func.fname)) sccs;
  List.iter
    (List.iter (fun (f : Func.t) ->
         match seg_of f.Func.fname with
         | None -> ()
         | Some seg -> Hashtbl.replace t f.Func.fname (summarize seg t spec)))
    sccs

let fold (t : t) ~init ~f = Hashtbl.fold (fun name s acc -> f acc name s) t init
let add (t : t) name s = Hashtbl.replace t name s

let pp ppf (t : t) =
  Hashtbl.iter
    (fun name s ->
      Format.fprintf ppf "VF %s: vf1={%a} vf2={%a} vf3={%a} vf4={%a}@." name
        (Pinpoint_util.Pp.list (fun ppf (i, j) -> Format.fprintf ppf "%d->r%d" i j))
        s.vf1
        (Pinpoint_util.Pp.list Format.pp_print_int)
        s.vf2
        (Pinpoint_util.Pp.list Format.pp_print_int)
        s.vf3
        (Pinpoint_util.Pp.list Format.pp_print_int)
        s.vf4)
    t
