open Pinpoint_ir
module Seg = Pinpoint_seg.Seg

type spec = {
  follow_operands : bool;
  source_vars : Func.t -> (Var.t * int) list;
  is_sink_use : Seg.t -> Seg.use -> bool;
}

type fsum = {
  vf1 : (int * int) list;
  vf2 : int list;
  vf3 : int list;
  vf4 : int list;
}

type t = (string, fsum) Hashtbl.t

let empty () : t = Hashtbl.create 64
let find t name = Hashtbl.find_opt t name

(* One function's view for the pass: its SEG, its call statements by sid,
   and a visited set over its dense variable ids — a slot holding the
   current stamp is visited, so bumping the stamp empties the set. *)
type fctx = {
  seg : Seg.t;
  calls : (int, Stmt.call) Hashtbl.t;
  seen : int array;
  mutable stamp : int;
}

let fctx seg =
  let f = Seg.func seg in
  let calls = Hashtbl.create 16 in
  Func.iter_stmts f (fun _ s ->
      match s.Stmt.kind with
      | Stmt.Call c -> Hashtbl.replace calls s.Stmt.sid c
      | _ -> ());
  let n_vars = Var.count f.Func.vgen in
  { seg; calls; seen = Array.make n_vars 0; stamp = 0 }

(* Mark [v] visited; false if it already was. *)
let visit cx (v : Var.t) =
  let i = v.Var.vid in
  if cx.seen.(i) = cx.stamp then false
  else begin
    cx.seen.(i) <- cx.stamp;
    true
  end

(* Forward reachability from a set of variables over the SEG value-flow
   edges, extended across call sites using already-computed callee VF1
   ([vf1_of], continuing the flow at the receiver).  Returns the reached
   variables, starts included. *)
let reach cx ~follow ~vf1_of starts =
  cx.stamp <- cx.stamp + 1;
  let reached = ref [] in
  let q = Queue.create () in
  let push v =
    if visit cx v then begin
      reached := v :: !reached;
      Queue.add v q
    end
  in
  List.iter push starts;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun (e : Seg.edge) ->
        match e.Seg.kind with
        | Seg.Copy -> push e.Seg.dst
        | Seg.Operand -> if follow then push e.Seg.dst)
      (Seg.succs cx.seg v);
    List.iter
      (fun (u : Seg.use) ->
        match u.Seg.ukind with
        | Seg.Call_arg { callee; arg_index } -> (
          match (vf1_of callee, Hashtbl.find_opt cx.calls u.Seg.sid) with
          | Some vf1, Some c ->
            List.iter
              (fun (i, j) ->
                if i = arg_index + 1 then
                  match List.nth_opt c.Stmt.recvs j with
                  | Some r -> push r
                  | None -> ())
              vf1
          | _ -> ())
        | _ -> ())
      (Seg.uses_of cx.seg v)
  done;
  !reached

let ret_positions seg v =
  List.filter_map
    (fun (u : Seg.use) ->
      match u.Seg.ukind with
      | Seg.Ret_op j when Var.equal u.Seg.uvar v -> Some j
      | _ -> None)
    (Seg.uses_of seg v)

let vid_set vars =
  let s = Hashtbl.create 16 in
  List.iter (fun (v : Var.t) -> Hashtbl.replace s v.Var.vid ()) vars;
  s

(* Summarise one function for every spec; [find k callee] is the callee's
   entry for spec [k].  VF1 and the per-parameter reach sets depend only
   on [follow_operands]: by induction over the bottom-up order, every
   table of one mode holds the same VF1 facts for the same callees, so the
   reach sets are computed once per mode against the first spec of that
   mode.  VF2–VF4 then read each spec's own sources, sinks and callee
   facts. *)
let summarise (specs : spec array) ~find seg : fsum array =
  let f = Seg.func seg in
  let cx = fctx seg in
  let params = Array.of_list f.Func.params in
  let modes = Hashtbl.create 2 in
  let for_mode k follow =
    match Hashtbl.find_opt modes follow with
    | Some m -> m
    | None ->
      (* [k] is the first spec of this mode *)
      let vf1_of callee = Option.map (fun s -> s.vf1) (find k callee) in
      let param_reach =
        Array.map (fun p -> reach cx ~follow ~vf1_of [ p ]) params
      in
      let vf1 =
        Array.to_list param_reach
        |> List.mapi (fun i0 vars ->
               List.concat_map
                 (fun v -> List.map (fun j -> (i0 + 1, j)) (ret_positions seg v))
                 vars)
        |> List.concat |> List.sort_uniq compare
      in
      let m = (vf1_of, param_reach, vf1) in
      Hashtbl.replace modes follow m;
      m
  in
  Array.mapi
    (fun k (spec : spec) ->
      let follow = spec.follow_operands in
      let vf1_of, param_reach, vf1 = for_mode k follow in
      (* Source variables: the checker's own sources plus receivers that
         are buggy after a call (callee VF2) and actuals buggy after a
         call (callee VF3). *)
      let call_sources =
        Hashtbl.fold
          (fun _ (c : Stmt.call) acc ->
            match find k c.Stmt.callee with
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
          cx.calls []
      in
      let sources = List.map fst (spec.source_vars f) @ call_sources in
      (* Sink-consuming variables: the checker's sinks plus actuals whose
         callee has VF4 on that parameter. *)
      let sinks =
        List.filter_map
          (fun (u : Seg.use) ->
            if spec.is_sink_use seg u then Some u.Seg.uvar
            else
              match u.Seg.ukind with
              | Seg.Call_arg { callee; arg_index } -> (
                match find k callee with
                | Some cs when List.mem (arg_index + 1) cs.vf4 ->
                  Some u.Seg.uvar
                | _ -> None)
              | _ -> None)
          (Seg.uses seg)
        |> vid_set
      in
      let source_set = vid_set sources in
      let params_meeting set =
        List.filter_map
          (fun i0 ->
            if
              List.exists
                (fun (v : Var.t) -> Hashtbl.mem set v.Var.vid)
                param_reach.(i0)
            then Some (i0 + 1)
            else None)
          (List.init (Array.length params) Fun.id)
      in
      (* VF2: sources reaching return positions. *)
      let vf2 =
        match sources with
        | [] -> []
        | _ ->
          reach cx ~follow ~vf1_of sources
          |> List.concat_map (ret_positions seg)
          |> List.sort_uniq compare
      in
      { vf1; vf2; vf3 = params_meeting source_set; vf4 = params_meeting sinks })
    specs

let fold (t : t) ~init ~f = Hashtbl.fold (fun name s acc -> f acc name s) t init
let add (t : t) name s = Hashtbl.replace t name s
let remove (t : t) name = Hashtbl.remove t name

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
