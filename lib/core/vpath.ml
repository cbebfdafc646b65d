open Pinpoint_ir
module E = Pinpoint_smt.Expr
module Seg = Pinpoint_seg.Seg
module Rv = Pinpoint_summary.Rv
module Clone = Pinpoint_summary.Clone

type hop =
  | Hsource of { fname : string; var : Var.t; sid : int }
  | Hflow of { fname : string; src : Var.t; dst : Var.t; cond : E.t; kind : Seg.ekind }
  | Hcall of {
      caller : string;
      call_sid : int;
      callee : string;
      arg_index : int;
      param : Var.t;
      args : Stmt.operand list;
    }
  | Hret of {
      callee : string;
      ret_var : Var.t;
      ret_index : int;
      caller : string;
      call_sid : int;
      recv : Var.t;
      args : Stmt.operand list;
      popped : bool;
    }
  | Hparam_up of {
      callee : string;
      param : Var.t;
      caller : string;
      call_sid : int;
      actual : Var.t;
      args : Stmt.operand list;
    }
  | Hsink of { fname : string; var : Var.t; sid : int }

type t = hop list

type frame = { fname : string; seg : Seg.t; clone : Clone.t }

(* The frame counter is per-[condition] call (threaded, not global): frame
   tags must depend only on the path being conditioned, so concurrent
   per-source searches produce the same clone names as a sequential run. *)
let new_frame counter seg_of fname =
  incr counter;
  match seg_of fname with
  | Some seg ->
    Some { fname; seg; clone = Clone.create (Printf.sprintf "%s_f%d" fname !counter) }
  | None -> None

(* Close a constraint against the RV summaries, then clone it into the
   frame. *)
let closed_in rv (fr : frame) (cres : Seg.cres) : E.t =
  let f, _params = Rv.close rv fr.seg cres in
  Clone.subst fr.clone f

let add_cd rv fr acc sid = E.and_ acc (closed_in rv fr (Seg.cd_stmt fr.seg sid))

let add_formula rv fr acc formula =
  (* the formula itself plus the DD closure of its variables *)
  let dd = closed_in rv fr (Seg.dd_expr fr.seg formula) in
  E.and_ acc (E.and_ (Clone.subst fr.clone formula) dd)

let condition ~seg_of ~rv (path : t) : E.t =
  let frame_counter = ref 0 in
  let acc = ref E.tru in
  let stack : frame list ref = ref [] in
  let push fname =
    match new_frame frame_counter seg_of fname with
    | Some fr -> stack := fr :: !stack
    | None -> ()
  in
  let cur () = match !stack with fr :: _ -> Some fr | [] -> None in
  List.iter
    (fun hop ->
      match hop with
      | Hsource { fname; sid; _ } -> (
        push fname;
        match cur () with
        | Some fr -> acc := add_cd rv fr !acc sid
        | None -> ())
      | Hflow { src; dst; cond; kind; _ } -> (
        match cur () with
        | Some fr ->
          acc := add_formula rv fr !acc cond;
          (match kind with
          | Seg.Copy ->
            acc :=
              E.and_ !acc
                (Clone.subst fr.clone (E.eq (Var.term dst) (Var.term src)))
          | Seg.Operand ->
            (* the operator's defining constraint relates dst to src *)
            acc := E.and_ !acc (closed_in rv fr (Seg.dd fr.seg dst)));
          (match Seg.def_of fr.seg dst with
          | Some s -> acc := add_cd rv fr !acc s.Stmt.sid
          | None -> ())
        | None -> ())
      | Hcall { callee; call_sid; args; _ } -> (
        let caller_fr = cur () in
        push callee;
        match (cur (), caller_fr) with
        | Some callee_fr, Some caller_fr when callee_fr != caller_fr ->
          (* the call statement itself must be reachable *)
          acc := add_cd rv caller_fr !acc call_sid;
          (* bind callee formals to (cloned) actual terms *)
          List.iteri
            (fun i (p : Var.t) ->
              match List.nth_opt args i with
              | Some actual ->
                Clone.bind callee_fr.clone (Var.symbol p)
                  (Clone.subst caller_fr.clone (Stmt.operand_term actual));
                (* the actual's own data dependence, in the caller frame *)
                (match actual with
                | Stmt.Ovar av ->
                  acc :=
                    E.and_ !acc (closed_in rv caller_fr (Seg.dd caller_fr.seg av))
                | _ -> ())
              | None -> ())
            (Seg.func callee_fr.seg).Func.params
        | _ -> ())
      | Hret { ret_var; caller; call_sid; recv; args; popped; _ } -> (
        let callee_fr = cur () in
        (match callee_fr with
        | Some fr ->
          (* the return is reachable under the callee frame *)
          (match Seg.def_of fr.seg ret_var with
          | Some s -> acc := add_cd rv fr !acc s.Stmt.sid
          | None -> ())
        | None -> ());
        stack := (match !stack with _ :: rest -> rest | [] -> []);
        if not popped then push caller;
        match (cur (), callee_fr) with
        | Some caller_fr, Some callee_fr ->
          acc := add_cd rv caller_fr !acc call_sid;
          acc :=
            E.and_ !acc
              (E.eq
                 (Clone.subst caller_fr.clone (Var.term recv))
                 (Clone.subst callee_fr.clone (Var.term ret_var)));
          (* On bottom-up expansion, relate the callee's formals to the
             actuals we just discovered (the callee frame may already have
             cloned them, so use equalities rather than bindings). *)
          if not popped then
            List.iteri
              (fun i (p : Var.t) ->
                match List.nth_opt args i with
                | Some actual ->
                  acc :=
                    E.and_ !acc
                      (E.eq
                         (Clone.subst callee_fr.clone (Var.term p))
                         (Clone.subst caller_fr.clone (Stmt.operand_term actual)))
                | None -> ())
              (Seg.func callee_fr.seg).Func.params
        | _ -> ())
      | Hparam_up { param; caller; call_sid; actual; args; _ } -> (
        let callee_fr = cur () in
        stack := (match !stack with _ :: rest -> rest | [] -> []);
        push caller;
        match (cur (), callee_fr) with
        | Some caller_fr, Some callee_fr ->
          (* the call statement is reachable in the caller *)
          acc := add_cd rv caller_fr !acc call_sid;
          (* the actual the value rode in on *)
          acc :=
            E.and_ !acc
              (E.eq
                 (Clone.subst callee_fr.clone (Var.term param))
                 (Clone.subst caller_fr.clone (Var.term actual)));
          (* relate the other formals to their actuals too *)
          List.iteri
            (fun i (p : Var.t) ->
              match List.nth_opt args i with
              | Some a ->
                acc :=
                  E.and_ !acc
                    (E.eq
                       (Clone.subst callee_fr.clone (Var.term p))
                       (Clone.subst caller_fr.clone (Stmt.operand_term a)))
              | None -> ())
            (Seg.func callee_fr.seg).Func.params
        | _ -> ())
      | Hsink { sid; var; _ } -> (
        match cur () with
        | Some fr ->
          acc := add_cd rv fr !acc sid;
          acc := E.and_ !acc (closed_in rv fr (Seg.dd fr.seg var))
        | None -> ()))
    path;
  !acc

(* ------------------------------------------------------------------ *)
(* Incremental path-condition builder (DESIGN.md §4.10).

   [condition] above rebuilds PC(π) from scratch for every candidate; the
   builder instead threads the condition through the engine's DFS,
   extending it hop by hop and restoring an O(1) checkpoint on backtrack,
   so the condition is already assembled when a sink is reached.

   The frame counter lives in the builder and is restored on backtrack, so
   at any emit point the frame tags are exactly the tags the one-shot
   [condition] would assign to that path — with clone interning
   (see {!Pinpoint_summary.Clone}) the two build structurally equal
   conditions over the same clone symbols. *)
module Cond = struct
  type checkpoint = {
    c_conjs : E.t list;
    c_frames : frame list;
    c_counter : int;
  }

  type builder = {
    seg_of : string -> Seg.t option;
    rv : Rv.t;
    mutable conjs : E.t list;  (** collected conjuncts, newest first *)
    mutable frames : frame list;
    mutable counter : int;
  }

  type nonrec t = builder

  let create ~seg_of ~rv () = { seg_of; rv; conjs = []; frames = []; counter = 0 }

  (* Checkpoints are O(1): the conjunct list and frame stack are
     persistent, and frames mutated after the checkpoint only gain
     idempotent clone-cache entries (bindings happen exclusively on frames
     created after the checkpoint, which restore discards). *)
  let checkpoint b =
    { c_conjs = b.conjs; c_frames = b.frames; c_counter = b.counter }

  let restore b cp =
    b.conjs <- cp.c_conjs;
    b.frames <- cp.c_frames;
    b.counter <- cp.c_counter

  let add b e = if not (E.is_true e) then b.conjs <- e :: b.conjs

  (* Mirrors [new_frame]: the counter advances even when the function has
     no SEG, so tags stay aligned with the one-shot builder. *)
  let push b fname =
    b.counter <- b.counter + 1;
    match b.seg_of fname with
    | Some seg ->
      b.frames <-
        {
          fname;
          seg;
          clone = Clone.create (Printf.sprintf "%s_f%d" fname b.counter);
        }
        :: b.frames
    | None -> ()

  let pop b = b.frames <- (match b.frames with _ :: rest -> rest | [] -> [])
  let cur b = match b.frames with fr :: _ -> Some fr | [] -> None
  let add_cd b fr sid = add b (closed_in b.rv fr (Seg.cd_stmt fr.seg sid))

  let add_formula b fr formula =
    add b (Clone.subst fr.clone formula);
    add b (closed_in b.rv fr (Seg.dd_expr fr.seg formula))

  (* One hop's contribution — a transliteration of the [condition] loop
     body onto the builder's mutable state. *)
  let extend b hop =
    match hop with
    | Hsource { fname; sid; _ } -> (
      push b fname;
      match cur b with Some fr -> add_cd b fr sid | None -> ())
    | Hflow { src; dst; cond; kind; _ } -> (
      match cur b with
      | Some fr ->
        add_formula b fr cond;
        (match kind with
        | Seg.Copy ->
          add b (Clone.subst fr.clone (E.eq (Var.term dst) (Var.term src)))
        | Seg.Operand -> add b (closed_in b.rv fr (Seg.dd fr.seg dst)));
        (match Seg.def_of fr.seg dst with
        | Some s -> add_cd b fr s.Stmt.sid
        | None -> ())
      | None -> ())
    | Hcall { callee; call_sid; args; _ } -> (
      let caller_fr = cur b in
      push b callee;
      match (cur b, caller_fr) with
      | Some callee_fr, Some caller_fr when callee_fr != caller_fr ->
        add_cd b caller_fr call_sid;
        List.iteri
          (fun i (p : Var.t) ->
            match List.nth_opt args i with
            | Some actual ->
              Clone.bind callee_fr.clone (Var.symbol p)
                (Clone.subst caller_fr.clone (Stmt.operand_term actual));
              (match actual with
              | Stmt.Ovar av ->
                add b (closed_in b.rv caller_fr (Seg.dd caller_fr.seg av))
              | _ -> ())
            | None -> ())
          (Seg.func callee_fr.seg).Func.params
      | _ -> ())
    | Hret { ret_var; caller; call_sid; recv; args; popped; _ } -> (
      let callee_fr = cur b in
      (match callee_fr with
      | Some fr -> (
        match Seg.def_of fr.seg ret_var with
        | Some s -> add_cd b fr s.Stmt.sid
        | None -> ())
      | None -> ());
      pop b;
      if not popped then push b caller;
      match (cur b, callee_fr) with
      | Some caller_fr, Some callee_fr ->
        add_cd b caller_fr call_sid;
        add b
          (E.eq
             (Clone.subst caller_fr.clone (Var.term recv))
             (Clone.subst callee_fr.clone (Var.term ret_var)));
        if not popped then
          List.iteri
            (fun i (p : Var.t) ->
              match List.nth_opt args i with
              | Some actual ->
                add b
                  (E.eq
                     (Clone.subst callee_fr.clone (Var.term p))
                     (Clone.subst caller_fr.clone (Stmt.operand_term actual)))
              | None -> ())
            (Seg.func callee_fr.seg).Func.params
      | _ -> ())
    | Hparam_up { param; caller; call_sid; actual; args; _ } -> (
      let callee_fr = cur b in
      pop b;
      push b caller;
      match (cur b, callee_fr) with
      | Some caller_fr, Some callee_fr ->
        add_cd b caller_fr call_sid;
        add b
          (E.eq
             (Clone.subst callee_fr.clone (Var.term param))
             (Clone.subst caller_fr.clone (Var.term actual)));
        List.iteri
          (fun i (p : Var.t) ->
            match List.nth_opt args i with
            | Some a ->
              add b
                (E.eq
                   (Clone.subst callee_fr.clone (Var.term p))
                   (Clone.subst caller_fr.clone (Stmt.operand_term a)))
            | None -> ())
          (Seg.func callee_fr.seg).Func.params
      | _ -> ())
    | Hsink { sid; var; _ } -> (
      match cur b with
      | Some fr ->
        add_cd b fr sid;
        add b (closed_in b.rv fr (Seg.dd fr.seg var))
      | None -> ())

  let formula b = E.conj_balanced b.conjs

  let of_path ~seg_of ~rv (path : hop list) =
    let b = create ~seg_of ~rv () in
    List.iter (fun h -> extend b h) path;
    b
end

let pp ppf (path : t) =
  List.iter
    (fun hop ->
      match hop with
      | Hsource { fname; var; sid } ->
        Format.fprintf ppf "  source  %s: %s@@s%d@." fname var.Var.name sid
      | Hflow { fname; src; dst; cond; _ } ->
        if E.is_true cond then
          Format.fprintf ppf "  flow    %s: %s -> %s@." fname src.Var.name
            dst.Var.name
        else
          Format.fprintf ppf "  flow    %s: %s -> %s  [%a]@." fname src.Var.name
            dst.Var.name E.pp cond
      | Hcall { caller; callee; call_sid; param; _ } ->
        Format.fprintf ppf "  call    %s -> %s(%s)@@s%d@." caller callee
          param.Var.name call_sid
      | Hret { callee; caller; recv; ret_var; call_sid; popped; _ } ->
        Format.fprintf ppf "  %s  %s: %s -> %s:%s@@s%d@."
          (if popped then "return" else "expand")
          callee ret_var.Var.name caller recv.Var.name call_sid
      | Hparam_up { callee; param; caller; actual; call_sid; _ } ->
        Format.fprintf ppf "  dangles %s(%s) -> %s:%s@@s%d@." callee
          param.Var.name caller actual.Var.name call_sid
      | Hsink { fname; var; sid } ->
        Format.fprintf ppf "  sink    %s: %s@@s%d@." fname var.Var.name sid)
    path

let source_sink (path : t) =
  let src = ref None and snk = ref None in
  List.iter
    (fun hop ->
      match hop with
      | Hsource { fname; sid; _ } -> if !src = None then src := Some (fname, sid)
      | Hsink { fname; sid; _ } -> snk := Some (fname, sid)
      | _ -> ())
    path;
  (!src, !snk)
