open Pinpoint_ir
module Pta = Pinpoint_pta.Pta

type iface = {
  ref_paths : (int * int * Var.t) list;
  mod_paths : (int * int * Var.t) list;
  has_orig_ret : bool;
}

type result = {
  ifaces : (string, iface) Hashtbl.t;
  ptas : (string, Pta.t) Hashtbl.t;
}

let max_conduits = ref 64

let nth_param (f : Func.t) idx = List.nth_opt f.Func.params (idx - 1)

(* Rewrite the call sites in [f] whose callee interface is known.
   [iface_of] abstracts the interface table so the parallel driver can
   route lookups through a per-SCC overlay + locked shared table. *)
let rewrite_calls (f : Func.t) (iface_of : string -> iface option) =
  Func.iter_blocks f (fun blk ->
      let stmts' =
        List.concat_map
          (fun (s : Stmt.t) ->
            match s.Stmt.kind with
            | Stmt.Call c -> (
              match iface_of c.Stmt.callee with
              | None -> [ s ]
              | Some iface ->
                let before = ref [] and after = ref [] in
                let orig_args = c.Stmt.args in
                (* Fig. 3b: A_i <- *(u_j, k) for each callee REF path. *)
                List.iter
                  (fun (j, k, _fvar) ->
                    match List.nth_opt orig_args (j - 1) with
                    | Some (Stmt.Ovar u) when Ty.deref_k u.Var.ty k <> None ->
                      let ty =
                        match Ty.deref_k u.Var.ty k with
                        | Some t -> t
                        | None -> assert false
                      in
                      let a =
                        Var.make f.Func.vgen
                          ~kind:(Var.Aux_actual { arg_index = j })
                          (Printf.sprintf "A%d_%d" j k)
                          ty
                      in
                      before :=
                        Stmt.make f.Func.sgen ~loc:s.Stmt.loc
                          (Stmt.Load (a, Stmt.Ovar u, k))
                        :: !before;
                      c.Stmt.args <- c.Stmt.args @ [ Stmt.Ovar a ]
                    | _ ->
                      (* Non-variable actual (e.g. null): pass a dummy so the
                         arity still matches; the callee's F stays free. *)
                      c.Stmt.args <- c.Stmt.args @ [ Stmt.Oint 0 ])
                  iface.ref_paths;
                (* Fig. 3b: *(u_q, r) <- C_p for each callee MOD path. *)
                let orig_recv =
                  if iface.has_orig_ret then List.nth_opt c.Stmt.recvs 0 else None
                in
                List.iteri
                  (fun p (q, r, rvar) ->
                    let base =
                      if q = 0 then Option.map (fun v -> Stmt.Ovar v) orig_recv
                      else
                        match List.nth_opt orig_args (q - 1) with
                        | Some (Stmt.Ovar u) when Ty.deref_k u.Var.ty r <> None ->
                          Some (Stmt.Ovar u)
                        | _ -> None
                    in
                    let cv =
                      Var.make f.Func.vgen
                        ~kind:(Var.Aux_receiver { ret_index = p })
                        (Printf.sprintf "C%d_%d" q r)
                        rvar.Var.ty
                    in
                    c.Stmt.recvs <- c.Stmt.recvs @ [ cv ];
                    match base with
                    | Some b ->
                      after :=
                        Stmt.make f.Func.sgen ~loc:s.Stmt.loc
                          (Stmt.Store (b, r, Stmt.Ovar cv))
                        :: !after
                    | None -> ())
                  iface.mod_paths;
                List.rev !before @ [ s ] @ List.rev !after)
            | _ -> [ s ])
          blk.Func.stmts
      in
      blk.Func.stmts <- stmts')

(* Expose [f]'s own side effects on its interface (Fig. 3a). *)
let expose_side_effects (f : Func.t) (pta : Pta.t) : iface =
  (* REF paths must include every formal-rooted MOD path: the exit load of
     a conditionally-modified location reads its incoming value. *)
  let formal_mods = List.filter (fun (root, _) -> root >= 1) pta.Pta.mods in
  let refs =
    List.sort_uniq compare (pta.Pta.refs @ formal_mods)
    |> List.filter (fun (_, d) -> d <= !Pta.max_depth)
  in
  let mods = List.sort_uniq compare pta.Pta.mods in
  let refs, mods =
    (* Conduit cap (summary explosion guard). *)
    let take n l = List.filteri (fun i _ -> i < n) l in
    (take !max_conduits refs, take !max_conduits mods)
  in
  (* Aux formal parameters + entry stores, shallow paths first. *)
  let ref_paths =
    List.filter_map
      (fun (j, k) ->
        match nth_param f j with
        | Some p when p.Var.kind = Var.Formal -> (
          match Ty.deref_k p.Var.ty k with
          | Some ty ->
            let fv =
              Var.make f.Func.vgen
                ~kind:(Var.Aux_formal { root = p; depth = k })
                (Printf.sprintf "F%d_%d" j k)
                ty
            in
            Some (j, k, fv)
          | None -> None)
        | _ -> None)
      refs
  in
  let by_depth (_, d1, _) (_, d2, _) = Int.compare d1 d2 in
  List.iter
    (fun (j, k, fv) ->
      match nth_param f j with
      | Some p ->
        f.Func.params <- f.Func.params @ [ fv ];
        Func.prepend_entry f
          (Stmt.make f.Func.sgen (Stmt.Store (Stmt.Ovar p, k, Stmt.Ovar fv)))
      | None -> ())
    (* prepend_entry reverses order, so insert deepest first *)
    (List.rev (List.sort by_depth ref_paths));
  (* Aux return values + exit loads + extended return. *)
  let ret_stmt = Func.return_stmt f in
  let ret_root_var =
    match ret_stmt with
    | Some { Stmt.kind = Stmt.Return (Stmt.Ovar v :: _); _ } -> Some v
    | _ -> None
  in
  let mod_paths =
    List.filter_map
      (fun (q, r) ->
        let root =
          if q = 0 then ret_root_var
          else
            match nth_param f q with
            | Some p when p.Var.kind = Var.Formal -> Some p
            | _ -> None
        in
        match root with
        | Some rootv -> (
          match Ty.deref_k rootv.Var.ty r with
          | Some ty ->
            let rv =
              Var.make f.Func.vgen
                ~kind:(Var.Aux_return { root = rootv; depth = r })
                (Printf.sprintf "R%d_%d" q r)
                ty
            in
            Some (q, r, rv, rootv)
          | None -> None)
        | None -> None)
      mods
  in
  (* Insert the exit loads just before the Return statement. *)
  (match ret_stmt with
  | Some ret ->
    let exit_blk = Func.block f f.Func.exit_ in
    let loads =
      List.map
        (fun (_, r, rv, rootv) ->
          Stmt.make f.Func.sgen (Stmt.Load (rv, Stmt.Ovar rootv, r)))
        mod_paths
    in
    let rec insert = function
      | [] -> loads @ [ ret ]
      | s :: rest when Stmt.equal s ret -> loads @ (s :: rest)
      | s :: rest -> s :: insert rest
    in
    exit_blk.Func.stmts <-
      insert (List.filter (fun s -> not (List.memq s loads)) exit_blk.Func.stmts);
    (match ret.Stmt.kind with
    | Stmt.Return ops ->
      ret.Stmt.kind <-
        Stmt.Return (ops @ List.map (fun (_, _, rv, _) -> Stmt.Ovar rv) mod_paths)
    | _ -> ())
  | None -> ());
  {
    ref_paths;
    mod_paths = List.map (fun (q, r, rv, _) -> (q, r, rv)) mod_paths;
    has_orig_ret = f.Func.ret_ty <> None;
  }

module R = Pinpoint_util.Resilience

(* One unit of bottom-up work: both stages for every member of one SCC.
   Within an SCC, a member processed earlier publishes its interface for
   later members (mutual recursion keeps only the not-yet-seen calls
   un-rewritten); [iface_of]/[put_iface]/[put_pta] route publication
   through the batch's overlay, so the within-SCC processing order, and
   thus every id and formula, is the same at every [--jobs] level.  Each
   per-function unit runs inside an exception barrier: a crash leaves that
   function without an interface (callers treat it as unknown, soundy)
   instead of killing the whole pipeline. *)
let process_scc ?resilience ~iface_of ~put_iface ~put_pta (scc : Func.t list) =
  List.iter
    (fun (f : Func.t) ->
      R.protect ?log:resilience ~phase:R.Transform ~subject:f.Func.fname
        ~fallback_note:"function left untransformed (unknown interface)"
        ~fallback:()
        (fun () ->
          rewrite_calls f iface_of;
          let pta1 =
            Pinpoint_obs.Obs.span "pta"
              ~attrs:[ ("fn", f.Func.fname); ("stage", "discover") ]
              (fun () -> Pta.run f)
          in
          let iface = expose_side_effects f pta1 in
          put_iface f.Func.fname iface))
    scc;
  (* Second stage per SCC member: final PTA on the transformed body. *)
  List.iter
    (fun (f : Func.t) ->
      R.protect ?log:resilience ~phase:R.Transform ~subject:f.Func.fname
        ~fallback_note:"no points-to result (function gets no SEG)"
        ~fallback:()
        (fun () ->
          let pta2 =
            Pinpoint_obs.Obs.span "pta"
              ~attrs:[ ("fn", f.Func.fname); ("stage", "final") ]
              (fun () -> Pta.run f)
          in
          put_pta f.Func.fname pta2))
    scc

let remove (t : result) name =
  Hashtbl.remove t.ifaces name;
  Hashtbl.remove t.ptas name

(* All [rewrite_calls] reads of an interface: a caller's transformed IR
   depends on its callees' interfaces only through this shape. *)
let same_shape (a : iface) (b : iface) =
  List.equal (fun (j, k, _) (j', k', _) -> j = j' && k = k') a.ref_paths b.ref_paths
  && List.equal
       (fun (q, r, (v : Var.t)) (q', r', (v' : Var.t)) ->
         q = q' && r = r' && Ty.equal v.Var.ty v'.Var.ty)
       a.mod_paths b.mod_paths
  && a.has_orig_ret = b.has_orig_ret

(* The bottom-up transform walk (DESIGN.md §4.13), the whole-program run
   and the analysis server's incremental one alike.  An SCC is
   (re)transformed when [stale] says so or when a callee outside it
   changed its interface shape earlier in this walk; [relower] then gives
   each member fresh, untransformed IR, the members' old entries are
   dropped, and the SCC is processed.  Every other SCC keeps its
   transformed IR and entries.  Dropping an SCC's entries before
   processing it makes a same-SCC member not yet processed look unknown,
   exactly as in a from-scratch run; with that, induction over the
   bottom-up order gives interfaces and points-to results identical to a
   full [run] on the same program.

   One batch of simultaneously-ready (hence mutually independent)
   components at a time (DESIGN.md §4.15): under one lock the batch
   decides each SCC, drops the entries of those it redoes and prefetches
   the published interfaces and shape marks of its callees; it then works
   on a local interface overlay and flushes its interfaces, points-to
   results and marks under the lock again.  A callee is either in the
   same SCC (overlay), in a completed component (prefetch cache; the
   batch can't depend on a sibling batch member because
   simultaneously-ready components form an antichain), or unknown — the
   locked fallback lookup is only a safety net and never hits.  Without a
   pool every batch is one SCC, so decisions read only callee marks and
   come out the same at every [--jobs].  Store mode ([pta_sink]) streams
   each SCC's points-to results to the sink as it finishes, so it runs
   without the pool: resident memory stays one SCC's worth. *)
let update ?resilience ?pool ?pta_sink (t : result) (graph : Callgraph.t)
    ~stale ~relower (sccs : Func.t list list) =
  let callees = Callgraph.callees graph in
  let pool, put_pta =
    match pta_sink with
    | Some sink -> (None, sink)
    | None -> (pool, Hashtbl.replace t.ptas)
  in
  let lock = Mutex.create () in
  let reshaped = Hashtbl.create 16 and redone = ref [] in
  Pinpoint_par.Sched.run_sccs ?pool ~weight:Func.n_stmts
    ~name:(fun (f : Func.t) -> f.Func.fname)
    ~callees sccs
    (fun batch ->
      let overlay : (string, iface) Hashtbl.t = Hashtbl.create 16 in
      let cache : (string, iface) Hashtbl.t = Hashtbl.create 64 in
      let plans =
        Mutex.protect lock (fun () ->
            let plans =
              List.filter_map
                (fun (scc : Func.t list) ->
                  let inside name =
                    List.exists (fun (f : Func.t) -> f.Func.fname = name) scc
                  in
                  if
                    stale scc
                    || List.exists
                         (fun c -> (not (inside c)) && Hashtbl.mem reshaped c)
                         (callees scc)
                  then
                    Some
                      (List.map
                         (fun (f : Func.t) ->
                           let old = Hashtbl.find_opt t.ifaces f.Func.fname in
                           remove t f.Func.fname;
                           (f, old))
                         scc)
                  else None)
                batch
            in
            List.iter
              (fun name ->
                Option.iter (Hashtbl.replace cache name)
                  (Hashtbl.find_opt t.ifaces name))
              (callees (List.concat_map (List.map fst) plans));
            plans)
      in
      let batch_ptas = ref [] and batch_redone = ref [] in
      List.iter
        (fun plan ->
          let fresh = List.map (fun (f, _) -> relower f) plan in
          process_scc ?resilience
            ~iface_of:(fun name ->
              match Hashtbl.find_opt overlay name with
              | Some _ as r -> r
              | None -> (
                match Hashtbl.find_opt cache name with
                | Some _ as r -> r
                | None ->
                  Mutex.protect lock (fun () -> Hashtbl.find_opt t.ifaces name)))
            ~put_iface:(Hashtbl.replace overlay)
            ~put_pta:(fun name pta -> batch_ptas := (name, pta) :: !batch_ptas)
            fresh;
          batch_redone := List.rev_append fresh !batch_redone)
        plans;
      let same name old =
        match (old, Hashtbl.find_opt overlay name) with
        | Some a, Some b -> same_shape a b
        | None, None -> true
        | _ -> false
      in
      Mutex.protect lock (fun () ->
          List.iter
            (List.iter (fun ((f : Func.t), old) ->
                 if not (same f.Func.fname old) then
                   Hashtbl.replace reshaped f.Func.fname ()))
            plans;
          Hashtbl.iter (Hashtbl.replace t.ifaces) overlay;
          List.iter (fun (name, pta) -> put_pta name pta) (List.rev !batch_ptas);
          redone := List.rev_append !batch_redone !redone));
  !redone

let run ?resilience ?pool ?pta_sink (graph : Callgraph.t) : result =
  let t = { ifaces = Hashtbl.create 64; ptas = Hashtbl.create 64 } in
  ignore
    (update ?resilience ?pool ?pta_sink t graph ~stale:(fun _ -> true)
       ~relower:Fun.id (Callgraph.sccs graph));
  t

let pp_iface ppf i =
  Format.fprintf ppf "refs: %a; mods: %a%s"
    (Pinpoint_util.Pp.list (fun ppf (j, k, v) ->
         Format.fprintf ppf "*(p%d,%d)->%s" j k v.Var.name))
    i.ref_paths
    (Pinpoint_util.Pp.list (fun ppf (q, r, v) ->
         Format.fprintf ppf "*(%s,%d)->%s"
           (if q = 0 then "ret" else Printf.sprintf "p%d" q)
           r v.Var.name))
    i.mod_paths
    (if i.has_orig_ret then " (+ret)" else "")
