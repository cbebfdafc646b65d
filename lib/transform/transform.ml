open Pinpoint_ir
module Pta = Pinpoint_pta.Pta

type iface = {
  ref_paths : (int * int * Var.t) list;
  mod_paths : (int * int * Var.t) list;
  has_orig_ret : bool;
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
  let discovered =
    List.map
      (fun (f : Func.t) ->
        R.protect ?log:resilience ~phase:R.Transform ~subject:f.Func.fname
          ~fallback_note:"function left untransformed (unknown interface)"
          ~fallback:None
          (fun () ->
            rewrite_calls f iface_of;
            let pta1 =
              Pinpoint_obs.Obs.span "pta"
                ~attrs:[ ("fn", f.Func.fname); ("stage", "discover") ]
                (fun () -> Pta.run f)
            in
            let iface = expose_side_effects f pta1 in
            put_iface f.Func.fname iface;
            (* No REF and no MOD path: no parameter, entry store or exit
               load was added, so the body is the one [pta1] analysed. *)
            if iface.ref_paths = [] && iface.mod_paths = [] then Some pta1
            else None))
      scc
  in
  (* Second stage per SCC member: final PTA on the transformed body, or
     the discovery result where the body did not change. *)
  List.iter2
    (fun (f : Func.t) pta1 ->
      R.protect ?log:resilience ~phase:R.Transform ~subject:f.Func.fname
        ~fallback_note:"no points-to result (function gets no SEG)"
        ~fallback:()
        (fun () ->
          let pta2 =
            match pta1 with
            | Some pta -> pta
            | None ->
              Pinpoint_obs.Obs.span "pta"
                ~attrs:[ ("fn", f.Func.fname); ("stage", "final") ]
                (fun () -> Pta.run f)
          in
          put_pta f.Func.fname pta2))
    scc discovered

(* All [rewrite_calls] reads of an interface: a caller's transformed IR
   depends on its callees' interfaces only through this shape. *)
let same_shape (a : iface) (b : iface) =
  List.equal (fun (j, k, _) (j', k', _) -> j = j' && k = k') a.ref_paths b.ref_paths
  && List.equal
       (fun (q, r, (v : Var.t)) (q', r', (v' : Var.t)) ->
         q = q' && r = r' && Ty.equal v.Var.ty v'.Var.ty)
       a.mod_paths b.mod_paths
  && a.has_orig_ret = b.has_orig_ret

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
