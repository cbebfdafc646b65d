module Metrics = Pinpoint_util.Metrics
module Resilience = Pinpoint_util.Resilience
module Func = Pinpoint_ir.Func
module Prog = Pinpoint_ir.Prog
module Callgraph = Pinpoint_ir.Callgraph
module Seg = Pinpoint_seg.Seg
module Transform = Pinpoint_transform.Transform
module Rv = Pinpoint_summary.Rv
module Vf = Pinpoint_summary.Vf
module Obs = Pinpoint_obs.Obs
module Store = Pinpoint_store.Store

type phase_metrics = {
  frontend : Metrics.measurement;
  prepare : Metrics.measurement;
}

type t = {
  prog : Prog.t;
  graph : Callgraph.t;
  ifaces : (string, Transform.iface) Hashtbl.t;
  rv : Rv.t;
  metrics : phase_metrics;
  resilience : Resilience.log;
  pool : Pinpoint_par.Pool.t option;
      (* carried so [check] fans its per-source searches out too *)
  store : Store.t;  (* every SEG and RV entry *)
  vfs : (string, Checker_spec.t * Vf.t) Hashtbl.t;
}

let seg_of t = Store.seg_of t.store
let incidents t = Resilience.incidents t.resilience

(* Build one function's SEG from its PTA behind an exception barrier,
   consulting the fault injector: a dropped SEG is skipped outright, a
   truncated one keeps only half of each vertex's out-edges, a crash is
   raised inside the barrier so it lands in the incident log like any
   organic crash. *)
let build_seg log (f : Func.t) pta : Seg.t option =
  let fname = f.Func.fname in
  Resilience.protect ~log ~phase:Resilience.Seg_build ~subject:fname
    ~fallback_note:"function gets no SEG" ~fallback:None
  @@ fun () ->
  let incident detail fallback =
    Resilience.record log
      {
        Resilience.phase = Resilience.Seg_build;
        subject = fname;
        detail;
        fallback;
        elapsed_s = 0.0;
      }
  in
  match
    if Resilience.Inject.enabled () then Resilience.Inject.seg_fault fname
    else None
  with
  | Some Resilience.Inject.Seg_drop ->
    incident "injected: seg-drop" "function gets no SEG";
    None
  | Some Resilience.Inject.Seg_crash -> raise Resilience.Injected_crash
  | fault -> (
    let seg = Seg.build f pta in
    match fault with
    | Some Resilience.Inject.Seg_truncate ->
      incident "injected: seg-truncate" "SEG truncated to half of its out-edges";
      Some (Seg.truncate seg ~keep:0.5)
    | _ -> Some seg)

let build_seg log f pta =
  Obs.span "seg.build"
    ~attrs:[ ("fn", f.Func.fname) ]
    (fun () -> build_seg log f pta)

let empty_vfs () =
  let vfs = Hashtbl.create 8 in
  List.iter
    (fun (c : Checker_spec.t) ->
      Hashtbl.replace vfs c.Checker_spec.name (c, Vf.empty ()))
    Checkers.all;
  vfs

type swept = {
  redone : Func.t list;
  resummarised : int;
  summaries_changed : string list;
}

(* The one bottom-up walk (DESIGN.md §4.5, §4.13).  Per SCC: transform
   the members ([Transform.process_scc]: rewrite calls, discover PTA,
   expose side effects, final PTA), build each member's SEG from the PTA
   it was just handed — the PTA is garbage from then on — then compute
   their RV entries in member order, then their VF entries for every
   registered checker in member order, each member publishing before the
   next runs, and only then put the SEGs in the store.  A function's
   summaries need only its own SEG, just built,
   and its callees' summaries, so summarising reads no SEG back.  An
   SCC's old entries are dropped just before it is redone, so a same-SCC
   member not yet done looks unknown, as in a from-scratch run.

   An SCC is re-transformed, and its SEGs rebuilt, when [stale] says so
   or when a callee outside it changed its interface shape
   ({!Transform.same_shape}) earlier in this walk; [relower] then gives
   each member fresh, untransformed IR.  It is re-summarised — RV and VF
   from the members' retained SEGs — when a callee outside it changed its
   RV or VF entries earlier in this walk, or when [before] lists one of
   its members; it is skipped otherwise.  [before] (the server's
   incremental update) maps a function replaced before the walk to the
   function it replaced and that one's RV entries.  With it, each redone
   member's new entries are compared with its old ones — those [before]
   gives, or else what the member was when the walk reached it — RV
   modulo renaming ({!Rv.equal_entries}), VF structurally, to mark what
   changed for its callers.  Decisions read only callee marks, and
   callees finish first, so they are the same at every [--jobs].

   Each batch of SCCs ({!Pinpoint_par.Sched.run_sccs}; one SCC without a
   pool) plans its SCCs and drops their old entries under one lock, keeps
   its interfaces, RV and VF entries in overlays, reads everything else
   from the shared tables under the lock, and publishes its entries,
   marks and SEGs in one locked flush.  A store that bounds residency
   walks without the pool: one SCC's PTAs and SEGs in flight keep the
   heap bounded by its LRU. *)
let sweep ?(stale = fun _ -> true) ?(relower = Fun.id) ?before t sccs =
  Obs.span "summary" @@ fun () ->
  let { graph; ifaces; rv; resilience; store; vfs; _ } = t in
  let checkers = Array.of_list Checkers.all in
  let specs = Array.map Checker_spec.vf_spec checkers in
  let tables =
    Array.map
      (fun (c : Checker_spec.t) -> snd (Hashtbl.find vfs c.Checker_spec.name))
      checkers
  in
  let pool = if Store.bounded store then None else t.pool in
  let callees = Callgraph.callees graph in
  let listed (scc : Func.t list) =
    match before with
    | None -> false
    | Some b -> List.exists (fun (f : Func.t) -> Hashtbl.mem b f.Func.fname) scc
  in
  let lock = Mutex.create () in
  let reshaped = Hashtbl.create 16 and changed = Hashtbl.create 16 in
  let redone = ref [] and resummarised = ref 0 in
  Pinpoint_par.Sched.run_sccs ?pool ~weight:Func.n_stmts
    ~name:(fun (f : Func.t) -> f.Func.fname)
    ~callees sccs
    (fun batch ->
      let iface_overlay = Hashtbl.create 16 and iface_cache = Hashtbl.create 64 in
      let rv_overlay = Hashtbl.create 16 and vf_overlay = Hashtbl.create 16 in
      let shared find name = Mutex.protect lock (fun () -> find name) in
      (* A callee is in the same SCC (overlay), in a completed component
         (prefetched), or unknown: simultaneously ready components are
         independent, so the locked fallback never hits. *)
      let iface_of name =
        match Hashtbl.find_opt iface_overlay name with
        | Some _ as r -> r
        | None -> (
          match Hashtbl.find_opt iface_cache name with
          | Some _ as r -> r
          | None -> shared (Hashtbl.find_opt ifaces) name)
      in
      let rv_lookup name =
        match Hashtbl.find_opt rv_overlay name with
        | Some _ as r -> r
        | None -> shared (Rv.find rv) name
      in
      let vf_find k name =
        match Hashtbl.find_opt vf_overlay name with
        | Some sums -> Some sums.(k)
        | None -> shared (Vf.find tables.(k)) name
      in
      (* A member's interface from before it is redone and, with
         [before], its function, RV entries and VF entries too. *)
      let was (f : Func.t) =
        let name = f.Func.fname in
        ( Hashtbl.find_opt ifaces name,
          Option.map
            (fun b ->
              let was_f, was_rv =
                match Hashtbl.find_opt b name with
                | Some was -> was
                | None -> (f, Rv.find rv name)
              in
              (was_f, was_rv, Array.map (fun vf -> Vf.find vf name) tables))
            before )
      in
      (* Plan: each SCC to redo, whether it is re-transformed, and its
         members with what they were — read, then dropped. *)
      let plans =
        Mutex.protect lock (fun () ->
            let plans =
              List.filter_map
                (fun (scc : Func.t list) ->
                  let outside =
                    List.filter
                      (fun c ->
                        not
                          (List.exists
                             (fun (f : Func.t) -> f.Func.fname = c)
                             scc))
                      (callees scc)
                  in
                  let retransform =
                    stale scc || List.exists (Hashtbl.mem reshaped) outside
                  in
                  if
                    retransform
                    || List.exists (Hashtbl.mem changed) outside
                    || listed scc
                  then
                    Some
                      ( retransform,
                        List.map
                          (fun (f : Func.t) ->
                            let name = f.Func.fname and w = was f in
                            if retransform then begin
                              Hashtbl.remove ifaces name;
                              Store.remove_fn store name
                            end
                            else Store.remove_rv store name;
                            Array.iter (fun vf -> Vf.remove vf name) tables;
                            (f, w))
                          scc )
                  else None)
                batch
            in
            List.iter
              (fun name ->
                Option.iter (Hashtbl.replace iface_cache name)
                  (Hashtbl.find_opt ifaces name))
              (callees
                 (List.concat_map
                    (fun (retransform, members) ->
                      if retransform then List.map fst members else [])
                    plans));
            plans)
      in
      (* Transform stage: each re-transformed SCC's members, relowered,
         with their final PTAs kept only until their SEGs are built. *)
      let ptas = Hashtbl.create 16 in
      let plans =
        if List.exists fst plans then
          Obs.span "transform" (fun () ->
              List.map
                (fun (retransform, members) ->
                  if not retransform then (false, members)
                  else begin
                    let members =
                      List.map (fun ((f : Func.t), w) -> (relower f, w)) members
                    in
                    Transform.process_scc ~resilience ~iface_of
                      ~put_iface:(Hashtbl.replace iface_overlay)
                      ~put_pta:(Hashtbl.replace ptas) (List.map fst members);
                    (true, members)
                  end)
                plans)
        else plans
      in
      let redo (rebuild, members) =
        let built =
          List.filter_map
            (fun ((f : Func.t), _) ->
              let name = f.Func.fname in
              Option.map
                (fun seg -> (f, seg))
                (if rebuild then
                   Option.bind (Hashtbl.find_opt ptas name) (fun pta ->
                       Hashtbl.remove ptas name;
                       build_seg resilience f pta)
                 else shared (Store.seg_of store) name))
            members
        in
        (* Per-function barriers: a crash leaves that one function without
           an entry — its receivers stay free (RV), and the engine descends
           into it unpruned (VF). *)
        let each phase fallback_note step =
          List.iter
            (fun ((f : Func.t), seg) ->
              Resilience.protect ~log:resilience ~phase ~subject:f.Func.fname
                ~fallback_note ~fallback:()
                (fun () -> step f.Func.fname seg))
            built
        in
        each Resilience.Rv_summary "no RV summary (receivers stay free)"
          (fun name seg ->
            Hashtbl.replace rv_overlay name (Rv.summarise rv ~lookup:rv_lookup seg));
        each Resilience.Vf_summary "no VF summary (searched unpruned)"
          (fun name seg ->
            Obs.span "summary.vf"
              ~attrs:[ ("fn", name) ]
              (fun () ->
                Hashtbl.replace vf_overlay name
                  (Vf.summarise specs ~find:vf_find seg)));
        if rebuild then built else []
      in
      let built = List.concat_map redo plans in
      let reshapes ((f : Func.t), (was_iface, _)) =
        match (was_iface, Hashtbl.find_opt iface_overlay f.Func.fname) with
        | Some a, Some b -> not (Transform.same_shape a b)
        | None, None -> false
        | _ -> true
      in
      let differs ((f : Func.t), (_, was)) =
        match was with
        | None -> false
        | Some (was_f, was_rv, was_vf) ->
          let name = f.Func.fname in
          let vf =
            match Hashtbl.find_opt vf_overlay name with
            | Some sums -> Array.map Option.some sums
            | None -> Array.map (fun _ -> None) tables
          in
          (not
             (Option.equal
                (fun a b -> Rv.equal_entries (was_f, a) (f, b))
                was_rv
                (Hashtbl.find_opt rv_overlay name)))
          || vf <> was_vf
      in
      let marks pick =
        List.concat_map
          (fun (retransform, members) ->
            List.filter_map
              (fun (((f : Func.t), _) as m) ->
                if pick retransform m then Some f.Func.fname else None)
              members)
          plans
      in
      let reshaped_now = marks (fun retransform m -> retransform && reshapes m) in
      let changed_now = marks (fun _ m -> differs m) in
      Mutex.protect lock (fun () ->
          redone :=
            List.concat_map
              (fun (retransform, members) ->
                if retransform then List.map fst members else [])
              plans
            @ !redone;
          List.iter
            (fun (retransform, members) ->
              if not retransform then
                resummarised := !resummarised + List.length members;
              List.iter
                (fun ((f : Func.t), _) ->
                  let name = f.Func.fname in
                  Option.iter (Hashtbl.replace ifaces name)
                    (Hashtbl.find_opt iface_overlay name);
                  Option.iter (Store.put_rv store name)
                    (Hashtbl.find_opt rv_overlay name);
                  Option.iter
                    (Array.iteri (fun k s -> Vf.add tables.(k) name s))
                    (Hashtbl.find_opt vf_overlay name))
                members)
            plans;
          List.iter (fun name -> Hashtbl.replace reshaped name ()) reshaped_now;
          List.iter (fun name -> Hashtbl.replace changed name ()) changed_now;
          List.iter
            (fun ((f : Func.t), seg) -> Store.put_seg store f.Func.fname seg)
            built));
  {
    redone = !redone;
    resummarised = !resummarised;
    summaries_changed = Hashtbl.fold (fun name () acc -> name :: acc) changed [];
  }

let zero_m =
  {
    Metrics.wall_s = 0.0;
    alloc_bytes = 0.0;
    major_words = 0.0;
    promoted_words = 0.0;
  }

let prepare_with ?(resilience = Resilience.create ()) ?pool
    ?(store = Store.memory ()) frontend_m (prog : Prog.t) : t =
  Store.register_program store prog;
  Option.iter
    (fun p -> Pinpoint_par.Pool.set_log p (Some resilience))
    pool;
  (* Fold the worker domains' allocation into each phase measurement
     ([Gc.allocated_bytes] is domain-local). *)
  let extra_alloc =
    match pool with
    | Some p -> fun () -> Pinpoint_par.Pool.allocated_bytes p
    | None -> fun () -> 0.0
  in
  let t =
    {
      prog;
      graph = Callgraph.build prog;
      ifaces = Hashtbl.create 64;
      rv = Rv.create ~find:(Store.rv_of store) prog;
      metrics = { frontend = frontend_m; prepare = zero_m };
      resilience;
      pool;
      store;
      vfs = empty_vfs ();
    }
  in
  let (), pm =
    Metrics.measure ~extra_alloc (fun () ->
        ignore (sweep t (Callgraph.sccs t.graph)))
  in
  let publish name (m : Metrics.measurement) =
    Obs.set_gauge (Obs.gauge ("phase." ^ name ^ ".wall_s")) m.Metrics.wall_s;
    Obs.set_gauge
      (Obs.gauge ("phase." ^ name ^ ".alloc_bytes"))
      m.Metrics.alloc_bytes
  in
  publish "frontend" frontend_m;
  publish "prepare" pm;
  { t with metrics = { t.metrics with prepare = pm } }

let prepare ?resilience ?pool ?store prog =
  prepare_with ?resilience ?pool ?store zero_m prog

let prepare_source ?pool ?store ?(file = "<string>") src =
  let prog, fm =
    Metrics.measure (fun () ->
        Obs.span "lower"
          ~attrs:[ ("file", file) ]
          (fun () -> Pinpoint_frontend.Lower.compile_string ~file src))
  in
  prepare_with ?pool ?store fm prog

let prepare_file ?pool ?store path =
  let prog, fm =
    Metrics.measure (fun () ->
        Obs.span "lower"
          ~attrs:[ ("file", path) ]
          (fun () -> Pinpoint_frontend.Lower.compile_file path))
  in
  prepare_with ?pool ?store fm prog

let prepare_files ?pool ?store paths =
  let prog, fm =
    Metrics.measure (fun () ->
        Obs.span "lower"
          ~attrs:[ ("files", string_of_int (List.length paths)) ]
          (fun () -> Pinpoint_frontend.Lower.compile_files paths))
  in
  prepare_with ?pool ?store fm prog

let seg_size t = Store.seg_sizes t.store

let seal_store t specs =
  if not (Store.is_sealed t.store) then begin
    List.iter
      (fun (spec : Checker_spec.t) ->
        let name = spec.Checker_spec.name in
        Option.iter
          (fun (_, vf) -> Store.put_vf t.store name vf)
          (Hashtbl.find_opt t.vfs name))
      specs;
    Store.seal t.store
  end

let check ?config ?memo t (spec : Checker_spec.t) =
  Engine.run ?config ~resilience:t.resilience ?pool:t.pool ?memo ~graph:t.graph
    ~seg_of:(seg_of t) ~rv:t.rv
    ~vf:(Option.map snd (Hashtbl.find_opt t.vfs spec.Checker_spec.name))
    spec

let check_all ?config t specs =
  List.map
    (fun (spec : Checker_spec.t) ->
      let reports, stats = check ?config t spec in
      (spec.Checker_spec.name, reports, stats))
    specs
