module Metrics = Pinpoint_util.Metrics
module Resilience = Pinpoint_util.Resilience
module Func = Pinpoint_ir.Func
module Prog = Pinpoint_ir.Prog
module Seg = Pinpoint_seg.Seg
module Transform = Pinpoint_transform.Transform
module Rv = Pinpoint_summary.Rv
module Vf = Pinpoint_summary.Vf
module Obs = Pinpoint_obs.Obs
module Store = Pinpoint_store.Store

type phase_metrics = {
  frontend : Metrics.measurement;
  transform : Metrics.measurement;
  summaries : Metrics.measurement;
}

type t = {
  prog : Prog.t;
  transform : Transform.result;
  segs : (string, Seg.t) Hashtbl.t;
  rv : Rv.t;
  metrics : phase_metrics;
  resilience : Resilience.log;
  pool : Pinpoint_par.Pool.t option;
      (* carried so [check] fans its per-source searches out too *)
  store : Store.t option;
      (* disk-resident artifact store; when present [segs] stays empty
         and lookups fault artifacts back in through the LRU *)
  vfs : (string, Checker_spec.t * Vf.t) Hashtbl.t;
}

let seg_of t name =
  match t.store with
  | Some st -> Store.seg_of st name
  | None -> Hashtbl.find_opt t.segs name

let store t = t.store
let incidents t = Resilience.incidents t.resilience

(* Build one function's SEG from its PTA behind an exception barrier,
   consulting the fault injector: a dropped SEG is skipped outright, a
   truncated one keeps only half of each vertex's out-edges, a crash is
   raised inside the barrier so it lands in the incident log like any
   organic crash.  [pta_of] runs inside the barrier too: in store mode it
   decodes. *)
let build_seg log pta_of (f : Func.t) : Seg.t option =
  let fname = f.Func.fname in
  Resilience.protect ~log ~phase:Resilience.Seg_build ~subject:fname
    ~fallback_note:"function gets no SEG" ~fallback:None
  @@ fun () ->
  match pta_of fname with
  | None -> None
  | Some pta -> (
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
        incident "injected: seg-truncate"
          "SEG truncated to half of its out-edges";
        Some (Seg.truncate seg ~keep:0.5)
      | _ -> Some seg))

let build_seg log pta_of f =
  Obs.span "seg.build"
    ~attrs:[ ("fn", f.Func.fname) ]
    (fun () -> build_seg log pta_of f)

(* Force every variable's SMT symbol in program order.  [Var.symbol] is
   lazy and the symbol registry assigns ids in creation order; forcing
   them sequentially pins the id assignment to program order, so the
   parallel phases that follow only ever read existing symbols.  Run
   once before the transform (its points-to analysis reads branch
   conditions, in SCC waves at [--jobs] > 1) and once after, for the
   conduit variables it adds. *)
let force_symbols (funcs : Func.t list) =
  let force v = ignore (Pinpoint_ir.Var.symbol v) in
  List.iter
    (fun (f : Func.t) ->
      List.iter force f.Func.params;
      Func.iter_stmts f (fun _ s ->
          List.iter force (Pinpoint_ir.Stmt.def s);
          List.iter force (Pinpoint_ir.Stmt.uses s)))
    funcs

let empty_vfs () =
  let vfs = Hashtbl.create 8 in
  List.iter
    (fun (c : Checker_spec.t) ->
      Hashtbl.replace vfs c.Checker_spec.name (c, Vf.empty ()))
    Checkers.all;
  vfs

(* The bottom-up sweep (DESIGN.md §4.5).  Per SCC: build the members'
   SEGs from their PTAs, then their RV entries in member order, then their
   VF entries for every registered checker in member order — each member
   publishing before the next runs — and only then hand the SEGs over
   ([put_seg]; in store mode, a spill).  A function's summaries need only
   its own SEG, just built, and its callees' summaries, so summarising
   reads no SEG back.  The swept functions' old entries are dropped first,
   so a same-SCC member not yet swept looks unknown, as in a from-scratch
   run.

   Each batch of SCCs ({!Pinpoint_par.Sched.run_sccs}; one SCC without a
   pool) keeps its RV and VF entries in overlays, reads everything else
   from the shared tables under one lock, and publishes its entries and
   SEGs in one locked flush.  Store mode runs without the pool: one SCC's
   SEGs in flight keep the heap bounded by the store's LRU. *)
let sweep_sccs ~resilience ?pool ?store (transform : Transform.result) segs
    rv vfs sccs =
  let checkers = Array.of_list Checkers.all in
  let specs = Array.map Checker_spec.vf_spec checkers in
  let tables =
    Array.map
      (fun (c : Checker_spec.t) -> snd (Hashtbl.find vfs c.Checker_spec.name))
      checkers
  in
  let pool, pta_of, put_seg =
    match store with
    | Some st -> (None, Store.pta_of st, Store.put_seg st)
    | None ->
      (pool, Hashtbl.find_opt transform.Transform.ptas, Hashtbl.replace segs)
  in
  List.iter
    (List.iter (fun (f : Func.t) ->
         let name = f.Func.fname in
         Hashtbl.remove segs name;
         Rv.remove rv name;
         Array.iter (fun vf -> Vf.remove vf name) tables))
    sccs;
  let lock = Mutex.create () in
  Pinpoint_par.Sched.run_sccs ?pool ~weight:Func.n_stmts
    ~name:(fun (f : Func.t) -> f.Func.fname)
    ~callees:Prog.callees sccs
  @@ fun batch ->
  let rv_overlay = Hashtbl.create 16 and vf_overlay = Hashtbl.create 16 in
  let shared find name = Mutex.protect lock (fun () -> find name) in
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
  let sweep_scc scc =
    let built =
      List.filter_map
        (fun (f : Func.t) ->
          Option.map (fun seg -> (f, seg)) (build_seg resilience pta_of f))
        scc
    in
    (* Per-function barriers: a crash leaves that one function without an
       entry — its receivers stay free (RV), and the engine descends into
       it unpruned (VF). *)
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
    built
  in
  let built = List.concat_map sweep_scc batch in
  Mutex.protect lock (fun () ->
      List.iter
        (fun ((f : Func.t), seg) ->
          let name = f.Func.fname in
          Option.iter (Rv.publish rv name) (Hashtbl.find_opt rv_overlay name);
          Option.iter
            (Array.iteri (fun k s -> Vf.add tables.(k) name s))
            (Hashtbl.find_opt vf_overlay name);
          put_seg name seg)
        built)

let sweep ~resilience ?pool ?store prog transform ~segs rv ~vfs sccs =
  let swept = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (f : Func.t) -> Hashtbl.replace swept f.Func.fname ()))
    sccs;
  Obs.span "seg.build.all" (fun () ->
      (* Sequential prologue pinning allocation-ordered ids to program
         order (the conduit variables' symbols, abstract heap addresses)
         — after this, SEG builds are order-independent and can run in
         any schedule. *)
      let funcs =
        List.filter
          (fun (f : Func.t) -> Hashtbl.mem swept f.Func.fname)
          (Prog.functions prog)
      in
      force_symbols funcs;
      Seg.reserve_addresses funcs);
  Obs.span "summary" (fun () ->
      sweep_sccs ~resilience ?pool ?store transform segs rv vfs sccs)

let prepare_with ?resilience ?pool ?store frontend_m (prog : Prog.t) : t =
  let resilience =
    match resilience with Some r -> r | None -> Resilience.create ()
  in
  Option.iter (fun st -> Store.register_program st prog) store;
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
  let transform, tm =
    Metrics.measure ~extra_alloc (fun () ->
        Obs.span "transform" (fun () ->
            force_symbols (Prog.functions prog);
            (* Store mode streams points-to results to the store per SCC,
               sequentially; [transform.ptas] stays empty. *)
            Transform.run ~resilience ?pool
              ?pta_sink:(Option.map Store.put_pta store)
              prog))
  in
  let segs = Hashtbl.create 64 in
  let rv = Rv.create ?backend:(Option.map Store.rv_backend store) prog in
  let vfs = empty_vfs () in
  let (), sm =
    Metrics.measure ~extra_alloc (fun () ->
        sweep ~resilience ?pool ?store prog transform ~segs rv ~vfs
          (Prog.bottom_up_sccs prog))
  in
  if Obs.metrics_on () then begin
    let publish name (m : Metrics.measurement) =
      Obs.set_gauge (Obs.gauge ("phase." ^ name ^ ".wall_s")) m.Metrics.wall_s;
      Obs.set_gauge
        (Obs.gauge ("phase." ^ name ^ ".alloc_bytes"))
        m.Metrics.alloc_bytes
    in
    publish "frontend" frontend_m;
    publish "transform" tm;
    publish "summaries" sm
  end;
  {
    prog;
    transform;
    segs;
    rv;
    metrics = { frontend = frontend_m; transform = tm; summaries = sm };
    resilience;
    pool;
    store;
    vfs;
  }

let zero_m =
  {
    Metrics.wall_s = 0.0;
    alloc_bytes = 0.0;
    major_words = 0.0;
    promoted_words = 0.0;
  }

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

let seg_size t =
  match t.store with
  | Some st -> Store.seg_sizes st
  | None ->
    Hashtbl.fold
      (fun _ seg (v, e) -> (v + Seg.n_vertices seg, e + Seg.n_edges seg))
      t.segs (0, 0)

let seal_store t specs =
  match t.store with
  | Some st when not (Store.is_sealed st) ->
    List.iter
      (fun (spec : Checker_spec.t) ->
        let name = spec.Checker_spec.name in
        Option.iter
          (fun (_, vf) -> Store.put_vf st name vf)
          (Hashtbl.find_opt t.vfs name))
      specs;
    Store.seal st
  | _ -> ()

let check ?config t (spec : Checker_spec.t) =
  Engine.run ?config ~resilience:t.resilience ?pool:t.pool t.prog
    ~seg_of:(seg_of t) ~rv:t.rv
    ~vf:(Option.map snd (Hashtbl.find_opt t.vfs spec.Checker_spec.name))
    spec

let check_all ?config t specs =
  List.map
    (fun (spec : Checker_spec.t) ->
      let reports, stats = check ?config t spec in
      (spec.Checker_spec.name, reports, stats))
    specs
