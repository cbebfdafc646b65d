(* The parallel runtime: worker pool, chunk planning and the wave walk
   over call-graph SCCs (DESIGN.md §4.9).  That [--jobs N] changes
   wall-clock only, never reports or counts, is the lattice's
   (test_lattice.ml); here it is checked for the walk's tables and under
   fault injection, whose incidents must not depend on the schedule
   either. *)

module Pool = Pinpoint_par.Pool
module Chunk = Pinpoint_par.Chunk
module Obs = Pinpoint_obs.Obs
module R = Pinpoint_util.Resilience

(* Run [f] from a zeroed registry at [Metrics_only], and put it back. *)
let with_registry f =
  Obs.reset ();
  Obs.set_level Obs.Metrics_only;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_level Obs.Off;
      Obs.reset ())
    f

(* --- pool --- *)

let test_pool_map () =
  Pool.with_pool ~jobs:4 (fun p ->
      let input = Array.init 100 (fun i -> i) in
      let out = Pool.parallel_map p (fun x -> x * x) input in
      Alcotest.(check int) "length" 100 (Array.length out);
      Array.iteri
        (fun i r ->
          Alcotest.(check (option int)) "slot" (Some (i * i)) r)
        out)

let test_pool_map_inline () =
  (* jobs = 1 spawns nothing and runs on the caller *)
  Pool.with_pool ~jobs:1 (fun p ->
      let out = Pool.parallel_map p (fun x -> x + 1) [| 1; 2; 3 |] in
      Alcotest.(check (array (option int))) "inline" [| Some 2; Some 3; Some 4 |] out)

let test_pool_exception_capture () =
  let log = R.create () in
  Pool.with_pool ~log ~jobs:4 (fun p ->
      let out =
        Pool.parallel_map p
          (fun x -> if x mod 2 = 1 then failwith "odd!" else x)
          (Array.init 20 (fun i -> i))
      in
      Array.iteri
        (fun i r ->
          if i mod 2 = 1 then
            Alcotest.(check (option int)) "odd slot dropped" None r
          else Alcotest.(check (option int)) "even slot kept" (Some i) r)
        out);
  Alcotest.(check int) "one incident per failed task" 10 (R.count log);
  List.iter
    (fun (i : R.incident) ->
      Alcotest.(check bool) "phase is par-task" true (i.R.phase = R.Par_task))
    (R.incidents log)

(* Two tasks that each map [k] items from a worker: the outer map
   returns only when the inner ones have, and [par.tasks] counts the
   outer tasks and every inner one exactly once however often it is
   published. *)
let test_nested_map () =
  with_registry @@ fun () ->
  let k = 8 in
  let ran = Atomic.make 0 in
  Pool.with_pool ~jobs:3 (fun p ->
      let (_ : unit option array option array) =
        Pool.parallel_map p
          (fun _ -> Pool.parallel_map p (fun _ -> Atomic.incr ran) (Array.make k ()))
          [| 0; 1 |]
      in
      Alcotest.(check int) "all inner items ran" (2 * k) (Atomic.get ran);
      (* publish before shutdown (the CLI's --metrics-json path); the
         shutdown call must then be a no-op, not a double count *)
      Pool.publish_obs p;
      Pool.publish_obs p);
  Alcotest.(check int) "par.tasks published once" (2 + (2 * k))
    (Obs.Snapshot.counter (Obs.snapshot ()) "par.tasks")

(* An item runs under the caller's server request, whichever domain runs
   it, so its spans and incidents attribute to that request. *)
let test_map_request () =
  Pool.with_pool ~jobs:4 (fun p ->
      let ids =
        Obs.with_request "r000042" (fun () ->
            Pool.parallel_map p (fun _ -> Obs.request_id ()) (Array.make 32 ()))
      in
      Array.iter
        (fun id -> Alcotest.(check (option string)) "request id" (Some "r000042") id)
        ids;
      Alcotest.(check string) "none outside" ""
        (Option.get (Pool.parallel_map p (fun () -> Obs.request_id ()) [| () |]).(0)))

(* --- chunk planning --- *)

let check_plan_partitions n plan =
  (* contiguous, in order, covering exactly [0, n) *)
  let next = ref 0 in
  List.iter
    (fun (start, len) ->
      Alcotest.(check int) "contiguous start" !next start;
      Alcotest.(check bool) "positive length" true (len >= 1);
      next := start + len)
    plan;
  Alcotest.(check int) "covers all items" n !next

let test_chunk_plan () =
  List.iter
    (fun (jobs, n) ->
      let plan = Chunk.plan ~jobs n in
      check_plan_partitions n plan;
      if n > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "jobs=%d n=%d: at most 4 chunks per lane" jobs n)
          true
          (List.length plan <= max 1 (min n (jobs * 4))))
    [ (1, 10); (4, 100); (4, 3); (8, 1); (2, 0); (16, 1000) ]

let test_chunk_plan_weighted () =
  (* one huge item among many light ones: the heavy item must not drag a
     long tail of light ones into its chunk *)
  let n = 100 in
  let weights = Array.init n (fun i -> if i = 0 then 10_000 else 1) in
  let plan = Chunk.plan ~jobs:4 ~weights n in
  check_plan_partitions n plan;
  (match plan with
  | (start, len) :: _ ->
    Alcotest.(check int) "first chunk starts at 0" 0 start;
    Alcotest.(check int) "heavy item rides alone" 1 len
  | [] -> Alcotest.fail "empty plan");
  Alcotest.(check bool) "several chunks" true (List.length plan >= 2)

(* The walk's map: a weighted chunked map keeps every slot positional,
   and an item that raises drops only its own slot, with one incident. *)
let test_chunk_map_weighted () =
  let log = R.create () in
  let n = 60 in
  let weights = Array.init n (fun i -> if i mod 10 = 0 then 500 else 1 + (i mod 3)) in
  let out =
    Pool.with_pool ~log ~jobs:4 (fun p ->
        Chunk.parallel_map ~weights p
          (fun i -> if i mod 7 = 3 then failwith "item" else i * 2)
          (Array.init n Fun.id))
  in
  Array.iteri
    (fun i r ->
      Alcotest.(check (option int))
        (Printf.sprintf "slot %d" i)
        (if i mod 7 = 3 then None else Some (i * 2))
        r)
    out;
  Alcotest.(check int) "one incident per failed item"
    (List.length (List.filter (fun i -> i mod 7 = 3) (List.init n Fun.id)))
    (R.count log)

(* A chunked map runs one pool task per chunk of its plan, so
   [par.tasks] depends on the items and their weights, not on the
   schedule. *)
let test_chunk_tasks () =
  with_registry @@ fun () ->
  let weights = Array.init 50 (fun i -> 1 + (i * 7 mod 13)) in
  Pool.with_pool ~jobs:3 (fun p ->
      ignore (Chunk.parallel_map ~weights p Fun.id (Array.init 50 Fun.id)));
  Alcotest.(check int) "par.tasks = chunks"
    (List.length (Chunk.plan ~jobs:3 ~weights 50))
    (Obs.Snapshot.counter (Obs.snapshot ()) "par.tasks")

(* The pooled walk, wave by wave, leaves the same interfaces (by shape),
   RV entries (modulo renaming), VF entries and SEG sizes as the
   sequential walk, function by function. *)
let test_sweep_waves () =
  let module A = Pinpoint.Analysis in
  let module Callgraph = Pinpoint_ir.Callgraph in
  let src = Helpers.subject ~seed:31 ~loc:600 () in
  let seq = A.prepare_source src in
  let par = Pool.with_pool ~jobs:4 (fun p -> A.prepare_source ~pool:p src) in
  let functions a = Pinpoint_ir.Prog.functions a.A.prog in
  Alcotest.(check bool) "several calls deep" true
    (List.length (Callgraph.waves seq.A.graph (Callgraph.sccs seq.A.graph)) > 2);
  List.iter2
    (fun (f : Pinpoint_ir.Func.t) (g : Pinpoint_ir.Func.t) ->
      let name = f.Pinpoint_ir.Func.fname in
      let iface a = Hashtbl.find_opt a.A.ifaces name in
      Alcotest.(check bool) (name ^ ": interface") true
        (Option.equal Pinpoint_transform.Transform.same_shape (iface seq) (iface par));
      Alcotest.(check bool) (name ^ ": RV entries") true
        (Option.equal
           (fun a b -> Pinpoint_summary.Rv.equal_entries (f, a) (g, b))
           (Pinpoint_summary.Rv.find seq.A.rv name)
           (Pinpoint_summary.Rv.find par.A.rv name));
      Hashtbl.iter
        (fun checker (_, vf) ->
          let _, vf' = Hashtbl.find par.A.vfs checker in
          Alcotest.(check bool) (name ^ ": VF entries, " ^ checker) true
            (Pinpoint_summary.Vf.find vf name = Pinpoint_summary.Vf.find vf' name))
        seq.A.vfs;
      let size a =
        Option.map
          (fun s -> (Pinpoint_seg.Seg.n_vertices s, Pinpoint_seg.Seg.n_edges s))
          (A.seg_of a name)
      in
      Alcotest.(check (option (pair int int)))
        (name ^ ": SEG size") (size seq) (size par))
    (functions seq) (functions par)

(* The CLI builds its pool at [effective_jobs], which never asks for
   more domains than the host recommends and never for fewer than one;
   tests that need two domains anywhere build their pool directly. *)
let test_effective_jobs () =
  let cores = Domain.recommended_domain_count () in
  Alcotest.(check (list int)) "0, 1, cores, cores + 7"
    [ 1; 1; cores; cores ]
    (List.map Pool.effective_jobs [ 0; 1; cores; cores + 7 ])

(* --- end-to-end determinism: --jobs must not change the analysis --- *)

(* Small corpus subjects; the solver budget stays infinite so the
   degradation ladder cannot be triggered by wall-clock contention — the
   remaining behaviour must be schedule-independent. *)
let det_files = [ "motivating.mc"; "double_free.mc"; "null_deref.mc" ]

(* (reports with their verdicts and the whole stats record per checker,
   incident kinds).  Incidents are compared as a sorted multiset of
   (phase, subject, detail): the kinds and counts are deterministic, the
   chronological interleaving is not. *)
let analysis_fingerprint pool src =
  let a = Pinpoint.Analysis.prepare_source ?pool ~file:"<det>" src in
  let per_checker =
    List.map
      (fun (spec : Pinpoint.Checker_spec.t) ->
        let reports, stats = Pinpoint.Analysis.check a spec in
        ( spec.Pinpoint.Checker_spec.name,
          List.map
            (fun r -> (Pinpoint.Report.key r, r.Pinpoint.Report.verdict))
            reports,
          stats ))
      Pinpoint.Checkers.all
  in
  let incident_kinds =
    List.sort compare
      (List.map
         (fun (i : R.incident) -> (R.phase_name i.R.phase, i.R.subject, i.R.detail))
         (Pinpoint.Analysis.incidents a))
  in
  (per_checker, incident_kinds)

let with_injection cfg f =
  R.Inject.install cfg;
  Fun.protect ~finally:R.Inject.clear f

let check_jobs_determinism_injected ~jobs () =
  let dir = Test_corpus.corpus_dir () in
  List.iter
    (fun f ->
      let src = Test_store.read_file (Filename.concat dir f) in
      let cfg =
        {
          R.Inject.default with
          seed = 7;
          solver_fault_rate = 0.2;
          seg_drop_rate = 0.05;
          seg_truncate_rate = 0.05;
        }
      in
      let seq = with_injection cfg (fun () -> analysis_fingerprint None src) in
      let par =
        with_injection cfg (fun () ->
            Pool.with_pool ~jobs (fun p -> analysis_fingerprint (Some p) src))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: injected jobs 1 = jobs %d" f jobs)
        true (seq = par))
    det_files

(* --- domain-safety debug assertions (satellite: global-state audit) --- *)

let test_owner_checks_clean () =
  (* The single-owner debug stamps on Id_gen and Prng must stay silent
     through a parallel run: generators are task-local or handed off
     sequentially, never shared live across domains. *)
  Pinpoint_util.Id_gen.debug_owner_check := true;
  Pinpoint_util.Prng.debug_owner_check := true;
  Fun.protect
    ~finally:(fun () ->
      Pinpoint_util.Id_gen.debug_owner_check := false;
      Pinpoint_util.Prng.debug_owner_check := false)
    (fun () ->
      let dir = Test_corpus.corpus_dir () in
      let src = Test_store.read_file (Filename.concat dir "motivating.mc") in
      let seq = analysis_fingerprint None src in
      let par =
        Pool.with_pool ~jobs:4 (fun p -> analysis_fingerprint (Some p) src)
      in
      Alcotest.(check bool) "owner-checked run matches" true (seq = par))

(* --- metrics (satellite: clamped measurement, pooled allocation) --- *)

let test_measure_clamped_and_pooled () =
  (* A worker-allocation counter that goes backwards (as a raced snapshot
     could) must not drive the measurement negative. *)
  let calls = ref 0 in
  let bogus () =
    incr calls;
    if !calls = 1 then 1.0e12 else 0.0
  in
  let (), m = Pinpoint_util.Metrics.measure ~extra_alloc:bogus (fun () -> ()) in
  Alcotest.(check bool) "alloc clamped" true (m.Pinpoint_util.Metrics.alloc_bytes >= 0.0);
  Alcotest.(check bool) "wall clamped" true (m.Pinpoint_util.Metrics.wall_s >= 0.0);
  (* and the pool's counter really accumulates worker allocation *)
  Pool.with_pool ~jobs:4 (fun p ->
      let (_ : int option array) =
        Pool.parallel_map p
          (fun i -> Array.length (Array.make 10000 i))
          (Array.init 64 (fun i -> i))
      in
      Alcotest.(check bool)
        "workers allocated" true
        (Pool.allocated_bytes p >= 0.0))

let suite =
  [
    Alcotest.test_case "pool: parallel_map" `Quick test_pool_map;
    Alcotest.test_case "pool: jobs=1 inline" `Quick test_pool_map_inline;
    Alcotest.test_case "pool: exception capture" `Quick
      test_pool_exception_capture;
    Alcotest.test_case "pool: nested submit" `Quick test_nested_map;
    Alcotest.test_case "pool: map keeps the request id" `Quick test_map_request;
    Alcotest.test_case "chunk: plan partitions" `Quick test_chunk_plan;
    Alcotest.test_case "chunk: weighted plan" `Quick test_chunk_plan_weighted;
    Alcotest.test_case "chunk: weighted map keeps slots" `Quick
      test_chunk_map_weighted;
    Alcotest.test_case "chunk: one task per chunk" `Quick test_chunk_tasks;
    Alcotest.test_case "sweep: pooled waves = sequential walk" `Quick
      test_sweep_waves;
    Alcotest.test_case "pool: effective_jobs caps at the cores" `Quick
      test_effective_jobs;
    Alcotest.test_case "owner checks stay silent" `Quick
      test_owner_checks_clean;
    Alcotest.test_case "metrics: clamped + pooled alloc" `Quick
      test_measure_clamped_and_pooled;
    Alcotest.test_case "determinism: jobs 4 + injection" `Quick
      (check_jobs_determinism_injected ~jobs:4);
    Alcotest.test_case "determinism: jobs 8 + injection" `Quick
      (check_jobs_determinism_injected ~jobs:8);
  ]
