(* The parallel runtime: worker pool, chunk planning and the SCC-wave
   scheduler (DESIGN.md §4.9).  That [--jobs N] changes wall-clock only,
   never reports or counts, is the lattice's (test_lattice.ml); here it is
   checked under fault injection, whose incidents must not depend on the
   schedule either. *)

module Pool = Pinpoint_par.Pool
module Sched = Pinpoint_par.Sched
module Chunk = Pinpoint_par.Chunk
module Digraph = Pinpoint_util.Digraph
module R = Pinpoint_util.Resilience

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

let test_pool_submit_wait () =
  Pool.with_pool ~jobs:4 (fun p ->
      let hits = Atomic.make 0 in
      for _ = 1 to 50 do
        Pool.submit p (fun () -> Atomic.incr hits)
      done;
      Pool.wait_idle p;
      Alcotest.(check int) "all tasks ran" 50 (Atomic.get hits))

(* A task that submits [k] subtasks from a worker: [wait_idle] must
   cover the nested submissions too, and [par.tasks] must count the outer
   task and every subtask exactly once however often it is published. *)
let test_nested_submit () =
  let module Obs = Pinpoint_obs.Obs in
  Obs.reset ();
  Obs.set_level Obs.Metrics_only;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_level Obs.Off;
      Obs.reset ())
  @@ fun () ->
  let k = 8 in
  let ran = Atomic.make 0 in
  Pool.with_pool ~jobs:3 (fun p ->
      Pool.submit p (fun () ->
          for _ = 1 to k do
            Pool.submit p (fun () -> Atomic.incr ran)
          done);
      Pool.wait_idle p;
      Alcotest.(check int) "all subtasks ran" k (Atomic.get ran);
      (* publish before shutdown (the CLI's --metrics-json path); the
         shutdown call must then be a no-op, not a double count *)
      Pool.publish_obs p;
      Pool.publish_obs p);
  Alcotest.(check int) "par.tasks published once" (k + 1)
    (Obs.Snapshot.counter (Obs.snapshot ()) "par.tasks")

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

(* --- scheduler --- *)

(* Call graph: 0 -> {1,2} cycle -> 3; 0 -> 4; 5 isolated.  Edges are
   caller -> callee, so {1,2}, 3, 4, 5 must all finish before 0 starts
   (3 before the cycle too). *)
let little_call_graph () =
  let g = Digraph.create () in
  Digraph.ensure_node g 5;
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 2 1;
  Digraph.add_edge g 1 3;
  Digraph.add_edge g 0 4;
  g

let test_sched_order () =
  let g = little_call_graph () in
  let expected = Digraph.sccs g in
  let comp_of = Array.make (Digraph.n_nodes g) (-1) in
  List.iteri
    (fun ci members -> List.iter (fun v -> comp_of.(v) <- ci) members)
    expected;
  Pool.with_pool ~jobs:4 (fun p ->
      let m = Mutex.create () in
      let finished = Hashtbl.create 8 in
      let violations = ref 0 in
      Sched.run_bottom_up p g @@ List.iter (fun members ->
          let ci = comp_of.(List.hd members) in
          (* every cross-component callee must already be done *)
          List.iter
            (fun u ->
              List.iter
                (fun v ->
                  if comp_of.(v) <> ci then
                    Mutex.protect m (fun () ->
                        if not (Hashtbl.mem finished comp_of.(v)) then
                          incr violations))
                (Digraph.succs g u))
            members;
          Mutex.protect m (fun () -> Hashtbl.replace finished ci ()));
      Alcotest.(check int) "callees always finished first" 0 !violations;
      Alcotest.(check int)
        "every component ran once"
        (List.length expected)
        (Hashtbl.length finished))

(* Regression: the initial leaf-launch loop must not race with the
   completion cascade.  Many trivially-fast leaf components followed by
   dependents reproduces the shape where a worker finishes leaf [i] and
   releases its dependent while the driver is still scanning — the
   dependent must still run exactly once. *)
let test_sched_exactly_once () =
  let n = 40 in
  let g = Digraph.create () in
  Digraph.ensure_node g ((2 * n) - 1);
  for i = 0 to n - 1 do
    Digraph.add_edge g (n + i) i
  done;
  let comps = Array.of_list (Digraph.sccs g) in
  for _round = 1 to 5 do
    let runs = Array.make (Array.length comps) 0 in
    let m = Mutex.create () in
    Pool.with_pool ~jobs:4 (fun p ->
        Sched.run_bottom_up p g @@ List.iter (fun members ->
            let node = List.hd members in
            let ci = ref (-1) in
            Array.iteri
              (fun i ms -> if List.mem node ms then ci := i)
              comps;
            Mutex.protect m (fun () -> runs.(!ci) <- runs.(!ci) + 1)));
    Array.iteri
      (fun i c ->
        if c <> 1 then
          Alcotest.failf "component %d ran %d times (want exactly 1)" i c)
      runs
  done

let test_sched_sequential_is_sccs () =
  let g = little_call_graph () in
  Pool.with_pool ~jobs:1 (fun p ->
      let seen = ref [] in
      Sched.run_bottom_up p g (List.iter (fun members -> seen := members :: !seen));
      Alcotest.(check (list (list int)))
        "jobs=1 is exactly Digraph.sccs order" (Digraph.sccs g)
        (List.rev !seen))

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
    Alcotest.test_case "pool: submit + wait_idle" `Quick test_pool_submit_wait;
    Alcotest.test_case "pool: nested submit" `Quick test_nested_submit;
    Alcotest.test_case "chunk: plan partitions" `Quick test_chunk_plan;
    Alcotest.test_case "chunk: weighted plan" `Quick test_chunk_plan_weighted;
    Alcotest.test_case "sched: callees first" `Quick test_sched_order;
    Alcotest.test_case "sched: exactly-once launch" `Quick
      test_sched_exactly_once;
    Alcotest.test_case "sched: jobs=1 is sccs order" `Quick
      test_sched_sequential_is_sccs;
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
