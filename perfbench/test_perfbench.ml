(* Tests of the benchmark's own logic: statistics, trace attribution,
   compare verdicts, input generation, CLI output parsing and the wait4
   stub. *)

open Perfbench
module Obs = Pinpoint_obs.Obs

let close_to = Alcotest.float 1e-9

let test_quartiles () =
  (* reference values from Python's statistics.quantiles(xs, n=4) *)
  let q xs = Stats.quartiles xs in
  let check name (a, b, c) xs =
    let x, y, z = q xs in
    Alcotest.check close_to (name ^ " q1") a x;
    Alcotest.check close_to (name ^ " q2") b y;
    Alcotest.check close_to (name ^ " q3") c z
  in
  check "1..10" (2.75, 5.5, 8.25) (List.init 10 (fun i -> float_of_int (i + 1)));
  check "three" (1.0, 2.0, 3.0) [ 3.0; 1.0; 2.0 ];
  check "two" (0.0, 3.0, 6.0) [ 5.0; 1.0 ];
  Alcotest.check close_to "median even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ])

let test_percentile_rule () =
  let samples n = List.init n (fun i -> float_of_int (n - i)) in
  let tail n = Option.map fst (Stats.tail (samples n)) in
  let pct = Alcotest.(option (float 0.0)) in
  (* 25 samples: a "p99" would sit on the single largest value *)
  Alcotest.check pct "n=25 -> p50" (Some 50.0) (tail 25);
  Alcotest.check pct "n=100 -> p90" (Some 90.0) (tail 100);
  Alcotest.check pct "n=200 -> p95" (Some 95.0) (tail 200);
  Alcotest.check pct "n=1000 -> p99" (Some 99.0) (tail 1000);
  Alcotest.check pct "n=10 -> none" None (tail 10);
  Alcotest.check (Alcotest.option (Alcotest.pair (Alcotest.float 0.0) close_to))
    "p90 of 1..100 is 90" (Some (90.0, 90.0)) (Stats.tail (samples 100))

let span ?(alloc = 0.0) ~dom ~depth ~seq:(open_seq, close_seq) name t0 t1 =
  { Obs.name; attrs = []; t0; t1; alloc_bytes = alloc; dom; depth; open_seq; close_seq; req = "" }

let self_of attributed name =
  List.fold_left
    (fun acc (a : Layers.attributed) -> if a.span.name = name then acc +. a.self_s else acc)
    0.0 attributed

let test_self_time_two_domains () =
  (* domain 0: transform [0,10] with a pool task [1,4] running pta [1.5,3.5];
     domain 1: a pool task [3,7] running pta [3,6.5], concurrently *)
  let spans =
    [
      span ~dom:0 ~depth:0 ~seq:(0, 7) "bench.pass" 0.0 10.0 ~alloc:100.0;
      span ~dom:0 ~depth:1 ~seq:(1, 6) "transform" 0.0 10.0 ~alloc:90.0;
      span ~dom:0 ~depth:2 ~seq:(2, 5) "par.task" 1.0 4.0 ~alloc:30.0;
      span ~dom:0 ~depth:3 ~seq:(3, 4) "pta" 1.5 3.5 ~alloc:20.0;
      span ~dom:1 ~depth:0 ~seq:(0, 3) "par.task" 3.0 7.0 ~alloc:50.0;
      span ~dom:1 ~depth:1 ~seq:(1, 2) "pta" 3.0 6.5 ~alloc:45.0;
    ]
  in
  let a = Layers.attribute spans in
  (* transform's children: its own task [1,4] and the worker's task [3,7],
     whose union is [1,7] *)
  Alcotest.check close_to "transform self" 4.0 (self_of a "transform");
  Alcotest.check close_to "pta self (both domains)" 5.5 (self_of a "pta");
  Alcotest.check close_to "task self" 1.5 (self_of a "par.task");
  let layer_self l = (Layers.layer (Layers.summarise spans) l).Layers.self_s in
  (* a task's own time is work of the phase that submitted it *)
  Alcotest.check close_to "transform layer" 5.5 (layer_self "transform");
  let alloc name =
    List.fold_left
      (fun acc (x : Layers.attributed) -> if x.span.name = name then acc +. x.self_alloc else acc)
      0.0 a
  in
  (* the worker's allocation is not part of transform's domain-local count *)
  Alcotest.check close_to "transform self alloc" 60.0 (alloc "transform");
  let s = Layers.summarise spans in
  Alcotest.check close_to "wall" 10.0 s.Layers.wall_s;
  Alcotest.check close_to "unattributed" 0.0 s.Layers.unattributed_s;
  (* concurrent sibling tasks on two domains are not each other's children *)
  let siblings =
    [
      span ~dom:0 ~depth:0 ~seq:(0, 5) "bench.check" 0.0 10.0;
      span ~dom:0 ~depth:1 ~seq:(1, 4) "par.task" 0.0 9.0;
      span ~dom:0 ~depth:2 ~seq:(2, 3) "engine.source" 0.0 9.0;
      span ~dom:1 ~depth:0 ~seq:(0, 3) "par.task" 2.0 5.0;
      span ~dom:1 ~depth:1 ~seq:(1, 2) "engine.source" 2.0 5.0;
    ]
  in
  let a = Layers.attribute siblings in
  Alcotest.check close_to "sources keep their full time" 12.0 (self_of a "engine.source");
  Alcotest.check close_to "check self: only [9,10] uncovered" 1.0 (self_of a "bench.check")

let verdict =
  Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Compare.verdict_name v)) ( = )

let test_compare_verdicts () =
  let judge old_s new_s = Compare.judge ~lower_is_better:true ~bound:0.1 old_s new_s in
  let old_s = [ 10.0; 10.1; 9.9; 10.05; 9.95 ] in
  Alcotest.check verdict "same" Compare.Within (judge old_s [ 10.02; 9.97; 10.1; 9.9; 10.0 ]);
  Alcotest.check verdict "slower" Compare.Worse (judge old_s [ 11.5; 11.6; 11.4; 11.55; 11.45 ]);
  Alcotest.check verdict "faster" Compare.Better (judge old_s [ 8.0; 8.1; 7.9; 8.05; 7.95 ]);
  let noisy = [ 7.0; 10.0; 13.0; 8.0; 12.0 ] in
  Alcotest.check verdict "spread wider than the bound" Compare.Unresolved (judge old_s noisy);
  Alcotest.check verdict "noisy but every run faster" Compare.Better
    (judge noisy [ 5.0; 5.5; 6.0; 6.5; 6.9 ]);
  (* a metric where higher is better *)
  Alcotest.check verdict "higher is better" Compare.Worse
    (Compare.judge ~lower_is_better:false ~bound:0.1 old_s [ 8.0; 8.1; 7.9 ])

let test_generator_determinism () =
  let dir = "gen-test" in
  Workloads.rm_rf dir;
  Sys.mkdir dir 0o755;
  let ctx = { Workloads.cli = "unused"; dir; deadline = infinity; speed = Speed.start () } in
  let w = Option.get (Workloads.find "serve-20k") in
  let files seed =
    let inputs = Workloads.generate ctx w ~seed in
    List.map (fun (p, c) -> (p, Digest.to_hex (Digest.string c))) inputs.Workloads.files
  in
  let a = files 1 and b = files 1 and c = files 2 in
  Alcotest.(check int) "16 files" 16 (List.length a);
  Alcotest.(check (list (pair string string))) "same seed, same files" a b;
  Alcotest.(check bool) "another seed, other files" true (a <> c);
  (* the edit stream is deterministic too *)
  let stream () =
    let split = Option.get (Workloads.generate ctx w ~seed:1).Workloads.split in
    List.init 9 (fun i -> Workloads.request split (i + 1))
  in
  Alcotest.(check (list (pair bool string))) "same requests" (stream ()) (stream ());
  Alcotest.(check int) "every third request edits" 3
    (List.length (List.filter fst (stream ())));
  Workloads.rm_rf dir

let sample_output =
  {|== use-after-free: 2 report(s) (888 sources, 22 candidates)
use-after-free: a.mc:10 -> a.mc:12 (f -> g)
use-after-free: a.mc:30 -> a.mc:31 (h -> h)
== double-free: 1 report(s) (888 sources, 9 candidates) [degraded queries: 1 halved, 0 linear, 2 gave-up]
double-free: a.mc:50 -> a.mc:52 (k -> k)
== null-deref: 0 report(s) (0 sources, 0 candidates)
== incidents: 3 incident(s); seg-build: 3
|}

let test_parse_and_score () =
  let out = Check_output.parse sample_output in
  Alcotest.(check (list string)) "checkers" [ "use-after-free"; "double-free"; "null-deref" ]
    (List.map (fun (c : Check_output.checker) -> c.name) out.checkers);
  let uaf = List.hd out.checkers and df = List.nth out.checkers 1 in
  Alcotest.(check (list int)) "header counts" [ 2; 888; 22; 0 ]
    [ uaf.n_reports; uaf.sources; uaf.candidates; uaf.degraded ];
  Alcotest.(check int) "degraded" 3 df.degraded;
  Alcotest.(check int) "incidents" 3 out.incidents;
  Alcotest.(check (pair int int)) "report lines" (30, 31)
    (Check_output.lines_of_report (List.nth uaf.lines 1));
  let planted kind line real =
    { Pinpoint_workload.Truth.kind; fname = "f"; source_line = line; real; descr = "" }
  in
  let truth =
    [
      planted "use-after-free" 10 true;
      planted "use-after-free" 30 false;
      planted "use-after-free" 70 true;
      planted "double-free" 50 true;
    ]
  in
  let s = Check_output.score truth out in
  Alcotest.(check (list int)) "planted, found, false reports" [ 3; 2; 1 ]
    [ s.planted; s.found; s.false_reports ];
  Alcotest.check_raises "stray line" (Check_output.Malformed "oops") (fun () ->
      ignore (Check_output.parse "oops\n"))

let test_wait4 () =
  let pid =
    Unix.create_process "sh" [| "sh"; "-c"; "exit 3" |] Unix.stdin Unix.stdout Unix.stderr
  in
  let st = Proc.wait ~deadline:infinity pid in
  Alcotest.(check int) "exit code" 3 st.Proc.code;
  Alcotest.(check bool) "maxrss > 0" true (st.maxrss_kb > 0);
  Alcotest.(check bool) "not timed out" false st.timed_out;
  let pid = Unix.create_process "sleep" [| "sleep"; "30" |] Unix.stdin Unix.stdout Unix.stderr in
  let st = Proc.wait ~deadline:(Proc.now () +. 0.2) pid in
  Alcotest.(check bool) "killed at the deadline" true st.timed_out;
  Alcotest.(check int) "by SIGKILL" (128 + 9) st.code

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
        ] );
      ( "layers",
        [ Alcotest.test_case "self time, children on two domains" `Quick test_self_time_two_domains ]
      );
      ("compare", [ Alcotest.test_case "verdicts" `Quick test_compare_verdicts ]);
      ("inputs", [ Alcotest.test_case "generator determinism" `Quick test_generator_determinism ]);
      ("output", [ Alcotest.test_case "parse and score" `Quick test_parse_and_score ]);
      ("proc", [ Alcotest.test_case "wait4 stub" `Quick test_wait4 ]);
    ]
