(* Tests for the resilience layer: exception barriers, the solver
   degradation ladder, cooperative deadlines and seeded fault injection. *)

module R = Pinpoint_util.Resilience
module Metrics = Pinpoint_util.Metrics
module Solver = Pinpoint_smt.Solver
module Sat = Pinpoint_smt.Sat
module E = Pinpoint_smt.Expr
module Symbol = Pinpoint_smt.Symbol

let with_injection cfg f =
  R.Inject.install cfg;
  Fun.protect ~finally:R.Inject.clear f

let ivar name = E.var (Symbol.fresh name Symbol.Int)
let sat_formula () = E.lt (ivar "rx") (E.int 10)

(* A Lt/Le pair the linear P/N check refutes.  The smart constructors do
   not fold it (Le is canonical, not a Not node), so it reaches the
   solver as a real formula. *)
let linear_contradiction () =
  let x = ivar "cx" and y = ivar "cy" in
  E.and_ (E.lt x y) (E.le y x)

let rung = Alcotest.testable Solver.pp_rung ( = )

let verdict =
  Alcotest.testable
    (fun ppf -> function
      | Solver.Sat -> Format.pp_print_string ppf "sat"
      | Solver.Unsat -> Format.pp_print_string ppf "unsat"
      | Solver.Unknown -> Format.pp_print_string ppf "unknown")
    ( = )

let report_keys reports =
  List.filter Pinpoint.Report.is_reported reports
  |> List.map Pinpoint.Report.key
  |> List.sort_uniq compare

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- exception barrier --- *)

let test_protect () =
  let log = R.create () in
  let v =
    R.protect ~log ~phase:R.Transform ~subject:"f" ~fallback_note:"skipped"
      ~fallback:42
      (fun () -> failwith "boom")
  in
  Alcotest.(check int) "fallback returned" 42 v;
  (match R.incidents log with
  | [ i ] ->
    Alcotest.(check string) "subject" "f" i.R.subject;
    Alcotest.(check bool) "detail mentions exception" true
      (contains i.R.detail "boom");
    Alcotest.(check string) "fallback note" "skipped" i.R.fallback
  | l -> Alcotest.failf "expected 1 incident, got %d" (List.length l));
  let v2 =
    R.protect ~log ~phase:R.Transform ~subject:"g" ~fallback_note:"-"
      ~fallback:0
      (fun () -> 7)
  in
  Alcotest.(check int) "success passes through" 7 v2;
  Alcotest.(check int) "success records nothing" 1 (R.count log);
  (* timeouts are barriered like any crash *)
  let v3 =
    R.protect ~log ~phase:R.Engine_source ~subject:"h" ~fallback_note:"t"
      ~fallback:1
      (fun () -> raise Metrics.Timeout)
  in
  Alcotest.(check int) "timeout barriered" 1 v3;
  Alcotest.(check int) "timeout recorded" 2 (R.count log)

(* --- cooperative deadlines --- *)

let test_sat_deadline () =
  (* A satisfiable chain of clauses: with an already-expired deadline the
     in-loop poll must abort the DPLL search. *)
  let sat = Sat.create () in
  for _ = 1 to 40 do
    let a = Sat.new_var sat in
    let b = Sat.new_var sat in
    Sat.add_clause sat [ a; b ]
  done;
  (match Sat.solve sat with
  | Some (Sat.Sat _) -> ()
  | _ -> Alcotest.fail "instance should be satisfiable");
  match Sat.solve ~deadline:Metrics.immediate sat with
  | exception Metrics.Timeout -> ()
  | _ -> Alcotest.fail "expired deadline must raise Timeout in the DPLL loop"

(* --- degradation ladder --- *)

let test_full_rung () =
  let v, model, r = Solver.check_degrading (sat_formula ()) in
  Alcotest.check verdict "sat" Solver.Sat v;
  Alcotest.check rung "full rung" Solver.Rung_full r;
  Alcotest.(check bool) "model returned" true (model <> []);
  let f = linear_contradiction () in
  Alcotest.(check bool) "contradiction not folded away" false (E.is_false f);
  let v2, _, r2 = Solver.check_degrading f in
  Alcotest.check verdict "unsat" Solver.Unsat v2;
  Alcotest.check rung "full rung" Solver.Rung_full r2

(* --- conflict budgets on the ladder --- *)

let bvar name = E.var (Symbol.fresh name Symbol.Bool)

(* PHP(5,4) over boolean atoms: propositionally unsat, invisible to the
   linear rung, and every refutation path goes through real CDCL
   conflicts — so the conflict budget is what decides its fate. *)
let php_formula () =
  let n = 4 in
  let v =
    Array.init (n + 1) (fun i ->
        Array.init n (fun j -> bvar (Printf.sprintf "php_%d_%d" i j)))
  in
  let disj = function [] -> E.fls | x :: r -> List.fold_left E.or_ x r in
  let conj = List.fold_left E.and_ E.tru in
  let atleast = List.init (n + 1) (fun i -> disj (Array.to_list v.(i))) in
  let atmost = ref [] in
  for j = 0 to n - 1 do
    for i1 = 0 to n do
      for i2 = i1 + 1 to n do
        atmost := E.or_ (E.not_ v.(i1).(j)) (E.not_ v.(i2).(j)) :: !atmost
      done
    done
  done;
  conj (atleast @ !atmost)

let test_conflict_budget_ladder () =
  (* Exhausting the conflict budget is the full rung answering its normal
     budgeted Unknown — an Ok verdict, not a crash — so the ladder must
     NOT step down and the report survives. *)
  let (v, m, r), delta =
    Helpers.with_counters (fun () ->
        Solver.check_degrading ~conflict_budget:0 (php_formula ()))
  in
  Alcotest.check verdict "budgeted unknown" Solver.Unknown v;
  Alcotest.check rung "still the full rung" Solver.Rung_full r;
  Alcotest.(check bool) "no model" true (m = []);
  Alcotest.(check int) "not counted as degraded" 0
    (Pinpoint_obs.Obs.Snapshot.counter delta "solver.n_degraded");
  (* with the default budget the same pigeonhole is refuted outright *)
  let v2, _, r2 = Solver.check_degrading (php_formula ()) in
  Alcotest.check verdict "unsat" Solver.Unsat v2;
  Alcotest.check rung "full rung" Solver.Rung_full r2

let test_deadline_linear_rung () =
  (* Expired deadline: full and halved rungs abort before touching the
     formula; the linear contradiction check still refutes. *)
  let log = R.create () in
  let (v, _, r), delta =
    Helpers.with_counters (fun () ->
        Solver.check_degrading ~deadline:Metrics.immediate ~log ~subject:"lc"
          (linear_contradiction ()))
  in
  Alcotest.check verdict "linear refutation" Solver.Unsat v;
  Alcotest.check rung "linear rung" Solver.Rung_linear r;
  Alcotest.(check int) "two deadline aborts" 2
    (Pinpoint_obs.Obs.Snapshot.counter delta "solver.n_deadline_abort");
  Alcotest.(check int) "two incidents" 2 (R.count log)

let test_deadline_gave_up () =
  let v, _, r =
    Solver.check_degrading ~deadline:Metrics.immediate (sat_formula ())
  in
  Alcotest.check verdict "unknown keeps the report" Solver.Unknown v;
  Alcotest.check rung "gave up" Solver.Rung_gave_up r

let test_inject_crash_steps_down () =
  with_injection
    {
      R.Inject.default with
      seed = 4;
      solver_fault_rate = 1.0;
      solver_faults = [ R.Inject.Crash ];
    }
    (fun () ->
      let log = R.create () in
      let v, _, r = Solver.check_degrading ~log ~subject:"q" (sat_formula ()) in
      Alcotest.check verdict "retry still decides" Solver.Sat v;
      Alcotest.check rung "halved rung" Solver.Rung_halved r;
      (match R.incidents log with
      | [ i ] ->
        Alcotest.(check string) "crash incident" "injected: crash" i.R.detail;
        Alcotest.(check string) "phase" "solver-query" (R.phase_name i.R.phase)
      | l -> Alcotest.failf "expected 1 incident, got %d" (List.length l));
      (* sabotage applies to the full rung only, so Unsat survives too *)
      let v2, _, r2 =
        Solver.check_degrading ~log ~subject:"q2" (linear_contradiction ())
      in
      Alcotest.check verdict "unsat preserved" Solver.Unsat v2;
      Alcotest.check rung "halved rung" Solver.Rung_halved r2)

let test_inject_hang_waits_for_deadline () =
  with_injection
    {
      R.Inject.default with
      seed = 0;
      solver_fault_rate = 1.0;
      solver_faults = [ R.Inject.Hang ];
    }
    (fun () ->
      let log = R.create () in
      let t0 = Metrics.now () in
      let v, _, r =
        Solver.check_degrading ~budget_s:0.02 ~log ~subject:"q"
          (sat_formula ())
      in
      let dt = Metrics.now () -. t0 in
      Alcotest.check verdict "retry decides" Solver.Sat v;
      Alcotest.check rung "halved rung" Solver.Rung_halved r;
      Alcotest.(check bool) "hang consumed its budget" true (dt >= 0.015);
      Alcotest.(check bool) "hang incident" true
        (List.exists
           (fun i -> i.R.detail = "injected: hang (deadline exhausted)")
           (R.incidents log)))

let test_inject_unknown_verdict () =
  with_injection
    {
      R.Inject.default with
      seed = 2;
      solver_fault_rate = 1.0;
      solver_faults = [ R.Inject.Unknown_verdict ];
    }
    (fun () ->
      let log = R.create () in
      let v, _, r =
        Solver.check_degrading ~log ~subject:"q" (linear_contradiction ())
      in
      Alcotest.check verdict "forced unknown" Solver.Unknown v;
      Alcotest.check rung "gave up" Solver.Rung_gave_up r;
      Alcotest.(check bool) "unknown-verdict incident" true
        (List.exists
           (fun i -> i.R.detail = "injected: unknown-verdict")
           (R.incidents log)))

let multi_uaf_src =
  {|
void f(int s) { int *p = malloc(); *p = s; free(p); print(*p); }
void g(int s) {
  int *q = malloc();
  *q = s;
  bool c = s > 0;
  if (c) { free(q); }
  bool nc = !c;
  if (nc) { print(*q); }
  print(*q);
}
|}

let test_engine_per_run_stats () =
  let a = Helpers.prepare multi_uaf_src in
  let (_, stats), delta =
    Helpers.with_counters (fun () -> Pinpoint.Analysis.check a Helpers.uaf)
  in
  let n name = Pinpoint_obs.Obs.Snapshot.counter stats ("engine.n_" ^ name) in
  Alcotest.(check int) "one solver query per solver call" (n "solver_calls")
    (Pinpoint_obs.Obs.Snapshot.counter delta "solver.n_queries");
  Alcotest.(check int) "every query decided at some rung" (n "solver_calls")
    (n "rung_full" + n "rung_halved" + n "rung_linear" + n "rung_gave_up")

(* --- SEG fault isolation --- *)

let two_fn_src =
  {|
void f(int s) { int *p = malloc(); *p = s; free(p); print(*p); }
void g(int s) { int *q = malloc(); *q = s; free(q); print(*q); }
|}

let seg_fault_test cfg expected_detail () =
  with_injection cfg (fun () ->
      let a = Helpers.prepare two_fn_src in
      let reports, _ = Pinpoint.Analysis.check a Helpers.uaf in
      let reported = List.filter Pinpoint.Report.is_reported reports in
      Alcotest.(check bool) "g's bug still found" true
        (List.exists
           (fun (r : Pinpoint.Report.t) -> r.Pinpoint.Report.source_fn = "g")
           reported);
      Alcotest.(check bool)
        (expected_detail ^ " incident on f")
        true
        (List.exists
           (fun i ->
             i.R.phase = R.Seg_build && i.R.subject = "f"
             && i.R.detail = expected_detail)
           (Pinpoint.Analysis.incidents a));
      a)

let test_seg_crash_isolated () =
  let a =
    seg_fault_test
      {
        R.Inject.default with
        seed = 1;
        seg_crash_rate = 1.0;
        only = [ "f" ];
      }
      "injected: crash" ()
  in
  Alcotest.(check bool) "f has no SEG" true
    (Pinpoint.Analysis.seg_of a "f" = None);
  Alcotest.(check bool) "g's SEG intact" true
    (Pinpoint.Analysis.seg_of a "g" <> None)

let test_seg_drop () =
  let a =
    seg_fault_test
      { R.Inject.default with seed = 1; seg_drop_rate = 1.0; only = [ "f" ] }
      "injected: seg-drop" ()
  in
  Alcotest.(check bool) "f has no SEG" true
    (Pinpoint.Analysis.seg_of a "f" = None)

let test_seg_truncate () =
  let baseline = Helpers.prepare two_fn_src in
  let orig_edges =
    match Pinpoint.Analysis.seg_of baseline "f" with
    | Some seg -> Pinpoint_seg.Seg.n_edges seg
    | None -> Alcotest.fail "baseline SEG missing"
  in
  let a =
    seg_fault_test
      {
        R.Inject.default with
        seed = 1;
        seg_truncate_rate = 1.0;
        only = [ "f" ];
      }
      "injected: seg-truncate" ()
  in
  match Pinpoint.Analysis.seg_of a "f" with
  | None -> Alcotest.fail "truncated SEG should still exist"
  | Some seg ->
    Alcotest.(check bool) "truncation removed edges" true
      (Pinpoint_seg.Seg.n_edges seg <= orig_edges)

let test_truncate_keep_all () =
  let a = Helpers.prepare two_fn_src in
  match Pinpoint.Analysis.seg_of a "f" with
  | None -> Alcotest.fail "SEG missing"
  | Some seg ->
    let full = Pinpoint_seg.Seg.truncate seg ~keep:1.0 in
    Alcotest.(check int) "keep=1.0 keeps every edge"
      (Pinpoint_seg.Seg.n_edges seg)
      (Pinpoint_seg.Seg.n_edges full)

(* --- determinism --- *)

let test_injection_determinism () =
  let run () =
    with_injection
      { R.Inject.default with seed = 5; solver_fault_rate = 0.5 }
      (fun () ->
        let a = Helpers.prepare multi_uaf_src in
        let reports, _ = Pinpoint.Analysis.check a Helpers.uaf in
        ( report_keys reports,
          List.map
            (fun i -> (i.R.phase, i.R.subject, i.R.detail, i.R.fallback))
            (Pinpoint.Analysis.incidents a) ))
  in
  let k1, i1 = run () in
  let k2, i2 = run () in
  Alcotest.(check bool) "same reports" true (k1 = k2);
  Alcotest.(check bool) "same incidents" true (i1 = i2);
  Alcotest.(check bool) "faults actually fired" true (i1 <> [])

(* --- monotonicity under solver faults --- *)

let test_crash_only_injection_lossless () =
  (* Crash sabotage hits the full rung only; the halved retry recomputes
     the same verdicts, so the reports are identical. *)
  let base = report_keys (Helpers.run_checker multi_uaf_src Helpers.uaf) in
  let inj =
    with_injection
      {
        R.Inject.default with
        seed = 3;
        solver_fault_rate = 1.0;
        solver_faults = [ R.Inject.Crash ];
      }
      (fun () -> report_keys (Helpers.run_checker multi_uaf_src Helpers.uaf))
  in
  Alcotest.(check bool) "identical reports" true (base = inj)

let test_injection_never_loses_reports () =
  (* All fault classes: the only verdict a sabotaged query can change to
     is Unknown, which KEEPS the report — so reported keys only grow. *)
  let base = report_keys (Helpers.run_checker multi_uaf_src Helpers.uaf) in
  let inj =
    with_injection
      { R.Inject.default with seed = 9; solver_fault_rate = 1.0 }
      (fun () -> report_keys (Helpers.run_checker multi_uaf_src Helpers.uaf))
  in
  Alcotest.(check bool) "baseline reports survive injection" true
    (List.for_all (fun k -> List.mem k inj) base)

(* --- corpus acceptance: 20% solver faults, everything completes --- *)

let engine_cfg =
  { Pinpoint.Engine.default_config with solver_budget_s = 0.05 }

let run_corpus_file path =
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let a = Pinpoint.Analysis.prepare_source ~file:path src in
  let results =
    Pinpoint.Analysis.check_all ~config:engine_cfg a Pinpoint.Checkers.all
  in
  (a, results)

let test_corpus_injection () =
  let dir = Test_corpus.corpus_dir () in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus found" true (files <> []);
  R.Inject.clear ();
  let baseline =
    List.map (fun f -> (f, run_corpus_file (Filename.concat dir f))) files
  in
  let injected =
    with_injection
      { R.Inject.default with seed = 2; solver_fault_rate = 0.2 }
      (fun () ->
        List.map (fun f -> (f, run_corpus_file (Filename.concat dir f))) files)
  in
  (* every checker completed on every file *)
  List.iter
    (fun (f, (_, results)) ->
      Alcotest.(check int)
        (f ^ ": all checkers completed")
        (List.length Pinpoint.Checkers.all)
        (List.length results))
    injected;
  (* any report lost to injection must be a degraded-rung refutation:
     Unsat is correct on every rung, so those are real refutations the
     baseline run kept only as budget-exhausted Unknowns *)
  List.iter2
    (fun (f, (_, base_results)) (f', (_, inj_results)) ->
      assert (f = f');
      List.iter2
        (fun (cb, base_reports, _) (ci, inj_reports, _) ->
          assert (cb = ci);
          let kb = report_keys base_reports in
          let ki = report_keys inj_reports in
          let degraded_refuted =
            List.filter_map
              (fun (r : Pinpoint.Report.t) ->
                if
                  r.Pinpoint.Report.verdict = Pinpoint.Report.Infeasible
                  && Pinpoint.Report.is_degraded r
                then Some (Pinpoint.Report.key r)
                else None)
              inj_reports
          in
          List.iter
            (fun k ->
              if not (List.mem k ki) then
                Alcotest.(check bool)
                  (Printf.sprintf "%s/%s: lost report is a degraded refutation"
                     f cb)
                  true (List.mem k degraded_refuted))
            kb)
        base_results inj_results)
    baseline injected;
  (* at 20% every solver fault class fires at least once over the corpus *)
  let details =
    List.concat_map
      (fun (_, (a, _)) ->
        List.map (fun i -> i.R.detail) (Pinpoint.Analysis.incidents a))
      injected
  in
  let has needle = List.exists (fun d -> contains d needle) details in
  Alcotest.(check bool) "crash fault fired" true (has "injected: crash");
  Alcotest.(check bool) "hang fault fired" true (has "injected: hang");
  Alcotest.(check bool) "unknown-verdict fault fired" true
    (has "injected: unknown-verdict")

let suite =
  [
    Alcotest.test_case "protect barrier" `Quick test_protect;
    Alcotest.test_case "sat in-loop deadline" `Quick test_sat_deadline;
    Alcotest.test_case "full rung decides" `Quick test_full_rung;
    Alcotest.test_case "conflict budget: budgeted unknown, no step-down"
      `Quick test_conflict_budget_ladder;
    Alcotest.test_case "expired deadline: linear rung" `Quick
      test_deadline_linear_rung;
    Alcotest.test_case "expired deadline: gave up" `Quick
      test_deadline_gave_up;
    Alcotest.test_case "injected crash steps down" `Quick
      test_inject_crash_steps_down;
    Alcotest.test_case "injected hang waits for deadline" `Quick
      test_inject_hang_waits_for_deadline;
    Alcotest.test_case "injected unknown verdict" `Quick
      test_inject_unknown_verdict;
    Alcotest.test_case "engine per-run stats" `Quick test_engine_per_run_stats;
    Alcotest.test_case "seg crash isolated" `Quick test_seg_crash_isolated;
    Alcotest.test_case "seg drop" `Quick test_seg_drop;
    Alcotest.test_case "seg truncate" `Quick test_seg_truncate;
    Alcotest.test_case "truncate keep=1 is identity" `Quick
      test_truncate_keep_all;
    Alcotest.test_case "seeded injection is deterministic" `Quick
      test_injection_determinism;
    Alcotest.test_case "crash-only injection is lossless" `Quick
      test_crash_only_injection_lossless;
    Alcotest.test_case "injection never loses reports" `Quick
      test_injection_never_loses_reports;
    Alcotest.test_case "corpus: 20% solver faults" `Slow test_corpus_injection;
  ]
