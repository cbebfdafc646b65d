(* Tests for the concrete interpreter, plus differential tests between
   the interpreter (dynamic oracle) and the static checkers. *)

module I = Pinpoint_interp.Interp

let run ?(seed = 1) src fname =
  I.run_function ~seed (Helpers.compile src) fname

let has_kind kind (o : I.outcome) =
  List.exists (fun (e : I.event) -> e.I.kind = kind) o.I.events

let test_uaf_dynamic () =
  let o =
    run "void f(int s) { int *p = malloc(); *p = s; free(p); print(*p); }" "f"
  in
  Alcotest.(check bool) "uaf observed" true (has_kind I.Use_after_free o);
  Alcotest.(check bool) "completed" true o.I.completed

let test_double_free_dynamic () =
  let o = run "void f(int s) { int *p = malloc(); *p = s; free(p); free(p); }" "f" in
  Alcotest.(check bool) "double free observed" true (has_kind I.Double_free o)

let test_null_deref_dynamic () =
  let o = run "void f() { int *p = null; print(*p); }" "f" in
  Alcotest.(check bool) "null deref observed" true (has_kind I.Null_deref o)

let test_safe_program_quiet () =
  let o =
    run "void f(int s) { int *p = malloc(); *p = s; print(*p); free(p); }" "f"
  in
  Alcotest.(check int) "no events" 0 (List.length o.I.events)

let test_taint_dynamic () =
  let o =
    run "void f() { int c = input(); int d = c * 2; int *h = fopen(d); print(*h); }" "f"
  in
  Alcotest.(check bool) "taint observed" true
    (List.exists
       (fun (e : I.event) ->
         match e.I.kind with I.Taint_flow { sink = "fopen"; _ } -> true | _ -> false)
       o.I.events)

let test_taint_overwritten_quiet () =
  let o = run "void f() { int c = input(); int d = 5; int *h = fopen(d); print(*h); c = c + 1; }" "f" in
  Alcotest.(check bool) "clean value not flagged" false
    (List.exists
       (fun (e : I.event) -> match e.I.kind with I.Taint_flow _ -> true | _ -> false)
       o.I.events)

let test_branch_dependent () =
  (* free under s > 0 and use under s > 5: only seeds where the synthetic
     s lands > 5 can trigger; over many seeds both behaviours occur *)
  let src =
    {|
void f(int s) {
  int *p = malloc();
  *p = s;
  bool g1 = s > 0;
  if (g1) { free(p); }
  bool g2 = s > 5;
  if (g2) { print(*p); }
}
|}
  in
  let trigger = ref 0 and quiet = ref 0 in
  for seed = 1 to 40 do
    let o = run ~seed src "f" in
    if has_kind I.Use_after_free o then incr trigger else incr quiet
  done;
  Alcotest.(check bool) "some seeds trigger" true (!trigger > 0);
  Alcotest.(check bool) "some seeds stay safe" true (!quiet > 0)

let test_trap_never_triggers () =
  (* the correlated trap is dynamically safe on every input *)
  let src =
    {|
void f(int *p) {
  int s = input();
  bool g = s > 0;
  if (g) { free(p); }
  bool ng = !g;
  if (ng) { print(*p); }
}
|}
  in
  for seed = 1 to 60 do
    let o = run ~seed src "f" in
    Alcotest.(check bool) "trap safe dynamically" false (has_kind I.Use_after_free o)
  done

let test_interproc_dynamic () =
  let o =
    run
      "void rel(int *p) { free(p); } void top(int s) { int *q = malloc(); *q = s; rel(q); print(*q); }"
      "top"
  in
  Alcotest.(check bool) "cross-function uaf observed" true (has_kind I.Use_after_free o)

let test_step_budget () =
  (* mutual recursion: the depth budget stops it *)
  let o =
    I.run_function ~max_call_depth:8
      (Helpers.compile
         "void a(int n) { b(n); } void b(int n) { a(n); } void top() { a(1); }")
      "top"
  in
  Alcotest.(check bool) "stopped" false o.I.completed

let test_free_null_noop () =
  let o = run "void f() { int *p = null; free(p); free(p); }" "f" in
  Alcotest.(check int) "free(NULL) twice is fine" 0 (List.length o.I.events)

(* --- differential: dynamic events must be statically reported --- *)

let static_report_covers prog_src (e : I.event) =
  let a = Helpers.prepare prog_src in
  match Pinpoint.Checkers.by_name (I.checker_of_event e.I.kind) with
  | None -> false
  | Some spec ->
    let reports, _ = Pinpoint.Analysis.check a spec in
    List.exists Pinpoint.Report.is_reported reports

let test_differential_handwritten () =
  let cases =
    [
      "void f(int s) { int *p = malloc(); *p = s; free(p); print(*p); }";
      "void f(int s) { int *p = malloc(); *p = s; free(p); free(p); }";
      "void rel(int *p) { free(p); } void top(int s) { int *q = malloc(); *q = s; rel(q); print(*q); }";
      "void f() { int c = input(); int *h = fopen(c); print(*h); }";
      "void f() { int c = getpass(); sendto(c); }";
      "void f() { int *p = null; print(*p); }";
    ]
  in
  List.iter
    (fun src ->
      let events = I.run_all (Helpers.compile src) in
      Alcotest.(check bool) "dynamic triggered something" true (events <> []);
      List.iter
        (fun e ->
          Alcotest.(check bool)
            (Format.asprintf "static covers %a" I.pp_event e)
            true (static_report_covers src e))
        events)
    cases

let differential_generated =
  Helpers.qtest ~count:12 "generated subjects: dynamic events statically covered"
    QCheck.(int_range 1 5_000)
    (fun seed ->
      let s =
        Pinpoint_workload.Gen.generate ~name:"d.mc"
          {
            Pinpoint_workload.Gen.default_params with
            seed;
            target_loc = 300;
            n_real_uaf = 1;
            n_real_df = 1;
          }
      in
      let events = I.run_all ~seeds:[ 1; 2; 3 ] (Pinpoint_workload.Gen.compile s) in
      let a = Pinpoint.Analysis.prepare (Pinpoint_workload.Gen.compile s) in
      let reported_sinks spec_name =
        match Pinpoint.Checkers.by_name spec_name with
        | None -> []
        | Some spec ->
          let reports, _ = Pinpoint.Analysis.check a spec in
          List.filter_map
            (fun (r : Pinpoint.Report.t) ->
              if Pinpoint.Report.is_reported r then
                Some (r.sink_fn, r.sink_loc.Pinpoint_ir.Stmt.line)
              else None)
            reports
      in
      let tables = Hashtbl.create 4 in
      List.for_all
        (fun (e : I.event) ->
          let checker = I.checker_of_event e.I.kind in
          let sinks =
            match Hashtbl.find_opt tables checker with
            | Some l -> l
            | None ->
              let l = reported_sinks checker in
              Hashtbl.add tables checker l;
              l
          in
          (* as in the Juliet test: a reported path whose sink is the
             event's, same function and same line *)
          List.mem (e.I.fname, e.I.loc.Pinpoint_ir.Stmt.line) sinks)
        events)

(* Every Juliet case triggers its event at run time within 12 seeds
   (guarded variants need a lucky input), and the static checker reports
   a path whose sink is the event's: same function, same line. *)
let juliet_dynamic_confirmation () =
  List.iter
    (fun (case : Pinpoint_workload.Juliet.case) ->
      let id = case.Pinpoint_workload.Juliet.id in
      let want =
        match case.Pinpoint_workload.Juliet.kind with
        | "use-after-free" -> I.Use_after_free
        | _ -> I.Double_free
      in
      let prog = Pinpoint_workload.Juliet.compile case in
      let event =
        List.find_map
          (fun seed ->
            List.find_opt
              (fun (e : I.event) -> e.I.kind = want)
              (I.run_function ~seed prog "driver").I.events)
          [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ]
      in
      match event with
      | None -> Alcotest.failf "%s: no %s event within 12 seeds" id case.kind
      | Some e ->
        let spec = Option.get (Pinpoint.Checkers.by_name case.kind) in
        let a = Pinpoint.Analysis.prepare (Pinpoint_workload.Juliet.compile case) in
        let reports, _ = Pinpoint.Analysis.check a spec in
        if
          not
            (List.exists
               (fun (r : Pinpoint.Report.t) ->
                 Pinpoint.Report.is_reported r
                 && r.Pinpoint.Report.sink_fn = e.I.fname
                 && r.Pinpoint.Report.sink_loc.Pinpoint_ir.Stmt.line
                    = e.I.loc.Pinpoint_ir.Stmt.line)
               reports)
        then
          Alcotest.failf "%s: no %s report with sink %s:%d" id case.kind
            e.I.fname e.I.loc.Pinpoint_ir.Stmt.line)
    (Pinpoint_workload.Juliet.cases ())

let suite =
  [
    Alcotest.test_case "uaf dynamic" `Quick test_uaf_dynamic;
    Alcotest.test_case "double free dynamic" `Quick test_double_free_dynamic;
    Alcotest.test_case "null deref dynamic" `Quick test_null_deref_dynamic;
    Alcotest.test_case "safe program quiet" `Quick test_safe_program_quiet;
    Alcotest.test_case "taint dynamic" `Quick test_taint_dynamic;
    Alcotest.test_case "clean taint quiet" `Quick test_taint_overwritten_quiet;
    Alcotest.test_case "branch dependent" `Quick test_branch_dependent;
    Alcotest.test_case "trap never triggers" `Quick test_trap_never_triggers;
    Alcotest.test_case "interproc dynamic" `Quick test_interproc_dynamic;
    Alcotest.test_case "step budget" `Quick test_step_budget;
    Alcotest.test_case "free(NULL) noop" `Quick test_free_null_noop;
    Alcotest.test_case "differential handwritten" `Quick test_differential_handwritten;
    differential_generated;
    Alcotest.test_case "juliet cases trigger dynamically and are reported"
      `Quick juliet_dynamic_confirmation;
  ]
