(* End-to-end tests for the demand-driven engine and the checkers. *)

let count = Helpers.n_reported

let test_intra_uaf () =
  Alcotest.(check int) "simple uaf" 1
    (count "void f(int s) { int *p = malloc(); *p = s; free(p); print(*p); }"
       Helpers.uaf)

let test_use_before_free_safe () =
  Alcotest.(check int) "ordering respected" 0
    (count "void f(int s) { int *p = malloc(); *p = s; print(*p); free(p); }"
       Helpers.uaf)

let test_correlated_trap_pruned () =
  Alcotest.(check int) "path-sensitive pruning" 0
    (count
       {|
void f(int *p) {
  int s = input();
  bool g = s > 0;
  if (g) { free(p); }
  bool ng = !g;
  if (ng) { print(*p); }
}
|}
       Helpers.uaf)

let test_overlapping_guards_found () =
  Alcotest.(check int) "feasible overlap reported" 1
    (count
       {|
void f(int *p) {
  int s = input();
  bool g1 = s > 0;
  if (g1) { free(p); }
  bool g2 = s > 5;
  if (g2) { print(*p); }
}
|}
       Helpers.uaf)

let test_interproc_callee_frees () =
  (* VF3 direction: callee frees the parameter, caller dereferences *)
  Alcotest.(check int) "dangling actual" 1
    (count
       "void rel(int *p) { free(p); } void top(int s) { int *q = malloc(); *q = s; rel(q); print(*q); }"
       Helpers.uaf)

let test_interproc_callee_uses () =
  (* VF4 direction: caller frees, callee dereferences *)
  Alcotest.(check int) "sink inside callee" 1
    (count
       "void use(int *p) { print(*p); } void top(int s) { int *q = malloc(); *q = s; free(q); use(q); }"
       Helpers.uaf)

let test_interproc_freed_return () =
  (* VF2 direction: callee returns a freed pointer *)
  Alcotest.(check int) "freed return" 1
    (count
       "int* mk(int s) { int *p = malloc(); *p = s; free(p); return p; }  void top(int s) { int *q = mk(s); print(*q); }"
       Helpers.uaf)

let test_call_before_free_safe () =
  (* the callee deref happens before the free: the anchor must block it *)
  Alcotest.(check int) "call precedes free" 0
    (count
       "void use(int *p) { print(*p); } void top(int s) { int *q = malloc(); *q = s; use(q); free(q); }"
       Helpers.uaf)

let test_deep_chain () =
  Alcotest.(check int) "depth-4 call chain" 1
    (count
       {|
void f0(int *p) { free(p); }
void f1(int *p) { f0(p); }
void f2(int *p) { f1(p); }
void f3(int *p) { f2(p); }
void top(int s) { int *q = malloc(); *q = s; f3(q); print(*q); }
|}
       Helpers.uaf)

let test_heap_mediated () =
  (* Figure 1's shape: dangling pointer travels through the heap *)
  Alcotest.(check int) "through double pointer" 1
    (count
       {|
void evil(int **q) {
  int *c = malloc();
  *c = 1;
  bool cnd = *q != null;
  if (cnd) { *q = c; free(c); }
}
void top(int *a) {
  int **ptr = malloc();
  *ptr = a;
  evil(ptr);
  int *f = *ptr;
  print(*f);
}
|}
       Helpers.uaf)

let test_double_free () =
  Alcotest.(check int) "double free found" 1
    (count
       "void rel(int *p) { free(p); } void top(int s) { int *q = malloc(); *q = s; rel(q); free(q); }"
       Helpers.dfree);
  Alcotest.(check int) "single free is fine" 0
    (count "void f(int s) { int *p = malloc(); *p = s; free(p); }" Helpers.dfree)

let test_double_free_exclusive_safe () =
  Alcotest.(check int) "exclusive branches pruned" 0
    (count
       {|
void f(int *p) {
  int s = input();
  bool g = s > 0;
  if (g) { free(p); }
  bool ng = !g;
  if (ng) { free(p); }
}
|}
       Helpers.dfree)

let test_taint_through_arith () =
  Alcotest.(check int) "taint via operands" 1
    (count
       "void f() { int c = input(); int d = c * 2 + 1; int *h = fopen(d); print(*h); }"
       Helpers.taint_path)

let test_uaf_not_through_arith () =
  (* the UAF checker follows only value-preserving (Copy) edges: a value
     loaded before the free and then pushed through arithmetic does not
     dangle *)
  Alcotest.(check int) "int value flow does not dangle" 0
    (count
       "void g(int s) { int *p = malloc(); *p = s; int v = *p; free(p); print(v + 1); }"
       Helpers.uaf)

let test_taint_interproc () =
  Alcotest.(check int) "taint through helper" 1
    (count
       "int mix(int d) { int e = d + 3; return e; }  void f() { int c = getpass(); int d = mix(c); sendto(d); }"
       Helpers.taint_trans)

let test_taint_trap_pruned () =
  Alcotest.(check int) "contradictory taint pruned" 0
    (count
       {|
void f(int z) {
  int c = input();
  int d = 7;
  bool g = z > 2;
  if (g) { d = c; }
  bool ng = !g;
  if (ng) { int *h = fopen(d); print(*h); }
}
|}
       Helpers.taint_path)

let test_nonlinear_soundy_fp () =
  (* The solver's weak nonlinear theory cannot refute x*x < 0, so without
     refinement the trap is the documented soundy FP; demand-driven
     refinement (on by default) derives 0 <= y from y = x*x and kills it. *)
  let src =
    {|
void f(int *p, int x) {
  int y = x * x;
  bool neg = y < 0;
  if (neg) { free(p); }
  print(*p);
}
|}
  in
  Alcotest.(check int) "refinement removes the trap" 0
    (count src Helpers.uaf);
  let no_refine = { Pinpoint.Engine.default_config with use_refine = false } in
  Alcotest.(check int) "nonlinear guard kept without refinement" 1
    (count ~config:no_refine src Helpers.uaf)

let test_malloc_not_null () =
  (* the guard p == null contradicts p = malloc() (allocation addresses
     are concrete non-zero), so the free is unreachable *)
  Alcotest.(check int) "alloc address refutes null check" 0
    (count
       {|
void f(int s) {
  int *p = malloc();
  *p = s;
  bool isnull = p == null;
  if (isnull) { free(p); }
  print(*p);
}
|}
       Helpers.uaf)

let test_report_dedup () =
  (* two deref sinks on the same line... different lines: both reported,
     but each (source, sink) pair only once *)
  let reports =
    Helpers.reported
      "void f(int s) { int *p = malloc(); *p = s; free(p); print(*p); print(*p); }"
      Helpers.uaf
  in
  let keys = List.map Pinpoint.Report.key reports in
  Alcotest.(check int) "no duplicate keys" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_no_feasibility_config () =
  let a =
    Helpers.prepare
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
  let cfg = { Pinpoint.Engine.default_config with check_feasibility = false } in
  let reports, _ = Pinpoint.Analysis.check ~config:cfg a Helpers.uaf in
  (* without the SMT stage the trap is reported: this is exactly the
     precision the solver buys *)
  Alcotest.(check int) "trap kept without solver" 1
    (List.length (List.filter Pinpoint.Report.is_reported reports))

let test_stats () =
  let a =
    Helpers.prepare "void f(int s) { int *p = malloc(); *p = s; free(p); print(*p); }"
  in
  let _, stats = Pinpoint.Analysis.check a Helpers.uaf in
  Alcotest.(check int) "one source" 1 stats.Pinpoint.Engine.n_sources;
  Alcotest.(check bool) "solver ran" true (stats.Pinpoint.Engine.n_solver_calls >= 1)


let test_budgets () =
  (* max_reports_per_source caps the flood from one source *)
  let src =
    "void f(int s) { int *p = malloc(); *p = s; free(p); print(*p); print(*p); print(*p); print(*p); }"
  in
  let a = Helpers.prepare src in
  let cfg = { Pinpoint.Engine.default_config with max_reports_per_source = 1 } in
  let reports, _ = Pinpoint.Analysis.check ~config:cfg a Helpers.uaf in
  Alcotest.(check int) "capped at one" 1
    (List.length (List.filter Pinpoint.Report.is_reported reports));
  (* a zero step budget finds nothing but does not crash *)
  let cfg0 = { Pinpoint.Engine.default_config with max_steps = 0 } in
  let reports0, _ = Pinpoint.Analysis.check ~config:cfg0 a Helpers.uaf in
  Alcotest.(check int) "no steps, no reports" 0
    (List.length (List.filter Pinpoint.Report.is_reported reports0))

let test_deadline_cooperative () =
  let src =
    "void f(int s) { int *p = malloc(); *p = s; free(p); print(*p); }"
  in
  let a = Helpers.prepare src in
  let cfg =
    { Pinpoint.Engine.default_config with
      deadline = Pinpoint_util.Metrics.deadline_after 1e-9 }
  in
  (* an already-expired deadline terminates the search quietly *)
  let reports, _ = Pinpoint.Analysis.check ~config:cfg a Helpers.uaf in
  Alcotest.(check int) "expired deadline" 0
    (List.length (List.filter Pinpoint.Report.is_reported reports))

let test_call_depth_budget () =
  (* bug behind a chain deeper than the context budget is lost (the
     documented trade of the paper's six-level default) *)
  let src = {|
void f0(int *p) { print(*p); }
void f1(int *p) { f0(p); }
void f2(int *p) { f1(p); }
void f3(int *p) { f2(p); }
void f4(int *p) { f3(p); }
void top(int s) { int *q = malloc(); *q = s; free(q); f4(q); }
|}
  in
  let a = Helpers.prepare src in
  let deep = { Pinpoint.Engine.default_config with max_call_depth = 6 } in
  let shallow = { Pinpoint.Engine.default_config with max_call_depth = 2 } in
  let n cfg =
    let reports, _ = Pinpoint.Analysis.check ~config:cfg a Helpers.uaf in
    List.length (List.filter Pinpoint.Report.is_reported reports)
  in
  Alcotest.(check int) "found at depth 6" 1 (n deep);
  Alcotest.(check int) "lost at depth 2" 0 (n shallow)

(* Without a VF table the engine searches every defined callee: VF
   pruning only skips callees that cannot complete a bug, so on every
   corpus file each checker reports what the pruned run reports. *)
let test_no_vf_table () =
  List.iter
    (fun path ->
      let a =
        Pinpoint.Analysis.prepare_source ~file:path (Test_store.read_file path)
      in
      List.iter
        (fun (spec : Pinpoint.Checker_spec.t) ->
          let reports vf =
            fst
              (Pinpoint.Engine.run ~graph:a.Pinpoint.Analysis.graph
                 ~seg_of:(Pinpoint.Analysis.seg_of a) ~rv:a.Pinpoint.Analysis.rv
                 ~vf spec)
            |> List.filter Pinpoint.Report.is_reported
            |> List.map Pinpoint.Report.one_line
          in
          Alcotest.(check (list string))
            (Printf.sprintf "%s: %s" (Filename.basename path)
               spec.Pinpoint.Checker_spec.name)
            (reports
               (Option.map snd
                  (Hashtbl.find_opt a.Pinpoint.Analysis.vfs
                     spec.Pinpoint.Checker_spec.name)))
            (reports None))
        Pinpoint.Checkers.all)
    (Test_store.corpus_files ())

let suite =
  [
    Alcotest.test_case "intra uaf" `Quick test_intra_uaf;
    Alcotest.test_case "use before free safe" `Quick test_use_before_free_safe;
    Alcotest.test_case "correlated trap pruned" `Quick test_correlated_trap_pruned;
    Alcotest.test_case "overlapping guards found" `Quick test_overlapping_guards_found;
    Alcotest.test_case "interproc: callee frees" `Quick test_interproc_callee_frees;
    Alcotest.test_case "interproc: callee uses" `Quick test_interproc_callee_uses;
    Alcotest.test_case "interproc: freed return" `Quick test_interproc_freed_return;
    Alcotest.test_case "call before free safe" `Quick test_call_before_free_safe;
    Alcotest.test_case "deep call chain" `Quick test_deep_chain;
    Alcotest.test_case "heap mediated (Fig 1)" `Quick test_heap_mediated;
    Alcotest.test_case "double free" `Quick test_double_free;
    Alcotest.test_case "double free exclusive safe" `Quick test_double_free_exclusive_safe;
    Alcotest.test_case "taint through arithmetic" `Quick test_taint_through_arith;
    Alcotest.test_case "uaf ignores operand flow" `Quick test_uaf_not_through_arith;
    Alcotest.test_case "taint interprocedural" `Quick test_taint_interproc;
    Alcotest.test_case "taint trap pruned" `Quick test_taint_trap_pruned;
    Alcotest.test_case "nonlinear soundy FP" `Quick test_nonlinear_soundy_fp;
    Alcotest.test_case "malloc not null" `Quick test_malloc_not_null;
    Alcotest.test_case "report dedup" `Quick test_report_dedup;
    Alcotest.test_case "no-solver config" `Quick test_no_feasibility_config;
    Alcotest.test_case "engine stats" `Quick test_stats;
    Alcotest.test_case "engine budgets" `Quick test_budgets;
    Alcotest.test_case "cooperative deadline" `Quick test_deadline_cooperative;
    Alcotest.test_case "call depth budget" `Quick test_call_depth_budget;
    Alcotest.test_case "no VF table: reports unchanged (corpus)" `Quick
      test_no_vf_table;
  ]
