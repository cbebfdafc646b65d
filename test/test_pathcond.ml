(* Precision tests for path conditions (paper §3.2.2 Equations 1-3):
   the computed PC of the motivating example must entail exactly the
   branch outcomes the paper names (θ1 ∧ θ3 ∧ θ2), which we verify by
   forcing each branch variable's defining comparison the other way and
   checking the conjunction becomes unsatisfiable. *)

module E = Pinpoint_smt.Expr
module Solver = Pinpoint_smt.Solver

let fig2_src =
  {|
void bar(int **q) {
  int *c = malloc();
  bool th3 = *q != null;
  if (th3) {
    *q = c;
    free(c);
  } else {
    int t = input();
    bool th4 = t > 0;
    if (th4) { *q = null; }
  }
}

void qux(int **r) {
  int x = input();
  if (x > 5) { *r = null; } else { *r = null; }
}

void foo(int *a) {
  int **ptr = malloc();
  *ptr = a;
  int th1 = input();
  if (th1 > 0) { bar(ptr); } else { qux(ptr); }
  int *f = *ptr;
  int th2 = input();
  if (th2 > 0) { print(*f); }
}
|}

let the_report () =
  let a = Pinpoint.Analysis.prepare_source ~file:"fig2" fig2_src in
  let reports, _ = Pinpoint.Analysis.check a Pinpoint.Checkers.use_after_free in
  match List.filter Pinpoint.Report.is_reported reports with
  | [ r ] -> r
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

(* Find, in the PC's hints, the assignments of comparison atoms that
   mention a given constant; used to locate θ1 (th1 > 0), θ2 (th2 > 0)
   and θ3 (value != 0). *)
let test_pc_satisfiable () =
  let r = the_report () in
  Alcotest.(check bool) "verdict feasible" true
    (r.Pinpoint.Report.verdict = Pinpoint.Report.Feasible);
  Alcotest.(check bool) "pc sat" true
    (Solver.check r.Pinpoint.Report.cond = Solver.Sat)

let test_pc_structure () =
  (* the PC mentions clones from both foo and bar frames, and none from a
     qux frame on the winning path... qux constraints may appear through
     the load resolution (the other φ branch) but must be guarded. *)
  let r = the_report () in
  let names =
    List.map Pinpoint_smt.Symbol.name (E.vars r.Pinpoint.Report.cond)
  in
  let mentions affix =
    List.exists
      (fun n ->
        let nl = String.length n and al = String.length affix in
        let rec go i = i + al <= nl && (String.sub n i al = affix || go (i + 1)) in
        go 0)
      names
  in
  Alcotest.(check bool) "mentions foo frame" true (mentions "@foo");
  Alcotest.(check bool) "mentions bar frame" true (mentions "@bar")

(* Force the θ1-direction branch the wrong way: conjoin th1 <= 0 for the
   hint atom that decides the call to bar.  The paper's PC θ1∧θ3∧θ2 must
   become unsatisfiable. *)
let force_against (r : Pinpoint.Report.t) pred =
  let forced =
    List.filter_map
      (fun ((atom : E.t), b) -> if pred atom then Some (if b then E.not_ atom else atom) else None)
      r.Pinpoint.Report.hints
  in
  Alcotest.(check bool) "found atoms to force" true (forced <> []);
  E.conj (r.Pinpoint.Report.cond :: forced)

let is_cmp_with_zero (atom : E.t) =
  (* the θ guards compare against the constant 0 *)
  match atom.E.node with
  | E.Lt (a, b) | E.Le (a, b) | E.Eq (a, b) | E.Ne (a, b) -> (
    match (a.E.node, b.E.node) with
    | E.Int 0, _ | _, E.Int 0 -> true
    | _ -> false)
  | _ -> false

let test_pc_branches_essential () =
  let r = the_report () in
  (* Flipping ALL the zero-comparison atoms (the θ guards and the
     null-check) must refute the path. *)
  let flipped = force_against r is_cmp_with_zero in
  Alcotest.(check bool) "flipped guards refute the path" true
    (Solver.check flipped = Solver.Unsat)

let test_pc_each_hint_consistent () =
  (* conjoining the hints AS GIVEN must stay satisfiable (they are a
     model) *)
  let r = the_report () in
  let as_given =
    List.map
      (fun ((atom : E.t), b) -> if b then atom else E.not_ atom)
      r.Pinpoint.Report.hints
  in
  Alcotest.(check bool) "model consistent with pc" true
    (Solver.check (E.conj (r.Pinpoint.Report.cond :: as_given)) = Solver.Sat)

let test_pc_context_cloning () =
  (* two call sites of the same callee must not share constraint
     variables: analyse a program calling inc twice and check the PC of
     the (single) bug does not equate the two calls' internals *)
  let src =
    {|
int inc(int v) { int w = v + 1; return w; }
void top(int s) {
  int a = inc(s);
  int b = inc(a);
  int *p = malloc();
  *p = b;
  bool g = a < b;
  if (g) { free(p); }
  print(*p);
}
|}
  in
  let a = Pinpoint.Analysis.prepare_source ~file:"clone" src in
  let reports, _ = Pinpoint.Analysis.check a Pinpoint.Checkers.use_after_free in
  match List.filter Pinpoint.Report.is_reported reports with
  | [ r ] ->
    (* a < b where b = a + 1 is satisfiable — and must remain so under
       cloning (a context-insensitive analysis merging both calls could
       equate w-variables and still be fine here, but sharing in the
       wrong direction would make g unsatisfiable and lose the bug) *)
    Alcotest.(check bool) "feasible through two contexts" true
      (r.Pinpoint.Report.verdict = Pinpoint.Report.Feasible)
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

(* --- the incremental builder vs the one-shot oracle --------------- *)

module Cond = Pinpoint.Vpath.Cond

let corpus_files () =
  let dir = Test_corpus.corpus_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mc")
  |> List.sort compare
  |> List.map (Filename.concat dir)

(* For every path the engine ever conditioned (feasible AND infeasible
   candidates, over the whole corpus and every checker), the builder's
   incrementally-assembled formula must get the same solver verdict as the
   one-shot [Vpath.condition] oracle. *)
let test_builder_matches_oracle () =
  let n_paths = ref 0 in
  List.iter
    (fun file ->
      let a = Pinpoint.Analysis.prepare_file file in
      let seg_of = Pinpoint.Analysis.seg_of a in
      let rv = a.Pinpoint.Analysis.rv in
      List.iter
        (fun spec ->
          let reports, _ = Pinpoint.Analysis.check a spec in
          List.iter
            (fun (r : Pinpoint.Report.t) ->
              incr n_paths;
              let path = r.Pinpoint.Report.path in
              let oracle = Pinpoint.Vpath.condition ~seg_of ~rv path in
              let built = Cond.formula (Cond.of_path ~seg_of ~rv path) in
              if Solver.check built <> Solver.check oracle then
                Alcotest.failf "%s/%s: builder verdict differs from oracle"
                  file spec.Pinpoint.Checker_spec.name)
            reports)
        Pinpoint.Checkers.all)
    (corpus_files ());
  Alcotest.(check bool) "oracle saw paths" true (!n_paths > 0)

let report_sig reports =
  List.map
    (fun (r : Pinpoint.Report.t) ->
      (Pinpoint.Report.key r, r.Pinpoint.Report.verdict))
    reports

let cfg = Pinpoint.Engine.default_config

(* The verdict cache is a pure optimisation: every corpus program yields
   the same (key, verdict) report list with it on or off. *)
let test_qcache_report_identity () =
  List.iter
    (fun file ->
      let a = Pinpoint.Analysis.prepare_file file in
      List.iter
        (fun spec ->
          let run config =
            report_sig (fst (Pinpoint.Analysis.check ~config a spec))
          in
          if run cfg <> run { cfg with use_qcache = false } then
            Alcotest.failf "%s/%s: the verdict cache changed the report set"
              file spec.Pinpoint.Checker_spec.name)
        [ Pinpoint.Checkers.use_after_free; Pinpoint.Checkers.double_free ])
    (corpus_files ())

(* Clone interning makes path conditions deterministic functions of path
   structure, so a second run over the same program replays every verdict
   from the cache — and reports are unchanged. *)
let test_qcache_across_runs () =
  Pinpoint_smt.Qcache.clear ();
  let a = Pinpoint.Analysis.prepare_source ~file:"fig2" fig2_src in
  let r1, st1 = Pinpoint.Analysis.check a Pinpoint.Checkers.use_after_free in
  let r2, st2 = Pinpoint.Analysis.check a Pinpoint.Checkers.use_after_free in
  Alcotest.(check bool) "some queries issued" true
    (st1.Pinpoint.Engine.n_solver_calls > 0);
  Alcotest.(check int) "second run fully cached"
    st2.Pinpoint.Engine.n_solver_calls st2.Pinpoint.Engine.n_rung_cached;
  Alcotest.(check bool) "reports unchanged" true
    (report_sig r1 = report_sig r2);
  Pinpoint_smt.Qcache.clear ()

(* jobs=4 with the cache off must equal the sequential default — the
   cache toggle commutes with the parallel merge. *)
let test_qcache_jobs_identity () =
  let seq = Pinpoint.Analysis.prepare_source ~file:"fig2" fig2_src in
  let base = report_sig (fst (Pinpoint.Analysis.check seq Pinpoint.Checkers.use_after_free)) in
  Pinpoint_par.Pool.with_pool ~jobs:4 (fun pool ->
      let par = Pinpoint.Analysis.prepare_source ~pool ~file:"fig2" fig2_src in
      let on =
        report_sig
          (fst (Pinpoint.Analysis.check par Pinpoint.Checkers.use_after_free))
      in
      let off =
        report_sig
          (fst
             (Pinpoint.Analysis.check
                ~config:{ cfg with use_qcache = false }
                par Pinpoint.Checkers.use_after_free))
      in
      Alcotest.(check bool) "jobs 4, defaults = sequential" true (on = base);
      Alcotest.(check bool) "jobs 4, ablated = sequential" true (off = base))

(* Fault injection draws once per candidate, before the cache is
   consulted, so the sabotage pattern, and with it the report set, is
   identical with the cache on or off.  A sabotaged query also bypasses
   the cache both ways, so a poisoned verdict can never be stored or
   replayed. *)
let test_injection_qcache_identity () =
  let module Inject = Pinpoint_util.Resilience.Inject in
  let with_inject f =
    Inject.install
      { Inject.default with seed = 5; solver_fault_rate = 0.5 };
    Fun.protect ~finally:Inject.clear f
  in
  let icfg = { cfg with solver_budget_s = 0.05 } in
  List.iter
    (fun file ->
      let a =
        Pinpoint.Analysis.prepare_file
          (Filename.concat (Test_corpus.corpus_dir ()) file)
      in
      let run config =
        Pinpoint_smt.Qcache.clear ();
        with_inject (fun () ->
            report_sig (fst (Pinpoint.Analysis.check ~config a
                               Pinpoint.Checkers.use_after_free)))
      in
      if run icfg <> run { icfg with use_qcache = false } then
        Alcotest.failf "%s: the verdict cache changed reports under injection"
          file;
      Pinpoint_smt.Qcache.clear ())
    [ "complement_guards.mc"; "correlated_trap.mc"; "double_free.mc" ]

let suite =
  [
    Alcotest.test_case "pc satisfiable" `Quick test_pc_satisfiable;
    Alcotest.test_case "pc mentions both frames" `Quick test_pc_structure;
    Alcotest.test_case "flipped guards refute" `Quick test_pc_branches_essential;
    Alcotest.test_case "hints form a model" `Quick test_pc_each_hint_consistent;
    Alcotest.test_case "context cloning" `Quick test_pc_context_cloning;
    Alcotest.test_case "builder matches one-shot oracle" `Quick
      test_builder_matches_oracle;
    Alcotest.test_case "prune/cache: corpus report identity" `Quick
      test_qcache_report_identity;
    Alcotest.test_case "qcache: second run fully cached" `Quick
      test_qcache_across_runs;
    Alcotest.test_case "prune/cache: jobs identity" `Quick
      test_qcache_jobs_identity;
    Alcotest.test_case "prune/cache: injection identity" `Quick
      test_injection_qcache_identity;
  ]
