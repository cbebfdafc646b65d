(* Tests for the extension features: the null-deref checker, trigger
   hints, dynamic report confirmation, and the ablation knobs. *)

let count = Helpers.n_reported
let nullc = Pinpoint.Checkers.null_deref

let test_null_deref_basic () =
  Alcotest.(check int) "direct null deref" 1
    (count "void f() { int *p = null; print(*p); }" nullc)

let test_null_deref_guarded () =
  (* dereference guarded by p != null is proven safe *)
  Alcotest.(check int) "guard proves safety" 0
    (count
       "void f() { int *p = null; bool ok = p != null; if (ok) { print(*p); } }"
       nullc)

let test_null_deref_phi () =
  (* null flows through a φ; feasible on the else path *)
  Alcotest.(check int) "null through phi" 1
    (count
       "void f(int s) { int *p = malloc(); bool g = s > 0; if (g) { } else { p = null; } print(*p); }"
       nullc)

let test_null_deref_overwritten () =
  Alcotest.(check int) "reassigned before use" 0
    (count "void f() { int *p = null; p = malloc(); print(*p); }" nullc)

let test_null_interproc () =
  Alcotest.(check int) "null via callee" 1
    (count
       "int* give() { int *p = null; return p; }  void top() { int *q = give(); print(*q); }"
       nullc)

let test_hints_present () =
  let reports =
    Helpers.reported
      "void f(int n) { int *p = malloc(); *p = n; bool g = n > 3; if (g) { free(p); } print(*p); }"
      Helpers.uaf
  in
  match reports with
  | [ r ] ->
    Alcotest.(check bool) "feasible" true (r.Pinpoint.Report.verdict = Pinpoint.Report.Feasible);
    Alcotest.(check bool) "has hints" true (r.Pinpoint.Report.hints <> []);
    (* every hinted atom assignment satisfies... at least n > 3 appears
       positively *)
    Alcotest.(check bool) "guard hinted true" true
      (List.exists
         (fun ((a : Pinpoint_smt.Expr.t), b) ->
           b
           &&
           match a.Pinpoint_smt.Expr.node with
           | Pinpoint_smt.Expr.Lt (x, _) -> (
             match x.Pinpoint_smt.Expr.node with
             | Pinpoint_smt.Expr.Int 3 -> true
             | _ -> false)
           | _ -> false)
         r.Pinpoint.Report.hints)
  | _ -> Alcotest.fail "expected one report"

let test_confirm () =
  let a =
    Helpers.prepare
      {|
void sure(int s) { int *p = malloc(); *p = s; free(p); print(*p); }
void rare(int *p, int x) {
  int y = x * x;
  bool neg = y < 0;
  if (neg) { free(p); }
  print(*p);
}
|}
  in
  (* Refinement (on by default) would statically remove the nonlinear
     trap; run without it so dynamic confirmation still has an
     unconfirmable report to classify. *)
  let config = { Pinpoint.Engine.default_config with use_refine = false } in
  let reports, _ = Pinpoint.Analysis.check ~config a Helpers.uaf in
  let reported = List.filter Pinpoint.Report.is_reported reports in
  Alcotest.(check int) "two reports" 2 (List.length reported);
  let statuses = Pinpoint.Confirm.confirm_all a.Pinpoint.Analysis.prog reported in
  List.iter
    (fun ((r : Pinpoint.Report.t), status) ->
      if r.Pinpoint.Report.source_fn = "sure" then
        Alcotest.(check bool) "unconditional bug confirmed" true (status = `Confirmed)
      else
        (* the nonlinear trap can never trigger dynamically *)
        Alcotest.(check bool) "trap unconfirmed" true (status = `Unconfirmed))
    statuses

let test_ablation_quasi_flag () =
  Pinpoint_pta.Pta.quasi_pruning := false;
  let _, delta =
    Helpers.with_counters @@ fun () ->
    Helpers.prepare
      {|
void f(int x) {
  int *a = malloc();
  bool g = x > 3;
  bool h = x > 10;
  int *m1 = a;
  if (g) { m1 = malloc(); }
  int *mm = malloc();
  if (h) { mm = m1; }
  int *m2 = a;
  if (g) { } else { m2 = mm; }
  print(*m2);
}
|}
  in
  Pinpoint_pta.Pta.quasi_pruning := true;
  Alcotest.(check int) "nothing pruned when disabled" 0
    (Pinpoint_obs.Obs.Snapshot.counter delta "pta.n_pruned")

let test_ablation_vf_flag () =
  (* without VF pruning the search still finds the bug, just with more
     steps *)
  let src =
    "void helper(int *p) { print(*p); } void noop(int x) { print(x); } void top(int s) { int *q = malloc(); *q = s; free(q); noop(s); helper(q); }"
  in
  let a = Helpers.prepare src in
  let on, _ =
    Pinpoint.Analysis.check
      ~config:{ Pinpoint.Engine.default_config with use_vf_pruning = true }
      a Helpers.uaf
  in
  let off, _ =
    Pinpoint.Analysis.check
      ~config:{ Pinpoint.Engine.default_config with use_vf_pruning = false }
      a Helpers.uaf
  in
  let n l = List.length (List.filter Pinpoint.Report.is_reported l) in
  Alcotest.(check int) "same findings" (n on) (n off);
  Alcotest.(check bool) "found it" true (n on >= 1)

let test_solver_model_consistency () =
  (* the returned model must actually satisfy the boolean skeleton *)
  let open Pinpoint_smt in
  let x = Expr.var (Symbol.fresh "mx" Symbol.Int) in
  let a = Expr.var (Symbol.fresh "mb" Symbol.Bool) in
  let f =
    Expr.conj
      [ Expr.or_ a (Expr.lt x (Expr.int 3)); Expr.not_ a; Expr.le (Expr.int 0) x ]
  in
  match Solver.check_with_model f with
  | Solver.Sat, model ->
    Alcotest.(check bool) "model nonempty" true (model <> []);
    (* x < 3 must be assigned true since !a is forced *)
    Alcotest.(check bool) "forced atom true" true
      (List.exists
         (fun ((atom : Expr.t), b) ->
           b && match atom.Expr.node with Expr.Lt _ -> true | _ -> false)
         model)
  | _ -> Alcotest.fail "expected sat"

let suite =
  [
    Alcotest.test_case "null-deref basic" `Quick test_null_deref_basic;
    Alcotest.test_case "null-deref guarded safe" `Quick test_null_deref_guarded;
    Alcotest.test_case "null-deref through phi" `Quick test_null_deref_phi;
    Alcotest.test_case "null-deref overwritten" `Quick test_null_deref_overwritten;
    Alcotest.test_case "null-deref interproc" `Quick test_null_interproc;
    Alcotest.test_case "trigger hints" `Quick test_hints_present;
    Alcotest.test_case "dynamic confirmation" `Quick test_confirm;
    Alcotest.test_case "ablation: quasi flag" `Quick test_ablation_quasi_flag;
    Alcotest.test_case "ablation: vf flag" `Quick test_ablation_vf_flag;
    Alcotest.test_case "solver model consistency" `Quick test_solver_model_consistency;
  ]
