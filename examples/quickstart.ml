(* Quickstart: analyse a small program with the public API.

   Run with:  dune exec examples/quickstart.exe

   The program below has one real use-after-free: [p] is freed when
   [n > 10] and dereferenced when [n > 5]; both can hold at once.  It also
   has a safe pattern: the dereference under [k < 0] where [k = n * n]
   cannot be reached together with... actually [k = n + n]: freeing under
   [n > 10] and using under [n < 3] is infeasible — Pinpoint proves that
   with its SMT solver and stays silent about it. *)

let source =
  {|
void risky(int n) {
  int *p = malloc();
  *p = n;
  bool hot = n > 10;
  if (hot) { free(p); }
  bool warm = n > 5;
  if (warm) { print(*p); }
}

void safe(int n) {
  int *q = malloc();
  *q = n;
  bool hot = n > 10;
  if (hot) { free(q); }
  bool cold = n < 3;
  if (cold) { print(*q); }
}
|}

let () =
  (* 1. Parse, lower to SSA IR, run the connector transformation, build
        SEGs and summaries. *)
  let analysis = Pinpoint.Analysis.prepare_source ~file:"quickstart.mc" source in

  (* 2. Run the use-after-free checker. *)
  let reports, stats =
    Pinpoint.Analysis.check analysis Pinpoint.Checkers.use_after_free
  in

  (* [stats] is the run's change in the engine's registry counters. *)
  let count name = Pinpoint_obs.Obs.Snapshot.counter stats name in
  Format.printf "examined %d source(s), %d candidate path(s)@."
    (count "engine.n_sources") (count "engine.n_candidates");

  (* 3. Inspect the reports.  Candidates whose path condition the solver
        refuted are marked infeasible and are not reported. *)
  List.iter
    (fun (r : Pinpoint.Report.t) ->
      match r.verdict with
      | Pinpoint.Report.Feasible | Pinpoint.Report.Feasible_unknown ->
        Format.printf "BUG %s: freed at %a, used at %a@." r.checker
          Pinpoint_ir.Stmt.pp_loc r.source_loc Pinpoint_ir.Stmt.pp_loc
          r.sink_loc;
        Format.printf "%a" Pinpoint.Vpath.pp r.path
      | Pinpoint.Report.Infeasible ->
        Format.printf "(pruned an infeasible candidate: freed at %a, used at %a)@."
          Pinpoint_ir.Stmt.pp_loc r.source_loc Pinpoint_ir.Stmt.pp_loc
          r.sink_loc)
    reports;

  (* Expected output: one BUG in [risky], one pruned candidate in [safe]. *)
  let reported = List.filter Pinpoint.Report.is_reported reports in
  assert (List.length reported = 1);
  Format.printf "quickstart: OK@."
