(** The demand-driven, compositional bug-detection engine (paper §3.3).

    For every bug-specific source the engine searches the stitched SEGs
    for value-flow paths to a sink:

    - within a function it follows SEG value-flow edges;
    - at a call site it descends into the callee only when the callee's VF
      summaries say a sink (VF4) or a flow-through (VF1) exists — the
      demand-driven pruning of §3.3.1(3);
    - at a return it pops back to the call site it descended from, or — for
      a source discovered inside a callee — expands bottom-up into every
      caller (VF2's role);
    - each complete candidate path gets its condition from
      {!Vpath.condition} (context-sensitive by cloning) and is kept only
      if the SMT solver cannot refute it.

    Budgets: call-chain depth (the paper's "six levels"), caller
    expansions, total steps per source, and a per-source wall-clock
    deadline. *)

type config = {
  max_call_depth : int;     (** nested context levels (default 6) *)
  max_expansions : int;     (** bottom-up caller crossings (default 6) *)
  max_steps : int;          (** search nodes per source (default 20000) *)
  max_reports_per_source : int;  (** (default 16) *)
  check_feasibility : bool; (** run the SMT solver on path conditions *)
  use_vf_pruning : bool;
      (** consult callee VF summaries before descending (§3.3.1(3));
          disabling it descends into every defined callee — the
          demand-driven-ness ablation *)
  use_refine : bool;
      (** demand-driven refinement ({!Pinpoint_pta.Refine}): on a Sat
          feasibility verdict, re-check the condition strengthened with
          derived linear facts and downgrade to [Infeasible] on Unsat.
          Sound over integer semantics — only truly infeasible paths (false
          positives of the weak nonlinear theory) are removed; recall is
          unchanged (default [true], CLI [--no-refine]) *)
  deadline : Pinpoint_util.Metrics.deadline;
  solver_budget_s : float;
      (** per-feasibility-query wall budget for the full solver rung; on
          exhaustion the query steps down the degradation ladder
          ({!Pinpoint_smt.Solver.check_degrading}) instead of aborting the
          source (default [infinity]) *)
  solver_conflict_budget : int;
      (** per-SAT-call CDCL conflict budget for the full solver rung (the
          halved rung gets half); exhaustion yields [Unknown] without a
          step-down (default {!Pinpoint_smt.Sat.default_budget}, CLI
          [--solver-conflicts]) *)
}

val default_config : config

type stats = {
  mutable n_sources : int;
  mutable n_candidates : int;   (** complete source→sink paths found *)
  mutable n_steps : int;
  mutable n_solver_calls : int;
  mutable n_rung_full : int;    (** queries decided by the full solver *)
  mutable n_rung_halved : int;  (** … by the halved-budget retry *)
  mutable n_rung_linear : int;  (** … by the linear contradiction solver *)
  mutable n_rung_gave_up : int; (** … kept as [Unknown] (ladder exhausted) *)
  mutable n_refine_checks : int;
      (** Sat verdicts that produced refinement facts and were re-checked *)
  mutable n_refine_removed : int;
      (** refinement re-checks that came back Unsat — false positives of
          the weak nonlinear theory, downgraded to [Infeasible] *)
  mutable n_incidents : int;    (** incidents recorded during this run *)
  mutable n_reused_sources : int;
      (** sources answered from a resident {!memo} without searching; they
          count in [n_sources] but add nothing to any work counter *)
}
(** One run's result, printed by the CLI's per-checker header and every
    server check response at every obs level.  When metrics are on, each
    field is also added to the registry counter [engine.<field>]; the
    solver's work is counted only there, in the [solver.*] counters
    ({!Pinpoint_smt.Solver}). *)

(** Resident per-source results for one checker (the analysis server's
    path, DESIGN.md §4.13).  A memo keeps each function's enumerated
    sources and each source's reports before the cross-source dedup,
    keyed by (function, source sid, source vid).  Each stored search
    carries its footprint: the functions whose SEG it fetched and the
    functions whose caller list it read.  A search is stored only when it
    ran to its own end with every feasibility query decided at full
    strength (no timeout, no barrier catch, no halved, linear or gave-up
    rung); a run with fault injection installed neither reads nor fills
    the memo.  An index from each footprint function to the stored
    searches that name it lets {!invalidate_memo} read only the searches
    an edit reaches. *)
type memo

val create_memo : unit -> memo

val invalidate_memo :
  memo ->
  relowered:string list ->
  segs:string list ->
  callers:string list ->
  unit
(** Forget what an edit may have changed: the [relowered] functions'
    sources, every stored search whose SEG footprint names a function in
    [segs] and every stored search whose caller-list footprint names one
    in [callers].  A search that visited a function's SEG read only the
    RV and VF entries of that function's direct callees, so [segs] must
    hold the re-lowered functions and every caller of a function whose
    RV or VF entries changed; [callers] must hold the callees of the
    re-lowered functions, old and new bodies.  Costs the searches
    dropped, found through the footprint index, not the memo's size;
    a dropped search leaves the index too. *)

val memo_sizes : memo -> (string * int) list
(** Entry counts: functions with enumerated sources, stored searches,
    and (function, search) pairs in the footprint index. *)

val run :
  ?config:config ->
  ?resilience:Pinpoint_util.Resilience.log ->
  ?pool:Pinpoint_par.Pool.t ->
  ?memo:memo ->
  graph:Pinpoint_ir.Callgraph.t ->
  seg_of:(string -> Pinpoint_seg.Seg.t option) ->
  rv:Pinpoint_summary.Rv.t ->
  vf:Pinpoint_summary.Vf.t option ->
  Checker_spec.t ->
  Report.t list * stats
(** Run one checker over the whole program.  Reports are deduplicated by
    source/sink location; infeasible candidates are included in the list
    (marked [Infeasible]) so precision can be measured, but
    [Report.is_reported] is false for them.

    [graph] is the program's call graph: sources are enumerated from
    its functions in definition order, and bottom-up caller expansion
    reads each function's call sites from it.  [vf] is the checker's
    VF-summary table, built by the caller's sweep ({!Analysis.sweep}) and
    matching [graph]; [None] — a checker the sweep
    did not summarise — turns VF pruning off, so the engine descends into
    every defined callee.  A callee without an entry in the table (its
    summary crashed) is descended into the same way.  Sources are enumerated from the
    IR ({!Checker_spec.t.sources}); a function is asked for its SEG only
    when it has sources, and one without a SEG contributes none.

    Fault isolation: each per-source search runs inside an exception
    barrier — a crash records an incident on [resilience] (when given)
    and skips only that source.  Feasibility queries go through the
    solver degradation ladder, so a run always terminates with a report
    list.

    With [pool] (and more than one job) the per-source searches fan out
    over the pool.  Searches are independent (task-local contexts, keyed
    injection streams) and the merge is in source-enumeration order, so
    the report list and stats are identical at every [--jobs] level.

    With [memo] a source whose stored search is still valid is not
    searched again: its stored reports join the deterministic merge in
    source order, so the report list is the one a memo-less run returns.
    The memo is tied to the config the results were computed under
    ([deadline] aside): a run under another config empties it first.
    The caller keeps the memo in step with [prog] through
    {!invalidate_memo}, or drops it. *)
