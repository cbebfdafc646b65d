(** The full SMT solver — Pinpoint's stand-in for Z3 (see DESIGN.md §1).

    A classic lazy-SMT loop: the boolean skeleton of the formula is
    Tseitin-encoded and handed to the CDCL core ({!Sat}); whenever the core
    finds a propositional model, the conjunction of the atom literals it
    assigns is checked by the linear-arithmetic theory solver ({!Theory});
    theory conflicts are returned to the core as blocking clauses.

    The loop is {e incremental}: the encoding is built once per query, the
    root literal is asserted as a solver {e assumption}, and blocking
    clauses as well as the CDCL core's learned clauses persist across
    refutation rounds — and across degradation-ladder rungs, which re-enter
    the same solver state with smaller budgets instead of rebuilding the
    CNF.

    Used only at the bug-detection stage to decide the feasibility of
    candidate value-flow paths (§3.3); the points-to stage uses the
    linear-time solver instead (§3.1.1).

    Robustness: every entry point accepts a cooperative wall-clock
    [deadline] (polled inside the DPLL loop, the refutation loop and the
    theory solver), and {!check_degrading} wraps the whole query in a
    degradation ladder so a pathological or sabotaged query can never take
    down a checker run. *)

type verdict =
  | Sat      (** a propositional model passed the theory check *)
  | Unsat    (** no propositional model survives the theory *)
  | Unknown  (** budget exhausted or theory gave up; treated as Sat by
                 soundy clients *)

val check :
  ?max_iters:int ->
  ?conflict_budget:int ->
  ?deadline:Pinpoint_util.Metrics.deadline ->
  Expr.t ->
  verdict
(** Decide satisfiability of a formula.  [max_iters] caps the number of
    theory-refutation rounds (default 400); [conflict_budget] caps the
    CDCL conflicts each SAT call may spend (default
    {!Sat.default_budget}).  On [deadline] expiry
    {!Pinpoint_util.Metrics.Timeout} is raised (use {!check_degrading} for
    the non-raising, degrading variant). *)

val check_with_model :
  ?max_iters:int ->
  ?conflict_budget:int ->
  ?deadline:Pinpoint_util.Metrics.deadline ->
  Expr.t ->
  verdict * (Expr.t * bool) list
(** Like {!check}, but on [Sat] also returns the propositional model of
    the formula's atoms (atom expression, assigned polarity) — the branch
    outcomes that make a bug path feasible, used as trigger hints in
    reports.  The list is empty for [Unsat]/[Unknown]. *)

(** {1 Degradation ladder}

    On budget exhaustion (or injected faults) a query steps down:
    full lazy-SMT → retry with halved [max_iters] and half the wall budget
    → the linear-time contradiction solver (paper §3.1.1) → keep-the-report
    ([Unknown]).  Every rung only ever answers [Unsat] when the formula
    really is unsatisfiable, so degradation can never lose a
    definitely-feasible report — the soundy direction is preserved on
    every rung. *)

type rung =
  | Rung_full     (** the full lazy-SMT loop decided (or answered its
                      normal budgeted [Unknown]) *)
  | Rung_halved   (** decided on retry with halved budgets *)
  | Rung_linear   (** refuted by the linear-time contradiction solver *)
  | Rung_gave_up  (** every rung exhausted: [Unknown], report kept *)

val rung_name : rung -> string
val pp_rung : Format.formatter -> rung -> unit

val check_degrading :
  ?max_iters:int ->
  ?budget_s:float ->
  ?conflict_budget:int ->
  ?deadline:Pinpoint_util.Metrics.deadline ->
  ?log:Pinpoint_util.Resilience.log ->
  ?subject:string ->
  Expr.t ->
  verdict * (Expr.t * bool) list * rung
(** Never raises (except [Out_of_memory]): crashes and timeouts inside a
    rung are converted into a step down the ladder, each step recorded as
    an incident on [log] (if given) under [subject].  [budget_s] is the
    per-query wall budget of the full rung and [conflict_budget] its
    per-SAT-call conflict budget (the retry gets half of each, on the
    {e same} solver state: rung escalation resumes the incrementally
    encoded instance under assumptions, keeping learned and blocking
    clauses).  [deadline] is the enclosing (checker-run) deadline — the
    effective rung deadline is the earlier of the two.  Consults
    {!Pinpoint_util.Resilience.Inject} for seeded fault injection: one
    draw per query, so the per-subject fault stream stays aligned with the
    query sequence at every [--jobs] level. *)

(** {1 Counters}

    Both entry points add their work straight to {!Pinpoint_obs.Obs}
    registry counters, created once when this module loads:
    [solver.n_queries], [n_sat], [n_unsat], [n_unknown],
    [n_theory_calls], [n_deadline_abort] (rungs aborted by deadline
    expiry), [n_degraded] (queries decided below the full rung),
    [n_core_shrink_calls] (unsat-core deletion-shrink passes),
    [n_propagations], [n_conflicts], [n_learned], [n_restarts] (CDCL
    effort) and [n_ne_dropped] (disequalities dropped past
    {!Theory.max_ne_splits}, each an explicit over-approximation of
    satisfiability).  The counters are atomic sums, so a run's totals are
    the same at every [--jobs].  Like every registry counter they count
    at every obs level; a client measures a run by the difference of two
    {!Pinpoint_obs.Obs.snapshot}s (DESIGN.md §4.11).  The
    [smt.query.latency_s] histogram observes every ladder query; the
    per-query profiler rows ({!Pinpoint_obs.Obs.record_query}) are
    recorded only while metrics are on. *)
