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
    reports.  The list is empty for [Unsat]/[Unknown].

    When {!Qcache} is enabled, the cache is consulted first (a hit skips
    the solver entirely and replays the stored verdict and model) and
    definitive [Sat]/[Unsat] results are stored back.  [Unknown] is never
    cached. *)

val sat_or_unknown : verdict -> bool
(** The soundy reading used by checkers: keep the report unless the path
    condition is definitely unsatisfiable. *)

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
  | Rung_cached   (** replayed from {!Qcache} — a previous full-rung
                      verdict for the same (hash-consed) formula; as
                      strong as [Rung_full], not a degradation *)

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
    {!Pinpoint_util.Resilience.Inject} for seeded fault injection.

    Cache interaction (when {!Qcache} is enabled): the injection fault is
    drawn {e before} the cache is consulted — one draw per query whether it
    hits or misses, so the per-subject fault stream stays aligned with the
    query sequence at every [--jobs] level.  A sabotaged query bypasses the
    cache entirely (no read, no write).  Unsabotaged queries replay a hit
    as [Rung_cached] (not counted as degraded) and store full-rung
    [Sat]/[Unsat] verdicts back; halved/linear/gave-up verdicts are never
    cached. *)

type stats = {
  mutable n_queries : int;
  mutable n_sat : int;
  mutable n_unsat : int;
  mutable n_unknown : int;
  mutable n_theory_calls : int;
  mutable n_deadline_abort : int;  (** rungs aborted by deadline expiry *)
  mutable n_degraded : int;        (** queries decided below the full rung *)
  mutable n_cache_hits : int;      (** queries replayed from {!Qcache} *)
  mutable n_cache_misses : int;    (** cache-enabled queries that ran the
                                       solver (disabled cache counts
                                       neither hits nor misses) *)
  mutable n_core_shrink_calls : int;
      (** unsat-core deletion-shrink passes run by the lazy-SMT loop *)
  mutable n_propagations : int;  (** CDCL unit propagations *)
  mutable n_conflicts : int;     (** CDCL conflicts (the budget unit) *)
  mutable n_learned : int;       (** clauses learned by conflict analysis *)
  mutable n_restarts : int;      (** CDCL restarts *)
  mutable n_ne_dropped : int;
      (** disequalities dropped past {!Theory.max_ne_splits} — each one an
          explicit over-approximation of satisfiability *)
}

val stats : unit -> stats
(** The calling domain's counter record.  Counters are {e domain-local}
    (one record per domain, via [Domain.DLS]): workers accumulate without
    contention and a parallel client measures each task with
    {!snapshot}/{!diff} on the domain that ran it, then {!merge}s the
    deltas in a deterministic order. *)

val reset_stats : unit -> unit
(** Zero the calling domain's counters. *)

val zero : unit -> stats
(** A fresh all-zero counter record. *)

val snapshot : unit -> stats
(** An independent copy of the calling domain's current counters. *)

val restore : stats -> unit
(** Overwrite the calling domain's counters with the given values.
    Together with {!snapshot} and {!merge} this lets {!Pinpoint.Engine.run}
    keep per-run counts without corrupting an enclosing measurement. *)

val merge : stats -> stats -> stats
(** Field-wise sum. *)

val diff : stats -> stats -> stats
(** [diff a b] is the field-wise difference [a - b] — the delta between
    two snapshots taken on the same domain. *)

val obs_publish : stats -> unit
(** Add every field of [stats] to the {!Pinpoint_obs.Obs} registry under
    the ["solver."] prefix — the compatibility view of the legacy counter
    record (includes the {!Qcache} hit/miss counters).  No-op unless the
    observability level is at least [Metrics_only]. *)
