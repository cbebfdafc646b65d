(** A CDCL SAT core over CNF clauses.

    Variables are positive integers; literals are non-zero integers, DIMACS
    style ([v] positive, [-v] negated).  The engine is conflict-driven:
    two-watched-literal propagation over a flat clause arena, 1UIP conflict
    analysis with clause learning and non-chronological backjumping, EVSIDS
    activity decisions with phase saving, Luby restarts and LBD-based
    learned-clause DB reduction.

    The solver is incremental: clauses may be added between [solve] calls
    (learned clauses and saved phases persist), and [solve] accepts
    assumption literals, which the lazy DPLL(T) loop uses to re-run the
    degradation ladder's rungs on the same solver state.

    The pre-CDCL chronological DPLL is kept as [test/sat_ref.ml], the
    oracle the tests cross-check this core against. *)

type t

val create : unit -> t

val new_var : t -> int
(** Allocate the next variable (starting at 1). *)

val ensure_vars : t -> int -> unit
(** Make sure variables up to the given id exist. *)

val add_clause : t -> int list -> unit
(** Add a clause (list of literals).  The empty clause makes the instance
    trivially unsatisfiable.  Adding a clause backtracks the solver to
    decision level 0; learned clauses survive. *)

type result =
  | Sat of bool array
      (** [model.(v)] is the value of variable [v]; index 0 is unused. *)
  | Unsat

type counts = {
  propagations : int;  (** literals assigned by unit propagation *)
  decisions : int;     (** branching decisions *)
  conflicts : int;     (** conflicts hit (the budget unit) *)
  learned : int;       (** clauses learned by conflict analysis *)
  restarts : int;      (** Luby restarts performed *)
}

val counts : t -> counts
(** Cumulative search-effort counters for this instance; monotonic across
    [solve] calls, so callers read deltas around each call. *)

val default_budget : int
(** Default conflict budget per [solve] call. *)

val solve :
  ?budget:int ->
  ?assumptions:int list ->
  ?deadline:Pinpoint_util.Metrics.deadline ->
  t ->
  result option
(** Solve under the given assumption literals (empty by default).

    [budget] caps the number of {e conflicts} this call may spend
    (default {!default_budget}); [None] means the budget was exhausted
    — the instance stays valid and a later call (possibly with a larger
    budget) resumes with everything learned so far.  Note the semantics
    change from the pre-CDCL core, whose budget counted decisions.

    [Some Unsat] under non-empty assumptions means unsatisfiable {e under
    those assumptions}; the instance itself may still be satisfiable.

    The wall-clock [deadline] is polled cooperatively inside the
    propagation loop; on expiry {!Pinpoint_util.Metrics.Timeout} is
    raised (the degradation ladder in {!Solver} catches it and steps
    down).  The instance remains reusable after a timeout. *)
