(** The original chronological DPLL core, kept as a reference oracle.

    This is the pre-CDCL solver: unit propagation by scanning every clause,
    chronological backtracking, no learning, no decision heuristic.  It is
    retained for differential testing (the tests cross-check {!Sat}'s CDCL
    verdicts and models against it) and for the [bench smt] old-vs-new
    comparison on hard random CNF.  Production code goes through {!Sat}. *)

type t

val create : unit -> t

val new_var : t -> int
(** Allocate the next variable (starting at 1). *)

val ensure_vars : t -> int -> unit
(** Make sure variables up to the given id exist. *)

val add_clause : t -> int list -> unit
(** Add a clause (list of literals).  The empty clause makes the instance
    trivially unsatisfiable. *)

type result =
  | Sat of bool array
      (** [model.(v)] is the value of variable [v]; index 0 is unused. *)
  | Unsat

val counts : t -> Sat.counts
(** Cumulative search-effort counters for this instance (monotonic across
    [solve] calls).  [learned] and [restarts] are always 0: this core
    neither learns nor restarts. *)

val solve :
  ?budget:int ->
  ?assumptions:int list ->
  ?deadline:Pinpoint_util.Metrics.deadline ->
  t ->
  result option
(** Solve under the given assumption literals.  [budget] caps the number
    of {e conflicts} this call may hit (matching {!Sat.solve}'s semantics);
    [None] means the budget was exhausted.  The wall-clock [deadline] is
    polled cooperatively inside the DPLL loop; on expiry
    {!Pinpoint_util.Metrics.Timeout} is raised. *)
