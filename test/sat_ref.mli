(** The original chronological DPLL core, kept as a reference oracle.

    This is the pre-CDCL solver: unit propagation by scanning every clause,
    chronological backtracking, no learning, no decision heuristic.  The
    SMT tests cross-check {!Pinpoint_smt.Sat}'s CDCL verdicts and models
    against it, and its propagation count against CDCL's on hard random
    3-CNF.  Production code goes through {!Pinpoint_smt.Sat}. *)

type t

val create : unit -> t

val ensure_vars : t -> int -> unit
(** Make sure variables up to the given id exist. *)

val add_clause : t -> int list -> unit
(** Add a clause (list of literals).  The empty clause makes the instance
    trivially unsatisfiable. *)

type result =
  | Sat of bool array
      (** [model.(v)] is the value of variable [v]; index 0 is unused. *)
  | Unsat

val counts : t -> Pinpoint_smt.Sat.counts
(** Cumulative search-effort counters for this instance (monotonic across
    [solve] calls).  [learned] and [restarts] are always 0: this core
    neither learns nor restarts. *)

val solve : ?budget:int -> t -> result option
(** Solve the instance.  [budget] caps the number of {e conflicts} this
    call may hit (matching {!Pinpoint_smt.Sat.solve}'s semantics); [None]
    means the budget was exhausted. *)
