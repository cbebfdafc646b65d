(** Theory solver for conjunctions of linear-arithmetic literals.

    Given a conjunction of atom/polarity pairs produced by the DPLL core,
    decides satisfiability over the rationals:

    - atoms are normalised into linear constraints [e ⋈ 0] with
      [⋈ ∈ {=, ≠, <, ≤}] over {!Rat} coefficients;
    - non-linear terms (products of two variables) and boolean-sorted
      variables are treated as uninterpreted (a fresh integer variable per
      distinct term), which over-approximates satisfiability;
    - equalities are removed by Gaussian substitution;
    - disequalities are case-split into [<] / [>] (bounded by
      {!max_ne_splits}; excess disequalities are dropped, which again
      over-approximates satisfiability);
    - the remaining strict/non-strict inequalities are decided by
      Fourier–Motzkin elimination, with a budget on the number of derived
      constraints.

    The over-approximations mean the verdict [Sat] may be wrong for the
    integers (or for very large systems), but [Unsat] is always correct —
    the direction that matters for a soundy bug finder: we never discard a
    feasible bug path, we only occasionally keep an infeasible one. *)

type verdict = Sat | Unsat | Unknown

val max_ne_splits : int

val n_dropped : unit -> int
(** Cumulative count (per domain) of disequalities dropped because a
    conjunction exceeded {!max_ne_splits}.  Each drop over-approximates
    satisfiability; {!Solver} reads deltas around its theory calls and
    adds them to its [solver.n_ne_dropped] counter. *)

val check :
  ?deadline:Pinpoint_util.Metrics.deadline ->
  (Expr.t * bool) list ->
  verdict
(** [check literals] decides the conjunction of the given atoms with their
    polarities.  Atoms must be boolean-sorted expressions (comparison nodes
    or variables).  The [deadline] is polled inside the Fourier–Motzkin
    elimination; on expiry {!Pinpoint_util.Metrics.Timeout} is raised. *)
