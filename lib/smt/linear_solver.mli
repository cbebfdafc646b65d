(** The paper's linear-time constraint solver (§3.1.1).

    During the intra-procedural points-to analysis, Pinpoint filters out the
    "easy" unsatisfiable path conditions — those containing an apparent
    contradiction [a && !a] — without invoking a full SMT solver.  The
    solver collects the positive and negative atomic constraints P(C) and
    N(C) of a condition C bottom-up:

    {v
      C = a        =>  P = {a},          N = {}
      C = !C1      =>  P = N(C1),        N = P(C1)
      C = C1 && C2 =>  P = P1 ∪ P2,      N = N1 ∪ N2
      C = C1 || C2 =>  P = P1 ∩ P2,      N = N1 ∩ N2
    v}

    The ¬ rule as stated is exact only over atoms, so the traversal pushes
    polarity through the connectives (De Morgan) and applies the rules in
    negation normal form.  C is declared unsatisfiable iff P(C) ∩ N(C) ≠ ∅.  The check is linear
    in the number of atomic constraints.

    Because {!Expr}'s smart constructors push negation into comparisons
    (¬(a<b) is represented as b≤a), atoms are first mapped to a canonical
    (atom, polarity) pair — e.g. [Le (a, b)] is the negation of the
    canonical atom [Lt (b, a)] — so the contradiction test matches the
    paper's semantics exactly. *)

type verdict =
  | Unsat  (** definitely unsatisfiable (contains [a && !a]) *)
  | Maybe  (** no apparent contradiction; a full solver would be needed *)

val check : Expr.t -> verdict
(** Counts each call in the registry counter [linear.n_checks] and each
    [Unsat] in [linear.n_unsat] ({!Pinpoint_obs.Obs}); the bench
    harness's [solverstats] experiment reports them. *)
