(** Gated-φ conditions (paper §3.2.1).

    For each φ-assignment [v <- phi(v1, ..., vn)] the condition for
    selecting [vi] is the "gated function".  We compute, for every join
    block [b] and predecessor [p], the reaching condition from [idom b] to
    [p] conjoined with the guard of the edge [p -> b]; this is exactly the
    selector in Example 3.4 (the edge from [b] to [Y] is labelled
    [m = ¬θ3 ∧ θ4]).  The quasi path-sensitive PTA gates its joins with
    the same lists.

    Computing the gate relative to the immediate dominator — rather than
    the function entry — is what keeps SEG conditions succinct ("efficient
    path conditions", §3.2.2): the path prefix up to the dominator is
    contributed once by the control-dependence part, not duplicated into
    every gate.  It also bounds the cost: every predecessor of a block
    that [idom b] strictly dominates is itself dominated by [idom b], so
    the reaching conditions from a root are computed over the root's
    dominator region only, in topological order, up to its last join —
    not over the whole function once per root. *)

val edge_guard : Func.t -> int -> int -> Pinpoint_smt.Expr.t
(** The branch condition labelling the CFG edge [p -> b]: the branch
    variable (or its negation) for conditional edges, [true] for
    unconditional ones. *)

val join_gates :
  ?only:(int -> bool) -> Func.t -> (int * Pinpoint_smt.Expr.t) list array
(** [gates.(b)] for every join [b] (a block with at least two
    predecessors) for which [only b] holds (default: every join): for
    each predecessor [p], in {!Pinpoint_util.Digraph.preds} order of
    {!Func.cfg}, the pair [(p, rc(p) ∧ edge_guard p b)], where [rc] is the
    reaching condition from [idom b] over the DAG CFG ([rc(idom b) =
    true], [rc(x) = ∨ over preds q (rc(q) ∧ guard(q -> x))]).  A
    predecessor not reachable from [idom b] gets [false], as does every
    predecessor of a block unreachable from the entry.  [[]] for the other
    blocks.  Costs the sum, over the distinct immediate dominators of the
    selected joins, of the dominator region up to that root's last
    selected join.  Raises [Invalid_argument] on a cycle met in a walked
    region (run loop unrolling first). *)

val run : Func.t -> unit
(** Fill the [gate] field of every φ argument in place. *)
