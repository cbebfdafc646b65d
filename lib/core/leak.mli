(** A Fastcheck/Saber-style memory-leak checker (paper §1 cites leak
    detection as the motivating SVFA client [9, 45, 47, 52]).

    Leaks are not a source→sink property: an allocation leaks when some
    feasible execution reaches the end of the allocation's lifetime
    without passing through any [free] of the value.  On the SEG this
    becomes a condition query:

    - collect the value-flow closure of each allocation (Copy edges,
      descending into callees and out through returns with the same
      budgets as the engine);
    - the allocation {e escapes} when the closure reaches a return
      operand, a store into caller-visible memory (a connector), or an
      argument of an unknown external call — escaped allocations are the
      callee's caller's responsibility and are not reported (soundy
      silence, like Fastcheck's ownership discipline);
    - otherwise the leak condition is [CD(alloc) ∧ ¬ (∨_i CD(free_i) ∧
      reach_i)] over the frees found in the closure; the report survives
      iff the SMT solver cannot refute it.

    A malloc followed by [if (g) free(p)] therefore reports a leak with
    trigger hint [¬g], and a malloc freed unconditionally is quiet. *)

type report = {
  alloc_fn : string;
  alloc_loc : Pinpoint_ir.Stmt.loc;
  cond : Pinpoint_smt.Expr.t;   (** the leak condition *)
  hints : (Pinpoint_smt.Expr.t * bool) list;
  frees_seen : int;             (** conditional frees that do not cover *)
}

type config = {
  max_call_depth : int;
  max_steps : int;
}

val default_config : config

val check :
  ?config:config ->
  ?resilience:Pinpoint_util.Resilience.log ->
  Pinpoint_ir.Prog.t ->
  seg_of:(string -> Pinpoint_seg.Seg.t option) ->
  rv:Pinpoint_summary.Rv.t ->
  report list
(** Leak conditions are decided through the solver degradation ladder
    ({!Pinpoint_smt.Solver.check_degrading}); degradations and injected
    faults are recorded on [resilience] when given. *)

val pp : Format.formatter -> report -> unit
