(** Return-value (RV) summaries (paper §3.3.2).

    An RV summary gives, for each (extended) return position of a
    function, the SEG vertex standing for the returned value, a constraint
    restricting its range — [DD(v@s)^P_∅], i.e. closed with respect to the
    function's own callees — and the subset [P] of formal parameters the
    constraint still depends on.

    Summaries are generated bottom-up over call-graph SCCs, one function
    at a time right after its SEG is built; calls into the same SCC are
    left unresolved (their receivers stay unconstrained — recursion
    unrolled once, §4.2).  Closing substitutes callee summaries
    with cloned symbols and binds callee formals to the caller's actual
    terms (the bold parts of Equation 2). *)

type entry = {
  var : Pinpoint_ir.Var.t;           (** the returned SEG vertex *)
  closed : Pinpoint_smt.Expr.t;      (** [DD(var)^P_∅] *)
  params : Pinpoint_ir.Var.Set.t;    (** the [P] set *)
}

type t
(** A program and a read-only lookup of its functions' entries. *)

val max_close_depth : int
(** Call-chain depth budget when closing constraints: 6, the paper's "six
    levels of calls". *)

val max_summary_size : int
(** Constraint size cap (4000); larger summaries degrade to [true]
    (soundy: under-constraining keeps reports). *)

val create :
  find:(string -> entry option array option) -> Pinpoint_ir.Prog.t -> t
(** [create ~find prog] reads each function's entries with [find] (the
    artifact store's, which the bottom-up walk fills) and callee formals
    off [prog]'s IR, never a callee's SEG. *)

val summarise :
  t ->
  lookup:(string -> entry option array option) ->
  Pinpoint_seg.Seg.t ->
  entry option array
(** [summarise t ~lookup seg] is the entries of [seg]'s function, one per
    (extended) return position, closed against the callee entries
    [lookup] finds.  The bottom-up sweep ({!Pinpoint.Analysis.prepare})
    calls it once per function, callees first, and publishes each result
    before the next member of the SCC runs; a same-SCC callee not yet
    summarised is unknown to [lookup], so its receivers stay free. *)

val find : t -> string -> entry option array option
(** Per return position; [None] entries are non-variable returns. *)

val close :
  t ->
  Pinpoint_seg.Seg.t ->
  ?depth:int ->
  Pinpoint_seg.Seg.cres ->
  Pinpoint_smt.Expr.t * Pinpoint_ir.Var.Set.t
(** [close t seg cres] resolves the receiver dependences of a constraint
    using the summaries (Equation 2), returning the closed formula and the
    parameter set it still depends on.  Also used by the path-condition
    computation at bug-detection time. *)

val equal_entries :
  Pinpoint_ir.Func.t * entry option array ->
  Pinpoint_ir.Func.t * entry option array ->
  bool
(** [equal_entries (f, a) (g, b)]: the entries [a] of [f] and [b] of [g]
    (one function before and after an edit) are equal modulo renaming.
    One bijection between their symbols covers the whole array: seeded
    with [f]'s and [g]'s formals by position and with each entry's [var],
    extended wherever the formulas meet, and admitting only pairs with the
    same name and sort.  [params] compare as formal positions.  The
    formulas are walked as DAGs, memoised on node pairs. *)
