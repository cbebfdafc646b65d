(** Cloning-based context sensitivity (paper §3.3.1(2)).

    When a function's SEG constraints are used at a call site, every symbol
    that is not explicitly bound (to an actual-parameter term or a
    return-value receiver) is renamed to a fresh clone, so that two call
    sites of the same function never share constraint variables.  A frame
    caches its clones, so repeated substitutions at the same site are
    consistent.

    Unbound-fallback clones are additionally interned process-wide by
    (base symbol, frame tag): frames created with the same tag mint the
    same clone symbols, making closed summaries and path conditions
    deterministic functions of path structure.  So a condition or summary
    is structurally the same formula on every run, at every [--jobs]
    level, and in a served run as in a batch one.  Tags must therefore
    uniquely identify a substitution context (the engine embeds call-site
    ids / per-condition counters in them); explicit {!bind}ings remain
    per-frame and are never interned.  The intern table never shrinks:
    it holds one entry per (base symbol, tag) pair ever cloned. *)

type t

val create : string -> t
(** [create tag] — the tag shows up in cloned symbol names, which makes
    solver models debuggable. *)

val bind : t -> Pinpoint_smt.Symbol.t -> Pinpoint_smt.Expr.t -> unit
(** Explicit binding (formal parameter -> actual term, return value ->
    receiver term).  Must precede any {!subst} touching that symbol. *)

val subst : t -> Pinpoint_smt.Expr.t -> Pinpoint_smt.Expr.t
(** Substitute: bound symbols get their binding, unbound symbols get a
    fresh clone (cached in the frame). *)

val subst_var : t -> Pinpoint_ir.Var.t -> Pinpoint_smt.Expr.t
(** The (possibly cloned) term standing for a variable in this frame. *)
