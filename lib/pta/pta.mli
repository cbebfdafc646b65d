(** The intra-procedural, flow-sensitive, "quasi" path-sensitive points-to
    analysis (paper §3.1.1).

    The analysis runs over SSA functions whose CFG is a DAG (post loop
    unrolling).  Points-to sets and memory contents carry symbolic
    conditions (SEG-style boolean formulas); conditions are pruned only by
    the linear-time contradiction solver ({!Pinpoint_smt.Linear_solver}),
    never by a full SMT solver — expensive feasibility checking is
    postponed to the bug-detection stage.

    Memory is a map from {!Cell.t} to conditional entries.  At control-flow
    joins entries are merged under the same gate conditions as φ arguments,
    which is what yields points-to sets like the paper's
    [{(L, θ1), (M, ¬θ1)}] for [ptr] in Figure 2.

    When a load (or the pointer chain of a deep access) reads a cell that
    has no local content and whose root comes from outside the function,
    the analysis materialises an {e incoming value} — a fresh variable
    standing for "whatever the caller put there".  Incoming values rooted
    at formal parameters are the REF side-effects that the connector
    transformation (Fig. 3) turns into Aux formal parameters. *)

type entry = {
  value : Pinpoint_ir.Stmt.operand;  (** the stored value *)
  cond : Pinpoint_smt.Expr.t;        (** condition under which it is there *)
  store_sid : int;  (** sid of the storing statement; -1 for conduit seeds *)
}

type incoming = {
  ivar : Pinpoint_ir.Var.t;          (** the materialised variable *)
  root : Pinpoint_ir.Var.t;          (** the formal/receiver it chains from *)
  depth : int;                       (** access-path depth [*(root, depth)] *)
}

type t = {
  func : Pinpoint_ir.Func.t;
  pts : (Cell.t * Pinpoint_smt.Expr.t) list Pinpoint_ir.Var.Tbl.t;
  load_res : (int, entry list) Hashtbl.t;
      (** per-[Load] sid: the entries the loaded value may come from *)
  store_tgts : (int, (Cell.t * Pinpoint_smt.Expr.t) list) Hashtbl.t;
      (** per-[Store] sid: the cells it may write *)
  incomings : incoming list;  (** in materialisation order *)
  refs : (int * int) list;
      (** REF side-effect paths [(param index >= 1, depth)] *)
  mods : (int * int) list;
      (** MOD side-effect paths [(root, depth)]; root 0 is the return value
          (Fig. 3's [q >= 0]), roots >= 1 are parameter indices *)
  mutable freed_cells : (Cell.t * Pinpoint_smt.Expr.t * int) list;
      (** cells passed to [free], with condition and the call sid (used by
          checkers and by tests) *)
}

val max_depth : int ref
(** Access-path depth cap (soundy; default 3). *)

val quasi_pruning : bool ref
(** When false, the linear-time infeasibility filter is skipped and every
    conditional entry is kept (the "layered-style" ablation measured by
    [bench/main.exe ablation]; default true). *)

val pts_of : t -> Pinpoint_ir.Var.t -> (Cell.t * Pinpoint_smt.Expr.t) list

val run : Pinpoint_ir.Func.t -> t
(** Analyse one function.  The same analysis serves the Mod/Ref pass and
    the post-transformation pass: it materialises incoming values for any
    outside-rooted cell and logs REF/MOD paths, and on a transformed body
    the cells seeded by conduit statements resolve naturally. *)

(** {1 Counts}

    Registry counters ({!Pinpoint_obs.Obs}), created when this module
    loads: [pta.n_kept] and [pta.n_pruned] count the conditional
    points-to entries the linear-time solver kept and pruned as
    infeasible (the paper reports ~70% of PTA-stage conditions
    satisfiable); [pta.n_row_hits] and [pta.n_row_misses] count the
    row-verdict memo's probes (row-level difference propagation,
    DESIGN.md §4.15): a row whose condition's hash-cons id was
    classified before pays no linear solve.  Verdicts are pure functions
    of the formula and [n_kept]/[n_pruned] are bumped alike on hits and
    misses, so those two do not depend on the schedule; which domain
    misses a formula first does. *)

val pp : Format.formatter -> t -> unit
