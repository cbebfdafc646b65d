(** Hash-consed symbolic expressions.

    These are the formulas that label SEG edges and make up path conditions.
    Hash-consing gives O(1) structural equality (pointer/id comparison) and
    maximal sharing, which keeps the "compact encoding" property of the SEG
    (paper §3.2): a branch condition appearing in many labels is stored
    once.

    Smart constructors perform light normalisation: constant folding,
    [true]/[false] absorption, double-negation elimination, and pushing
    negation into comparison atoms (so ¬(a < b) becomes b ≤ a).  This keeps
    the atom space canonical for both the linear-time solver and the full
    solver. *)

type t = private {
  id : int;
      (** Intern id: allocation-ordered, so schedule-dependent under
          parallelism.  Valid for equality, hashing and memo keys only —
          formula structure must never be derived from it. *)
  skey : int;
      (** Structural rank (hash of kinds, constants, symbol names and
          children's ranks): schedule-independent; orders commutative
          operands canonically. *)
  node : node;
}

and node =
  | True
  | False
  | Int of int                 (** Integer literal. *)
  | Var of Symbol.t            (** Variable of either sort. *)
  | Not of t
  | And of t * t
  | Or of t * t
  | Eq of t * t
  | Ne of t * t
  | Lt of t * t                (** strictly-less over integers *)
  | Le of t * t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Neg of t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** {1 Constructors} *)

val tru : t
val fls : t
val int : int -> t
val var : Symbol.t -> t
val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val conj : t list -> t
val disj : t list -> t

val conj_balanced : t list -> t
(** Like {!conj}, but deduplicates the operands and folds them as a
    balanced tree after sorting by structural rank ([skey], ties keeping
    list order) — so any order of the same conjunct set interns the same
    node, restoring the sharing a left fold defeats.  Equisatisfiable with
    [conj] (associativity/commutativity of ∧); preferred for
    engine-assembled path conditions. *)

val disj_balanced : t list -> t
(** Dual of {!conj_balanced}. *)

val implies : t -> t -> t
val eq : t -> t -> t
val ne : t -> t -> t
val lt : t -> t -> t
val le : t -> t -> t
val gt : t -> t -> t
val ge : t -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t
val bool : bool -> t

val of_node : node -> t
(** Intern a raw node whose children are already interned expressions.
    Returns the canonical (hash-consed) expression for that node —
    physically equal to any previously built identical expression.  For
    deserializers rebuilding stored formulas bottom-up; does {e not}
    re-canonicalise commutative operand order, so only feed it nodes
    that were produced by the smart constructors in the first place. *)

val is_true : t -> bool
val is_false : t -> bool

val sort_of : t -> Symbol.sort
(** The sort of a well-sorted expression (comparisons and connectives are
    Bool; arithmetic and literals are Int; variables carry their own). *)

(** {1 Queries} *)

val atoms : t -> t list
(** The atomic boolean constraints of a formula, in first-occurrence order:
    boolean variables and comparison nodes, with negations stripped.  (See
    the paper's footnote 3: an atomic constraint is a bool-typed expression
    without logical operators.) *)

val conjuncts : t -> t list
(** The top-level conjunct set of a formula's ∧-spine, flattened
    recursively and deduplicated by hash-cons id, in first-occurrence
    order. *)

val vars : t -> Symbol.t list
(** All variables occurring in the expression, deduplicated. *)

val size : t -> int
(** Number of distinct subterms (DAG size). *)

val subst : (Symbol.t -> t option) -> t -> t
(** Capture-free substitution of variables. *)

(** {1 Evaluation} (used by tests and the CSA-like baseline) *)

type value = VBool of bool | VInt of int

val eval : (Symbol.t -> value) -> t -> value
(** Evaluate under a total environment.  Raises [Invalid_argument] on sort
    errors. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val n_created : unit -> int
(** Number of distinct hash-consed nodes ever created (a stats counter the
    tests read). *)
