(** Functions and their control-flow graphs.

    A function owns its blocks, statements and variables.  Blocks form a
    graph whose shape is a DAG after the frontend's loop unrolling (paper
    §4.2); SSA construction, gating and control dependence all assume a
    single entry block and a single exit block holding the unique [Return]
    statement. *)

type term =
  | Jump of int                          (** unconditional edge *)
  | Br of Stmt.operand * int * int       (** conditional: (cond, then, else) *)
  | Exit                                 (** terminator of the exit block *)

type block = {
  bid : int;
  mutable stmts : Stmt.t list;  (** in program order *)
  mutable term : term;
}

type t = {
  fname : string;
  ordinal : int;
      (** position in definition order; a re-lowered function keeps its
          predecessor's *)
  mutable params : Var.t list;
  mutable ret_ty : Ty.t option;  (** [None] for void *)
  vgen : Var.gen;  (** variable generator *)
  sgen : Pinpoint_util.Id_gen.t;  (** statement id generator *)
  mutable blocks : block array;
  mutable entry : int;
  mutable exit_ : int;
}

val create :
  ordinal:int -> string -> params:Var.t list -> ret_ty:Ty.t option -> t
(** A function with a fresh empty entry block (which is also the exit until
    more blocks are added), the next generation at [ordinal]. *)

val generation : t -> int
(** How many functions this process created at its ordinal before. *)

val add_block : t -> block
val block : t -> int -> block
val n_blocks : t -> int
val set_term : t -> int -> term -> unit

val append : t -> int -> Stmt.t -> unit
(** Append a statement to a block. *)

val prepend_entry : t -> Stmt.t -> unit
(** Insert at the beginning of the entry block, after any [Phi]s (used by
    the connector transformation). *)

val succs : term -> int list

val cfg : t -> Pinpoint_util.Digraph.t
(** Snapshot of the block graph. *)

val iter_blocks : t -> (block -> unit) -> unit
val iter_stmts : t -> (block -> Stmt.t -> unit) -> unit
val fold_stmts : t -> init:'a -> f:('a -> block -> Stmt.t -> 'a) -> 'a
val find_stmt : t -> int -> (block * Stmt.t) option
(** Look up a statement by sid. *)

val return_stmt : t -> Stmt.t option
(** The unique [Return] statement in the exit block, if present. *)

val n_stmts : t -> int

val def_table : t -> Stmt.t Var.Tbl.t
(** Map from SSA variable to its defining statement. *)

val block_of_stmt : t -> (int, int) Hashtbl.t
(** Map from sid to block id. *)

val reaches : t -> int -> int -> bool
(** [reaches f s1 s2]: can control flow from statement [s1] reach [s2]
    (strictly after it, in the same block, or via CFG edges)? *)

val validate : t -> (unit, string) result
(** Structural invariants: terminator targets exist, exit block has [Exit]
    and ends with the [Return] (when the function returns), SSA single-def
    (when [ssa] below has run this holds), no φ outside block heads. *)

val pp : Format.formatter -> t -> unit
val dot : t -> string
