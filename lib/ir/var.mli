(** IR variables.

    Variables are per-function; ids are dense within one function.  After
    SSA construction each variable has exactly one defining statement.  A
    variable owns an SMT symbol of the matching sort, named by its place,
    and shared by all formulas that mention it (this is what makes SEG
    conditions compact). *)

type kind =
  | Local       (** a source-level local or a lowering temporary *)
  | Formal      (** a source-level formal parameter *)
  | Aux_formal of { root : t; depth : int }
      (** connector: input value of the access path [*(root, depth)]
          (Definition 3.1) *)
  | Aux_return of { root : t; depth : int }
      (** connector: output value of the access path [*(root, depth)] *)
  | Aux_actual of { arg_index : int }
      (** call-site connector holding the value loaded for an Aux formal *)
  | Aux_receiver of { ret_index : int }
      (** call-site connector receiving an Aux return value *)

and t = private {
  vid : int;
  name : string;
  ty : Ty.t;
  kind : kind;
  sym : Pinpoint_smt.Symbol.t;
}

type gen
(** One lowered function's variables: their vid counter, symbol space
    and table.  Single-owner, like {!Pinpoint_util.Id_gen}. *)

val gen : ordinal:int -> gen
(** A new function's, the next generation at [ordinal]
    ({!Pinpoint_smt.Symbol.space}). *)

val generation : gen -> int
val count : gen -> int
(** Variables made so far: the next vid. *)

val of_vid : gen -> int -> t

val make : gen -> ?kind:kind -> string -> Ty.t -> t
(** Allocate a fresh variable, with its symbol. *)

val symbol : t -> Pinpoint_smt.Symbol.t
(** The variable's SMT symbol. *)

val term : t -> Pinpoint_smt.Expr.t
(** [Expr.var (symbol v)]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val is_interface : t -> bool
(** Formal or Aux_formal: a variable whose constraints are deferred to the
    caller (the "P" sets of §3.3.1). *)

val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
