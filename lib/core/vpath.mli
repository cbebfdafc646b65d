(** Global value-flow paths and their path conditions (paper §3.3.1).

    A path is a list of hops through the SEGs of possibly many functions.
    Its condition is assembled per Equations (1)–(3): the control
    dependences of every statement on the path, the equalities between
    consecutive vertices, the labels of the traversed edges, and the
    (recursively closed) data dependences of every condition — with a
    fresh clone frame per crossed call site (context sensitivity by
    cloning). *)

type hop =
  | Hsource of { fname : string; var : Pinpoint_ir.Var.t; sid : int }
  | Hflow of {
      fname : string;
      src : Pinpoint_ir.Var.t;
      dst : Pinpoint_ir.Var.t;
      cond : Pinpoint_smt.Expr.t;
      kind : Pinpoint_seg.Seg.ekind;
          (** [Copy] asserts [dst = src]; [Operand] asserts the operator's
              defining constraint instead (the value is transformed, not
              copied) *)
    }
  | Hcall of {
      caller : string;
      call_sid : int;
      callee : string;
      arg_index : int;  (** 0-based *)
      param : Pinpoint_ir.Var.t;
      args : Pinpoint_ir.Stmt.operand list;
    }
  | Hret of {
      callee : string;
      ret_var : Pinpoint_ir.Var.t;
      ret_index : int;
      caller : string;
      call_sid : int;
      recv : Pinpoint_ir.Var.t;
      args : Pinpoint_ir.Stmt.operand list;
      popped : bool;  (** true: returning to the frame we descended from;
                          false: bottom-up caller expansion *)
    }
  | Hparam_up of {
      callee : string;
      param : Pinpoint_ir.Var.t;
      caller : string;
      call_sid : int;
      actual : Pinpoint_ir.Var.t;
      args : Pinpoint_ir.Stmt.operand list;
    }
      (** VF3 direction: the buggy value entered the callee through a
          parameter; resume at the caller's actual after the call. *)
  | Hsink of { fname : string; var : Pinpoint_ir.Var.t; sid : int }

type t = hop list

(** Path-condition builder (DESIGN.md §4.10).

    {!Cond.extend} adds one hop's conjuncts, and {!Cond.checkpoint} and
    {!Cond.restore} are O(1).  The engine keeps the hops of its current
    DFS path on a trail and extends the builder only when it emits a
    candidate, over the hops not yet applied, with a checkpoint before
    each: sibling candidates share the applied prefix, and a subtree
    that reaches no sink costs no conjunct.  A restored builder, frame
    counter included, is the builder that was checkpointed, so the
    engine's condition of a path is the hash-consed formula a fresh
    builder extended by the whole path makes. *)
module Cond : sig
  type t

  val create :
    seg_of:(string -> Pinpoint_seg.Seg.t option) ->
    rv:Pinpoint_summary.Rv.t ->
    unit ->
    t

  val extend : t -> hop -> unit

  type checkpoint

  val checkpoint : t -> checkpoint
  val restore : t -> checkpoint -> unit

  val formula : t -> Pinpoint_smt.Expr.t
  (** [PC(π)] of the hops extended so far, assembled with
      {!Pinpoint_smt.Expr.conj_balanced}. *)
end

val pp : Format.formatter -> t -> unit
(** Human-readable trace (one hop per line), used in reports. *)

val source_sink : t -> (string * int) option * (string * int) option
(** (function, sid) of the source and sink hops. *)
