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

val condition :
  seg_of:(string -> Pinpoint_seg.Seg.t option) ->
  rv:Pinpoint_summary.Rv.t ->
  t ->
  Pinpoint_smt.Expr.t
(** The path condition [PC(π)] of the path, rebuilt from scratch (the
    one-shot reference implementation; the engine uses {!Cond}). *)

(** Incremental path-condition builder (DESIGN.md §4.10).

    Threads [PC(π)] through the engine's DFS: {!Cond.extend} adds one
    hop's conjuncts, {!Cond.checkpoint}/{!Cond.restore} are O(1) and
    bracket each subtree, so the condition is already assembled when a
    sink is reached instead of being rebuilt per candidate. *)
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
  (** The condition of the hops extended so far, assembled with
      {!Pinpoint_smt.Expr.conj_balanced} — equisatisfiable with
      {!condition} on the same path. *)

  val of_path :
    seg_of:(string -> Pinpoint_seg.Seg.t option) ->
    rv:Pinpoint_summary.Rv.t ->
    hop list ->
    t
  (** Fold a complete path into a fresh builder (test convenience). *)
end

val pp : Format.formatter -> t -> unit
(** Human-readable trace (one hop per line), used in reports. *)

val source_sink : t -> (string * int) option * (string * int) option
(** (function, sid) of the source and sink hops. *)
