(** Artifact codec: flatten SEGs and RV/VF summaries into arenas and
    rebuild them losslessly in the same process.

    The stable node-id scheme rides on ids the pipeline already makes
    deterministic:

    - variables are per-function with dense [vid]s, so [(fname, vid)]
      names a variable stably; decode returns the {e original resident}
      [Var.t] of the function registered under [fname];
    - statements have dense per-function [sid]s;
    - formulas are hash-consed, so a stored node DAG re-interned
      bottom-up via {!Pinpoint_smt.Expr.of_node} yields physically
      identical expressions — reports stay byte-identical;
    - SMT symbols are stored by place, never by id (a clone as its base
      and tag), so blob bytes depend on the program alone, and a symbol
      decodes to the same id after an edit re-lowers its function.

    Repetition is exploited twice: whole formulas are banked once per
    hash-cons id, and serialised rows (SEG load and adjacency rows) are
    interned by content — per-function ids are dense from
    zero, so structurally identical functions produce byte-identical
    rows that dedup across the whole program. *)

type env

val create_env :
  append:(bytes -> int) -> fetch:(off:int -> len:int -> bytes) -> env
(** [append] stores a record and returns its offset; [fetch] reads one
    back.  Both are called re-entrantly from encode/decode. *)

val register_func : env -> Pinpoint_ir.Func.t -> unit
(** Make a function decodable by name.  Symbols store their generation
    relative to the first function registered at their ordinal. *)

type stats = {
  row : Intern.stats;          (** row-level dedup *)
  expr_hits : int;             (** formulas reused from the bank *)
  expr_misses : int;           (** formulas serialised *)
}

val stats : env -> stats

val enc_seg : env -> Pinpoint_seg.Seg.t -> bytes
val dec_seg : env -> bytes -> Pinpoint_seg.Seg.t
(** A SEG carries its load rows, so it decodes on its own. *)

val enc_rv : env -> string -> Pinpoint_summary.Rv.entry option array -> bytes
val dec_rv : env -> bytes -> Pinpoint_summary.Rv.entry option array

val enc_vf : env -> Pinpoint_summary.Vf.t -> bytes
val dec_vf : env -> bytes -> Pinpoint_summary.Vf.t
