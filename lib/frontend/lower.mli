(** Lowering MC ASTs into the IR.

    Responsibilities:
    - flatten expressions into three-address statements with temporaries;
    - desugar non-boolean conditions ([if (p)] becomes [if (p != 0)]);
    - unroll every loop once ([while (c) S] lowers as [if (c) S], the
      paper's soundy treatment of loops, §4.2);
    - produce a single-entry / single-exit CFG whose unique [Return] lives
      in the exit block (the paper assumes one return per function);
    - remove unreachable blocks (code after [return]);
    - run SSA construction and φ gating.

    The result satisfies [Func.validate], [Ssa.is_ssa], and has a DAG
    CFG. *)

exception Error of string * Ast.loc

val func_sigs : Ast.program -> (string, Ty_sig.t) Hashtbl.t
(** Signatures of all functions declared in the program.  Raises {!Error}
    ["duplicate definition of function f"] at the second of two bodies
    with one name; every compile entry point checks this first. *)

val method_groups : Ast.program -> (string, string list) Hashtbl.t
(** Method-group table for virtual dispatch (group -> member functions). *)

val lower_fdecl :
  ?groups:(string, string list) Hashtbl.t ->
  ordinal:int ->
  (string, Ty_sig.t) Hashtbl.t ->
  Ast.fdecl ->
  Pinpoint_ir.Func.t
(** Lower one function (the full per-function pipeline described above).
    [vcall] dispatch needs the [groups] table; it is lowered CHA-style
    into a guarded chain of direct calls over an opaque selector.
    [ordinal] is its position in definition order, which names its
    symbols and heap addresses: re-lowering passes the predecessor's. *)

val compile : Ast.program -> Pinpoint_ir.Prog.t
(** Lower a whole program, numbering its functions in definition order. *)

val compile_string : ?file:string -> string -> Pinpoint_ir.Prog.t
(** Parse and compile MC source text. *)

val compile_file : string -> Pinpoint_ir.Prog.t

val compile_files : string list -> Pinpoint_ir.Prog.t
(** Parse each file and compile their concatenation (in argument order) as
    one program.  Function signatures and method groups are resolved
    across files, so calls may cross file boundaries — the multi-file
    subject model of the analysis server (DESIGN.md §4.13). *)
