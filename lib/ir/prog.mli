(** Whole programs: a set of functions grouped into "compilation units".

    Units matter for the Infer-/CSA-like baselines (which confine their
    analysis to one unit, §5.4) and for reporting (the paper counts bugs
    whose control flow spans many units). *)

type t = {
  mutable funcs : Func.t list;  (** in definition order *)
  by_name : (string, Func.t) Hashtbl.t;
  unit_of : (string, string) Hashtbl.t;  (** function name -> unit name *)
}

val create : unit -> t

val add : t -> ?unit_name:string -> Func.t -> unit
(** Register a function (default unit ["main"]).  Raises on duplicates. *)

val find : t -> string -> Func.t option
val functions : t -> Func.t list
val unit_name : t -> string -> string

val intrinsics : string list
(** Callee names with built-in models: memory ([malloc] via [Alloc] /
    [free]), the taint sources and sinks of §4.1 ([fgetc], [getpass],
    [fopen], [sendto]), the generic observer [print], and the C library
    functions the paper models manually ([memset], [memcpy]). *)

val is_defined : t -> string -> bool
(** Defined in this program (as opposed to external/intrinsic). *)

val call_graph : t -> Pinpoint_util.Digraph.t * Func.t array
(** Direct call graph over defined functions; node ids index the returned
    array. *)

val bottom_up_sccs : t -> Func.t list list
(** Call-graph SCCs in bottom-up (callees-first) order — the processing
    order for Mod/Ref, the connector transformation and summary
    generation.  The pipeline walks them through {!Callgraph}, built
    once; this from-scratch scan is its reference. *)

val n_stmts : t -> int

val loc_estimate : t -> int
(** A "lines of code" figure for a program: number of statements plus
    function headers (what the synthetic subjects report as KLoC). *)

val validate : t -> (unit, string) result
val pp : Format.formatter -> t -> unit
