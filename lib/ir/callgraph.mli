(** The call graph over a program's defined functions, built once and
    patched per edit (DESIGN.md §4.13).

    One representation serves every bottom-up pass and the engine: the
    transform and the sweep read each SCC's callees from it, the engine
    reads each function's callers with their call sites, and the analysis
    server patches it when an edit re-lowers functions instead of
    rescanning the program.

    Nodes are the program's functions in definition order.  Edges are
    call statements to defined callees, so an edge survives the connector
    transformation, which rewrites a call's argument and receiver lists in
    place but never its callee or the statement itself. *)

type t

val build : Prog.t -> t
(** Scan every function's statements once. *)

val functions : t -> Func.t list
(** The nodes, in definition order. *)

val sccs : t -> Func.t list list
(** The SCCs in bottom-up (callees-first) order, exactly
    {!Prog.bottom_up_sccs} of the program the graph describes. *)

val callers : t -> string -> (Func.t * Stmt.t) list
(** The call sites of a function: (caller, call statement) pairs, callers
    in reverse definition order and each caller's calls in reverse
    statement order.  [[]] for an unknown name. *)

val callees : t -> Func.t list -> string list
(** The distinct defined callees of the given functions' calls. *)

val upward : t -> string list -> int list
(** The SCCs holding one of the named functions or a transitive caller of
    one, as positions in {!sccs}, in bottom-up order.  Marking costs the
    components found and their callers' call sites, not the program.  A
    position stays valid until a {!replace} that changes call edges. *)

val members : t -> int -> Func.t list
(** The current members of the SCC at a position in {!sccs}: a function
    {!replace}d since the position was read shows as its replacement. *)

val replace : t -> Func.t list -> string list
(** [replace g fs] installs re-lowered functions, each replacing the
    function of the same name (names distinct), and returns the functions
    whose SCC, members or member order, differs from before.  The result
    equals {!build} of the program with [fs] installed: the same SCCs in
    the same order, the same caller lists in the same order, and nodes
    that are the current functions.

    It rescans only the statements of [fs].  In each callee's caller
    list, old body or new, it replaces only the blocks of entries of
    [fs]; a caller that newly calls a callee is placed by definition
    order.  When every function in [fs] calls the same callee nodes in
    the same statement order as the one it replaces, the integer edges
    are unchanged, so Tarjan would return the same SCCs in the same order:
    it is not re-run and the result is [[]].  Otherwise Tarjan re-runs
    over all the integer edges, with no statement scan. *)
