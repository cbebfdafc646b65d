(** Whole-program Andersen-style points-to analysis: inclusion-based,
    flow- and context-insensitive.

    This is the independent "layered" points-to analysis that SVF-class
    tools run before building their sparse value-flow graph (paper §1,
    §5.1).  Its imprecision — one points-to set per variable for the whole
    program, a universal blob for unknown memory — is exactly the "pointer
    trap": it survives at scale but floods the downstream SVFG with false
    edges.

    Constraint generation lives here; solving is delegated to
    {!Pinpoint_pta.Wavefront} (sequential difference propagation).
    Multi-level accesses are lowered into chains of synthetic
    nodes.  Unknown values (parameters of entry functions, returns of
    external functions) point to a universal object [U] whose content
    points back to [U]. *)

module ISet : Set.S with type elt = int

type t

val run : ?deadline:Pinpoint_util.Metrics.deadline -> Pinpoint_ir.Prog.t -> t
(** On deadline expiry the result is marked {!timed_out} instead of
    raising. *)

val node_of_var : t -> string -> Pinpoint_ir.Var.t -> int option
(** Solver node of a variable (function name + var). *)

val pts : t -> int -> ISet.t
(** Points-to set (object ids) of a node. *)

val universal : t -> int
(** The universal unknown object. *)

val n_nodes : t -> int

val n_iterations : t -> int

val timed_out : t -> bool
(** Whether the worklist solve hit the deadline (points-to sets are then a
    partial under-approximation, used only to mark the baseline's timeout
    in the figures). *)
