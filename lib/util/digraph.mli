(** Mutable directed graph over dense integer node ids, with the graph
    algorithms the analyses need: traversals, reverse-post-order, Tarjan
    SCCs, topological order of the condensation, and Cooper–Harvey–Kennedy
    dominators / post-dominators with dominance frontiers.

    Nodes are integers [0 .. n_nodes-1]; clients keep their own side tables
    from node id to payload. *)

type t

val create : ?initial_capacity:int -> unit -> t
val ensure_node : t -> int -> unit
(** Make sure the node id exists (allocating all smaller ids too). *)

val n_nodes : t -> int
val n_edges : t -> int

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] adds a [u -> v] edge.  Duplicate edges are kept (CFG
    edges are deduplicated by the caller when it matters). *)

val has_edge : t -> int -> int -> bool
val succs : t -> int -> int list
val preds : t -> int -> int list
val in_degree : t -> int -> int

val iter_edges : t -> (int -> int -> unit) -> unit

val reverse_post_order : t -> int -> int array
(** RPO of the nodes reachable from the given root. *)

val post_order : t -> int -> int array

val reachable : t -> int -> bool array
(** Characteristic vector of nodes reachable from the root. *)

val topo_sort : t -> int list option
(** Topological order of all nodes; [None] if the graph has a cycle. *)

val sccs : t -> int list list
(** Tarjan strongly-connected components, in reverse topological order of
    the condensation (callees-first when applied to a call graph). *)

val is_dag : t -> bool

(** Dominator tree information for a rooted graph. *)
type dom = {
  idom : int array;
      (** [idom.(v)] is the immediate dominator of [v]; the root maps to
          itself; unreachable nodes map to [-1]. *)
  dom_order : int array;  (** RPO used internally. *)
}

val dominators : t -> int -> dom
(** Cooper–Harvey–Kennedy iterative dominators from the root. *)

val post_dominators : t -> int -> dom
(** Dominators of the edge-reversed graph rooted at the given exit node. *)

val dominates : dom -> int -> int -> bool
(** [dominates d u v]: does [u] dominate [v] (reflexive)? *)

val dominance_frontier : t -> dom -> int list array
(** [dominance_frontier g d] per-node dominance frontier (Cytron et al.),
    used for SSA phi placement. *)

val dot : ?name:string -> ?label:(int -> string) -> t -> string
(** Graphviz rendering for debugging. *)
