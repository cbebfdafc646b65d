(** Whole-program inclusion-constraint (Andersen-style) wavefront solver
    with difference propagation (DESIGN.md §4.15).

    The constraint system's solution is the least fixpoint of a monotone
    function on a finite lattice, so any processing order reaches the
    same points-to sets.  The unit tests compare {!solve} against the
    textbook full-set worklist, kept in [test/test_pta.ml] as the oracle.
    {!Pinpoint_baselines.Andersen} generates its constraints into a {!sys}
    and delegates solving here. *)

module ISet : Set.S with type elt = int

type sys = {
  n_nodes : int;
  obj_mem : int array;  (** object id -> content node *)
  copy : ISet.t array;
      (** static copy edges [pts(src) ⊆ pts(dst)]; not mutated by solve *)
  loads : int list array;
      (** [dst ∈ loads.(p)]: for each [o ∈ pts(p)], [pts(dst) ⊇ pts(mem o)] *)
  stores : int list array;
      (** [src ∈ stores.(p)]: for each [o ∈ pts(p)], [pts(mem o) ⊇ pts(src)] *)
  init : (int * int) list;  (** initial [(node, object)] memberships *)
}

type result = {
  pts : ISet.t array;  (** the least fixpoint (per node, object ids) *)
  iterations : int;  (** node processings that had a non-empty delta *)
  timed_out : bool;
      (** deadline hit: [pts] is then a partial under-approximation *)
}

val solve : ?deadline:Pinpoint_util.Metrics.deadline -> sys -> result
(** Solve to the least fixpoint by sequential difference propagation:
    each membership crosses each edge once, and a newly discovered
    load/store edge carries its source's full set once. *)
