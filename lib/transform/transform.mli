(** The connector model (paper §3.1.2, Figure 3).

    Processing functions bottom-up over call-graph SCCs, this pass:

    + rewrites every call site whose callee has already been processed:
      for each callee REF path [*(v_j, k)] it inserts
      [A_i <- *(u_j, k)] before the call and passes [A_i] as an extra
      actual; for each callee MOD path [*(v_q, r)] it adds an extra
      receiver [C_p] and inserts [*(u_q, r) <- C_p] after the call
      (Fig. 3b);
    + runs the quasi path-sensitive points-to analysis to discover the
      function's own side effects (Mod/Ref, §3.1.1);
    + exposes those side effects on the interface: an {e Aux formal
      parameter} [F_i] with an entry store [*(v_j, k) <- F_i] per REF
      path, and an {e Aux return value} [R_p] with an exit load
      [R_p <- *(v_q, r)] and an extended return per MOD path (Fig. 3a);
    + runs the points-to analysis once more on the transformed body — the
      result is what the SEG builder consumes, straight after the SCC is
      transformed ([Analysis.sweep]).  A function with no REF and no MOD
      path gains no parameter, entry store or exit load, so its body is
      the one the discovery run analysed, and that run's result is
      published instead.

    Calls within one call-graph SCC are left un-rewritten (the paper
    unrolls recursion once, §4.2).  REF paths always include the
    formal-rooted MOD paths: a conditionally-modified location must also
    flow its incoming value to the exit load (this is why Figure 2's [bar]
    has both [X] and [Y] for [*(q,1)]). *)

type iface = {
  ref_paths : (int * int * Pinpoint_ir.Var.t) list;
      (** (param index >= 1, depth, F variable), in parameter order *)
  mod_paths : (int * int * Pinpoint_ir.Var.t) list;
      (** (root index; 0 = return value, depth, R variable), in return
          order *)
  has_orig_ret : bool;
}

val expose_side_effects : Pinpoint_ir.Func.t -> Pinpoint_pta.Pta.t -> iface
(** [expose_side_effects f pta] exposes [f]'s own side effects, as [pta]
    found them, on its interface (Fig. 3a), in place: an Aux formal
    parameter and an entry store per REF path, an exit load and an
    extended return per MOD path.  With no REF and no MOD path it changes
    nothing in [f]. *)

val max_conduits : int ref
(** Cap on conduits per function (guards against side-effect-summary
    explosion, §3.1.2; default 64). *)

val process_scc :
  ?resilience:Pinpoint_util.Resilience.log ->
  iface_of:(string -> iface option) ->
  put_iface:(string -> iface -> unit) ->
  put_pta:(string -> Pinpoint_pta.Pta.t -> unit) ->
  Pinpoint_ir.Func.t list ->
  unit
(** Transform the members of one call-graph SCC, in place and in member
    order, against the callee interfaces [iface_of] returns: rewrite each
    member's calls, run the discovery PTA, expose its side effects and
    publish its interface ([put_iface]), so a member processed later sees
    it.  Then, for every member, publish the final points-to result
    ([put_pta]): a PTA of the transformed body, or the discovery result
    where the body did not change.  A callee [iface_of] does not know
    (one later in the same SCC, or one that crashed) keeps its calls
    un-rewritten.  Each stage of each member runs inside an exception
    barrier: a crash records an incident on [resilience] (when given) and
    leaves that member without an interface, or without a points-to
    result (and so without a SEG). *)

val same_shape : iface -> iface -> bool
(** Whether two interfaces rewrite a caller's calls the same way: the
    same [(j,k)] REF paths, the same [(q,r,ty)] MOD paths and the same
    [has_orig_ret].  A caller's transformed IR depends on its callees'
    interfaces only through this shape. *)

val pp_iface : Format.formatter -> iface -> unit
