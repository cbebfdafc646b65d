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
      result is what the SEG builder consumes.

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

type result = {
  ifaces : (string, iface) Hashtbl.t;
  ptas : (string, Pinpoint_pta.Pta.t) Hashtbl.t;
      (** final (post-transformation) points-to results per function *)
}

val max_conduits : int ref
(** Cap on conduits per function (guards against side-effect-summary
    explosion, §3.1.2; default 64). *)

val run :
  ?resilience:Pinpoint_util.Resilience.log ->
  ?pool:Pinpoint_par.Pool.t ->
  ?pta_sink:(string -> Pinpoint_pta.Pta.t -> unit) ->
  Pinpoint_ir.Prog.t ->
  result
(** Transform the whole program in place and return the interface and
    points-to tables.  Each per-function unit of work runs inside an
    exception barrier: a crash in one function records an incident on
    [resilience] (when given) and leaves that function without an
    interface / points-to result, instead of aborting the pipeline.

    With [pool] (and more than one job) call-graph SCCs are processed as a
    bottom-up wave on the pool — a component starts once its callee
    components are done, so the result is identical to the sequential
    order.

    With [pta_sink] (the artifact store's spill mode) points-to results
    stream to the sink as each SCC finishes and [result.ptas] stays
    empty, bounding resident memory to one SCC; the run is sequential
    and [pool] is ignored.  Everything else — ids, symbols, formulas —
    is produced in the same order as the sequential path. *)

val update :
  ?resilience:Pinpoint_util.Resilience.log ->
  ?pool:Pinpoint_par.Pool.t ->
  ?pta_sink:(string -> Pinpoint_pta.Pta.t -> unit) ->
  result ->
  Pinpoint_ir.Func.t list list ->
  unit
(** Incremental re-transformation for the analysis server (DESIGN.md
    §4.13).  [update t sccs] takes the call-graph SCCs holding the
    functions whose bodies are fresh (re-lowered, untransformed), in
    bottom-up order with members in {!Pinpoint_ir.Prog.bottom_up_sccs}
    order; the set {b must} be closed under "is a transitive caller of a
    dirty function" — then every SCC is entirely dirty or entirely clean.
    Their table entries are dropped and the components reprocessed
    bottom-up against the retained clean interfaces, producing interfaces
    and points-to results identical to a from-scratch {!run} on the same
    program.  Sequential by default (cones are small); with [pool] (and
    more than one job) the components run as the same batched bottom-up
    wave as {!run}.  With [pta_sink] fresh points-to results go to the
    sink instead of [result.ptas] (store mode, as in {!run}; the run is
    then sequential and [pool] is ignored). *)

val pp_iface : Format.formatter -> iface -> unit
