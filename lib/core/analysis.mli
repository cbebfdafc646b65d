(** The end-to-end Pinpoint pipeline (paper Figure 6):

    MC source → IR (SSA, gated) → call-site rewriting + Mod/Ref → connector
    transformation → one bottom-up sweep building each function's SEG, RV
    summary and VF summaries → demand-driven checking with SMT
    feasibility.

    Phase timings and allocation are captured for the benchmark harness
    (Figures 7–10). *)

type phase_metrics = {
  frontend : Pinpoint_util.Metrics.measurement;
  transform : Pinpoint_util.Metrics.measurement;  (** PTA + connectors *)
  summaries : Pinpoint_util.Metrics.measurement;
      (** the sweep: SEG builds and RV/VF summaries, interleaved *)
}

type t = {
  prog : Pinpoint_ir.Prog.t;
  graph : Pinpoint_ir.Callgraph.t;
      (** [prog]'s call graph, built once: the transform and the sweep
          walk its SCCs and {!check} reads its caller lists *)
  transform : Pinpoint_transform.Transform.result;
  segs : (string, Pinpoint_seg.Seg.t) Hashtbl.t;
  rv : Pinpoint_summary.Rv.t;
  metrics : phase_metrics;
  resilience : Pinpoint_util.Resilience.log;
      (** incident log shared by every phase and checker run of this
          analysis: per-function crashes (transform, SEG build, RV/VF
          summaries), per-source search crashes, solver degradations and
          injected faults all land here *)
  pool : Pinpoint_par.Pool.t option;
      (** the worker pool the preparation phases ran on, if any; [check]
          reuses it for its per-source fan-out *)
  store : Pinpoint_store.Store.t option;
      (** disk-resident artifact store (DESIGN.md §4.14); when present
          [segs] stays empty and {!seg_of} faults SEGs back in through
          the store's LRU *)
  vfs : (string, Checker_spec.t * Pinpoint_summary.Vf.t) Hashtbl.t;
      (** VF-summary tables by checker name, one per registered checker
          ({!Checkers.all}), filled by the sweep *)
}

val seg_of : t -> string -> Pinpoint_seg.Seg.t option

val store : t -> Pinpoint_store.Store.t option

val incidents : t -> Pinpoint_util.Resilience.incident list
(** Incidents accumulated so far, oldest first. *)

val prepare :
  ?resilience:Pinpoint_util.Resilience.log ->
  ?pool:Pinpoint_par.Pool.t ->
  ?store:Pinpoint_store.Store.t ->
  Pinpoint_ir.Prog.t ->
  t
(** Run every phase up to (and including) summary generation on an
    already-compiled program: the transform, then one bottom-up sweep
    ({!sweep}) that builds every SEG and every RV and VF summary.  With
    [pool] (and more than one job) both run as bottom-up SCC waves; the
    result — SEGs, summaries, reports — is identical to a sequential run
    (DESIGN.md §4.9).  The pool's incident log is pointed at this
    analysis's {!t.resilience}.  With [resilience] the given log is used
    instead of a fresh one — the analysis server passes its long-lived
    capacity-capped log so incidents from successive (re)builds
    accumulate in one place.

    With [store] the preparation phases spill every per-function artifact
    (PTA, SEG, RV summary) to the store as it is produced instead of
    keeping it resident, bounding peak heap to the store's LRU plus the
    IR; preparation is sequential ([pool] still accelerates {!check}) and
    decodes no SEG.  Reports are byte-identical to a store-off run. *)

type swept = {
  resummarised : int;
      (** functions whose RV and VF entries were recomputed from their
          retained SEGs, with no SEG build *)
  summaries_changed : string list;
      (** redone functions whose RV or VF entries differ from before *)
}

val sweep :
  resilience:Pinpoint_util.Resilience.log ->
  ?pool:Pinpoint_par.Pool.t ->
  ?store:Pinpoint_store.Store.t ->
  Pinpoint_ir.Callgraph.t ->
  Pinpoint_transform.Transform.result ->
  segs:(string, Pinpoint_seg.Seg.t) Hashtbl.t ->
  Pinpoint_summary.Rv.t ->
  vfs:(string, Checker_spec.t * Pinpoint_summary.Vf.t) Hashtbl.t ->
  ?retransformed:
    ( string,
      Pinpoint_ir.Func.t * Pinpoint_summary.Rv.entry option array option )
    Hashtbl.t ->
  Pinpoint_ir.Func.t list list ->
  swept
(** [sweep ~resilience graph transform ~segs rv ~vfs sccs] (re)builds the
    SEGs, RV entries and VF entries (every registered checker's table in
    [vfs]) of the functions in [sccs]: components of [graph] in bottom-up
    order.  An SCC's old entries are dropped just before it is
    redone; everything else is read as retained, so the result equals a
    from-scratch sweep (DESIGN.md §4.5, §4.13).  Per SCC, the members'
    SEGs are built from their PTAs ([seg.build] each), their RV entries
    computed in member order, their VF entries in member order
    ([summary.vf] each), and only then are the SEGs put in [segs] — or,
    with [store], spilled, reading PTAs from the store too.  SEG, RV and
    VF work each sit behind a per-function barrier.  With [pool] (no
    store) the SCCs run as a batched bottom-up wave.

    Without [retransformed] every listed SCC is rebuilt and nothing is
    compared ({!prepare}).  With it (the analysis server) the sweep cuts
    off early: [retransformed] maps each function the transform re-lowered
    to its function and RV entries from before the edit.  An SCC holding
    one is rebuilt; an SCC with a callee outside it whose RV or VF
    entries changed earlier in the sweep is re-summarised from its
    retained SEGs; every other SCC is skipped.  Each redone member's
    entries are compared with its old ones — RV modulo renaming
    ({!Pinpoint_summary.Rv.equal_entries}), VF structurally — and the
    result names those that changed. *)

val prepare_source :
  ?pool:Pinpoint_par.Pool.t ->
  ?store:Pinpoint_store.Store.t ->
  ?file:string ->
  string ->
  t
(** Parse, compile and prepare MC source text. *)

val prepare_file :
  ?pool:Pinpoint_par.Pool.t -> ?store:Pinpoint_store.Store.t -> string -> t

val prepare_files :
  ?pool:Pinpoint_par.Pool.t ->
  ?store:Pinpoint_store.Store.t ->
  string list ->
  t
(** Parse, compile and prepare the concatenation of several MC files (in
    argument order) as one program — the batch twin of the analysis
    server's multi-file subject model. *)

val seg_size : t -> int * int
(** Total (vertices, edges) over all SEGs — the Figure 7/8 size metric. *)

val seal_store : t -> Checker_spec.t list -> unit
(** Store mode only (no-op otherwise, or once sealed): persist the given
    checkers' VF tables, then seal the store — index, checksummed
    trailer, rename to the epoch file — switching reads to the mmap
    path. *)

val check :
  ?config:Engine.config -> t -> Checker_spec.t -> Report.t list * Engine.stats
(** Run one checker with its VF table from {!t.vfs}.  A checker with no
    table there (not registered in {!Checkers.all}) runs without VF
    pruning, as does the search inside a function whose VF summary
    crashed. *)

val check_all :
  ?config:Engine.config ->
  t ->
  Checker_spec.t list ->
  (string * Report.t list * Engine.stats) list
