(** The end-to-end Pinpoint pipeline (paper Figure 6):

    MC source → IR (SSA, gated) → call-site rewriting + Mod/Ref → connector
    transformation → SEG per function → RV summaries → demand-driven
    checking with SMT feasibility.

    Phase timings and allocation are captured for the benchmark harness
    (Figures 7–10). *)

type phase_metrics = {
  frontend : Pinpoint_util.Metrics.measurement;
  transform : Pinpoint_util.Metrics.measurement;  (** PTA + connectors *)
  seg_build : Pinpoint_util.Metrics.measurement;
  summaries : Pinpoint_util.Metrics.measurement;
}

type t = {
  prog : Pinpoint_ir.Prog.t;
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
      (** VF-summary tables by checker name, filled by {!check} and
          {!seal_store} through {!summarise_vf} *)
}

val seg_of : t -> string -> Pinpoint_seg.Seg.t option

val store : t -> Pinpoint_store.Store.t option

val incidents : t -> Pinpoint_util.Resilience.incident list
(** Incidents accumulated so far, oldest first. *)

val build_seg :
  Pinpoint_util.Resilience.log ->
  Pinpoint_ir.Func.t ->
  Pinpoint_pta.Pta.t ->
  Pinpoint_seg.Seg.t option
(** Build one function's SEG behind the standard exception barrier,
    consulting the fault injector (drop / truncate / crash faults land in
    the incident log exactly as during {!prepare}).  Exposed for the
    analysis server's partial rebuilds (DESIGN.md §4.13) so incremental
    SEG construction shares the batch pipeline's fault envelope. *)

val prepare :
  ?resilience:Pinpoint_util.Resilience.log ->
  ?pool:Pinpoint_par.Pool.t ->
  ?store:Pinpoint_store.Store.t ->
  Pinpoint_ir.Prog.t ->
  t
(** Run every phase up to (and including) summary generation on an
    already-compiled program.  With [pool] (and more than one job) the
    transform and RV phases run as bottom-up SCC waves and SEG builds fan
    out per function; the result — SEGs, summaries, reports — is identical
    to a sequential run (DESIGN.md §4.9).  The pool's incident log is
    pointed at this analysis's {!t.resilience}.  With [resilience] the
    given log is used instead of a fresh one — the analysis server passes
    its long-lived capacity-capped log so incidents from successive
    (re)builds accumulate in one place.

    With [store] the preparation phases spill every per-function artifact
    (PTA, SEG, RV summary) to the store as it is produced instead of
    keeping it resident, bounding peak heap to the store's LRU plus the
    IR; preparation is sequential ([pool] still accelerates {!check}).
    Reports are byte-identical to a store-off run. *)

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

val summarise_vf :
  resilience:Pinpoint_util.Resilience.log ->
  Pinpoint_ir.Prog.t ->
  (string -> Pinpoint_seg.Seg.t option) ->
  (string, Checker_spec.t * Pinpoint_summary.Vf.t) Hashtbl.t ->
  Checker_spec.t list ->
  unit
(** [summarise_vf ~resilience prog seg_of vfs specs] adds to [vfs] the
    VF tables of [specs] and of every registered checker ({!Checkers.all})
    that it lacks, all in one {!Pinpoint_summary.Vf.generate} pass under
    one [summary.vf] span.  The pass runs behind one [Vf_summary]
    barrier: on a crash none of its tables is added, those checkers run
    without VF pruning, and the next call tries again.  Shared by
    {!check} and the analysis server. *)

val seal_store : t -> Checker_spec.t list -> unit
(** Store mode only (no-op otherwise, or once sealed): summarise the
    given checkers ({!summarise_vf}), persist their VF tables, then seal
    the store — index, checksummed trailer, rename to the epoch file —
    switching reads to the mmap path. *)

val check :
  ?config:Engine.config -> t -> Checker_spec.t -> Report.t list * Engine.stats
(** Run one checker.  Its VF table comes from {!t.vfs}; the first call
    (or {!seal_store}) summarises every registered checker plus this one
    in one pass.  A checker whose summarisation crashed runs without VF
    pruning. *)

val check_all :
  ?config:Engine.config ->
  t ->
  Checker_spec.t list ->
  (string * Report.t list * Engine.stats) list
