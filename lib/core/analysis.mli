(** The end-to-end Pinpoint pipeline (paper Figure 6):

    MC source → IR (SSA, gated) → one bottom-up walk that, per call-graph
    SCC, rewrites call sites, runs the points-to analysis (Mod/Ref),
    applies the connector transformation, builds each function's SEG from
    its points-to result and then its RV and VF summaries →
    demand-driven checking with SMT feasibility.

    Phase timings and allocation are captured for the benchmark harness
    (Figures 7–10). *)

type phase_metrics = {
  frontend : Pinpoint_util.Metrics.measurement;
  prepare : Pinpoint_util.Metrics.measurement;
      (** the bottom-up walk: PTA, transform, SEG builds and RV/VF
          summaries, interleaved per SCC *)
}

type t = {
  prog : Pinpoint_ir.Prog.t;
  graph : Pinpoint_ir.Callgraph.t;
      (** [prog]'s call graph, built once: the bottom-up walk visits its
          SCCs and {!check} reads its caller lists *)
  ifaces : (string, Pinpoint_transform.Transform.iface) Hashtbl.t;
      (** each function's connector interface *)
  rv : Pinpoint_summary.Rv.t;
      (** the program with the store's RV lookup *)
  metrics : phase_metrics;
  resilience : Pinpoint_util.Resilience.log;
      (** incident log shared by every phase and checker run of this
          analysis: per-function crashes (transform, SEG build, RV/VF
          summaries), per-source search crashes, solver degradations and
          injected faults all land here *)
  pool : Pinpoint_par.Pool.t option;
      (** the worker pool the preparation phases ran on, if any; [check]
          reuses it for its per-source fan-out *)
  store : Pinpoint_store.Store.t;
      (** every function's SEG and RV entries (DESIGN.md §4.14): a memory
          store, or a disk store that faults them back in through its
          LRU *)
  vfs : (string, Checker_spec.t * Pinpoint_summary.Vf.t) Hashtbl.t;
      (** VF-summary tables by checker name, one per registered checker
          ({!Checkers.all}), filled by the bottom-up walk *)
}

val seg_of : t -> string -> Pinpoint_seg.Seg.t option
(** A function's SEG, read from {!t.store}. *)

val incidents : t -> Pinpoint_util.Resilience.incident list
(** Incidents accumulated so far, oldest first. *)

val prepare :
  ?resilience:Pinpoint_util.Resilience.log ->
  ?pool:Pinpoint_par.Pool.t ->
  ?store:Pinpoint_store.Store.t ->
  Pinpoint_ir.Prog.t ->
  t
(** Run every phase up to (and including) summary generation on an
    already-compiled program: one bottom-up walk ({!sweep}) that
    transforms every function and builds every SEG and every RV and VF
    summary.  With [pool] (and more than one job) it maps each wave of
    independent SCCs on the pool; the result — interfaces, SEGs,
    summaries, reports — is identical to a sequential run (DESIGN.md
    §4.9).  The pool's incident log is pointed at this analysis's
    {!t.resilience}.  With [resilience]
    the given log is used instead of a fresh one — the analysis server
    passes its long-lived capacity-capped log so incidents from
    successive (re)builds accumulate in one place.

    The walk puts every SEG and RV summary in [store] as it is produced
    (default: a fresh {!Pinpoint_store.Store.memory} store); no points-to
    result outlives the SEG built from it.  A disk store spills them,
    bounding peak heap to its LRU plus the IR; a store that bounds
    residency makes preparation sequential ([pool] still accelerates
    {!check}), and preparation decodes no SEG.  Reports are byte-identical
    whichever store holds the artifacts. *)

type swept = {
  redone : Pinpoint_ir.Func.t list;
      (** functions re-transformed, with their SEGs rebuilt, as [relower]
          produced them *)
  resummarised : int;
      (** functions whose RV and VF entries were recomputed from their
          retained SEGs, with no SEG build *)
  summaries_changed : string list;
      (** redone functions whose RV or VF entries differ from before *)
}

val sweep :
  ?stale:(Pinpoint_ir.Func.t list -> bool) ->
  ?relower:(Pinpoint_ir.Func.t -> Pinpoint_ir.Func.t) ->
  ?before:
    ( string,
      Pinpoint_ir.Func.t * Pinpoint_summary.Rv.entry option array option )
    Hashtbl.t ->
  t ->
  Pinpoint_ir.Func.t list list ->
  swept
(** [sweep t sccs] is the one bottom-up walk from points-to to VF
    (DESIGN.md §4.5, §4.13) over [sccs]: components of [t.graph] in
    bottom-up order, with members in {!Pinpoint_ir.Callgraph.sccs} order.
    It reads and writes [t]'s interfaces, store and VF tables, and logs
    to [t.resilience].  An SCC's old entries are dropped just before it
    is redone; everything else is read as retained, so the result equals
    a from-scratch walk.

    A redone SCC is re-transformed or re-summarised.  Re-transformed:
    [relower] gives each member fresh, untransformed IR (called once per
    member, on the calling domain while it plans the SCC's wave),
    {!Pinpoint_transform.Transform.process_scc} transforms the members,
    whose interfaces go to [t.ifaces] when the SCC is published
    ([transform], one span per SCC; [pta] per points-to run), then each
    member's SEG is built from the points-to result it was just handed
    ([seg.build] each), which is then garbage.  Re-summarised: the
    members' retained SEGs are read back.  Either way their RV entries
    are computed in member order, then their VF entries (every registered
    checker's table in [t.vfs]) in member order ([summary.vf] each), and
    only then are new SEGs put in the store.  Transform, SEG, RV and VF
    work each sit behind a per-function barrier: a member whose final
    points-to stage crashed gets no SEG.  With [t.pool], unless the
    store bounds residency ({!Pinpoint_store.Store.bounded}), the walk
    goes one {!Pinpoint_ir.Callgraph.waves} wave at a time: it plans the
    wave's SCCs, runs each as one pool item against SCC-local overlays,
    and publishes their entries, marks and SEGs in wave order before the
    next wave; otherwise every SCC is its own wave, in [sccs] order.

    An SCC is re-transformed when [stale] holds for it (the default: every
    SCC, with [relower] the identity — {!prepare}) or when a callee
    outside it changed its interface shape
    ({!Pinpoint_transform.Transform.same_shape}) earlier in the walk.  It
    is re-summarised when a callee outside it changed its RV or VF entries
    earlier in the walk, or when [before] lists one of its members, and
    skipped otherwise.  [before] (the analysis server) maps each function
    replaced before the walk to the function it replaced and that one's
    RV entries; with it, each redone member's entries are compared with
    its old ones — RV modulo renaming
    ({!Pinpoint_summary.Rv.equal_entries}), VF structurally — and the
    result names those that changed.  Without [before] nothing is
    compared.  Decisions read only callee marks, so they are the same at
    every [--jobs]. *)

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
(** Persist the given checkers' VF tables, then seal the store — a disk
    store writes its index and checksummed trailer, renames the blob to
    the epoch file and switches reads to the mmap path.  A no-op once
    sealed. *)

val check :
  ?config:Engine.config ->
  ?memo:Engine.memo ->
  t ->
  Checker_spec.t ->
  Report.t list * Pinpoint_obs.Obs.Snapshot.t
(** Run one checker with its VF table from {!t.vfs}.  A checker with no
    table there (not registered in {!Checkers.all}) runs without VF
    pruning, as does the search inside a function whose VF summary
    crashed.  [memo] keeps per-source results across runs
    ({!Engine.run}); the analysis server passes one per checker.  The
    second half is the run's change in the [engine.*] counters
    ({!Engine.run}). *)

val check_all :
  ?config:Engine.config ->
  t ->
  Checker_spec.t list ->
  (string * Report.t list * Pinpoint_obs.Obs.Snapshot.t) list
