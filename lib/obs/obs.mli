(** Unified tracing & metrics layer (DESIGN.md §4.11).

    One subsystem answers "where did this run spend its time?" at every
    granularity the paper's evaluation needs: nestable {e spans} over the
    pipeline phases (frontend lowering, PTA, connector transform, SEG
    build, summaries, per-source engine searches, individual SMT
    queries), a {e registry} of named counters / gauges / histograms
    (where the solver, the engine, the store and the pool count their
    work), and a per-query {e SMT profiler}.  Exporters ({!Export}) turn
    the collected data into Chrome [trace_event] JSON (per-domain tracks,
    loadable in Perfetto) and a flat metrics JSON / human summary.

    The registry counts at every level: it is the one place a count
    lives, so the CLI header, the server's responses and the exporters
    all read it.  Spans and SMT query rows are {b off by default}: each
    of those hooks is a load of one atomic int and a branch, so an
    untraced run pays nothing measurable for them.  Span records are
    buffered in per-domain buffers — no locks or shared writes on the hot
    path; the global registry of buffers is only locked when a domain
    touches the subsystem for the first time and when the merged data is
    drained at export time. *)

(** {1 Level} *)

type level =
  | Off  (** the registry only; span and query hooks branch and return *)
  | Metrics_only  (** the registry and SMT query records; no spans *)
  | Trace  (** everything, including span buffering *)

val set_level : level -> unit
val level : unit -> level

val metrics_on : unit -> bool
(** [level () <> Off]: whether the SMT profiler records per-query rows
    ({!record_query}).  The registry does not read it. *)

val tracing_on : unit -> bool
(** [level () = Trace]. *)

(** {1 Request context}

    A per-domain ambient request id.  The server stamps each incoming
    request with one ({!with_request}), the pool re-installs it inside
    stolen tasks, and every span, SMT profiler row and flight-recorder
    event captures it at record time — so one slow NDJSON request can be
    isolated in a Perfetto trace or a post-mortem flight dump.  The
    empty string means "no request" (batch CLI runs never set one). *)

val request_id : unit -> string
(** This domain's current request id; [""] when none. *)

val request : unit -> string option
(** Like {!request_id} but [None] when no request is active. *)

val with_request : string -> (unit -> 'a) -> 'a
(** [with_request id f] runs [f] with [id] installed, restoring the
    previous id afterwards (even if [f] raises). *)

(** {1 Spans}

    A span brackets one unit of work: wall time (monotonic clock),
    allocation delta (domain-local [Gc.allocated_bytes]), the domain that
    ran it, and its nesting depth.  Per-domain open/close sequence
    numbers give a total order that is exactly the execution order on
    that domain, so an exporter emitting begin/end event pairs in
    sequence order is well-formed by construction. *)

type span = {
  name : string;
  attrs : (string * string) list;
  t0 : float;  (** {!Pinpoint_util.Metrics.now_mono} at open *)
  t1 : float;  (** … at close *)
  alloc_bytes : float;  (** allocated on the running domain, open→close *)
  dom : int;  (** domain id that ran the span *)
  depth : int;  (** number of enclosing open spans on that domain *)
  open_seq : int;  (** per-domain sequence number of the open event *)
  close_seq : int;  (** … of the close event; [open_seq < close_seq] *)
  req : string;  (** request id active at open; [""] when none *)
}

val span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a span named [name].  When tracing is
    off this is [f ()] behind one branch.  The span is recorded even if
    [f] raises (the exception propagates). *)

val begin_span : ?attrs:(string * string) list -> string -> unit

val end_span : ?attrs:(string * string) list -> unit -> unit
(** Close the innermost open span on this domain, appending [attrs] to
    the ones given at open — for attributes only known at the end, e.g.
    the rung an SMT query was decided on.  Unbalanced calls (no open
    span) are dropped silently. *)

val spans : unit -> span list
(** Drain-free read of every recorded span, all domains, ordered by
    [(dom, open_seq)]. *)

(** {1 Registry: counters, gauges, histograms} *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Find-or-create.  Creating an existing name with a different metric
    kind raises [Invalid_argument]. *)

val add : counter -> int -> unit
(** An atomic add, at every level: concurrent adds from several domains
    sum exactly, so a run's totals do not depend on [--jobs]. *)

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit

val histogram : ?buckets:float array -> string -> histogram
(** [buckets] are upper bucket edges, strictly increasing; observation
    [v] lands in the first bucket with [v <= edge], or in the implicit
    overflow bucket.  The default buckets are latency-shaped (1µs…10s). *)

val observe : histogram -> float -> unit

val default_buckets : float array

(** {1 Snapshots}

    An immutable, name-sorted view of the registry.  [merge] is
    associative and commutative (counters add, gauges take the max,
    histograms add pointwise), which is what lets per-shard or per-run
    snapshots be folded in any order — the property the registry
    replaces three hand-rolled stats merges with. *)

module Snapshot : sig
  type value =
    | Counter of int
    | Gauge of float
    | Histogram of {
        edges : float array;
        counts : int array;  (** length [Array.length edges + 1] *)
        sum : float;
        n : int;
      }

  type t = (string * value) list

  val merge : t -> t -> t
  (** Pointwise by name; histogram merge requires identical edges. *)

  val diff : t -> t -> t
  (** [diff newer older]: counters and histogram buckets subtract
      (clamped at 0), gauges keep the newer reading.  Names only in
      [newer] are kept; names only in [older] are dropped.  When the
      registry grows monotonically between snapshots,
      [merge (diff b a) (diff c b) = diff c a] — the identity the
      rolling window ({!Window}) is built on. *)

  val counter : t -> string -> int
  (** The named counter's value; 0 when the snapshot has no such
      counter. *)

  val quantile : value -> float -> float option
  (** [quantile v q] estimates the [q]-th quantile ([0..1]) of a
      [Histogram] by linear interpolation within the bucket holding the
      q-th observation (lower edge of the first bucket is 0; the
      overflow bucket reports the last finite edge).  [None] for
      non-histograms and empty histograms. *)
end

val snapshot : unit -> Snapshot.t

val snapshot_of : counter list -> Snapshot.t
(** A name-sorted snapshot of just these counters, for a caller that owns
    the handles: the difference of two measures one run without walking
    the registry. *)

(** {1 SMT query profiler} *)

type query = {
  q_subject : string;  (** source/sink attribution, e.g. "f:3 -> g:9" *)
  q_rung : string;  (** full / halved / linear / gave-up *)
  q_verdict : string;  (** sat / unsat / unknown *)
  q_atoms : int;  (** atom count of the queried formula *)
  q_conflicts : int;  (** CDCL conflicts spent on this query *)
  q_shrinks : int;
      (** theory-core deletion-shrink passes the lazy-SMT loop ran while
          refuting this query's propositional models *)
  q_latency_s : float;
  q_dom : int;
  q_req : string;  (** request id active at record time; [""] when none *)
}

val record_query :
  subject:string ->
  rung:string ->
  verdict:string ->
  atoms:int ->
  conflicts:int ->
  ?shrinks:int ->
  latency_s:float ->
  unit ->
  unit
(** Append one row; a no-op unless {!metrics_on}. *)

val queries : unit -> query list
(** All recorded queries, ordered by [(dom, record order)]. *)

val reset : unit -> unit
(** Clear spans and queries and zero every registered metric in place
    (not the level).  Names stay registered, so a handle created before
    the reset — modules create theirs once, when they load — keeps
    feeding the metric every later snapshot reads.  Test and bench hook;
    a CLI run never needs it. *)
