(** Fault isolation and seeded fault injection.

    Pinpoint's pitch is analysing million-line codebases; at that scale one
    pathological function or one exploding SMT query must never take down a
    whole run.  This module provides the two halves of that guarantee:

    - {b exception barriers} ({!protect}) around per-function and per-query
      units of work, converting crashes and cooperative timeouts into
      structured {!incident} records accumulated on a {!log} — the run
      continues with a partial, still-soundy result;
    - {b seeded fault injection} ({!Inject}), a deterministic PRNG-driven
      saboteur that makes the solver crash / hang until its deadline /
      return [Unknown], and drops or truncates individual SEGs, so tests
      can prove the engine degrades gracefully.

    Everything is deterministic: the same injection seed yields the same
    faults, the same incidents and the same reports. *)

type phase =
  | Transform     (** connector transformation + points-to, per function *)
  | Seg_build     (** SEG construction, per function *)
  | Rv_summary    (** RV summary generation, per function *)
  | Vf_summary    (** VF summary generation, per function *)
  | Engine_source (** one per-source demand-driven search *)
  | Solver_query  (** one feasibility query at the bug-detection stage *)
  | Par_task      (** a pool task that escaped its own barriers *)

type incident = {
  phase : phase;
  subject : string;   (** function name, source site or query label *)
  detail : string;    (** exception text or injected fault class *)
  fallback : string;  (** what the barrier did instead of crashing *)
  elapsed_s : float;  (** time spent in the failed unit *)
}

(** A mutable accumulator of incidents, stored on the analysis result.
    Thread-safe: workers of a parallel run record into one shared log. *)
type log

val create : ?capacity:int -> unit -> log
(** [capacity] caps the number of {e retained} incidents (default
    unbounded): once exceeded, the oldest are rotated out and only
    counted, so a high-fault-rate long-lived process (the analysis
    server's soak scenario) cannot grow the log without bound. *)

val record : log -> incident -> unit

val set_observer : (incident -> unit) option -> unit
(** Install (or clear) a single global observer called after every
    {!record}, on the recording thread, outside the log's lock.
    Exceptions it raises are swallowed.  Used by the flight recorder
    (which lives above this library in the dependency order) to capture
    incidents into its post-mortem ring. *)

val incidents : log -> incident list
(** Chronological order; at most [capacity] entries (the newest). *)

val count : log -> int
(** Total incidents ever recorded, including rotated-out ones —
    monotonic, so differencing two [count] calls attributes incidents to
    an interval regardless of rotation. *)

val set_capacity : log -> int -> unit
(** Change the retention cap (clamped to >= 1); trims immediately. *)

val dropped : log -> int
(** Incidents rotated out so far. *)

val retained : log -> int
(** Incidents currently in the log ([count] - [dropped], capped). *)

val clear : log -> unit

val by_phase : log -> (phase * int) list
(** Incident counts grouped by phase, phases in declaration order. *)

exception Injected_crash
(** Raised by injection sites; rendered as ["injected: crash"]. *)

val protect :
  ?log:log ->
  phase:phase ->
  subject:string ->
  fallback_note:string ->
  fallback:'a ->
  (unit -> 'a) ->
  'a
(** [protect ?log ~phase ~subject ~fallback_note ~fallback f] runs [f]
    inside an exception barrier.  Any exception — including
    {!Metrics.Timeout} and {!Stack_overflow}, but not [Out_of_memory] —
    is converted into an {!incident} recorded on [log] (if given) and the
    [fallback] value is returned. *)

val phase_name : phase -> string
val pp_incident : Format.formatter -> incident -> unit

val pp_summary : Format.formatter -> log -> unit
(** One line per phase with a non-zero incident count (retained only);
    includes the rotated-out count when non-zero. *)

(** Deterministic, seeded fault injection (built on {!Prng}). *)
module Inject : sig
  (** Fault classes for solver queries. *)
  type fault =
    | Crash            (** the query raises {!Injected_crash} *)
    | Hang             (** the query blocks until its deadline expires *)
    | Unknown_verdict  (** the query returns [Unknown] immediately *)

  (** Fault classes for per-function SEGs. *)
  type seg_fault =
    | Seg_drop      (** the function gets no SEG at all *)
    | Seg_truncate  (** half of the SEG's edges and uses are discarded *)
    | Seg_crash     (** {!Injected_crash} is raised during the build *)

  type config = {
    seed : int;
    solver_fault_rate : float;  (** probability a solver query is sabotaged *)
    solver_faults : fault list; (** classes drawn from (default: all three) *)
    seg_drop_rate : float;
    seg_truncate_rate : float;
    seg_crash_rate : float;
    only : string list;
        (** restrict SEG faults to these functions; [[]] means all *)
  }

  val default : config
  (** Seed 0, every rate 0.0, all solver fault classes, no restriction. *)

  val install : config -> unit
  (** Activate injection globally.  Replaces any previous config and
      resets the solver fault stream. *)

  val clear : unit -> unit
  val enabled : unit -> bool

  val solver_fault : unit -> fault option
  (** Draw the next solver-query sabotage decision.  Inside
      {!with_solver_stream} the draw comes from that scope's keyed stream;
      otherwise from the global sequential stream.  [None] when injection
      is off or the die says "no fault". *)

  val with_solver_stream : string -> (unit -> 'a) -> 'a
  (** [with_solver_stream key f] runs [f] with an ambient solver-fault
      stream seeded from the injection seed and [key] (domain-local, so
      concurrent tasks never share a generator).  Scoping each engine
      source to its own keyed stream makes fault injection deterministic
      at any [--jobs] level: the same source draws the same faults
      regardless of scheduling.  No-op when injection is off. *)

  val seg_fault : string -> seg_fault option
  (** Sabotage decision for one function's SEG.  Derived from the seed and
      the function name only, so it is independent of build order. *)

  val fault_name : fault -> string
  val seg_fault_name : seg_fault -> string
end
