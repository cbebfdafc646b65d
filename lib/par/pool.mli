(** A fixed-size pool of worker domains sharing one task queue.

    The parallel runtime of the analysis (DESIGN.md §4.9, §4.15):
    [Analysis], [Transform], [Rv] and [Engine] hand their per-chunk /
    per-SCC-batch / per-source task units to a pool instead of running
    them inline.

    Design points:

    - {b jobs <= 1 means inline}: no domains are spawned and [submit] runs
      the task on the calling domain immediately.  The sequential pipeline
      is therefore exactly the code path exercised by a 1-core run, and
      [--jobs 1] is byte-for-byte the historical behaviour.
    - {b one FIFO queue}: every submission, from any domain, goes to one
      queue under the pool mutex; workers and helping callers pop from
      it.  The schedule only changes {e which lane} runs a task, never the
      result: all stages that use the pool merge in deterministic
      (positional or program) order, so reports and stats are
      byte-identical at every [--jobs] level.
    - {b exception capture}: a task that escapes its own barriers never
      kills a worker.  The exception is recorded as a [Par_task] incident
      on the pool's {!Pinpoint_util.Resilience.log} (when one is attached
      with {!set_log}) and, for {!parallel_map}, the slot yields [None].
    - {b allocation accounting}: each worker tracks the bytes it allocates
      (domain-local [Gc.allocated_bytes] deltas); {!allocated_bytes} sums
      them so {!Pinpoint_util.Metrics.measure} can report whole-run
      allocation, not just the submitting domain's. *)

type t

val create : ?log:Pinpoint_util.Resilience.log -> jobs:int -> unit -> t
(** Spawn a pool of [max 0 (jobs - 1)] worker domains ([jobs] counts the
    submitting domain: [jobs = 4] means at most 4 tasks run concurrently,
    one of them on the caller inside {!parallel_map}).  [jobs <= 1] spawns
    nothing and every task runs inline. *)

val jobs : t -> int
(** The configured concurrency level (>= 1). *)

val effective_jobs : int -> int
(** [effective_jobs jobs] caps a requested [--jobs] level at the host's
    recommended domain count.  Spawning more domains than cores cannot
    run more work concurrently — it only adds stop-the-world GC barrier
    and scheduling cost — and results are identical at every level, so
    the CLI and benchmarks create pools at this capped width.  Tests
    that deliberately oversubscribe call {!with_pool} directly. *)

val set_log : t -> Pinpoint_util.Resilience.log option -> unit
(** Attach (or detach) the incident log that receives [Par_task] records. *)

val note : t -> t0:float -> exn -> unit
(** [note t ~t0 exn] records [exn] as a [Par_task] incident on the
    attached log (if any), timed from [t0] ({!Pinpoint_util.Metrics.now}).
    {!Chunk} records its per-item failures through it. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue a fire-and-forget task.  Exceptions it raises are captured and
    logged, never re-raised.  Runs inline when [jobs <= 1]. *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b option array
(** Apply [f] to every element, slot [i] of the result holding [Some (f
    a.(i))] — or [None] if that application raised (the exception is
    recorded as an incident).  The caller participates: with [jobs = n],
    [n] applications run concurrently.  Result slots are positional, so
    output order is independent of completion order. *)

val try_run_one : t -> bool
(** Pop one queued task and run it on the calling domain; [false] if the
    queue was empty.  Lets a blocked coordinator (see {!Sched}) lend its
    domain instead of idling. *)

val wait_idle : t -> unit
(** Block until every submitted task has finished and the queue is empty. *)

val shutdown : t -> unit
(** {!wait_idle}, then stop and join the workers.  The pool must not be
    used afterwards.  Idempotent. *)

val with_pool :
  ?log:Pinpoint_util.Resilience.log -> jobs:int -> (t -> 'a) -> 'a
(** [create], run the function, then {!shutdown} (also on exception). *)

val allocated_bytes : t -> float
(** Total bytes allocated by the worker domains so far (excluding the
    submitting domain, which [Gc.allocated_bytes] already covers). *)

val publish_obs : t -> unit
(** Fold the [par.tasks] counter and [par.busy_s] gauge into the Obs
    registry now, at every obs level.  Delta-republishing: each
    call adds only what accumulated since the previous one, so the
    registry always equals the pool's lifetime totals however often it
    is called — a long-lived server refreshes on every [status] /
    [metrics] op, and a second publish with no intervening work adds
    exactly 0 (the idempotence {!shutdown}, which also calls this,
    relies on). *)
