module R = Pinpoint_util.Resilience
module Metrics = Pinpoint_util.Metrics
module Obs = Pinpoint_obs.Obs

(* One shared FIFO queue under the pool mutex (DESIGN.md §4.15).

   Workers and helping callers pop from the same queue.  A task is
   counted in [active] from the moment it is popped (under [m], in the
   same critical section) until it finishes, so the idle predicate
   [Queue.is_empty q && active = 0] never observes a task in flight as
   already finished. *)

type t = {
  jobs : int;
  mutable log : R.log option;
  q : (unit -> unit) Queue.t;
  m : Mutex.t;
  nonempty : Condition.t;  (* a task was enqueued, or [stop] was set *)
  idle : Condition.t;      (* the queue is empty and no task is running *)
  mutable active : int;    (* tasks popped and still running *)
  mutable stop : bool;
  mutable domains : unit Domain.t array;
  alloc : float array;
      (* Per-worker allocated bytes ([Gc.allocated_bytes] is domain-local
         in OCaml 5, so the submitting domain's own measurement misses
         everything the workers allocate).  Each slot is written only by
         its own worker; [allocated_bytes] sums a racy but monotone
         snapshot, which is all the metrics layer needs. *)
  busy : float array;  (* per-lane busy seconds; last slot = helpers *)
  ran : int array;     (* per-lane executed-task counts; last slot = helpers *)
  mutable pub_tasks : int;  (* par.tasks already folded into Obs *)
}

let jobs t = t.jobs
let set_log t log = t.log <- log

let note t ~t0 exn =
  match t.log with
  | None -> ()
  | Some log ->
    R.record log
      {
        R.phase = R.Par_task;
        subject = "pool-task";
        detail = Printexc.to_string exn;
        fallback = "task result dropped";
        elapsed_s = Metrics.now () -. t0;
      }

(* Every queued closure is pre-wrapped with this barrier, so a task can
   never kill the domain that happens to execute it (worker or helping
   caller).  [Out_of_memory] is swallowed too, deliberately: a dead worker
   would deadlock the waiters, which is strictly worse than degrading to a
   dropped task + incident.

   The submitter's ambient request id is captured here (wrap time) and
   re-installed on whichever domain ends up running the task, so spans
   and profiler rows recorded inside pooled work still attribute to the
   originating server request. *)
let guard t task =
  let req = Obs.request_id () in
  let run () = Obs.span "par.task" task in
  let run = if req = "" then run else fun () -> Obs.with_request req run in
  fun () ->
    let t0 = Metrics.now () in
    try run () with exn -> note t ~t0 exn

let enqueue t task =
  Mutex.lock t.m;
  if t.stop then begin
    Mutex.unlock t.m;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push task t.q;
  Condition.signal t.nonempty;
  Mutex.unlock t.m

(* Pop one task and count it [active]; the caller holds [t.m]. *)
let pop_locked t =
  let task = Queue.pop t.q in
  t.active <- t.active + 1;
  task

let run_task t lane task =
  let t0 = Metrics.now () in
  task ();
  let dt = Metrics.now () -. t0 in
  Mutex.lock t.m;
  t.busy.(lane) <- t.busy.(lane) +. dt;
  t.ran.(lane) <- t.ran.(lane) + 1;
  t.active <- t.active - 1;
  if t.active = 0 && Queue.is_empty t.q then Condition.broadcast t.idle;
  Mutex.unlock t.m

let rec worker t wid =
  Mutex.lock t.m;
  while Queue.is_empty t.q && not t.stop do
    Condition.wait t.nonempty t.m
  done;
  if Queue.is_empty t.q then Mutex.unlock t.m (* stopped and drained *)
  else begin
    let task = pop_locked t in
    Mutex.unlock t.m;
    let a0 = Gc.allocated_bytes () in
    run_task t wid task;
    t.alloc.(wid) <- t.alloc.(wid) +. (Gc.allocated_bytes () -. a0);
    worker t wid
  end

let effective_jobs jobs =
  max 1 (min jobs (Domain.recommended_domain_count ()))

let create ?log ~jobs () =
  let jobs = max 1 jobs in
  let n_workers = jobs - 1 in
  let t =
    {
      jobs;
      log;
      q = Queue.create ();
      m = Mutex.create ();
      nonempty = Condition.create ();
      idle = Condition.create ();
      active = 0;
      stop = false;
      domains = [||];
      alloc = Array.make (max 1 n_workers) 0.0;
      busy = Array.make jobs 0.0;
      ran = Array.make jobs 0;
      pub_tasks = 0;
    }
  in
  t.domains <- Array.init n_workers (fun wid -> Domain.spawn (fun () -> worker t wid));
  t

let submit t task =
  let task = guard t task in
  if t.jobs <= 1 then task () else enqueue t task

(* The helper lane (a domain outside the pool lending itself), used by
   {!parallel_map} and by the {!Sched} drive loop. *)
let try_run_one t =
  Mutex.lock t.m;
  if Queue.is_empty t.q then begin
    Mutex.unlock t.m;
    false
  end
  else begin
    let task = pop_locked t in
    Mutex.unlock t.m;
    run_task t (t.jobs - 1) task;
    true
  end

let parallel_map (type a b) t (f : a -> b) (arr : a array) : b option array =
  let n = Array.length arr in
  let res : b option array = Array.make n None in
  if t.jobs <= 1 || n <= 1 then
    Array.iteri
      (fun i x ->
        let t0 = Metrics.now () in
        try res.(i) <- Some (Obs.span "par.task" (fun () -> f x))
        with exn -> note t ~t0 exn)
      arr
  else begin
    let m = Mutex.create () in
    let fin = Condition.create () in
    let remaining = ref n in
    (* Same request re-attribution as [guard]: the closures run on
       arbitrary worker domains. *)
    let req = Obs.request_id () in
    let with_req g = if req = "" then g () else Obs.with_request req g in
    let run i () =
      let t0 = Metrics.now () in
      (try
         res.(i) <-
           Some (with_req (fun () -> Obs.span "par.task" (fun () -> f arr.(i))))
       with exn -> note t ~t0 exn);
      Mutex.lock m;
      decr remaining;
      if !remaining = 0 then Condition.broadcast fin;
      Mutex.unlock m
    in
    for i = 0 to n - 1 do enqueue t (run i) done;
    (* The caller is one of the [jobs] lanes: help drain the queue, then
       wait for stragglers still running on workers. *)
    while try_run_one t do () done;
    Mutex.lock m;
    while !remaining > 0 do Condition.wait fin m done;
    Mutex.unlock m
  end;
  res

let wait_idle t =
  if t.jobs > 1 then begin
    Mutex.lock t.m;
    while not (Queue.is_empty t.q && t.active = 0) do
      Condition.wait t.idle t.m
    done;
    Mutex.unlock t.m
  end

(* Scheduling observability (DESIGN.md §4.15): lifetime counters, folded
   into the registry so [--metrics-json] and the server's live window
   report how busy the pool was.  Delta-republishing under the pool
   mutex: each call adds only what accumulated since the last publish, so
   a long-lived server can refresh par.* on every [status]/[metrics] op
   and the registry counter stays equal to the pool's lifetime total —
   and a second publish with no new work adds exactly 0 (idempotence).
   Purely observational — never read by the analysis. *)
let publish_obs t =
  Mutex.protect t.m (fun () ->
      let tasks = Array.fold_left ( + ) 0 t.ran in
      Obs.add (Obs.counter "par.tasks") (tasks - t.pub_tasks);
      t.pub_tasks <- tasks;
      Obs.set_gauge (Obs.gauge "par.busy_s") (Array.fold_left ( +. ) 0.0 t.busy))

let shutdown t =
  if t.jobs > 1 then begin
    wait_idle t;
    Mutex.lock t.m;
    let already = t.stop in
    t.stop <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.m;
    if not already then begin
      Array.iter Domain.join t.domains;
      publish_obs t
    end
  end

let with_pool ?log ~jobs f =
  let t = create ?log ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let allocated_bytes t = Array.fold_left ( +. ) 0.0 t.alloc
