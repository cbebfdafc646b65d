module R = Pinpoint_util.Resilience
module Metrics = Pinpoint_util.Metrics
module Obs = Pinpoint_obs.Obs

(* One shared FIFO queue under the pool mutex (DESIGN.md §4.15).

   Only {!parallel_map} enqueues, and it returns once every task it
   enqueued has finished, so the queue is empty whenever no map is
   running.  Workers and the mapping caller pop from it. *)

type t = {
  jobs : int;
  mutable log : R.log option;
  q : (unit -> unit) Queue.t;
  m : Mutex.t;
  nonempty : Condition.t;  (* a task was enqueued, or [stop] was set *)
  mutable stop : bool;
  mutable domains : unit Domain.t array;
  alloc : float array;
      (* Per-worker allocated bytes ([Gc.allocated_bytes] is domain-local
         in OCaml 5, so the calling domain's own measurement misses
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

let run_task t lane task =
  let t0 = Metrics.now () in
  task ();
  let dt = Metrics.now () -. t0 in
  Mutex.lock t.m;
  t.busy.(lane) <- t.busy.(lane) +. dt;
  t.ran.(lane) <- t.ran.(lane) + 1;
  Mutex.unlock t.m

let rec worker t wid =
  Mutex.lock t.m;
  while Queue.is_empty t.q && not t.stop do
    Condition.wait t.nonempty t.m
  done;
  if Queue.is_empty t.q then Mutex.unlock t.m (* stopped and drained *)
  else begin
    let task = Queue.pop t.q in
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

(* Pop one task and run it on the calling domain, counted on the helper
   lane; [false] if the queue was empty. *)
let help t =
  Mutex.lock t.m;
  if Queue.is_empty t.q then begin
    Mutex.unlock t.m;
    false
  end
  else begin
    let task = Queue.pop t.q in
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
    (* The caller's request id, re-installed on whichever domain runs a
       task, so spans and profiler rows recorded inside pooled work still
       attribute to the originating server request. *)
    let req = Obs.request_id () in
    let with_req g = if req = "" then g () else Obs.with_request req g in
    (* A task never kills the domain that runs it: [Out_of_memory] is
       caught too, since a dead worker would deadlock the waiters, which
       is worse than a dropped slot and an incident. *)
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
    Mutex.lock t.m;
    for i = 0 to n - 1 do Queue.push (run i) t.q done;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.m;
    (* The caller is one of the [jobs] lanes: help drain the queue, then
       wait for stragglers still running on workers. *)
    while help t do () done;
    Mutex.lock m;
    while !remaining > 0 do Condition.wait fin m done;
    Mutex.unlock m
  end;
  res

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
