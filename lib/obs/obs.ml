module Metrics = Pinpoint_util.Metrics

(* ------------------------------------------------------------------ *)
(* Level *)

type level = Off | Metrics_only | Trace

(* One atomic int: 0 = off, 1 = metrics, 2 = trace.  The span hooks and
   the SMT profiler read it; the registry counts at every level.  A
   disabled hook is load + compare + branch — no allocation. *)
let level_cell = Atomic.make 0

let set_level l =
  Atomic.set level_cell (match l with Off -> 0 | Metrics_only -> 1 | Trace -> 2)

let level () =
  match Atomic.get level_cell with 0 -> Off | 1 -> Metrics_only | _ -> Trace

let metrics_on () = Atomic.get level_cell > 0
let tracing_on () = Atomic.get level_cell > 1

(* ------------------------------------------------------------------ *)
(* Request context *)

(* The current request id, per domain.  "" means "no request" — the
   empty string keeps the hot path allocation-free (no option boxing)
   and serialises naturally as an absent attribute. *)
let req_key : string Domain.DLS.key = Domain.DLS.new_key (fun () -> "")

let request_id () = Domain.DLS.get req_key
let request () = match Domain.DLS.get req_key with "" -> None | s -> Some s

let with_request id f =
  let prev = Domain.DLS.get req_key in
  Domain.DLS.set req_key id;
  Fun.protect ~finally:(fun () -> Domain.DLS.set req_key prev) f

(* ------------------------------------------------------------------ *)
(* Per-domain buffers *)

type span = {
  name : string;
  attrs : (string * string) list;
  t0 : float;
  t1 : float;
  alloc_bytes : float;
  dom : int;
  depth : int;
  open_seq : int;
  close_seq : int;
  req : string;
}

type query = {
  q_subject : string;
  q_rung : string;
  q_verdict : string;
  q_atoms : int;
  q_conflicts : int;
  q_shrinks : int;
  q_latency_s : float;
  q_dom : int;
  q_req : string;
}

type frame = {
  f_name : string;
  f_attrs : (string * string) list;
  f_t0 : float;
  f_a0 : float;
  f_seq : int;
  f_req : string;
}

(* Each domain owns one buffer; only its own domain ever writes it, so
   recording takes no lock.  The global registry of buffers is touched
   under [bufs_lock] exactly twice per buffer: once when the domain first
   uses the subsystem, and at drain time.  Buffers outlive their domains
   (a pool worker's spans survive the pool's shutdown) because the
   registry keeps them reachable. *)
type dbuf = {
  b_dom : int;
  mutable b_seq : int;
  mutable b_stack : frame list;
  mutable b_spans : span list;  (* reversed *)
  mutable b_queries : query list;  (* reversed *)
}

let bufs_lock = Mutex.create ()
let bufs : dbuf list ref = ref []

let buf_key : dbuf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          b_dom = (Domain.self () :> int);
          b_seq = 0;
          b_stack = [];
          b_spans = [];
          b_queries = [];
        }
      in
      Mutex.protect bufs_lock (fun () -> bufs := b :: !bufs);
      b)

let buf () = Domain.DLS.get buf_key

let begin_span ?(attrs = []) name =
  if tracing_on () then begin
    let b = buf () in
    b.b_seq <- b.b_seq + 1;
    b.b_stack <-
      {
        f_name = name;
        f_attrs = attrs;
        f_t0 = Metrics.now_mono ();
        f_a0 = Gc.allocated_bytes ();
        f_seq = b.b_seq;
        f_req = Domain.DLS.get req_key;
      }
      :: b.b_stack
  end

let end_span ?(attrs = []) () =
  if tracing_on () then begin
    let b = buf () in
    match b.b_stack with
    | [] -> () (* tracing flipped on mid-span; nothing to close *)
    | fr :: rest ->
      b.b_stack <- rest;
      b.b_seq <- b.b_seq + 1;
      b.b_spans <-
        {
          name = fr.f_name;
          attrs = (match attrs with [] -> fr.f_attrs | _ -> fr.f_attrs @ attrs);
          t0 = fr.f_t0;
          t1 = Metrics.now_mono ();
          alloc_bytes = Gc.allocated_bytes () -. fr.f_a0;
          dom = b.b_dom;
          depth = List.length rest;
          open_seq = fr.f_seq;
          close_seq = b.b_seq;
          req = fr.f_req;
        }
        :: b.b_spans
  end

let span ?attrs name f =
  if not (tracing_on ()) then f ()
  else begin
    begin_span ?attrs name;
    Fun.protect ~finally:(fun () -> end_span ()) f
  end

let record_query ~subject ~rung ~verdict ~atoms ~conflicts ?(shrinks = 0)
    ~latency_s () =
  if metrics_on () then begin
    let b = buf () in
    b.b_queries <-
      {
        q_subject = subject;
        q_rung = rung;
        q_verdict = verdict;
        q_atoms = atoms;
        q_conflicts = conflicts;
        q_shrinks = shrinks;
        q_latency_s = latency_s;
        q_dom = b.b_dom;
        q_req = Domain.DLS.get req_key;
      }
      :: b.b_queries
  end

let drained f =
  let bs = Mutex.protect bufs_lock (fun () -> !bufs) in
  List.concat_map f
    (List.sort (fun a b -> compare a.b_dom b.b_dom) bs)

let spans () = drained (fun b -> List.rev b.b_spans)
let queries () = drained (fun b -> List.rev b.b_queries)

(* ------------------------------------------------------------------ *)
(* Registry *)

type counter = { c_name : string; c : int Atomic.t }
type gauge = { g_name : string; mutable g : float }

type histogram = {
  h_name : string;
  h_edges : float array;
  h_counts : int array; (* length = edges + 1; last is overflow *)
  mutable h_sum : float;
  mutable h_n : int;
  h_lock : Mutex.t;
}

type metric = C of counter | G of gauge | H of histogram

let reg_lock = Mutex.create ()
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let kind_clash name = invalid_arg ("Obs: metric kind clash for " ^ name)

let counter name =
  Mutex.protect reg_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (C c) -> c
      | Some _ -> kind_clash name
      | None ->
        let c = { c_name = name; c = Atomic.make 0 } in
        Hashtbl.replace registry name (C c);
        c)

let add c n = ignore (Atomic.fetch_and_add c.c n)

let gauge name =
  Mutex.protect reg_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (G g) -> g
      | Some _ -> kind_clash name
      | None ->
        let g = { g_name = name; g = 0.0 } in
        Hashtbl.replace registry name (G g);
        g)

let set_gauge g v = g.g <- v

let default_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0 |]

let histogram ?(buckets = default_buckets) name =
  Mutex.protect reg_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (H h) -> h
      | Some _ -> kind_clash name
      | None ->
        let h =
          {
            h_name = name;
            h_edges = Array.copy buckets;
            h_counts = Array.make (Array.length buckets + 1) 0;
            h_sum = 0.0;
            h_n = 0;
            h_lock = Mutex.create ();
          }
        in
        Hashtbl.replace registry name (H h);
        h)

let bucket_index edges v =
  let n = Array.length edges in
  let rec go i = if i >= n then n else if v <= edges.(i) then i else go (i + 1) in
  go 0

let observe h v =
  Mutex.protect h.h_lock (fun () ->
      let i = bucket_index h.h_edges v in
      h.h_counts.(i) <- h.h_counts.(i) + 1;
      h.h_sum <- h.h_sum +. v;
      h.h_n <- h.h_n + 1)

(* ------------------------------------------------------------------ *)
(* Snapshots *)

module Snapshot = struct
  type value =
    | Counter of int
    | Gauge of float
    | Histogram of {
        edges : float array;
        counts : int array;
        sum : float;
        n : int;
      }

  type t = (string * value) list

  let merge_value name a b =
    match (a, b) with
    | Counter x, Counter y -> Counter (x + y)
    | Gauge x, Gauge y -> Gauge (Float.max x y)
    | Histogram h1, Histogram h2 ->
      if h1.edges <> h2.edges then
        invalid_arg ("Obs.Snapshot.merge: bucket edges differ for " ^ name);
      Histogram
        {
          edges = h1.edges;
          counts = Array.map2 ( + ) h1.counts h2.counts;
          sum = h1.sum +. h2.sum;
          n = h1.n + h2.n;
        }
    | _ -> kind_clash name

  (* Merge of two name-sorted association lists; both inputs stay
     sorted, so the result does too and [merge] is associative. *)
  let rec merge a b =
    match (a, b) with
    | [], l | l, [] -> l
    | (na, va) :: ta, (nb, vb) :: tb ->
      if na < nb then (na, va) :: merge ta b
      else if nb < na then (nb, vb) :: merge a tb
      else (na, merge_value na va vb) :: merge ta tb

  let diff_value name newer older =
    match (newer, older) with
    | Counter x, Counter y -> Counter (max 0 (x - y))
    | Gauge x, Gauge _ -> Gauge x
    | Histogram h1, Histogram h2 ->
      if h1.edges <> h2.edges then
        invalid_arg ("Obs.Snapshot.diff: bucket edges differ for " ^ name);
      Histogram
        {
          edges = h1.edges;
          counts = Array.map2 (fun a b -> max 0 (a - b)) h1.counts h2.counts;
          sum = Float.max 0.0 (h1.sum -. h2.sum);
          n = max 0 (h1.n - h2.n);
        }
    | _ -> kind_clash name

  (* [diff newer older]: counters and histograms subtract (clamped at
     zero — a concurrent reset can only shrink a window, never corrupt
     it), gauges keep the newer reading.  Names only in [newer] are kept
     verbatim; names only in [older] vanish.  The key algebraic fact the
     rolling window relies on:
       merge (diff b a) (diff c b) = diff c a
     whenever the registry grew monotonically between the snapshots. *)
  let rec diff newer older =
    match (newer, older) with
    | l, [] -> l
    | [], _ :: _ -> []
    | (na, va) :: ta, (nb, vb) :: tb ->
      if na < nb then (na, va) :: diff ta older
      else if nb < na then diff newer tb
      else (na, diff_value na va vb) :: diff ta tb

  let counter snap name =
    match List.assoc_opt name snap with Some (Counter n) -> n | _ -> 0

  (* Prometheus-style quantile estimation over histogram buckets: find
     the bucket holding the q-th observation and interpolate linearly
     inside it.  The first bucket's lower edge is 0.0 (latencies and
     sizes are non-negative here); the overflow bucket has no upper
     bound, so it reports the last finite edge. *)
  let quantile v q =
    match v with
    | Histogram { edges; counts; n; _ }
      when n > 0 && Array.length edges > 0 ->
      let last = edges.(Array.length edges - 1) in
      let target = q *. float_of_int n in
      let nb = Array.length counts in
      let rec go i cum =
        if i >= nb then Some last
        else
          let c = counts.(i) in
          let cum' = cum +. float_of_int c in
          if cum' >= target && c > 0 then
            if i >= Array.length edges then Some last
            else
              let lo = if i = 0 then 0.0 else edges.(i - 1) in
              let hi = edges.(i) in
              Some (lo +. ((hi -. lo) *. ((target -. cum) /. float_of_int c)))
          else go (i + 1) cum'
      in
      go 0 0.0
    | _ -> None
end

let snapshot () : Snapshot.t =
  let items =
    Mutex.protect reg_lock (fun () ->
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  in
  List.sort (fun (a, _) (b, _) -> compare a b) items
  |> List.map (fun (name, m) ->
         ( name,
           match m with
           | C c -> Snapshot.Counter (Atomic.get c.c)
           | G g -> Snapshot.Gauge g.g
           | H h ->
             Mutex.protect h.h_lock (fun () ->
                 Snapshot.Histogram
                   {
                     edges = Array.copy h.h_edges;
                     counts = Array.copy h.h_counts;
                     sum = h.h_sum;
                     n = h.h_n;
                   }) ))

let snapshot_of counters : Snapshot.t =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (List.map (fun c -> (c.c_name, Snapshot.Counter (Atomic.get c.c))) counters)

(* ------------------------------------------------------------------ *)

(* Zero every metric in place rather than empty the table: modules
   create their handles once, when they load (the solver's and the
   store's counters), and a handle must keep feeding the metric a
   snapshot reads. *)
let reset () =
  Mutex.protect reg_lock (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | C c -> Atomic.set c.c 0
          | G g -> g.g <- 0.0
          | H h ->
            Mutex.protect h.h_lock (fun () ->
                Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
                h.h_sum <- 0.0;
                h.h_n <- 0))
        registry);
  let bs = Mutex.protect bufs_lock (fun () -> !bufs) in
  (* Buffers belonging to other (live) domains are only ever appended to
     at their head fields; resetting them from here races benignly in
     tests that reset between single-threaded sections.  Open stacks are
     preserved so a reset inside a traced span still closes cleanly. *)
  List.iter
    (fun b ->
      b.b_spans <- [];
      b.b_queries <- [])
    bs
