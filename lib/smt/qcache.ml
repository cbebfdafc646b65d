(* Shared SMT verdict cache (DESIGN.md §4.10, §4.13).

   Keyed by the hash-consed expression id: within a process two structurally
   identical formulas are the same node, so physical identity is structural
   identity.  Satisfiability is a pure function of formula structure, which
   makes a hit exchangeable with recomputation — reports stay identical at
   every [--jobs] level no matter which domain populated an entry first.

   Only definitive full-strength verdicts are stored: [Sat] (with its
   model, so hits reproduce trigger hints) and [Unsat].  [Unknown] is a
   budget artefact and degraded-rung verdicts may be weaker than the full
   solver's answer, so neither is ever cached (the caller enforces this;
   the cache just stores what it is given).

   Sharding bounds contention: entries hash to one of [n_shards] tables,
   each behind its own mutex, so concurrent domains only collide when they
   touch the same shard.

   Bounding: batch runs leave the cache unbounded (historical behaviour),
   but a resident server process caps it with {!set_capacity}.  Each shard
   then keeps its entries in a fixed-size ring swept by a clock hand:
   a hit sets the slot's reference bit, and an insert into a full shard
   advances the hand, clearing reference bits, until it finds a cold slot
   to evict — second-chance LRU with O(1) amortised eviction and no
   per-hit allocation.  Eviction only ever forgets a verdict (the next
   identical query recomputes it), so caps never change reports. *)

module Obs = Pinpoint_obs.Obs

type entry = Cached_sat of (Expr.t * bool) list | Cached_unsat

let n_shards = 16

type slot = {
  key : int;  (** hash-cons id; -1 = empty *)
  entry : entry;
  mutable referenced : bool;
}

type shard = {
  lock : Mutex.t;
  tbl : (int, slot) Hashtbl.t;
  (* Ring of live slots, only used when a capacity is set.  [ring.(i)] is
     [None] for a not-yet-used position; evicted positions are reused in
     place so [tbl] and [ring] always describe the same slot set.  [free]
     holds the unused positions, so the clock only ever evicts when the
     shard really is full. *)
  mutable ring : slot option array;
  mutable free : int list;
  mutable hand : int;
  mutable cap : int;  (** per-shard capacity; [max_int] = unbounded *)
}

let shards =
  Array.init n_shards (fun _ ->
      {
        lock = Mutex.create ();
        tbl = Hashtbl.create 256;
        ring = [||];
        free = [];
        hand = 0;
        cap = max_int;
      })

(* Off by default: direct solver clients (unit tests, baselines) keep their
   historical per-query behaviour.  The engine enables it for the duration
   of a run (config [use_qcache], CLI [--no-qcache]). *)
let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* Lifetime counters (process-wide): probes, inserts and clock evictions.
   These feed the server's status report and the [qcache.*] observability
   counters/gauges. *)
let n_evictions = Atomic.make 0
let n_inserts = Atomic.make 0
let n_probes = Atomic.make 0

let shard_of (e : Expr.t) = shards.((e.Expr.id land max_int) mod n_shards)

(* Near-miss accounting (metrics-level only).  The cache key is the
   hash-cons id, so two formulas over the same comparison atoms but with
   different boolean structure never hit each other.  Groups of probed
   formulas sharing an atom multiset but not an id are "near misses":
   they bound what a structure-normalising cache key could recover.
   Keyed by a hash of the sorted atom-id multiset, so distinct multisets
   can in principle collide — fine for a diagnostic. *)
type nm = { nm_atoms : int; mutable nm_ids : int list; mutable nm_probes : int }

let nm_lock = Mutex.create ()
let nm_tbl : (int, nm) Hashtbl.t = Hashtbl.create 256
let nm_max_groups = 1 lsl 14
let nm_max_ids = 16

let atom_signature (e : Expr.t) =
  let ids =
    List.sort compare (List.map (fun (a : Expr.t) -> a.Expr.id) (Expr.atoms e))
  in
  let h = List.fold_left (fun h i -> (h * 1000003) lxor i) 0x9e3779b9 ids in
  ((h land max_int), List.length ids)

let note_probe (e : Expr.t) =
  let sg, n_atoms = atom_signature e in
  Mutex.protect nm_lock (fun () ->
      match Hashtbl.find_opt nm_tbl sg with
      | Some r ->
        r.nm_probes <- r.nm_probes + 1;
        (* Any repeat probe of a populated group is a near miss: the atom
           multiset was seen before, whether under this id (a plain miss
           that a structural key would not improve) or a different one.
           Only the distinct-id case counts — that is the reuse a
           coarser-grained key could recover. *)
        if not (List.mem e.Expr.id r.nm_ids) then begin
          Obs.add (Obs.counter "qcache.n_near_miss") 1;
          if List.length r.nm_ids < nm_max_ids then
            r.nm_ids <- e.Expr.id :: r.nm_ids
        end
      | None ->
        if Hashtbl.length nm_tbl < nm_max_groups then
          Hashtbl.add nm_tbl sg
            { nm_atoms = n_atoms; nm_ids = [ e.Expr.id ]; nm_probes = 1 })

type near_miss = {
  signature : int;
  atoms : int;
  ids : int list;  (** distinct formula ids probed, ascending (capped) *)
  probes : int;
}

let near_misses ?(top_k = 10) () =
  let groups =
    Mutex.protect nm_lock (fun () ->
        Hashtbl.fold
          (fun sg r acc ->
            if List.length r.nm_ids >= 2 then
              {
                signature = sg;
                atoms = r.nm_atoms;
                ids = List.sort compare r.nm_ids;
                probes = r.nm_probes;
              }
              :: acc
            else acc)
          nm_tbl [])
  in
  List.sort
    (fun a b ->
      match compare b.probes a.probes with
      | 0 -> compare a.signature b.signature
      | c -> c)
    groups
  |> List.filteri (fun i _ -> i < top_k)

let find (e : Expr.t) : entry option =
  if not (enabled ()) then None
  else begin
    Atomic.incr n_probes;
    if Obs.metrics_on () then begin
      Obs.add (Obs.counter "qcache.n_probe") 1;
      note_probe e
    end;
    let s = shard_of e in
    Mutex.protect s.lock (fun () ->
        match Hashtbl.find_opt s.tbl e.Expr.id with
        | Some slot ->
          slot.referenced <- true;
          Some slot.entry
        | None -> None)
  end

(* Find the ring position to (re)use for a new slot: a free position if one
   exists, otherwise sweep the clock hand over reference bits until a cold
   slot turns up and evict it.  Called with the shard lock held and
   [s.cap < max_int]. *)
let evict_position_locked s =
  match s.free with
  | i :: rest ->
    s.free <- rest;
    i
  | [] ->
    let n = Array.length s.ring in
    let rec sweep budget =
      let i = s.hand in
      s.hand <- (s.hand + 1) mod n;
      match s.ring.(i) with
      | None -> i (* unreachable with an empty free list; harmless *)
      | Some slot ->
        if slot.referenced && budget > 0 then begin
          slot.referenced <- false;
          sweep (budget - 1)
        end
        else begin
          Hashtbl.remove s.tbl slot.key;
          Atomic.incr n_evictions;
          i
        end
    in
    (* Budget 2n: after one full sweep every bit is clear, the second sweep
       must land — keeps the loop obviously terminating. *)
    sweep (2 * n)

let add (e : Expr.t) (entry : entry) : unit =
  if enabled () then begin
    let s = shard_of e in
    Mutex.protect s.lock (fun () ->
        match Hashtbl.find_opt s.tbl e.Expr.id with
        | Some _ ->
          (* verdicts are pure: a racing double-computation stores the same
             value, so keep the existing slot (and its ring position) *)
          ()
        | None ->
          Atomic.incr n_inserts;
          if Obs.metrics_on () then Obs.add (Obs.counter "qcache.n_insert") 1;
          let slot = { key = e.Expr.id; entry; referenced = false } in
          if s.cap = max_int then Hashtbl.replace s.tbl e.Expr.id slot
          else begin
            let pos = evict_position_locked s in
            s.ring.(pos) <- Some slot;
            Hashtbl.replace s.tbl e.Expr.id slot
          end)
  end

let iota n = List.init n (fun i -> i)

let clear () =
  Array.iter
    (fun s ->
      Mutex.protect s.lock (fun () ->
          Hashtbl.reset s.tbl;
          Array.fill s.ring 0 (Array.length s.ring) None;
          s.free <- iota (Array.length s.ring);
          s.hand <- 0))
    shards

let set_capacity cap =
  match cap with
  | None ->
    Array.iter
      (fun s ->
        Mutex.protect s.lock (fun () ->
            s.cap <- max_int;
            s.ring <- [||];
            s.free <- [];
            s.hand <- 0))
      shards
  | Some c ->
    let per_shard = max 1 ((max 1 c + n_shards - 1) / n_shards) in
    Array.iter
      (fun s ->
        Mutex.protect s.lock (fun () ->
            (* Resizing drops the shard's contents: the server sets the cap
               once at startup, and a dropped verdict is only a future
               recomputation. *)
            Hashtbl.reset s.tbl;
            s.cap <- per_shard;
            s.ring <- Array.make per_shard None;
            s.free <- iota per_shard;
            s.hand <- 0))
      shards

let capacity () =
  let s = shards.(0) in
  let per = Mutex.protect s.lock (fun () -> s.cap) in
  if per = max_int then None else Some (per * n_shards)

let length () =
  Array.fold_left
    (fun acc s -> acc + Mutex.protect s.lock (fun () -> Hashtbl.length s.tbl))
    0 shards

type stats = {
  entries : int;
  cap : int option;
  evictions : int;
  inserts : int;
  probes : int;
}

let stats () =
  {
    entries = length ();
    cap = capacity ();
    evictions = Atomic.get n_evictions;
    inserts = Atomic.get n_inserts;
    probes = Atomic.get n_probes;
  }

(* Contribute the near-miss table to [--metrics-json] (top groups of
   structurally distinct formulas sharing an atom multiset). *)
let () =
  Obs.register_json_section "qcache_near_misses" (fun () ->
      let row n =
        Printf.sprintf
          "{\"signature\": %d, \"atoms\": %d, \"distinct_formulas\": %d, \
           \"probes\": %d, \"ids\": [%s]}"
          n.signature n.atoms (List.length n.ids) n.probes
          (String.concat ", " (List.map string_of_int n.ids))
      in
      "[" ^ String.concat ", " (List.map row (near_misses ~top_k:10 ())) ^ "]")
