module Metrics = Pinpoint_util.Metrics
module ISet = Set.Make (Int)

(* Whole-program inclusion-constraint (Andersen-style) wavefront solver
   (DESIGN.md §4.15).

   The constraint system is the classic one over dense nodes: initial
   memberships [o ∈ pts(n)], copy edges [pts(src) ⊆ pts(dst)], and
   field-insensitive loads/stores that grow the copy graph on the fly as
   points-to sets are discovered.  Its solution is the least fixpoint of a
   monotone function on a finite lattice, so any processing schedule
   converges to identical points-to sets; only the work count differs.

   Difference propagation: each node carries a [delta] (members not yet
   pushed to its successors) next to its full set.  Processing a node
   pushes only the delta — the full set is re-sent solely across a
   freshly discovered load/store edge, which must see everything.  The
   textbook loop (the test oracle) re-unions full sets on every revisit,
   quadratic on deep copy chains; with deltas every membership crosses
   every edge once. *)

type sys = {
  n_nodes : int;
  obj_mem : int array;  (** object id -> content node *)
  copy : ISet.t array;  (** static copy edges; grown dynamically by solve *)
  loads : int list array;  (** p -> dsts with [pts(dst) ⊇ pts(mem o)], o ∈ pts(p) *)
  stores : int list array;  (** p -> srcs with [pts(mem o) ⊇ pts(src)], o ∈ pts(p) *)
  init : (int * int) list;  (** (node, object) memberships *)
}

type result = {
  pts : ISet.t array;
  iterations : int;  (** node processings *)
  timed_out : bool;
}

let solve ?(deadline = Metrics.no_deadline) (sys : sys) : result =
  let pts = Array.make sys.n_nodes ISet.empty in
  let delta = Array.make sys.n_nodes ISet.empty in
  let copy = Array.copy sys.copy in
  let iterations = ref 0 in
  let timed_out = ref false in
  let work = Queue.create () in
  let queued = Hashtbl.create 1024 in
  let enqueue n =
    if not (Hashtbl.mem queued n) then begin
      Hashtbl.add queued n ();
      Queue.add n work
    end
  in
  (* Merge [d] into node [tgt]; the genuinely new members become [tgt]'s
     pending delta. *)
  let push tgt d =
    let fresh = ISet.diff d pts.(tgt) in
    if not (ISet.is_empty fresh) then begin
      pts.(tgt) <- ISet.union pts.(tgt) fresh;
      delta.(tgt) <- ISet.union delta.(tgt) fresh;
      enqueue tgt
    end
  in
  List.iter (fun (n, o) -> push n (ISet.singleton o)) sys.init;
  (try
     while not (Queue.is_empty work) do
       Metrics.check deadline;
       let n = Queue.pop work in
       Hashtbl.remove queued n;
       let d = delta.(n) in
       delta.(n) <- ISet.empty;
       if not (ISet.is_empty d) then begin
         incr iterations;
         (* New dynamic edges carry the {e full} source set once; after
            that, only deltas flow across them. *)
         List.iter
           (fun dst ->
             ISet.iter
               (fun o ->
                 let m = sys.obj_mem.(o) in
                 if not (ISet.mem dst copy.(m)) then begin
                   copy.(m) <- ISet.add dst copy.(m);
                   push dst pts.(m)
                 end)
               d)
           sys.loads.(n);
         List.iter
           (fun src ->
             ISet.iter
               (fun o ->
                 let m = sys.obj_mem.(o) in
                 if not (ISet.mem m copy.(src)) then begin
                   copy.(src) <- ISet.add m copy.(src);
                   push m pts.(src)
                 end)
               d)
           sys.stores.(n);
         ISet.iter (fun m -> push m d) copy.(n)
       end
     done
   with Metrics.Timeout -> timed_out := true);
  { pts; iterations = !iterations; timed_out = !timed_out }
