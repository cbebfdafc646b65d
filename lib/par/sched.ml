module Digraph = Pinpoint_util.Digraph

(* SCC-wave scheduling over a call graph.  [Digraph.sccs] already yields
   the condensation in reverse topological order (callees first), so the
   sequential fallback is a plain fold.  The parallel path turns the
   condensation into a dependency-counted DAG and releases a component to
   the pool the moment its last callee component completes — a rolling
   bottom-up wave rather than lock-step levels, so one slow component only
   delays the components that actually depend on it.

   Batching (DESIGN.md §4.15): components that become ready {e at the same
   time} are mutually independent — [pending.(c)] counts unfinished callee
   components, so if two components both hit zero before either has run,
   neither can depend on the other.  A simultaneous release set can
   therefore be partitioned into batches that one task processes
   back-to-back: per-function task overhead and per-component table
   locking amortize over the batch, and {!Chunk.plan} sizes the batches by
   component weight so a ragged wave still overpartitions enough to keep
   every lane busy. *)

(* Run the condensation DAG on [pool], releasing simultaneously-ready
   components in weight-balanced batches.  [f] receives one batch of
   component member-lists. *)
let run_dag ?weights pool (g : Digraph.t) (comps : int list array)
    (f : int list list -> unit) =
  let nc = Array.length comps in
  if nc > 0 then begin
    let comp_of = Array.make (Digraph.n_nodes g) (-1) in
    Array.iteri
      (fun ci members -> List.iter (fun v -> comp_of.(v) <- ci) members)
      comps;
    (* Caller comp [cu] waits on callee comp [cv] for every distinct
       cross-component edge u -> v. *)
    let pending = Array.make nc 0 in
    let dependents = Array.make nc [] in
    let seen = Hashtbl.create 256 in
    Digraph.iter_edges g (fun u v ->
        let cu = comp_of.(u) and cv = comp_of.(v) in
        if cu >= 0 && cv >= 0 && cu <> cv && not (Hashtbl.mem seen (cu, cv))
        then begin
          Hashtbl.add seen (cu, cv) ();
          pending.(cu) <- pending.(cu) + 1;
          dependents.(cv) <- cu :: dependents.(cv)
        end);
    (* Per-component weight: member count, or the summed node weights
       (statement counts) when the caller knows them. *)
    let comp_weight ci =
      match weights with
      | None -> List.length comps.(ci)
      | Some w -> List.fold_left (fun acc v -> acc + w.(v)) 0 comps.(ci)
    in
    let batches_of = function
      | [] -> []
      | [ ci ] -> [ [ ci ] ]
      | ready ->
        let arr = Array.of_list ready in
        Chunk.plan ~jobs:(Pool.jobs pool) ~weights:(Array.map comp_weight arr)
          (Array.length arr)
        |> List.map (fun (start, len) -> Array.to_list (Array.sub arr start len))
    in
    let m = Mutex.create () in
    let progress = Condition.create () in
    let completed = ref 0 in
    let rec launch batch =
      Pool.submit pool (fun () ->
          Fun.protect
            ~finally:(fun () -> complete batch)
            (fun () -> f (List.map (fun ci -> comps.(ci)) batch)))
    and complete batch =
      let ready = ref [] in
      Mutex.lock m;
      completed := !completed + List.length batch;
      List.iter
        (fun ci ->
          List.iter
            (fun cu ->
              pending.(cu) <- pending.(cu) - 1;
              if pending.(cu) = 0 then ready := cu :: !ready)
            dependents.(ci))
        batch;
      Condition.broadcast progress;
      Mutex.unlock m;
      (* Launch outside the lock: submit may run the task inline. *)
      List.iter launch (batches_of (List.sort compare !ready))
    in
    (* Snapshot the leaves BEFORE submitting anything: once the first
       task is enqueued, workers start completing components and
       cascade-launching their dependents concurrently — re-reading
       [pending.(ci)] here would race with those decrements and could
       launch a cascade-released component a second time.  A structural
       leaf (pending = 0 from the graph alone) can never be released by
       [complete], so the snapshot set and the cascade set are disjoint. *)
    let leaves = ref [] in
    for ci = nc - 1 downto 0 do
      if pending.(ci) = 0 then leaves := ci :: !leaves
    done;
    List.iter launch (batches_of !leaves);
    (* Drive: the caller helps execute queued components; when the queue
       is empty it blocks until some in-flight component completes (which
       may release new ones). *)
    let rec drive () =
      let done_ = Mutex.protect m (fun () -> !completed >= nc) in
      if not done_ then
        if Pool.try_run_one pool then drive ()
        else begin
          Mutex.lock m;
          let c0 = !completed in
          while !completed = c0 && !completed < nc do
            Condition.wait progress m
          done;
          Mutex.unlock m;
          drive ()
        end
    in
    drive ()
  end

let run_bottom_up ?weights pool (g : Digraph.t) (f : int list list -> unit) =
  let comps = Digraph.sccs g in
  if Pool.jobs pool <= 1 then List.iter (fun c -> f [ c ]) comps
  else run_dag ?weights pool g (Array.of_list comps) f

(* The dependency DAG over a listed set of components: one node per
   component, an edge to each other listed component it calls into.  Its
   own components are singletons, so each batch member maps back to one
   listed SCC. *)
let run_sccs ?pool ~weight ~name ~callees sccs f =
  match pool with
  | Some pool when Pool.jobs pool > 1 ->
    let units = Array.of_list sccs in
    let unit_of = Hashtbl.create 64 in
    Array.iteri
      (fun k scc -> List.iter (fun x -> Hashtbl.replace unit_of (name x) k) scc)
      units;
    let g = Digraph.create ~initial_capacity:(Array.length units) () in
    if Array.length units > 0 then Digraph.ensure_node g (Array.length units - 1);
    Array.iteri
      (fun k scc ->
        List.iter
          (fun callee ->
            match Hashtbl.find_opt unit_of callee with
            | Some j when j <> k -> Digraph.add_edge g k j
            | _ -> ())
          (callees scc))
      units;
    let weights =
      Array.map (List.fold_left (fun acc x -> acc + weight x) 0) units
    in
    run_bottom_up ~weights pool g (fun batch ->
        f (List.concat_map (List.map (Array.get units)) batch))
  | _ -> List.iter (fun c -> f [ c ]) sccs
