(* Task batching (DESIGN.md §4.15).

   A per-function task costs one closure allocation, one queue round-trip
   and one wake-up — a fixed overhead that dwarfs the work when functions
   are small and [--jobs] is high.  This layer groups the positional items
   of a {!Pool.parallel_map} into contiguous chunks so the fixed cost
   amortizes, while keeping everything observable about the map
   identical: slots stay positional, per-item exceptions still yield
   [None] for exactly that slot (recorded as a [Par_task] incident), and
   [jobs <= 1] bypasses chunking entirely.

   Sizing heuristic: overpartition by [overpartition = 4] chunks per lane
   — enough slack that a lane finishing early finds more chunks on the
   queue instead of idling, but coarse enough that per-task overhead is
   amortized over ~n/(4*jobs) items.  When item weights are known
   (function statement counts), chunk boundaries are placed by
   cumulative weight rather than item count, so one giant function does
   not ride in a chunk with fifty others. *)

let overpartition = 4

let set_override (_ : int option) = ()

let plan ~jobs ?weights n =
  if n <= 0 then []
  else begin
    let target_chunks = max 1 (min n (max 1 jobs * overpartition)) in
    match weights with
    | None ->
      (* Equal item counts: ceil-split into [target_chunks] pieces. *)
      let base = n / target_chunks and extra = n mod target_chunks in
      let rec cut i start acc =
        if i >= target_chunks || start >= n then List.rev acc
        else
          let len = base + if i < extra then 1 else 0 in
          if len = 0 then cut (i + 1) start acc
          else cut (i + 1) (start + len) ((start, len) :: acc)
      in
      cut 0 0 []
    | Some w ->
      let total = Array.fold_left ( + ) 0 w in
      let per = max 1 (total / target_chunks) in
      let cuts = ref [] in
      let start = ref 0 and acc = ref 0 in
      for i = 0 to n - 1 do
        acc := !acc + w.(i);
        (* Cut after item [i] once the chunk reached its weight share,
           unless it would leave an empty tail. *)
        if !acc >= per && i < n - 1 then begin
          cuts := (!start, i - !start + 1) :: !cuts;
          start := i + 1;
          acc := 0
        end
      done;
      cuts := (!start, n - !start) :: !cuts;
      List.rev !cuts
  end

let parallel_map (type a b) ?weights pool (f : a -> b) (arr : a array) :
    b option array =
  let n = Array.length arr in
  let jobs = Pool.jobs pool in
  if jobs <= 1 || n <= 1 then Pool.parallel_map pool f arr
  else begin
    let chunks = Array.of_list (plan ~jobs ?weights n) in
    if Array.length chunks >= n then Pool.parallel_map pool f arr
    else begin
      let res : b option array = Array.make n None in
      (* Each slot of [res] is written by exactly one chunk task, and the
         trailing [Pool.parallel_map] barrier orders those writes before
         the reads below. *)
      let run_chunk (start, len) =
        for i = start to start + len - 1 do
          let t0 = Pinpoint_util.Metrics.now () in
          try res.(i) <- Some (f arr.(i)) with exn -> Pool.note pool ~t0 exn
        done
      in
      ignore (Pool.parallel_map pool run_chunk chunks);
      res
    end
  end
