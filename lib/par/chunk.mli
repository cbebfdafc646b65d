(** Task batching over {!Pool.parallel_map} (DESIGN.md §4.15).

    Groups the items of a positional parallel map into contiguous chunks
    so the per-task fixed cost (closure, queue round-trip, wake-up)
    amortizes over ~[n / (4 * jobs)] items.  Chunking changes {e only}
    scheduling granularity: result slots stay positional, a per-item
    exception still yields [None] for exactly that slot (recorded as a
    [Par_task] incident on the pool's log), and [jobs <= 1] bypasses
    chunking entirely — so reports and stats are byte-identical to the
    unchunked map at every [--jobs] level. *)

val overpartition : int
(** Chunks per lane the planner aims for (4): slack for load balancing
    without per-item overhead. *)

val set_override : int option -> unit
(** A no-op kept for one external caller.  The benchmark harness under
    [perfbench/] still resets the fixed-size chunk override before each
    pass; the override (and [--chunk-size]) no longer exists, since chunk
    geometry never reached the output (DESIGN.md §4.15).  Code in [lib/],
    [bin/] and [test/] must not call it. *)

val plan : jobs:int -> ?weights:int array -> int -> (int * int) list
(** [plan ~jobs n] partitions indices [0 .. n-1] into contiguous
    [(start, len)] chunks, in index order, covering every index exactly
    once.  Aims for [jobs * overpartition] chunks; with [weights] (one
    non-negative weight per item, e.g. statement counts) boundaries are
    placed by cumulative weight so heavy items don't share a chunk with
    many light ones. *)

val parallel_map :
  ?weights:int array -> Pool.t -> ('a -> 'b) -> 'a array -> 'b option array
(** Drop-in replacement for {!Pool.parallel_map} that submits one pool
    task per chunk instead of one per item. *)
