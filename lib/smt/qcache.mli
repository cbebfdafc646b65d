(** A no-op kept for one external caller.

    The benchmark harness under [perfbench/] empties the process-wide
    solver caches before each traced pass and still calls
    [Qcache.clear ()].  The SMT verdict cache behind it no longer exists
    (DESIGN.md §4.10), so this function does nothing.  Code in [lib/],
    [bin/] and [test/] must not call it. *)

val clear : unit -> unit
