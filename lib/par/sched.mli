(** SCC-wave scheduler for bottom-up interprocedural passes.

    The transform and summary stages process functions callees-first: a
    component of the call graph may start only when every component it
    calls into has finished (its summaries/interfaces are then complete).
    This module runs that partial order on a {!Pool}: components with no
    unfinished callees are released immediately, and each completion
    releases exactly the callers it unblocks — a rolling wave, not
    lock-step levels. *)

val run_bottom_up :
  ?weights:int array ->
  Pool.t ->
  Pinpoint_util.Digraph.t ->
  (int list list -> unit) ->
  unit
(** [run_bottom_up pool g f] calls [f batch] on batches of the
    strongly-connected components of [g] (each component's members as
    produced by {!Pinpoint_util.Digraph.sccs}), covering every component
    exactly once and guaranteeing that all components reachable from a
    component via edges ([caller -> callee]) complete before its batch
    starts.  Components released at the same instant — which are mutually
    independent by the [pending]-count argument in the implementation —
    share a batch, sized by {!Chunk.plan} over per-component weights
    ([weights] gives a weight per {e graph node}, e.g. statement counts;
    member count is the default).  One batch = one pool task, so per-task
    overhead and per-component table locking amortize.

    With [Pool.jobs pool <= 1] this is
    [List.iter (fun c -> f [c]) (Digraph.sccs g)] — the exact sequential
    order in singleton batches.  Otherwise [f] runs on worker domains (or
    the calling domain, which helps); it must do its own locking around
    shared tables and must not raise (wrap the body in
    {!Pinpoint_util.Resilience.protect}). *)

val run_sccs :
  ?pool:Pool.t ->
  weight:('a -> int) ->
  name:('a -> string) ->
  callees:('a list -> string list) ->
  'a list list ->
  ('a list list -> unit) ->
  unit
(** [run_sccs ?pool ~weight ~name ~callees sccs f] runs one bottom-up pass
    over [sccs]: call-graph components in bottom-up order, the whole
    program's or a subset closed under "is a transitive caller of".
    Component [c] depends on every other listed component holding one of
    [callees c] (matched by [name]); a callee outside the list counts as
    done.  With a pool of more than one job the components run as the
    batched wave of {!run_bottom_up} over that dependency DAG, batches
    sized by the summed [weight] of their members; without one this is
    [List.iter (fun c -> f [c]) sccs].  The same contract on [f] as
    {!run_bottom_up}. *)
