(** Value-flow (VF) summaries (paper §3.3.2).

    Four kinds of reachability summaries per function, relating a
    checker's bug-specific "source" and "sink" vertices to the function's
    interface values:

    - VF1: a parameter flows to a return position (should the search
      continue from the receiver after a call?);
    - VF2: a source flows to a return position (a receiver becomes buggy
      after the call);
    - VF3: a parameter flows to a source (an actual becomes buggy after
      the call — e.g. the callee frees it);
    - VF4: a parameter flows to a sink (a bug may complete inside the
      callee).

    Summaries are reachability-only; the precise conditions are recovered
    on demand during path-condition computation (§3.3.1), which is what
    keeps summary generation cheap.  Generated bottom-up; recursion is cut
    once.  Parameter and return indices refer to the {e extended}
    (post-transformation) interface, so value flows through memory
    side-effects ride the connector variables.

    One pass summarises every checker: each function's SEG is fetched
    once and its per-parameter forward reachability runs once per
    [follow_operands] mode.  VF1 and those reach sets depend on nothing
    else, so they are shared; only VF2–VF4 read a checker's sources and
    sinks. *)

type spec = {
  follow_operands : bool;
      (** follow operator edges too (taint) or only value-preserving
          copies (use-after-free) *)
  source_vars : Pinpoint_ir.Func.t -> (Pinpoint_ir.Var.t * int) list;
      (** variables that carry a source value from statement [sid] on *)
  is_sink_use : Pinpoint_seg.Seg.t -> Pinpoint_seg.Seg.use -> bool;
}

type fsum = {
  vf1 : (int * int) list;  (** (param index, ret position), 1-based params *)
  vf2 : int list;          (** ret positions carrying a source value *)
  vf3 : int list;          (** params that reach a source *)
  vf4 : int list;          (** params that reach a sink (transitively) *)
}

type t

val generate :
  Pinpoint_ir.Prog.t -> (string -> Pinpoint_seg.Seg.t option) -> spec list -> t list
(** [generate prog seg_of specs] is one table per spec, in order, filled
    in one bottom-up pass.  A function without a SEG gets no entry. *)

val empty : unit -> t
(** A summary table with no entries. *)

val update :
  t list ->
  (string -> Pinpoint_seg.Seg.t option) ->
  spec list ->
  Pinpoint_ir.Func.t list list ->
  unit
(** Incremental regeneration for the analysis server (DESIGN.md §4.13):
    [update tables seg_of specs sccs] drops the dirty SCCs' members from
    every table and recomputes them, in the given bottom-up order, against
    the retained clean entries.  [tables] and [specs] correspond
    positionally.  The dirty set must be closed under "is a transitive
    caller of a dirty function"; each table then equals a from-scratch
    {!generate} over the same program. *)

val find : t -> string -> fsum option

val fold : t -> init:'a -> f:('a -> string -> fsum -> 'a) -> 'a
(** Iterate all entries (the artifact store's encode path). *)

val add : t -> string -> fsum -> unit
(** Insert one entry (the artifact store's decode path). *)

val pp : Format.formatter -> t -> unit
