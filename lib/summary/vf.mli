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
    keeps summary generation cheap.  Generated bottom-up, in the same
    sweep as the SEGs and RV summaries; recursion is cut once.  Parameter
    and return indices refer to the {e extended} (post-transformation)
    interface, so value flows through memory side-effects ride the
    connector variables.

    One call summarises a function for every checker: its per-parameter
    forward reachability runs once per [follow_operands] mode.  VF1 and
    those reach sets depend on nothing else, so they are shared; only
    VF2–VF4 read a checker's sources and sinks. *)

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

val summarise :
  spec array ->
  find:(int -> string -> fsum option) ->
  Pinpoint_seg.Seg.t ->
  fsum array
(** [summarise specs ~find seg] is the entries of [seg]'s function, one
    per spec, against the callee entries [find k callee] gives for spec
    [k].  The bottom-up sweep ({!Pinpoint.Analysis.prepare}) calls it once
    per function, callees first, right after the function's RV entries,
    and publishes each result before the next member of the SCC runs; a
    same-SCC callee not yet summarised is unknown to [find]. *)

val empty : unit -> t
(** A summary table with no entries. *)

val find : t -> string -> fsum option

val fold : t -> init:'a -> f:('a -> string -> fsum -> 'a) -> 'a
(** Iterate all entries (the artifact store's encode path). *)

val add : t -> string -> fsum -> unit
(** Insert one entry (the sweep, and the artifact store's decode path). *)

val remove : t -> string -> unit
(** Drop one entry (server incremental update). *)

val pp : Format.formatter -> t -> unit
