(** Checker specifications: bugs modelled as source-sink value-flow paths
    (paper §4.1).

    A checker names the statements whose values become "buggy" (sources)
    and the uses that complete a bug (sinks), and says whether the value
    survives operators (taint does, a dangling pointer does not). *)

type t = {
  name : string;
  description : string;
  follow_operands : bool;
  sources : Pinpoint_ir.Func.t -> (Pinpoint_ir.Var.t * int) list;
      (** (variable carrying the source value, sid of the source event),
          read off the function's IR *)
  is_sink : Pinpoint_seg.Seg.t -> Pinpoint_seg.Seg.use -> bool;
  exclude_same_sid : bool;
      (** the sink event must be a different statement than the source
          (double-free: the freeing call is both a source and a sink
          shape) *)
}

val vf_spec : t -> Pinpoint_summary.Vf.spec
(** The reachability-summary view of the checker. *)

val recvs_of_calls :
  Pinpoint_ir.Func.t -> string list -> (Pinpoint_ir.Var.t * int) list
(** Receivers of calls to any of the given intrinsics — the generative
    sources (tainted input, secrets). *)

val args_of_calls :
  Pinpoint_ir.Func.t -> string -> int -> (Pinpoint_ir.Var.t * int) list
(** Variables passed as the given argument of calls to an intrinsic —
    consumptive sources ([free]). *)
