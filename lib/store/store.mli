(** The disk-resident artifact store (facade).

    One blob file per analysis run holds every spilled artifact:
    per-function SEGs ([s/<fn>], load table included) and RV summaries
    ([r/<fn>]), and per-checker VF summaries ([v/<checker>]).  No
    points-to result is ever stored: a SEG carries the load rows its
    data-dependence queries read.  Artifacts are flat-arena records
    ({!Codec}) with formula and row extents deduplicated ({!Intern}); a
    bounded LRU ({!Resident}) keeps the most recently touched functions
    decoded, so peak heap is governed by [max_resident] plus the resident
    IR, not by program size.  The engine faults artifacts back in through
    {!seg_of} on demand.

    All operations are thread-safe behind one store mutex (decode
    faults can arrive from several worker domains).

    A variable decodes through the [Var.gen] of the function registered
    under its function's name ({!register_program}, {!register_fn}), so a
    store is readable by the process that wrote it (paging within one
    run — the DFI-style use).  Across processes, {!reopen} gives
    integrity checking and artifact enumeration of the newest valid
    epoch, falling back past torn writes. *)

type t

val create : dir:string -> ?max_resident:int -> unit -> t
(** [max_resident] bounds decoded functions kept in memory per artifact
    kind (default 64; [<= 0] means unbounded). *)

val register_program : t -> Pinpoint_ir.Prog.t -> unit
(** Make every function decodable.  Call once after lowering. *)

val register_fn : t -> Pinpoint_ir.Func.t -> unit
(** Register one function under its name again, so its variables decode
    through its own [Var.gen] (server incremental update: a re-lowered
    function has fresh variable objects). *)

val put_seg : t -> string -> Pinpoint_seg.Seg.t -> unit
val seg_of : t -> string -> Pinpoint_seg.Seg.t option
val put_rv : t -> string -> Pinpoint_summary.Rv.entry option array -> unit
val rv_of : t -> string -> Pinpoint_summary.Rv.entry option array option

val rv_backend : t -> Pinpoint_summary.Rv.backend
(** Summary backend routing {!Pinpoint_summary.Rv} puts/reads here. *)

val put_vf : t -> string -> Pinpoint_summary.Vf.t -> unit
(** Per-checker VF summary table, keyed by checker name. *)

val vf_of : t -> string -> Pinpoint_summary.Vf.t option

val remove_fn : t -> string -> unit
(** Drop a function's SEG and RV artifacts and resident copies (server
    incremental update; the dead blob bytes are not reclaimed). *)

val seal : t -> unit
(** Seal the blob (index + checksummed trailer, rename to the epoch
    file) and switch reads to the mmap path.  No further puts. *)

val is_sealed : t -> bool
val dir : t -> string
val file_bytes : t -> int

val seg_sizes : t -> int * int
(** Summed [(n_vertices, n_edges)] over every spilled SEG — the
    store-mode replacement for folding resident segs. *)

val drop_resident : t -> unit
(** Empty the LRUs (tests: force every later read to fault). *)

type stats = {
  spills : int;       (** artifacts encoded and appended *)
  faults : int;       (** artifacts decoded back in, every kind *)
  seg_faults : int;   (** of those, SEGs *)
  evictions : int;    (** resident entries dropped by the LRUs *)
  resident : int;     (** currently decoded functions (all kinds) *)
  file_bytes : int;
  row : Intern.stats;
  expr_hits : int;
  expr_misses : int;
}

val stats : t -> stats

val publish_obs : t -> unit
(** Counters [store.spills]/[store.faults]/[store.evictions] (published
    as deltas since the last call), dedup counters, and gauges
    [store.resident_fns]/[store.file_bytes]/[store.dedup_hit_rate]. *)

val close : t -> unit

type reopened = {
  epoch : int;
  artifacts : (string * (int * int)) list;  (** name, (off, len) *)
  read : off:int -> len:int -> bytes;
  finish : unit -> unit;
}

val reopen : dir:string -> reopened option
(** Open the newest sealed epoch whose trailer validates (torn-write
    recovery: invalid or truncated epochs are skipped). *)
