(** The artifact store: the one table of per-function SEGs and RV
    entries, and of the per-checker VF tables {!Pinpoint.Analysis}
    persists before sealing.

    A memory store ({!memory}) keeps every artifact resident: a put never
    encodes and a read never faults.  A disk store ({!create}) also
    spills each artifact to one blob file per analysis run as it is put:
    per-function SEGs ([s/<fn>], load table included) and RV summaries
    ([r/<fn>]), and per-checker VF summaries ([v/<checker>]).  No
    points-to result is ever stored: a SEG carries the load rows its
    data-dependence queries read.  Artifacts are flat-arena records
    ({!Codec}) with formula and row extents deduplicated ({!Intern}); a
    bounded LRU ({!Resident}) keeps the most recently touched functions
    decoded, so peak heap is governed by [max_resident] plus the resident
    IR, not by program size.  Reads fault evicted artifacts back in on
    demand.  Only this module knows whether an artifact is on disk.

    All operations are thread-safe behind one store mutex (reads can
    arrive from several worker domains).

    A variable decodes through the [Var.gen] of the function registered
    under its function's name ({!register_program}, {!register_fn}), so a
    store is readable by the process that wrote it (paging within one
    run — the DFI-style use).  Across processes, {!reopen} gives
    integrity checking and artifact enumeration of the newest valid
    epoch, falling back past torn writes. *)

type t

val memory : unit -> t
(** A store with no file and unbounded residency. *)

val create : dir:string -> ?max_resident:int -> unit -> t
(** A disk store writing its blob under [dir].  [max_resident] bounds
    decoded functions kept in memory per artifact kind (default 64;
    [<= 0] means unbounded). *)

val bounded : t -> bool
(** Whether the store bounds the functions it keeps decoded (a disk
    store with a positive [max_resident]).  The bottom-up walk then runs
    sequentially, so one SCC's points-to results and SEGs are in flight
    at a time. *)

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

val put_vf : t -> string -> Pinpoint_summary.Vf.t -> unit
(** Per-checker VF summary table, keyed by checker name. *)

val vf_of : t -> string -> Pinpoint_summary.Vf.t option

val remove_rv : t -> string -> unit
(** Drop a function's RV entries (re-summarised from its retained SEG). *)

val remove_fn : t -> string -> unit
(** Drop a function's SEG and RV entries (re-transformed, or replaced by
    a rebuild; dead blob bytes are not reclaimed). *)

val seal : t -> unit
(** Seal the blob (index + checksummed trailer, linked to the next free
    epoch file) and switch reads to the mmap path.  No further puts.  A memory
    store has nothing to seal. *)

val is_sealed : t -> bool

val seg_sizes : t -> int * int
(** Summed [(n_vertices, n_edges)] over every SEG put and not removed. *)

val drop_resident : t -> unit
(** Empty a disk store's LRUs (tests: force every later read to fault).
    A memory store keeps everything: it has nowhere to fault from. *)

type stats = {
  spills : int;       (** artifacts encoded and appended *)
  faults : int;       (** artifacts decoded back in, every kind *)
  seg_faults : int;   (** of those, SEGs *)
  evictions : int;    (** resident entries dropped by the LRUs *)
  resident : int;     (** resident SEG and RV entries *)
  file_bytes : int;
  row : Intern.stats;
  expr_hits : int;
  expr_misses : int;
}

val stats : t -> stats
(** A memory store reads 0 in every field but [resident]. *)

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
