(** Epoch-versioned append-only blob file with an mmap read path.

    Lifecycle: a store is built by appending extents to a file of its
    own, [dir]/store.PID.N.tmp (plain [write]/[lseek] I/O — the OS page
    cache keeps warm reads cheap while the file is still growing), then
    {!seal} writes the caller's index, a fixed-size checksummed trailer,
    fsyncs, links the file to [dir]/store.epNNNNNN.bin and removes the
    temporary name, so a crash mid-seal leaves the previous epoch intact
    and two stores sealing at once take two epochs.  Sealed files are
    memory-mapped (Bigarray), so resident cost is page-cache pressure,
    not heap.  Stores sharing a directory never share a file: each reads
    its own bytes back. 

    {!open_latest} walks epochs newest-first and returns the first file
    whose trailer validates (magic, bounds, FNV-64 of the index) —
    torn or truncated writes fall back to the previous epoch. *)

type t

val create : dir:string -> t
(** Start a writable blob in a new [dir]/store.PID.N.tmp, created
    exclusively (creates [dir] if needed). *)

val append : t -> bytes -> int
(** Append an extent, returning its offset.  Writable blobs only. *)

val read : t -> off:int -> len:int -> bytes
(** Read an extent back (file I/O while writable, mmap once sealed). *)

val size : t -> int

val seal : t -> index:bytes -> unit
(** Append [index], write the trailer, fsync, and link the file to the
    epoch file one past the highest sealed epoch present; when another
    store claimed that name first, take the next one, with the trailer's
    epoch rewritten to match.  Then map the file, remove the temporary
    name and switch to the mmap read path.  Idempotent. *)

val is_sealed : t -> bool
val epoch : t -> int
(** The sealed epoch's number; 0 while writing. *)

val path : t -> string
(** Current backing file (the temp file while writing, the epoch file
    after). *)

val index : t -> bytes option
(** The index extent recorded at seal time ([None] while writing). *)

val open_latest : dir:string -> t option
(** Newest sealed epoch in [dir] whose trailer validates, mmap'd. *)

val close : t -> unit
(** Release the blob; an unsealed blob's temp file is removed. *)
