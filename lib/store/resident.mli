(** Bounded LRU of resident (decoded) artifacts, keyed by string.

    A doubly-linked recency list over a hashtable: [find] and [put]
    are O(1), eviction pops the least recently used entry.  Capacity
    [<= 0] means unbounded (a memory store's residency). *)

type 'a t

val create : cap:int -> 'a t

val find : 'a t -> string -> 'a option
(** Touches the entry (moves it to most-recently-used). *)

val put : 'a t -> string -> 'a -> (string * 'a) list
(** Insert or refresh; returns the entries evicted to stay within
    capacity (empty when unbounded or when the key merely refreshed). *)

val remove : 'a t -> string -> unit
val mem : 'a t -> string -> bool
val length : 'a t -> int
val clear : 'a t -> unit
