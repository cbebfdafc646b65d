(** SMT variables.

    A symbol is an integer naming a logical variable and its sort, shared
    by reference everywhere (SEG vertices, points-to conditions, path
    conditions), which is what makes formula construction cheap.  A
    program variable's symbol is named by its place: its function's
    definition ordinal (most significant, so ids order by program place),
    the function's generation and the variable's vid.  The generation
    tells apart the functions one process lowers at one ordinal (two
    programs, or a function before and after an edit). *)

type t = int
(** Non-negative and below {!bound}; the lowest bit is the sort. *)

type sort = Bool | Int

val bound : int
(** [2^61]: keys from there up are free for {!Theory}'s own terms. *)

type space
(** One lowered function's variable symbols.  Only the domain that owns
    the function calls {!make} (the {!Pinpoint_util.Id_gen} rule). *)

val space : ordinal:int -> space
(** The next generation at [ordinal].  Thread-safe.  Fails past 2^20
    ordinals or 2^19 generations. *)

val generation : space -> int

val make : space -> int -> string -> sort -> t
(** [make sp vid name sort].  Fails past 2^20 variables. *)

val clone : t -> string -> t
(** [clone base tag]: [base] in the substitution context [tag]
    ({!Pinpoint_summary.Clone}), named [name base ^ "@" ^ tag], interned
    by [(base, tag)].  Thread-safe. *)

val fresh : string -> sort -> t
(** A symbol with no place, for tests. *)

val name : t -> string
val sort : t -> sort

type origin =
  | Place of { ordinal : int; generation : int; vid : int }
  | Clone of t * string  (** base and tag *)
  | Fresh

val origin : t -> origin
val of_place : ordinal:int -> generation:int -> vid:int -> sort -> t

val count : unit -> int
(** Symbols made so far, of every kind. *)

val pp : Format.formatter -> t -> unit
(** ["name#vid"]; a clone as its base, ["@"] and its tag. *)
