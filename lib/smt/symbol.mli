(** Global symbol registry for SMT variables.

    A symbol is a small integer naming a logical variable together with its
    sort.  Symbols are allocated once and shared by reference everywhere
    (SEG vertices, points-to conditions, path conditions), which is what
    makes formula construction cheap. *)

type t = int
(** Symbol ids are dense non-negative integers. *)

type sort = Bool | Int

val fresh : string -> sort -> t
(** Register a new symbol.  The name is for printing only; distinct symbols
    may share a name. *)

val clone : t -> string -> t
(** [clone base tag] registers a fresh symbol of [base]'s sort standing
    for [base] in the substitution context [tag]
    ({!Pinpoint_summary.Clone}).  It is named [name base ^ "@" ^ tag]. *)

val name : t -> string
val sort : t -> sort
val count : unit -> int

val pp : Format.formatter -> t -> unit
(** Prints ["name#id"]; a clone prints as its base's printed form, ["@"]
    and its tag — no id of its own, since clone ids depend on the order
    frames are reached in. *)

val pp_sort : Format.formatter -> sort -> unit
