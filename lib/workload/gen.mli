(** Deterministic synthetic subject generator.

    Stands in for the paper's 30 real-world subjects (DESIGN.md §1): emits
    MC programs of a requested size with realistic structure — multiple
    compilation units, call chains several levels deep, pointer-heavy
    filler — and {e planted} bug patterns with known ground truth:

    - real inter-procedural use-after-free / double-free bugs, both
      call-chain- and heap-mediated (Figure 1 style);
    - branch-correlated "traps" that are safe but fool path-insensitive
      tools (the precision gap of Tables 1/3);
    - nonlinear-guard traps that even Pinpoint's rational/uninterpreted
      arithmetic cannot refute — these model the paper's residual
      14.3%–23.6% false-positive rate;
    - use-before-free patterns that only flow-insensitive tools flag;
    - taint source/sink pairs for the two §4.1 checkers;
    - safe malloc/use/free filler whose dereference sites feed the
      layered baseline's warning flood (Table 1's ~1000× report count).

    Everything is driven by an explicit seed; identical parameters
    regenerate identical subjects. *)

type params = {
  seed : int;
  target_loc : int;        (** approximate emitted source lines *)
  n_units : int;           (** compilation units *)
  n_real_uaf : int;        (** planted real inter-procedural UAF bugs *)
  n_real_uaf_local : int;  (** planted real intra-procedural UAF bugs *)
  n_real_df : int;         (** planted real double-free bugs *)
  n_uaf_traps : int;       (** correlated-branch safe traps *)
  n_hard_traps : int;      (** nonlinear traps (refinement-removable FPs) *)
  n_shared_core : int;
      (** disjoint-interval guard families: several infeasible candidates
          per function sharing one unsat core the linear solver cannot see
          — distinct formulas (verdict-cache misses), each paying a full
          solve *)
  n_use_before_free : int; (** safe order patterns (SVF-only FPs) *)
  n_taint_real : int;      (** real taint flows (per taint checker) *)
  n_taint_traps : int;     (** infeasible taint flows *)
  n_leaks : int;           (** planted conditional memory leaks *)
  with_frees : bool;       (** filler contains (safe) free calls *)
  cross_unit : bool;
      (** filler may call a bounded sample of earlier units' functions
          (realistic cross-unit fan-in; off by default so historical
          subjects stay byte-identical) *)
}

val default_params : params

val scaled : ?seed:int -> mloc:float -> unit -> params
(** MLoC-scale preset: [mloc] million lines (fractional allowed, e.g.
    [0.2] = 200 KLoC) split into ~4 KLoC units with cross-unit fan-in
    and per-MLoC-scaled planted bug counts.  Generation is linear in the
    target (bounded per-unit state), so an 8 MLoC subject emits in
    seconds. *)

type subject = {
  name : string;
  source : string;         (** MC source text *)
  truth : Truth.planted list;
  loc : int;               (** emitted lines *)
}

val generate : name:string -> params -> subject

val compile : subject -> Pinpoint_ir.Prog.t
(** Parse + lower the subject (each call returns a fresh program, since
    analyses mutate IR in place). *)
