(** Resident analysis state with incremental re-analysis — the analysis
    server's core (DESIGN.md §4.13).

    A {!state} holds one subject: the source files, their ASTs, and the
    {!Pinpoint.Analysis.t} of their program — its call graph, interfaces,
    artifact store (SEGs, RV summaries) and per-checker VF summaries.
    {!update} applies a request's changed files by re-lowering the
    functions whose AST changed (locations included) and propagating the
    edit bottom-up with an early cutoff, in one walk
    ({!Pinpoint.Analysis.sweep}): a caller is re-transformed only when
    its SCC changed or a callee changed its interface shape, and
    re-summarised from its retained SEG only when a callee changed its
    RV or VF entries.  Everything else stays resident, and the call graph
    is patched, not rebuilt.

    A body edit — every edited file's headers (names, parameter and
    return types, method groups and units, in order) equal to that file's
    resident ones — costs the edited files, the dirty cone and a skip
    decision per transitive caller of an edited function, not the
    program: signatures, method groups and each function's AST stay
    resident from the last full build, and no step walks every function.
    Structural edits — functions added / removed / re-ordered / moved to
    another file, signature, unit or method-group changes — fall back to
    a transparent full rebuild of the resident state.

    Reports from {!check} after any sequence of updates equal a batch
    [pinpoint check] over the same file contents, one line
    ({!Pinpoint.Report.one_line}) and in full ({!Pinpoint.Report.pp}, the
    [-v] render): symbols and heap addresses are named by their place in
    the program, not by process history. *)

type state

type update_stats = {
  changed_files : int;
  changed_funcs : int;
      (** functions whose AST changed ([-1] on a structural
          change, where per-function attribution is meaningless) *)
  retransformed : int;
      (** functions re-lowered and re-analysed from scratch: transform,
          SEG, RV and VF (the whole program on a full rebuild) *)
  resummarised : int;
      (** functions whose RV and VF entries were recomputed from their
          retained SEGs *)
  dirty_cone : int;  (** [retransformed + resummarised] *)
  full_rebuild : bool;
}

val load :
  ?incident_cap:int ->
  ?pool:Pinpoint_par.Pool.t ->
  ?store:Pinpoint_store.Store.t ->
  (string * string) list ->
  state
(** [load files] parses, compiles and fully prepares [(name, contents)]
    pairs as one program (the batch pipeline, {!Pinpoint.Analysis.prepare}).
    [incident_cap] bounds the retained incident log
    ({!Pinpoint_util.Resilience.create}).  Per-function artifacts (SEGs,
    RV summaries) live in [store] (default: a memory store); updates
    replace the redone functions' artifacts there, and the store is
    never sealed while serving.  Raises
    {!Pinpoint_frontend.Parser.Error} / {!Pinpoint_frontend.Lower.Error}
    on malformed input. *)

val update : state -> (string * string) list -> update_stats
(** Apply changed files (replacing known names, appending new ones).
    Parsing, and lowering the functions whose bodies changed, run before
    any mutation — also when the function set changes and the state is
    rebuilt from scratch — so a raised front-end error leaves the
    resident state exactly as it was.  Callers re-transformed because a
    callee's interface changed are lowered later, mid-walk; their ASTs
    and the signature table lowered once already, so that cannot raise. *)

val check :
  ?config:Pinpoint.Engine.config ->
  state ->
  Pinpoint.Checker_spec.t ->
  Pinpoint.Report.t list * Pinpoint_obs.Obs.Snapshot.t
(** Run one checker against the resident analysis
    ({!Pinpoint.Analysis.check}), with the VF table the load's walk built
    and each update's walk refreshed, and this checker's memo of
    per-source results.  The second half is the run's change in the
    [engine.*] counters ({!Pinpoint.Engine.run}). *)

val analysis : state -> Pinpoint.Analysis.t
(** The resident analysis, current after every update: its store holds
    every function's SEG and RV entries. *)

val epoch : state -> int
(** Number of updates applied since load. *)

val files : state -> (string * string) list
(** Current file contents, load order — the epoch-snapshot payload. *)

val program : state -> Pinpoint_ir.Prog.t
(** The resident program, transformed in place.  Updates keep only its
    [by_name] table current; this call refreshes its function list from
    {!graph}, in definition order. *)

val graph : state -> Pinpoint_ir.Callgraph.t
(** The resident call graph, patched by each update. *)

val table_sizes : state -> (string * int) list
(** Entry counts of the resident tables, sorted by name: files, ASTs,
    signatures and method groups; interfaces, the store's resident SEG
    and RV entries ([store], every function's in a memory store, those
    in its LRUs in a disk store) and each checker's VF entries; and
    each checker's memo ({!Pinpoint.Engine.memo_sizes}). *)

val resilience : state -> Pinpoint_util.Resilience.log
val n_functions : state -> int
