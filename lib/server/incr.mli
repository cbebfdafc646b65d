(** Resident analysis state with incremental re-analysis — the analysis
    server's core (DESIGN.md §4.13).

    A {!state} holds one subject: the source files, their ASTs, the
    compiled program, its call graph and every derived table
    (interfaces, points-to, SEGs, RV summaries, per-checker VF
    summaries).  {!update} applies a request's changed files by
    re-lowering the functions whose AST changed (locations included) and
    propagating the edit bottom-up with an early cutoff: a caller is
    re-transformed only when its SCC changed or a callee changed its
    interface shape, and re-summarised from its retained SEG only when a
    callee changed its RV or VF entries.  Everything else stays resident,
    and the call graph is patched, not rebuilt.

    A body edit — every edited file's headers (names, parameter and
    return types, method groups and units, in order) equal to that file's
    resident ones — costs the edited files, the dirty cone and a skip
    decision per transitive caller of an edited function, not the
    program: signatures, method groups and each function's AST stay
    resident from the last full build, and no step walks every function.
    Structural edits — functions added / removed / re-ordered / moved to
    another file, signature, unit or method-group changes — fall back to
    a transparent full rebuild of the resident state.

    Reports from {!check} after any sequence of updates match a batch
    [pinpoint check] over the same file contents at the rendered-line
    level ({!Pinpoint.Report.one_line}); internal ids (symbols, abstract
    heap addresses) may differ because they depend on process history. *)

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
    ({!Pinpoint_util.Resilience.create}).  With [store] per-function
    artifacts (PTAs, SEGs, RV summaries) live in the disk-resident
    artifact store instead of the resident tables; updates drop the
    re-lowered functions' artifacts and re-spill them, re-summarised
    functions' RV entries too, and the store is never sealed while
    serving.  Raises
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
  Pinpoint.Report.t list * Pinpoint.Engine.stats
(** Run one checker against the resident state, with the VF table the
    load's sweep built and each update's sweep refreshed. *)

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
    signatures and method groups; interfaces, points-to results, SEGs,
    RV entries and each checker's VF entries; and each checker's memo
    ({!Pinpoint.Engine.memo_sizes}).  In store mode the artifacts live
    in the store and are not counted. *)

val resilience : state -> Pinpoint_util.Resilience.log
val n_functions : state -> int
