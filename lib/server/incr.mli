(** Resident analysis state with incremental re-analysis — the analysis
    server's core (DESIGN.md §4.13).

    A {!state} holds one subject: the source files, their ASTs, the
    compiled program and every derived table (interfaces, points-to,
    SEGs, RV summaries, per-checker VF summaries).  {!update} applies a
    request's changed files by re-lowering and re-analysing only the
    functions whose body digest changed plus their transitive callers
    (whose summaries embed callee summaries); everything else stays
    resident, which is also what keeps the shared SMT verdict cache hot
    across requests (clean functions keep their variables, hence their
    symbols, hence their hash-consed formulas).

    Structural edits — functions added / removed / re-ordered, signature,
    unit or method-group changes — fall back to a transparent full
    rebuild of the resident state.

    Reports from {!check} after any sequence of updates match a batch
    [pinpoint check] over the same file contents at the rendered-line
    level ({!Pinpoint.Report.one_line}); internal ids (symbols, abstract
    heap addresses) may differ because they depend on process history. *)

type state

type update_stats = {
  changed_files : int;
  changed_funcs : int;
      (** functions whose body digest changed ([-1] on a structural
          change, where per-function attribution is meaningless) *)
  dirty_cone : int;
      (** functions re-lowered and re-analysed (changed + transitive
          callers; the whole program on a full rebuild) *)
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
    dirty functions' artifacts and re-spill them, and the store is never
    sealed while serving.  Raises
    {!Pinpoint_frontend.Parser.Error} / {!Pinpoint_frontend.Lower.Error}
    on malformed input. *)

val update : state -> (string * string) list -> update_stats
(** Apply changed files (replacing known names, appending new ones).
    Parsing and re-lowering run before any mutation — also when the
    function set changes and the state is rebuilt from scratch — so a
    raised front-end error leaves the resident state exactly as it
    was. *)

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

val resilience : state -> Pinpoint_util.Resilience.log
val n_functions : state -> int
