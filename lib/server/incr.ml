(* Resident analysis state with incremental re-analysis (DESIGN.md §4.13).

   The server keeps one subject loaded: source files, their parsed ASTs
   and the analysis of their program (Analysis.t: the program,
   transformed in place, its call graph, the store of per-function SEGs
   and RV entries and the per-checker VF tables).  A request
   replaces some files; the functions whose bodies actually changed are
   re-lowered, and the edit propagates bottom-up by artifact kind with an
   early cutoff: a caller sees a callee only through its connector
   interface and its RV and VF entries, so a caller is redone only when
   one of those came out different.

   One bottom-up walk ({!Pinpoint.Analysis.sweep}) decides per SCC:
   - it re-transforms the SCC (re-lowering every member) and rebuilds its
     SEGs and summaries when a member's body changed, when its SCC
     differs from the one in the graph before the edit, or when a callee
     outside it changed its interface shape;
   - it re-summarises the SCC from its retained SEGs when a callee outside
     it changed its RV or VF entries;
   - it skips the SCC otherwise: it keeps its transformed IR, SEGs and
     summaries.

   The walk decides from callee marks only, and callees finish first, so
   the frontier is the same at every [--jobs], whichever store holds the
   artifacts.  A kept
   entry equals what a from-scratch run computes modulo renaming, which
   is all the engine can observe.

   Structural changes — a function added, removed, re-ordered, moved to
   another file, its signature, unit or method group changed — invalidate
   call resolution everywhere; those fall back to a full rebuild of the
   resident state (counted in [update_stats.full_rebuild]).

   A body edit costs the edited files, the dirty cone and a skip
   decision per transitive caller, not the program: the header check
   compares only the edited files' headers with theirs, lowering reads
   the signatures and method groups the last full build left resident,
   the call graph patches only the re-lowered functions' call sites (and
   re-runs Tarjan only when their callees changed), the SCCs to walk are
   marked once, and the memos find the searches to drop through their
   footprint index. *)

open Pinpoint_frontend
module Obs = Pinpoint_obs.Obs
module Resilience = Pinpoint_util.Resilience
module Prog = Pinpoint_ir.Prog
module Callgraph = Pinpoint_ir.Callgraph
module Func = Pinpoint_ir.Func
module Rv = Pinpoint_summary.Rv
module Vf = Pinpoint_summary.Vf
module Store = Pinpoint_store.Store
module Analysis = Pinpoint.Analysis

type state = {
  mutable analysis : Analysis.t;
      (** the resident analysis: its program's [by_name] table holds the
          current functions, its function list is refreshed from its
          call graph only when {!program} is read, and its graph is
          patched by each update.  Its store is never sealed while
          serving, so incremental updates keep appending. *)
  mutable files : (string * string) list;  (** (name, contents), load order *)
  mutable file_fdecls : (string * Ast.fdecl list) list;  (** same order *)
  mutable sigs : (string, Ty_sig.t) Hashtbl.t;
  mutable groups : (string, string list) Hashtbl.t;
      (** the header facts lowering reads: signatures and method groups,
          built by a full build and kept while headers stay equal *)
  mutable fdecl_of : (string, Ast.fdecl) Hashtbl.t;
      (** each function's current AST *)
  memos : (string, Pinpoint.Engine.memo) Hashtbl.t;
      (** resident per-checker search results, filled by {!check} and
          invalidated by footprint on each update *)
  mutable epoch : int;  (** bumped once per applied update *)
}

type update_stats = {
  changed_files : int;
  changed_funcs : int;  (** functions whose AST changed *)
  retransformed : int;
  resummarised : int;
  dirty_cone : int;  (** [retransformed + resummarised] *)
  full_rebuild : bool;
}

let epoch st = st.epoch
let files st = st.files
let analysis st = st.analysis

let program st =
  let a = st.analysis in
  a.Analysis.prog.Prog.funcs <- Callgraph.functions a.Analysis.graph;
  a.Analysis.prog

let graph st = st.analysis.Analysis.graph
let resilience st = st.analysis.Analysis.resilience
let n_functions st = List.length (Prog.functions st.analysis.Analysis.prog)

let table_sizes st =
  let a = st.analysis in
  [
    ("files", List.length st.files);
    ("fdecls", Hashtbl.length st.fdecl_of);
    ("sigs", Hashtbl.length st.sigs);
    ("groups", Hashtbl.length st.groups);
    ("ifaces", Hashtbl.length a.Analysis.ifaces);
    ("store", (Store.stats a.Analysis.store).Store.resident);
  ]
  @ Hashtbl.fold
      (fun name (_, vf) acc ->
        ("vf." ^ name, Vf.fold vf ~init:0 ~f:(fun n _ _ -> n + 1)) :: acc)
      a.Analysis.vfs []
  @ Hashtbl.fold
      (fun name memo acc ->
        List.map
          (fun (k, n) -> (Printf.sprintf "memo.%s.%s" name k, n))
          (Pinpoint.Engine.memo_sizes memo)
        @ acc)
      st.memos []
  |> List.sort compare

(* ---------- change detection ---------- *)

(* Every function's header, in definition order: name, parameter and
   return types, method group and unit.  Equal headers keep call
   resolution as it was, so an edit can propagate incrementally. *)
let structure (fdecls : Ast.fdecl list) =
  List.map
    (fun (fd : Ast.fdecl) ->
      ( fd.Ast.fname,
        List.map fst fd.Ast.params,
        fd.Ast.ret,
        fd.Ast.group,
        fd.Ast.unit_name ))
    fdecls

let parse_file (name, contents) =
  (name, (Parser.parse_string ~file:name contents).Ast.funcs)

(* ---------- full (re)build ---------- *)

(* A file set's functions as one program, and that program lowered.
   Lowering raises on malformed input, so callers lower before they
   change anything. *)
let lower_all file_fdecls =
  let program = { Ast.funcs = List.concat_map snd file_fdecls } in
  (program, Lower.compile program)

let fdecl_index (program : Ast.program) =
  let fdecl_of = Hashtbl.create 64 in
  List.iter
    (fun (fd : Ast.fdecl) -> Hashtbl.replace fdecl_of fd.Ast.fname fd)
    program.Ast.funcs;
  fdecl_of

(* Both builds share the batch pipeline verbatim (Analysis.prepare), with
   the server's long-lived incident log, pool and store threaded through,
   so a freshly built analysis is the batch analysis of the current files
   by construction. *)
let load ?incident_cap ?pool ?store (files : (string * string) list) : state =
  let file_fdecls = List.map parse_file files in
  let program, prog = lower_all file_fdecls in
  let analysis =
    Analysis.prepare
      ~resilience:(Resilience.create ?capacity:incident_cap ())
      ?pool ?store prog
  in
  {
    analysis;
    files;
    file_fdecls;
    sigs = Lower.func_sigs program;
    groups = Lower.method_groups program;
    fdecl_of = fdecl_index program;
    memos = Hashtbl.create 8;
    epoch = 0;
  }

(* The new file set is lowered before any resident field changes: a
   front-end error leaves the state as it was.  The previous program's
   artifacts are stale (its functions are re-lowered, so their variables
   are fresh objects) and leave the store before the rebuild puts every
   function's again; dead blob bytes are not reclaimed, since RSS
   shedding, not disk, is the server's bound. *)
let full_build st ~files ~file_fdecls =
  let program, prog = lower_all file_fdecls in
  st.files <- files;
  st.file_fdecls <- file_fdecls;
  st.sigs <- Lower.func_sigs program;
  st.groups <- Lower.method_groups program;
  st.fdecl_of <- fdecl_index program;
  let a = st.analysis in
  List.iter
    (fun (f : Func.t) -> Store.remove_fn a.Analysis.store f.Func.fname)
    (Prog.functions a.Analysis.prog);
  st.analysis <-
    Analysis.prepare ~resilience:a.Analysis.resilience ?pool:a.Analysis.pool
      ~store:a.Analysis.store prog;
  Hashtbl.reset st.memos

(* ---------- incremental update ---------- *)

(* Propagate a body edit bottom-up with early cutoff (DESIGN.md §4.13):
   [edited] are the freshly lowered functions whose AST changed.
   Returns the number of functions re-transformed and re-summarised. *)
let propagate st ~lower (edited : Func.t list) =
  let a = st.analysis in
  let prog = a.Analysis.prog and graph = a.Analysis.graph in
  (* Install a re-lowered function: register its variables with the
     store and splice it into the program, where the walk's RV summaries
     read its formals.  The walk drops its old artifacts when it reaches
     its SCC, and nothing reads them before. *)
  let install (f : Func.t) =
    Store.register_fn a.Analysis.store f;
    Hashtbl.replace prog.Prog.by_name f.Func.fname f
  in
  (* Each edited function's predecessor and that one's RV entries, read
     before the store re-registers the name, so they decode against the
     old variables. *)
  let before = Hashtbl.create 16 in
  let old_callees =
    Callgraph.callees graph
      (List.map
         (fun (f : Func.t) -> Option.get (Prog.find prog f.Func.fname))
         edited)
  in
  List.iter
    (fun (f : Func.t) ->
      let name = f.Func.fname in
      Hashtbl.replace before name
        (Option.get (Prog.find prog name), Rv.find a.Analysis.rv name);
      install f)
    edited;
  (* An edited function's SCC, and every SCC the edit made or broke a
     cycle in, is re-transformed whatever its callees do. *)
  let stale = Hashtbl.create 16 in
  List.iter
    (fun name -> Hashtbl.replace stale name ())
    (List.map (fun (f : Func.t) -> f.Func.fname) edited
    @ Callgraph.replace graph edited);
  let roots = Hashtbl.fold (fun name () acc -> name :: acc) stale [] in
  (* Callers re-transformed because a callee's interface changed, and an
     edited function's SCC-mates, are lowered mid-walk, possibly on a
     worker domain.  [install] only rebinds a name [by_name] already
     holds, and the walk reads that name only from the function's own
     SCC and from its callers, which run after it. *)
  let lock = Mutex.create () and later = ref [] in
  let relower (f : Func.t) =
    if Hashtbl.mem before f.Func.fname then f
    else
      Mutex.protect lock (fun () ->
          let f' = lower f (Hashtbl.find st.fdecl_of f.Func.fname) in
          install f';
          later := f' :: !later;
          f')
  in
  (* One walk over the SCCs the edit can reach: those holding an edited
     or moved function or a transitive caller of one, marked once.  The
     walk reads each SCC's members when it starts and builds a
     re-transformed member's SEG from the function [relower] returned;
     fresh SEGs and RV entries go to the store, as in batch prepare. *)
  let swept =
    Analysis.sweep
      ~stale:(List.exists (fun (f : Func.t) -> Hashtbl.mem stale f.Func.fname))
      ~relower ~before a
      (List.map (Callgraph.members graph) (Callgraph.upward graph roots))
  in
  (* A function lowered again from the same AST and header facts makes
     the same calls, so this leaves the SCCs as they were. *)
  if !later <> [] then ignore (Callgraph.replace graph !later);
  let redone = swept.Analysis.redone in
  (* Drop the stored searches the edit may have changed: those that
     visited the SEG of a re-lowered function or of a caller of a
     function whose RV or VF entries changed — a search reads summaries
     only of the callees of the SEGs it visits — and those that read the
     caller list of a re-lowered function's callee, old body or new. *)
  let relowered = List.map (fun (f : Func.t) -> f.Func.fname) redone in
  let segs =
    relowered
    @ List.concat_map
        (fun name ->
          List.map
            (fun ((caller : Func.t), _) -> caller.Func.fname)
            (Callgraph.callers graph name))
        swept.Analysis.summaries_changed
  in
  let callers = old_callees @ Callgraph.callees graph redone in
  Hashtbl.iter
    (fun _ memo ->
      Pinpoint.Engine.invalidate_memo memo ~relowered ~segs ~callers)
    st.memos;
  (List.length redone, swept.Analysis.resummarised)

(* Apply one request's file set.  Parsing and lowering the edited
   functions happen before any state is mutated, so a front-end error
   (raised to the caller) leaves the resident state untouched and the
   next request unaffected.  Callers re-transformed because a callee's
   interface changed are lowered mid-walk, from fdecls and a signature
   table that lowered once already, so that cannot raise. *)
let update_impl (st : state) (changed : (string * string) list) : update_stats
    =
  (* Only a file whose contents differ can hold a changed function. *)
  let edited =
    List.filter (fun (n, c) -> List.assoc_opt n st.files <> Some c) changed
  in
  let edited_parsed = List.map parse_file edited in
  (* Replace known files in load order; unknown files append. *)
  let splice resident updates =
    List.map
      (fun (n, x) ->
        match List.assoc_opt n updates with Some x' -> (n, x') | None -> (n, x))
      resident
    @ List.filter (fun (n, _) -> not (List.mem_assoc n resident)) updates
  in
  let file_fdecls = splice st.file_fdecls edited_parsed in
  let files = splice st.files edited in
  (* A file's resident headers; [] for a file the server has not seen. *)
  let resident_of n = Option.value ~default:[] (List.assoc_opt n st.file_fdecls) in
  let record () =
    st.files <- files;
    st.file_fdecls <- file_fdecls;
    List.iter
      (fun (_, fds) ->
        List.iter
          (fun (fd : Ast.fdecl) -> Hashtbl.replace st.fdecl_of fd.Ast.fname fd)
          fds)
      edited_parsed
  in
  let stats ~changed_funcs ~retransformed ~resummarised ~full_rebuild =
    {
      changed_files = List.length changed;
      changed_funcs;
      retransformed;
      resummarised;
      dirty_cone = retransformed + resummarised;
      full_rebuild;
    }
  in
  if
    List.exists
      (fun (n, fds) -> structure fds <> structure (resident_of n))
      edited_parsed
  then begin
    (* Function set / signatures / order changed: call resolution may
       shift anywhere — rebuild the resident state from scratch. *)
    full_build st ~files ~file_fdecls;
    st.epoch <- st.epoch + 1;
    stats ~changed_funcs:(-1) ~retransformed:(n_functions st) ~resummarised:0
      ~full_rebuild:true
  end
  else begin
    (* Equal headers mean the same functions in the same order, and an
       unedited file keeps its ASTs: a changed function is one of the
       edited files' whose AST, locations included, differs from the
       resident one. *)
    let resident = Hashtbl.create 64 in
    List.iter
      (fun (n, _) ->
        List.iter
          (fun (fd : Ast.fdecl) -> Hashtbl.replace resident fd.Ast.fname fd)
          (resident_of n))
      edited_parsed;
    let seed =
      List.concat_map
        (fun (_, fds) ->
          List.filter
            (fun (fd : Ast.fdecl) -> Hashtbl.find_opt resident fd.Ast.fname <> Some fd)
            fds)
        edited_parsed
    in
    if seed = [] then begin
      record ();
      st.epoch <- st.epoch + 1;
      stats ~changed_funcs:0 ~retransformed:0 ~resummarised:0
        ~full_rebuild:false
    end
    else begin
      (* Equal headers leave the resident signatures and method groups
         as they are, and the functions at their ordinals: a re-lowered
         function keeps the ordinal of the one it replaces. *)
      let lower (was : Func.t) =
        Lower.lower_fdecl ~groups:st.groups ~ordinal:was.Func.ordinal st.sigs
      in
      let was (fd : Ast.fdecl) =
        Option.get (Prog.find st.analysis.Analysis.prog fd.Ast.fname)
      in
      let edited_fns = List.map (fun fd -> lower (was fd) fd) seed in
      (* Mutation phase. *)
      record ();
      let retransformed, resummarised = propagate st ~lower edited_fns in
      st.epoch <- st.epoch + 1;
      stats ~changed_funcs:(List.length seed) ~retransformed ~resummarised
        ~full_rebuild:false
    end
  end

(* Span wrapper: the update lands on the per-request trace slice (the
   server dispatches inside [Obs.with_request]) with its input size as
   an attribute; the cone size only exists afterwards, so the server
   reports it via the [server.dirty_cone] histogram instead. *)
let update (st : state) (changed : (string * string) list) : update_stats =
  Obs.span "incr.update"
    ~attrs:[ ("files", string_of_int (List.length changed)) ]
    (fun () -> update_impl st changed)

(* ---------- checking ---------- *)

let check_impl ?config (st : state) (spec : Pinpoint.Checker_spec.t) :
    Pinpoint.Report.t list * Obs.Snapshot.t =
  let memo =
    match Hashtbl.find_opt st.memos spec.Pinpoint.Checker_spec.name with
    | Some m -> m
    | None ->
      let m = Pinpoint.Engine.create_memo () in
      Hashtbl.replace st.memos spec.Pinpoint.Checker_spec.name m;
      m
  in
  Analysis.check ?config ~memo st.analysis spec

let check ?config (st : state) (spec : Pinpoint.Checker_spec.t) :
    Pinpoint.Report.t list * Obs.Snapshot.t =
  Obs.span "incr.check"
    ~attrs:[ ("checker", spec.Pinpoint.Checker_spec.name) ]
    (fun () -> check_impl ?config st spec)
