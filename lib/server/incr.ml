(* Resident analysis state with incremental re-analysis (DESIGN.md §4.13).

   The server keeps one subject loaded: source files, their parsed ASTs,
   the compiled (and transformed, in-place) program, its call graph, the
   per-function SEG / RV tables and per-checker VF tables.  A request
   replaces some files; the functions whose bodies actually changed are
   re-lowered, and the edit propagates bottom-up by artifact kind with an
   early cutoff: a caller sees a callee only through its connector
   interface and its RV and VF entries, so a caller is redone only when
   one of those came out different.

   - The transform walk re-transforms an SCC (re-lowering every member)
     when a member's body changed, when its SCC differs from the one in
     the graph before the edit, or when a callee outside it changed its
     interface shape.  Every other SCC keeps its transformed IR, PTA and
     SEG.
   - The sweep rebuilds the re-transformed SCCs' SEGs and summaries,
     re-summarises an SCC from its retained SEGs when a callee outside it
     changed its RV or VF entries, and skips the rest.

   Both walks decide from callee marks only, and callees finish first, so
   the frontier is the same at every [--jobs], store on or off.  A kept
   entry equals what a from-scratch run computes modulo fresh ids, which
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
module Seg = Pinpoint_seg.Seg
module Transform = Pinpoint_transform.Transform
module Rv = Pinpoint_summary.Rv
module Vf = Pinpoint_summary.Vf
module Store = Pinpoint_store.Store

type state = {
  resilience : Resilience.log;
  pool : Pinpoint_par.Pool.t option;
  store : Store.t option;
      (** disk-resident artifact store: per-function PTAs, SEGs and RV
          summaries live here instead of the resident tables; never
          sealed while serving, so incremental updates keep appending *)
  mutable files : (string * string) list;  (** (name, contents), load order *)
  mutable file_fdecls : (string * Ast.fdecl list) list;  (** same order *)
  mutable sigs : (string, Ty_sig.t) Hashtbl.t;
  mutable groups : (string, string list) Hashtbl.t;
      (** the header facts lowering reads: signatures and method groups,
          built by a full build and kept while headers stay equal *)
  mutable fdecl_of : (string, Ast.fdecl) Hashtbl.t;
      (** each function's current AST *)
  mutable prog : Prog.t;
      (** its [by_name] table holds the current functions; its function
          list is refreshed from [graph] only when {!program} is read *)
  mutable graph : Callgraph.t;  (** [prog]'s, patched by each update *)
  mutable transform : Transform.result;
  mutable segs : (string, Seg.t) Hashtbl.t;
  mutable rv : Rv.t;
  mutable vfs : (string, Pinpoint.Checker_spec.t * Vf.t) Hashtbl.t;
      (** resident VF tables by checker name, one per registered checker:
          built by the load's sweep and refreshed by each update's *)
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

let program st =
  st.prog.Prog.funcs <- Callgraph.functions st.graph;
  st.prog

let graph st = st.graph
let resilience st = st.resilience
let n_functions st = List.length (Prog.functions st.prog)

let table_sizes st =
  [
    ("files", List.length st.files);
    ("fdecls", Hashtbl.length st.fdecl_of);
    ("sigs", Hashtbl.length st.sigs);
    ("groups", Hashtbl.length st.groups);
    ("ifaces", Hashtbl.length st.transform.Transform.ifaces);
    ("ptas", Hashtbl.length st.transform.Transform.ptas);
    ("segs", Hashtbl.length st.segs);
    ("rv", Rv.n_resident st.rv);
  ]
  @ Hashtbl.fold
      (fun name (_, vf) acc ->
        ("vf." ^ name, Vf.fold vf ~init:0 ~f:(fun n _ _ -> n + 1)) :: acc)
      st.vfs []
  @ Hashtbl.fold
      (fun name memo acc ->
        List.map
          (fun (k, n) -> (Printf.sprintf "memo.%s.%s" name k, n))
          (Pinpoint.Engine.memo_sizes memo)
        @ acc)
      st.memos []
  |> List.sort compare

let seg_of st =
  match st.store with
  | Some store -> Store.seg_of store
  | None -> Hashtbl.find_opt st.segs

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

(* Shares the batch pipeline verbatim (Analysis.prepare), with the
   server's long-lived incident log threaded through, so a freshly
   rebuilt state is the batch analysis of the current files by
   construction.  The new file set is lowered before any resident field
   changes: a front-end error leaves the state as it was. *)
let full_build st ~files ~file_fdecls =
  let program = { Ast.funcs = List.concat_map snd file_fdecls } in
  let prog = Lower.compile program in
  st.files <- files;
  st.file_fdecls <- file_fdecls;
  st.sigs <- Lower.func_sigs program;
  st.groups <- Lower.method_groups program;
  st.fdecl_of <- Hashtbl.create 64;
  List.iter
    (fun (fd : Ast.fdecl) -> Hashtbl.replace st.fdecl_of fd.Ast.fname fd)
    program.Ast.funcs;
  (* Store mode: the previous program's artifacts are stale (functions
     were re-lowered, so their variables are fresh objects) — drop them
     before the rebuild re-spills everything.  Dead blob bytes are not
     reclaimed; RSS shedding, not disk, is the server's bound. *)
  Option.iter
    (fun store ->
      List.iter
        (fun (f : Func.t) -> Store.remove_fn store f.Func.fname)
        (Prog.functions st.prog);
      Store.drop_resident store)
    st.store;
  let a =
    Pinpoint.Analysis.prepare ~resilience:st.resilience ?pool:st.pool
      ?store:st.store prog
  in
  st.prog <- a.Pinpoint.Analysis.prog;
  st.graph <- a.Pinpoint.Analysis.graph;
  st.transform <- a.Pinpoint.Analysis.transform;
  st.segs <- a.Pinpoint.Analysis.segs;
  st.rv <- a.Pinpoint.Analysis.rv;
  st.vfs <- a.Pinpoint.Analysis.vfs;
  Hashtbl.reset st.memos

let load ?incident_cap ?pool ?store (files : (string * string) list) : state =
  let resilience =
    match incident_cap with
    | Some c -> Resilience.create ~capacity:c ()
    | None -> Resilience.create ()
  in
  let file_fdecls = List.map parse_file files in
  let st =
    {
      resilience;
      pool;
      store;
      files;
      file_fdecls;
      sigs = Hashtbl.create 0;
      groups = Hashtbl.create 0;
      fdecl_of = Hashtbl.create 0;
      prog = Prog.create ();
      graph = Callgraph.build (Prog.create ());
      transform = { Transform.ifaces = Hashtbl.create 0; ptas = Hashtbl.create 0 };
      segs = Hashtbl.create 0;
      rv = Rv.create (Prog.create ());
      vfs = Hashtbl.create 0;
      memos = Hashtbl.create 8;
      epoch = 0;
    }
  in
  full_build st ~files ~file_fdecls;
  st

(* ---------- incremental update ---------- *)

(* Propagate a body edit bottom-up with early cutoff (DESIGN.md §4.13):
   [edited] are the freshly lowered functions whose AST changed.
   Returns the number of functions re-transformed and re-summarised. *)
let propagate st ~lower (edited : Func.t list) =
  (* Install a re-lowered function: remember the function it replaces
     and that one's RV entries (read before the store re-registers the
     name, so they decode against the old variables), drop its stored
     artifacts and splice it into the program. *)
  let before = Hashtbl.create 16 in
  let install (f : Func.t) =
    let name = f.Func.fname in
    Hashtbl.replace before name
      (Option.get (Prog.find st.prog name), Rv.find st.rv name);
    Option.iter
      (fun store ->
        Store.remove_fn store name;
        Store.register_fn store f)
      st.store;
    Hashtbl.replace st.prog.Prog.by_name name f
  in
  let old_callees =
    Callgraph.callees st.graph
      (List.map
         (fun (f : Func.t) -> Option.get (Prog.find st.prog f.Func.fname))
         edited)
  in
  List.iter install edited;
  (* An edited function's SCC, and every SCC the edit made or broke a
     cycle in, is re-transformed whatever its callees do. *)
  let stale = Hashtbl.create 16 in
  List.iter
    (fun name -> Hashtbl.replace stale name ())
    (List.map (fun (f : Func.t) -> f.Func.fname) edited
    @ Callgraph.replace st.graph edited);
  let roots = Hashtbl.fold (fun name () acc -> name :: acc) stale [] in
  (* Callers re-transformed because a callee's interface changed are
     lowered mid-walk, possibly on a worker domain. *)
  let lock = Mutex.create () and later = ref [] in
  let relower (f : Func.t) =
    Mutex.protect lock (fun () ->
        if Hashtbl.mem before f.Func.fname then f
        else begin
          let f' = lower (Hashtbl.find st.fdecl_of f.Func.fname) in
          install f';
          later := f' :: !later;
          f'
        end)
  in
  (* The transform walk, then the sweep, both over the SCCs the edit can
     reach: those holding an edited or moved function or a transitive
     caller of one, marked once.  Each walk reads the members when it
     starts, so the sweep sees the callers lowered mid-walk.  Store mode:
     fresh PTAs, SEGs and RV entries go back to the store, just like
     batch prepare. *)
  let cone = Callgraph.upward st.graph roots in
  let sccs () = List.map (Callgraph.members st.graph) cone in
  let redone =
    Transform.update ~resilience:st.resilience ?pool:st.pool
      ?pta_sink:(Option.map Store.put_pta st.store)
      st.transform st.graph
      ~stale:(List.exists (fun (f : Func.t) -> Hashtbl.mem stale f.Func.fname))
      ~relower (sccs ())
  in
  (* A function lowered again from the same AST and header facts makes
     the same calls, so this leaves the SCCs, and [cone], as they were. *)
  if !later <> [] then ignore (Callgraph.replace st.graph !later);
  let swept =
    Pinpoint.Analysis.sweep ~resilience:st.resilience ?pool:st.pool
      ?store:st.store st.graph st.transform ~segs:st.segs st.rv
      ~vfs:st.vfs ~retransformed:before (sccs ())
  in
  (* Drop the stored searches the edit may have changed: those that
     visited the SEG of a re-lowered function or of a caller of a
     function whose RV or VF entries changed — a search reads summaries
     only of the callees of the SEGs it visits — and those that read the
     caller list of a re-lowered function's callee, old body or new. *)
  let relowered = Hashtbl.fold (fun name _ acc -> name :: acc) before [] in
  let segs =
    relowered
    @ List.concat_map
        (fun name ->
          List.map
            (fun ((caller : Func.t), _) -> caller.Func.fname)
            (Callgraph.callers st.graph name))
        swept.Pinpoint.Analysis.summaries_changed
  in
  let callers = old_callees @ Callgraph.callees st.graph redone in
  Hashtbl.iter
    (fun _ memo ->
      Pinpoint.Engine.invalidate_memo memo ~relowered ~segs ~callers)
    st.memos;
  (List.length redone, swept.Pinpoint.Analysis.resummarised)

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
         as they are. *)
      let lower fd = Lower.lower_fdecl ~groups:st.groups st.sigs fd in
      let edited_fns = List.map lower seed in
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
    Pinpoint.Report.t list * Pinpoint.Engine.stats =
  let vf =
    Option.map snd (Hashtbl.find_opt st.vfs spec.Pinpoint.Checker_spec.name)
  in
  let memo =
    match Hashtbl.find_opt st.memos spec.Pinpoint.Checker_spec.name with
    | Some m -> m
    | None ->
      let m = Pinpoint.Engine.create_memo () in
      Hashtbl.replace st.memos spec.Pinpoint.Checker_spec.name m;
      m
  in
  Pinpoint.Engine.run ?config ~resilience:st.resilience ?pool:st.pool ~memo
    ~graph:st.graph ~seg_of:(seg_of st) ~rv:st.rv ~vf spec

let check ?config (st : state) (spec : Pinpoint.Checker_spec.t) :
    Pinpoint.Report.t list * Pinpoint.Engine.stats =
  Obs.span "incr.check"
    ~attrs:[ ("checker", spec.Pinpoint.Checker_spec.name) ]
    (fun () -> check_impl ?config st spec)
