open Pinpoint_ir
module E = Pinpoint_smt.Expr
module Solver = Pinpoint_smt.Solver
module Seg = Pinpoint_seg.Seg
module Vf = Pinpoint_summary.Vf
module Rv = Pinpoint_summary.Rv
module Metrics = Pinpoint_util.Metrics
module Resilience = Pinpoint_util.Resilience
module Refine = Pinpoint_pta.Refine
module Obs = Pinpoint_obs.Obs

type config = {
  max_call_depth : int;
  max_expansions : int;
  max_steps : int;
  max_reports_per_source : int;
  check_feasibility : bool;
  use_vf_pruning : bool;
  use_refine : bool;
  deadline : Metrics.deadline;
  solver_budget_s : float;
  solver_conflict_budget : int;
}

let default_config =
  {
    max_call_depth = 6;
    max_expansions = 6;
    max_steps = 20_000;
    max_reports_per_source = 16;
    check_feasibility = true;
    use_vf_pruning = true;
    use_refine = true;
    deadline = Metrics.no_deadline;
    solver_budget_s = infinity;
    solver_conflict_budget = Pinpoint_smt.Sat.default_budget;
  }

type stats = {
  mutable n_sources : int;
  mutable n_candidates : int;
  mutable n_steps : int;
  mutable n_solver_calls : int;
  mutable n_rung_full : int;
  mutable n_rung_halved : int;
  mutable n_rung_linear : int;
  mutable n_rung_gave_up : int;
  mutable n_refine_checks : int;
  mutable n_refine_removed : int;
  mutable n_incidents : int;
  mutable n_reused_sources : int;
}

(* The summed fields of the cross-source merge, as an {!Obs.Agg} fields
   spec: one list drives the merge fold and the registry view
   ([engine.*] counters).  [n_sources]/[n_incidents]/[n_reused_sources]
   are not deltas — they are set once per run — so they join only the
   published view. *)
let merge_fields =
  Obs.Agg.
    [
      field "n_candidates" (fun s -> s.n_candidates)
        (fun s v -> s.n_candidates <- v);
      field "n_steps" (fun s -> s.n_steps) (fun s v -> s.n_steps <- v);
      field "n_solver_calls"
        (fun s -> s.n_solver_calls)
        (fun s v -> s.n_solver_calls <- v);
      field "n_rung_full" (fun s -> s.n_rung_full)
        (fun s v -> s.n_rung_full <- v);
      field "n_rung_halved"
        (fun s -> s.n_rung_halved)
        (fun s v -> s.n_rung_halved <- v);
      field "n_rung_linear"
        (fun s -> s.n_rung_linear)
        (fun s v -> s.n_rung_linear <- v);
      field "n_rung_gave_up"
        (fun s -> s.n_rung_gave_up)
        (fun s v -> s.n_rung_gave_up <- v);
      field "n_refine_checks"
        (fun s -> s.n_refine_checks)
        (fun s v -> s.n_refine_checks <- v);
      field "n_refine_removed"
        (fun s -> s.n_refine_removed)
        (fun s v -> s.n_refine_removed <- v);
    ]

let all_fields =
  merge_fields
  @ Obs.Agg.
      [
        field "n_sources" (fun s -> s.n_sources) (fun s v -> s.n_sources <- v);
        field "n_incidents"
          (fun s -> s.n_incidents)
          (fun s v -> s.n_incidents <- v);
        field "n_reused_sources"
          (fun s -> s.n_reused_sources)
          (fun s v -> s.n_reused_sources <- v);
      ]

(* ---------- resident per-source results (DESIGN.md §4.13) ---------- *)

(* One stored search: its reports before the cross-source dedup, and its
   footprint — every function whose SEG it fetched and every function
   whose caller list it read.  A search that visited a function's SEG
   read only the RV and VF entries of that function's direct callees
   ([Rv.close] closing its constraints, step 3's VF look-up), so the SEG
   footprint also covers every summary the search read: the server drops
   a stored search when a function in it was re-lowered or is a caller of
   a function whose RV or VF entries changed. *)
type memo_entry = {
  stored : Report.t list;
  seg_footprint : string list;
  caller_footprint : string list;
}

type memo_key = string * int * int
(** (function, source sid, source vid) *)

type memo = {
  mutable memo_config : config option;
      (** the config the results were computed under, deadline removed *)
  fn_sources : (string, (Var.t * int) list) Hashtbl.t;
  results : (memo_key, memo_entry) Hashtbl.t;
  by_seg : (string, (memo_key, unit) Hashtbl.t) Hashtbl.t;
      (** footprint index: function -> the stored searches that fetched
          its SEG *)
  by_caller : (string, (memo_key, unit) Hashtbl.t) Hashtbl.t;
      (** function -> the stored searches that read its caller list *)
}

let create_memo () =
  {
    memo_config = None;
    fn_sources = Hashtbl.create 64;
    results = Hashtbl.create 256;
    by_seg = Hashtbl.create 64;
    by_caller = Hashtbl.create 64;
  }

let index_add idx key name =
  match Hashtbl.find_opt idx name with
  | Some keys -> Hashtbl.replace keys key ()
  | None ->
    let keys = Hashtbl.create 4 in
    Hashtbl.replace keys key ();
    Hashtbl.replace idx name keys

let index_remove idx key name =
  match Hashtbl.find_opt idx name with
  | Some keys ->
    Hashtbl.remove keys key;
    if Hashtbl.length keys = 0 then Hashtbl.remove idx name
  | None -> ()

(* A search leaves the memo together with its index entries, so the index
   names only stored searches and cannot outgrow them. *)
let forget m key =
  match Hashtbl.find_opt m.results key with
  | Some e ->
    Hashtbl.remove m.results key;
    List.iter (index_remove m.by_seg key) e.seg_footprint;
    List.iter (index_remove m.by_caller key) e.caller_footprint
  | None -> ()

let remember m key e =
  forget m key;
  Hashtbl.replace m.results key e;
  List.iter (index_add m.by_seg key) e.seg_footprint;
  List.iter (index_add m.by_caller key) e.caller_footprint

let invalidate_memo m ~relowered ~segs ~callers =
  List.iter (Hashtbl.remove m.fn_sources) relowered;
  let drop idx name =
    Option.iter
      (fun keys ->
        List.iter (forget m) (Hashtbl.fold (fun k () acc -> k :: acc) keys []))
      (Hashtbl.find_opt idx name)
  in
  List.iter (drop m.by_seg) segs;
  List.iter (drop m.by_caller) callers

let memo_sizes m =
  let pairs idx = Hashtbl.fold (fun _ keys n -> n + Hashtbl.length keys) idx 0 in
  [
    ("sources", Hashtbl.length m.fn_sources);
    ("searches", Hashtbl.length m.results);
    ("index", pairs m.by_seg + pairs m.by_caller);
  ]

type search_ctx = {
  seg_of : string -> Seg.t option;
  rv : Rv.t;
  vf : Vf.t;
  spec : Checker_spec.t;
  callers : string -> (Func.t * Stmt.t) list;
  cfg : config;
  stats : stats;
  resilience : Resilience.log option;
  cond : Vpath.Cond.t option;
      (** incremental path-condition builder, threaded through [dfs]
          (present iff [check_feasibility]) *)
  mutable reports : Report.t list;
  mutable found_for_source : int;
  mutable steps_this_source : int;
  seen : (string * int * int, unit) Hashtbl.t;  (** (fname, vid, ctx hash) *)
  dedup : (string * int * string * int, unit) Hashtbl.t;
}

let loc_of_sid ctx fname sid =
  match ctx.seg_of fname with
  | None -> Stmt.no_loc
  | Some seg -> (
    match Func.find_stmt (Seg.func seg) sid with
    | Some (_, s) -> s.Stmt.loc
    | None -> Stmt.no_loc)

let emit ctx (path : Vpath.t) =
  ctx.stats.n_candidates <- ctx.stats.n_candidates + 1;
  match Vpath.source_sink path with
  | Some (sf, ss), Some (kf, ks) ->
    let source_loc = loc_of_sid ctx sf ss and sink_loc = loc_of_sid ctx kf ks in
    let dk = (sf, source_loc.Stmt.line, kf, sink_loc.Stmt.line) in
    if not (Hashtbl.mem ctx.dedup dk) then begin
      Hashtbl.add ctx.dedup dk ();
      let cond, verdict, hints, rung =
        if ctx.cfg.check_feasibility then begin
          let cond =
            match ctx.cond with
            | Some b -> Vpath.Cond.formula b
            | None -> Vpath.condition ~seg_of:ctx.seg_of ~rv:ctx.rv path
          in
          ctx.stats.n_solver_calls <- ctx.stats.n_solver_calls + 1;
          let subject =
            Printf.sprintf "%s:%d -> %s:%d" sf source_loc.Stmt.line kf
              sink_loc.Stmt.line
          in
          (* The ladder never raises: a crashed/timed-out query steps down
             until a rung answers, so one pathological path condition
             cannot take the checker run down with it. *)
          let count_rung rung =
            match rung with
            | Solver.Rung_full ->
              ctx.stats.n_rung_full <- ctx.stats.n_rung_full + 1
            | Solver.Rung_halved ->
              ctx.stats.n_rung_halved <- ctx.stats.n_rung_halved + 1
            | Solver.Rung_linear ->
              ctx.stats.n_rung_linear <- ctx.stats.n_rung_linear + 1
            | Solver.Rung_gave_up ->
              ctx.stats.n_rung_gave_up <- ctx.stats.n_rung_gave_up + 1
          in
          let v, model, rung =
            Solver.check_degrading ~budget_s:ctx.cfg.solver_budget_s
              ~conflict_budget:ctx.cfg.solver_conflict_budget
              ~deadline:ctx.cfg.deadline ?log:ctx.resilience ~subject cond
          in
          count_rung rung;
          match v with
          | Solver.Sat -> (
            (* Demand-driven refinement (DESIGN.md §4.17): the Sat
               verdict may be a false positive of the solver's weak
               nonlinear theory.  Derive the linear facts the path's
               definitions entail over true integer semantics and
               re-check the strengthened condition; Unsat downgrades
               the report to infeasible. *)
            let facts =
              if ctx.cfg.use_refine then Refine.facts cond else []
            in
            match facts with
            | [] -> (cond, Report.Feasible, model, Some rung)
            | _ -> (
              ctx.stats.n_refine_checks <- ctx.stats.n_refine_checks + 1;
              ctx.stats.n_solver_calls <- ctx.stats.n_solver_calls + 1;
              let v2, _, rung2 =
                Solver.check_degrading ~budget_s:ctx.cfg.solver_budget_s
                  ~conflict_budget:ctx.cfg.solver_conflict_budget
                  ~deadline:ctx.cfg.deadline ?log:ctx.resilience
                  ~subject:(subject ^ " [refine]")
                  (E.conj_balanced (cond :: facts))
              in
              count_rung rung2;
              match v2 with
              | Solver.Unsat ->
                ctx.stats.n_refine_removed <-
                  ctx.stats.n_refine_removed + 1;
                (cond, Report.Infeasible, [], Some rung2)
              | Solver.Sat | Solver.Unknown ->
                (cond, Report.Feasible, model, Some rung)))
          | Solver.Unknown -> (cond, Report.Feasible_unknown, [], Some rung)
          | Solver.Unsat -> (cond, Report.Infeasible, [], Some rung)
        end
        else (E.tru, Report.Feasible_unknown, [], None)
      in
      let r =
        {
          Report.checker = ctx.spec.Checker_spec.name;
          source_fn = sf;
          source_loc;
          sink_fn = kf;
          sink_loc;
          path;
          cond;
          verdict;
          hints;
          rung;
        }
      in
      ctx.reports <- r :: ctx.reports;
      if Report.is_reported r then
        ctx.found_for_source <- ctx.found_for_source + 1
    end
  | _ -> ()

exception Stop_search

let ctx_hash (stack : (string * Stmt.t) list) (expansions : int) =
  List.fold_left
    (fun acc (_, (s : Stmt.t)) -> (acc * 8191) + s.Stmt.sid + 1)
    expansions stack

(* Bracket one node's exploration with the condition builder: extend by
   the hop that leads here, run the continuation, restore the checkpoint
   on the way out (also on Stop_search/Timeout — the whole builder is
   abandoned with the source anyway, restoring first is harmless). *)
let extend_cond ctx hop k =
  match ctx.cond with
  | None -> k ()
  | Some b ->
    let cp = Vpath.Cond.checkpoint b in
    Vpath.Cond.extend b hop;
    Fun.protect ~finally:(fun () -> Vpath.Cond.restore b cp) k

(* DFS from (fname, var).  [stack] holds the call sites we descended
   through and [depth] its length (tracked, not recomputed); [expansions]
   counts bottom-up caller crossings; [anchor] is the statement (in the
   current function) after which the buggy value exists — uses that cannot
   execute after it are ignored; [hop] is the hop that leads to this node
   and [rpath] the reversed hop list before it. *)
let rec dfs ctx ~fname ~(var : Var.t) ~stack ~depth ~expansions ~anchor
    ~src_fn ~src_sid ~hop rpath =
  Metrics.check ctx.cfg.deadline;
  ctx.stats.n_steps <- ctx.stats.n_steps + 1;
  ctx.steps_this_source <- ctx.steps_this_source + 1;
  if ctx.steps_this_source > ctx.cfg.max_steps then raise Stop_search;
  if ctx.found_for_source >= ctx.cfg.max_reports_per_source then raise Stop_search;
  let key =
    ( fname,
      var.Var.vid,
      (ctx_hash stack expansions * 31) + Option.value anchor ~default:(-1) + 1 )
  in
  if not (Hashtbl.mem ctx.seen key) then begin
    Hashtbl.add ctx.seen key ();
    match ctx.seg_of fname with
    | None -> ()
    | Some seg ->
      extend_cond ctx hop @@ fun () ->
      let rpath = hop :: rpath in
      let f = Seg.func seg in
      let after_anchor sid =
        match anchor with
        | Some a -> Func.reaches f a sid
        | None -> true
      in
      (* The use list feeds sink detection, callee descent and return
         flow alike — fetch it once. *)
      let uses = Seg.uses_of seg var in
      (* 1. sinks at this variable *)
      List.iter
        (fun (u : Seg.use) ->
          if ctx.spec.Checker_spec.is_sink seg u then begin
            let same_stmt = fname = src_fn && u.Seg.sid = src_sid in
            if
              after_anchor u.Seg.sid
              && not (same_stmt && ctx.spec.Checker_spec.exclude_same_sid)
            then begin
              let sink_hop = Vpath.Hsink { fname; var; sid = u.Seg.sid } in
              extend_cond ctx sink_hop @@ fun () ->
              emit ctx (List.rev (sink_hop :: rpath))
            end
          end)
        uses;
      (* 2. intra-procedural value flow *)
      List.iter
        (fun (e : Seg.edge) ->
          let follow =
            match e.Seg.kind with
            | Seg.Copy -> true
            | Seg.Operand -> ctx.spec.Checker_spec.follow_operands
          in
          if follow then
            dfs ctx ~fname ~var:e.Seg.dst ~stack ~depth ~expansions ~anchor
              ~src_fn ~src_sid
              ~hop:
                (Vpath.Hflow
                   {
                     fname;
                     src = var;
                     dst = e.Seg.dst;
                     cond = e.Seg.cond;
                     kind = e.Seg.kind;
                   })
              rpath)
        (Seg.succs seg var);
      (* 3. descend into callees on demand (VF1 / VF4) *)
      if depth < ctx.cfg.max_call_depth then
        List.iter
          (fun (u : Seg.use) ->
            match u.Seg.ukind with
            | Seg.Call_arg { callee; arg_index } -> (
              match ctx.seg_of callee with
              | Some callee_seg ->
                (* Without pruning, or without the callee's VF entry (its
                   summary crashed, or the run has no table), every
                   defined callee is searched. *)
                let i1 = arg_index + 1 in
                let wanted =
                  (not ctx.cfg.use_vf_pruning)
                  ||
                  match Vf.find ctx.vf callee with
                  | None -> true
                  | Some vfsum ->
                    List.exists (fun (i, _) -> i = i1) vfsum.Vf.vf1
                    || List.mem i1 vfsum.Vf.vf4
                in
                if wanted && after_anchor u.Seg.sid then begin
                  match Func.find_stmt f u.Seg.sid with
                  | Some (_, ({ Stmt.kind = Stmt.Call c; _ } as cs)) -> (
                    match
                      List.nth_opt (Seg.func callee_seg).Func.params arg_index
                    with
                    | Some param ->
                      dfs ctx ~fname:callee ~var:param
                        ~stack:((fname, cs) :: stack)
                        ~depth:(depth + 1) ~expansions ~anchor:None ~src_fn
                        ~src_sid
                        ~hop:
                          (Vpath.Hcall
                             {
                               caller = fname;
                               call_sid = u.Seg.sid;
                               callee;
                               arg_index;
                               param;
                               args = c.Stmt.args;
                             })
                        rpath
                    | None -> ())
                  | _ -> ()
                end
              | None -> ())
            | _ -> ())
          uses;
      (* 4. flow out through the return *)
      List.iter
        (fun (u : Seg.use) ->
          match u.Seg.ukind with
          | Seg.Ret_op j when after_anchor u.Seg.sid -> (
            match stack with
            | (caller, cs) :: rest -> (
              match cs.Stmt.kind with
              | Stmt.Call c -> (
                match List.nth_opt c.Stmt.recvs j with
                | Some recv ->
                  dfs ctx ~fname:caller ~var:recv ~stack:rest
                    ~depth:(depth - 1) ~expansions ~anchor:(Some cs.Stmt.sid)
                    ~src_fn ~src_sid
                    ~hop:
                      (Vpath.Hret
                         {
                           callee = fname;
                           ret_var = var;
                           ret_index = j;
                           caller;
                           call_sid = cs.Stmt.sid;
                           recv;
                           args = c.Stmt.args;
                           popped = true;
                         })
                    rpath
                | None -> ())
              | _ -> ())
            | [] ->
              if expansions < ctx.cfg.max_expansions then
                List.iter
                  (fun ((caller_f : Func.t), (cs : Stmt.t)) ->
                    match cs.Stmt.kind with
                    | Stmt.Call c -> (
                      match List.nth_opt c.Stmt.recvs j with
                      | Some recv ->
                        dfs ctx ~fname:caller_f.Func.fname ~var:recv ~stack:[]
                          ~depth:0 ~expansions:(expansions + 1)
                          ~anchor:(Some cs.Stmt.sid) ~src_fn ~src_sid
                          ~hop:
                            (Vpath.Hret
                               {
                                 callee = fname;
                                 ret_var = var;
                                 ret_index = j;
                                 caller = caller_f.Func.fname;
                                 call_sid = cs.Stmt.sid;
                                 recv;
                                 args = c.Stmt.args;
                                 popped = false;
                               })
                          rpath
                      | None -> ())
                    | _ -> ())
                  (ctx.callers fname))
          | _ -> ())
        uses;
      (* 5. the buggy value rode in through a parameter (VF3 direction):
         when the context is unknown, it also lives in every caller's
         actual after the corresponding call. *)
      if stack = [] && expansions < ctx.cfg.max_expansions then begin
        let param_index =
          let rec idx i = function
            | [] -> -1
            | p :: rest -> if Var.equal p var then i else idx (i + 1) rest
          in
          idx 0 f.Func.params
        in
        if param_index >= 0 then
          List.iter
            (fun ((caller_f : Func.t), (cs : Stmt.t)) ->
              match cs.Stmt.kind with
              | Stmt.Call c -> (
                match List.nth_opt c.Stmt.args param_index with
                | Some (Stmt.Ovar actual) ->
                  dfs ctx ~fname:caller_f.Func.fname ~var:actual ~stack:[]
                    ~depth:0 ~expansions:(expansions + 1)
                    ~anchor:(Some cs.Stmt.sid) ~src_fn ~src_sid
                    ~hop:
                      (Vpath.Hparam_up
                         {
                           callee = fname;
                           param = var;
                           caller = caller_f.Func.fname;
                           call_sid = cs.Stmt.sid;
                           actual;
                           args = c.Stmt.args;
                         })
                    rpath
                | _ -> ())
              | _ -> ())
            (ctx.callers fname)
      end
  end

let zero_stats () =
  {
    n_sources = 0;
    n_candidates = 0;
    n_steps = 0;
    n_solver_calls = 0;
    n_rung_full = 0;
    n_rung_halved = 0;
    n_rung_linear = 0;
    n_rung_gave_up = 0;
    n_refine_checks = 0;
    n_refine_removed = 0;
    n_incidents = 0;
    n_reused_sources = 0;
  }

let run ?(config = default_config) ?resilience ?pool ?memo ~graph ~seg_of ~rv
    ~vf (spec : Checker_spec.t) : Report.t list * stats =
  let incidents_before =
    match resilience with Some l -> Resilience.count l | None -> 0
  in
  (* Without a VF table (a checker the sweep did not summarise) the engine
     descends into every defined callee — slower but soundy. *)
  let config, vf =
    match vf with
    | Some vf -> (config, vf)
    | None -> ({ config with use_vf_pruning = false }, Vf.empty ())
  in
  (* A resident memo holds results computed under one config: a run under
     another (deadline aside, which only decides whether a search is
     stored) starts it afresh.  Fault-injected runs neither read nor fill
     it — their results reflect the injected faults, not the program. *)
  let memo = if Resilience.Inject.enabled () then None else memo in
  Option.iter
    (fun m ->
      let key = Some { config with deadline = Metrics.no_deadline } in
      if m.memo_config <> key then begin
        Hashtbl.reset m.results;
        Hashtbl.reset m.by_seg;
        Hashtbl.reset m.by_caller;
        m.memo_config <- key
      end)
    memo;
  (* Enumerate sources up front, in program order — this order, not task
     completion order, decides the final report list, cross-source
     deduplication and stats totals, so the output is identical at every
     [--jobs] level. *)
  let sources_of (f : Func.t) =
    (* Sources are read off the IR; only a function that has some is
       asked for its SEG, and one without a SEG contributes none. *)
    let enumerate () =
      match spec.Checker_spec.sources f with
      | [] -> []
      | srcs -> if Option.is_some (seg_of f.Func.fname) then srcs else []
    in
    match memo with
    | None -> enumerate ()
    | Some m -> (
      match Hashtbl.find_opt m.fn_sources f.Func.fname with
      | Some srcs -> srcs
      | None ->
        let srcs = enumerate () in
        Hashtbl.replace m.fn_sources f.Func.fname srcs;
        srcs)
  in
  let sources =
    List.concat_map
      (fun (f : Func.t) ->
        List.map (fun ((v : Var.t), sid) -> (f, v, sid)) (sources_of f))
      (Callgraph.functions graph)
  in
  let src_arr = Array.of_list sources in
  let memo_key ((f : Func.t), (v : Var.t), sid) = (f.Func.fname, sid, v.Var.vid) in
  let hits =
    Array.map
      (fun s ->
        match memo with
        | Some m -> Hashtbl.find_opt m.results (memo_key s)
        | None -> None)
      src_arr
  in
  let misses =
    Array.of_list (List.filteri (fun i _ -> Option.is_none hits.(i)) sources)
  in
  (* One task per source, with a task-local context: searches from
     different sources never share search state, so they can run on any
     domain in any order.  With a memo the task also records its
     footprint, through the SEG accessor it hands to the search and to the
     condition builder and through [callers]. *)
  let run_source ((f : Func.t), (v : Var.t), sid) =
    let subject = Printf.sprintf "%s:%d" f.Func.fname sid in
    Obs.span "engine.source"
      ~attrs:
        [ ("source", subject); ("checker", spec.Checker_spec.name) ]
    @@ fun () ->
    let segs_read = Hashtbl.create 16 and callers_read = Hashtbl.create 4 in
    let seg_of, callers =
      let callers_of = Callgraph.callers graph in
      match memo with
      | None -> (seg_of, callers_of)
      | Some _ ->
        ( (fun name ->
            Hashtbl.replace segs_read name ();
            seg_of name),
          fun name ->
            Hashtbl.replace callers_read name ();
            callers_of name )
    in
    let cond =
      if config.check_feasibility then Some (Vpath.Cond.create ~seg_of ~rv ())
      else None
    in
    let ctx =
      {
        seg_of;
        rv;
        vf;
        spec;
        callers;
        cfg = config;
        stats = zero_stats ();
        resilience;
        cond;
        reports = [];
        found_for_source = 0;
        steps_this_source = 0;
        seen = Hashtbl.create 1024;
        dedup = Hashtbl.create 16;
      }
    in
    let completed = ref false in
    (* The per-source injection stream is keyed by the source site (not by
       global query order), so the same seed sabotages the same queries at
       every [--jobs] level.  Per-source barrier: a crash while searching
       from one source records an incident and moves on; the reports
       already emitted survive. *)
    Resilience.Inject.with_solver_stream subject (fun () ->
        Resilience.protect ?log:resilience ~phase:Resilience.Engine_source
          ~subject ~fallback_note:"source abandoned; prior reports kept"
          ~fallback:()
          (fun () ->
            try
              dfs ctx ~fname:f.Func.fname ~var:v ~stack:[] ~depth:0
                ~expansions:0 ~anchor:(Some sid) ~src_fn:f.Func.fname
                ~src_sid:sid
                ~hop:(Vpath.Hsource { fname = f.Func.fname; var = v; sid })
                [];
              completed := true
            with
            | Stop_search -> completed := true
            | Metrics.Timeout -> ()));
    let reports = List.rev ctx.reports in
    (* Only a search that ran to its own end on full-strength verdicts is
       worth replaying: a timed-out, crashed or degraded one reflects this
       request's conditions, not the program. *)
    let entry =
      if
        Option.is_some memo && !completed
        && ctx.stats.n_rung_halved + ctx.stats.n_rung_linear
           + ctx.stats.n_rung_gave_up
           = 0
      then
        let keys tbl = Hashtbl.fold (fun k () acc -> k :: acc) tbl [] in
        Some
          {
            stored = reports;
            seg_footprint = keys segs_read;
            caller_footprint = keys callers_read;
          }
      else None
    in
    (reports, ctx.stats, entry)
  in
  let results =
    match pool with
    | Some pool when Pinpoint_par.Pool.jobs pool > 1 ->
      (* Chunked fan-out (DESIGN.md §4.15): sources from one chunk share a
         pool task.  Each source still gets its own context, barrier and
         injection stream, and the merge below is positional, so chunking
         is invisible to reports and stats. *)
      Pinpoint_par.Chunk.parallel_map pool run_source misses
    | _ -> Array.map (fun s -> Some (run_source s)) misses
  in
  (* Deterministic merge, in source-enumeration order, over stored and
     fresh searches alike.  Cross-source duplicate suppression happens
     here (task contexts are independent): the first source to produce a
     (source line, sink line) key keeps its report, later ones are dropped
     — the order sequential search would have kept them in.  A replayed
     search adds its reports and nothing to the work counters. *)
  let stats = zero_stats () in
  let dedup = Hashtbl.create 64 in
  let reports = ref [] in
  let add_reports rs =
    List.iter
      (fun (r : Report.t) ->
        let dk =
          ( r.Report.source_fn,
            r.Report.source_loc.Stmt.line,
            r.Report.sink_fn,
            r.Report.sink_loc.Stmt.line )
        in
        if not (Hashtbl.mem dedup dk) then begin
          Hashtbl.add dedup dk ();
          reports := r :: !reports
        end)
      rs
  in
  let next_miss = ref 0 in
  Array.iteri
    (fun i hit ->
      match hit with
      | Some e ->
        stats.n_reused_sources <- stats.n_reused_sources + 1;
        add_reports e.stored
      | None -> (
        let r = results.(!next_miss) in
        incr next_miss;
        match r with
        | None -> () (* task lost to a pool-level fault; incident logged *)
        | Some (rs, (st : stats), entry) ->
          Obs.Agg.add_into merge_fields ~into:stats st;
          (match (memo, entry) with
          | Some m, Some e -> remember m (memo_key src_arr.(i)) e
          | _ -> ());
          add_reports rs))
    hits;
  stats.n_sources <- Array.length src_arr;
  stats.n_incidents <-
    (match resilience with
    | Some l -> Resilience.count l - incidents_before
    | None -> 0);
  (* The run's result record, published as [engine.*] registry counters
     so [--metrics-json] and the server's rolling window see it. *)
  Obs.Agg.publish ~prefix:"engine." all_fields stats;
  (List.rev !reports, stats)
