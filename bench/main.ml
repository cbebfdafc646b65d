(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §3 for the experiment index).

   Usage:
     dune exec bench/main.exe                 # run everything
     dune exec bench/main.exe -- fig7         # one experiment
     dune exec bench/main.exe -- micro        # Bechamel micro-benchmarks

   Experiments: fig7 fig8 fig9 fig10 table1 table2 table3 juliet
   solverstats ablation leaks resilience par smt obs serve micro. *)

module Metrics = Pinpoint_util.Metrics
module Subjects = Pinpoint_workload.Subjects
module Gen = Pinpoint_workload.Gen
module Truth = Pinpoint_workload.Truth
module Pp = Pinpoint_util.Pp

let fsvfg_budget = 5.0 (* seconds; stands in for the paper's 12h timeout *)
let check_budget = 30.0

let str fmt = Format.asprintf fmt
let pp_dur = Metrics.pp_duration
let pp_bytes = Metrics.pp_bytes

(* ------------------------------------------------------------------ *)
(* Per-subject measurements, computed once and shared by the figures. *)

type row = {
  info : Subjects.info;
  loc : int;
  (* Pinpoint side *)
  seg_time : float;
  seg_alloc : float;
  seg_vertices : int;
  seg_edges : int;
  pp_check_time : float;
  pp_check_alloc : float;
  pp_uaf_score : Truth.score;
  (* layered baseline side *)
  fsvfg_time : float;
  fsvfg_alloc : float;
  fsvfg_timeout : bool;
  fsvfg_edges : int;
  svf_check_time : float;
  svf_check_alloc : float;
  svf_uaf_score : Truth.score;
  svf_n_reports : int;
  (* unit-confined baselines *)
  infer_time : float;
  infer_score : Truth.score;
  csa_time : float;
  csa_score : Truth.score;
}

let dedup_sources keys =
  List.sort_uniq compare (List.map (fun (s, _) -> (s, 0)) keys)

let pinpoint_keys reports =
  List.filter_map
    (fun (r : Pinpoint.Report.t) ->
      if Pinpoint.Report.is_reported r then
        Some
          ( r.source_loc.Pinpoint_ir.Stmt.line,
            r.sink_loc.Pinpoint_ir.Stmt.line )
      else None)
    reports

let measure_subject (info : Subjects.info) : row =
  let subject = Subjects.generate info in
  (* --- Pinpoint pipeline --- *)
  let prog = Gen.compile subject in
  let analysis, prep_m = Metrics.measure (fun () -> Pinpoint.Analysis.prepare prog) in
  let seg_vertices, seg_edges = Pinpoint.Analysis.seg_size analysis in
  let cfg =
    {
      Pinpoint.Engine.default_config with
      deadline = Metrics.deadline_after check_budget;
    }
  in
  let reports, check_m =
    Metrics.measure (fun () ->
        fst (Pinpoint.Analysis.check ~config:cfg analysis Pinpoint.Checkers.use_after_free))
  in
  let pp_keys = dedup_sources (pinpoint_keys reports) in
  let pp_uaf_score = Truth.classify ~kind:"use-after-free" subject.truth pp_keys in
  (* --- layered baseline --- *)
  let prog2 = Gen.compile subject in
  let svf, fsvfg_m =
    Metrics.measure (fun () ->
        Pinpoint_baselines.Svf.build
          ~deadline:(Metrics.deadline_after fsvfg_budget)
          prog2)
  in
  let svf_stats = Pinpoint_baselines.Svf.stats svf in
  let svf_reports, svf_check_m =
    Metrics.measure (fun () ->
        Pinpoint_baselines.Svf.check_uaf
          ~deadline:(Metrics.deadline_after fsvfg_budget)
          svf)
  in
  let svf_keys =
    List.map
      (fun (r : Pinpoint_baselines.Svf.report) ->
        (r.source_loc.Pinpoint_ir.Stmt.line, r.sink_loc.Pinpoint_ir.Stmt.line))
      svf_reports
  in
  let svf_uaf_score = Truth.classify ~kind:"use-after-free" subject.truth svf_keys in
  (* --- unit-confined baselines --- *)
  let prog3 = Gen.compile subject in
  let infer_reports, infer_m =
    Metrics.measure (fun () -> Pinpoint_baselines.Infer_like.check_uaf prog3)
  in
  let infer_keys =
    List.map
      (fun (r : Pinpoint_baselines.Infer_like.report) ->
        (r.source_loc.Pinpoint_ir.Stmt.line, r.sink_loc.Pinpoint_ir.Stmt.line))
      infer_reports
  in
  let csa_reports, csa_m =
    Metrics.measure (fun () -> Pinpoint_baselines.Csa_like.check_uaf prog3)
  in
  let csa_keys =
    List.map
      (fun (r : Pinpoint_baselines.Csa_like.report) ->
        (r.source_loc.Pinpoint_ir.Stmt.line, r.sink_loc.Pinpoint_ir.Stmt.line))
      csa_reports
  in
  {
    info;
    loc = subject.loc;
    seg_time = prep_m.Metrics.wall_s;
    seg_alloc = prep_m.Metrics.alloc_bytes;
    seg_vertices;
    seg_edges;
    pp_check_time = check_m.Metrics.wall_s;
    pp_check_alloc = check_m.Metrics.alloc_bytes;
    pp_uaf_score;
    fsvfg_time = fsvfg_m.Metrics.wall_s;
    fsvfg_alloc = fsvfg_m.Metrics.alloc_bytes;
    fsvfg_timeout = svf_stats.Pinpoint_baselines.Svf.timed_out;
    fsvfg_edges =
      svf_stats.Pinpoint_baselines.Svf.n_direct_edges
      + svf_stats.Pinpoint_baselines.Svf.n_indirect_edges;
    svf_check_time = svf_check_m.Metrics.wall_s;
    svf_check_alloc = svf_check_m.Metrics.alloc_bytes;
    svf_uaf_score;
    svf_n_reports = List.length svf_reports;
    infer_time = infer_m.Metrics.wall_s;
    infer_score = Truth.classify ~kind:"use-after-free" subject.truth infer_keys;
    csa_time = csa_m.Metrics.wall_s;
    csa_score = Truth.classify ~kind:"use-after-free" subject.truth csa_keys;
  }

let rows_cache : row list option ref = ref None

let rows () =
  match !rows_cache with
  | Some r -> r
  | None ->
    Format.printf "measuring %d subjects...@." (List.length Subjects.all);
    let r =
      List.map
        (fun info ->
          Format.printf "  %-14s (%6d LoC)...@?" info.Subjects.name
            info.params.Gen.target_loc;
          let row = measure_subject info in
          Format.printf " seg %a | fsvfg %a%s@." pp_dur row.seg_time pp_dur
            row.fsvfg_time
            (if row.fsvfg_timeout then " TIMEOUT" else "");
          row)
        Subjects.all
    in
    rows_cache := Some r;
    r

(* ------------------------------------------------------------------ *)
(* Figures 7-9 *)

let fig7 () =
  Format.printf "@.== Figure 7: time to build SEG vs FSVFG ==@.";
  Format.printf
    "(subjects ordered by size; the paper reports FSVFG timeouts beyond 135@.";
  Format.printf
    " KLoC and SEG up to >400x faster; sizes here are scaled ~100x down)@.@.";
  let rows = rows () in
  let table_rows =
    List.mapi
      (fun i r ->
        [
          string_of_int (i + 1);
          r.info.Subjects.name;
          string_of_int r.loc;
          str "%a" pp_dur r.seg_time;
          (if r.fsvfg_timeout then str ">%.0fs TIMEOUT" fsvfg_budget
           else str "%a" pp_dur r.fsvfg_time);
          (if r.seg_time > 0.0 then str "%.1fx" (r.fsvfg_time /. r.seg_time)
           else "-");
        ])
      rows
  in
  Pp.table
    ~header:[ "#"; "subject"; "LoC"; "SEG build"; "FSVFG build"; "ratio" ]
    ~rows:table_rows Format.std_formatter ()

let fig8 () =
  Format.printf "@.== Figure 8: memory to build SEG vs FSVFG ==@.";
  Format.printf "(allocation bytes as the memory proxy, DESIGN.md)@.@.";
  let rows = rows () in
  let table_rows =
    List.mapi
      (fun i r ->
        [
          string_of_int (i + 1);
          r.info.Subjects.name;
          string_of_int r.loc;
          str "%a" pp_bytes r.seg_alloc;
          str "%a%s" pp_bytes r.fsvfg_alloc
            (if r.fsvfg_timeout then " (timeout)" else "");
          (if r.seg_alloc > 0.0 then str "%.1fx" (r.fsvfg_alloc /. r.seg_alloc)
           else "-");
        ])
      rows
  in
  Pp.table
    ~header:[ "#"; "subject"; "LoC"; "SEG mem"; "FSVFG mem"; "ratio" ]
    ~rows:table_rows Format.std_formatter ()

let fig9 () =
  Format.printf "@.== Figure 9: end-to-end checker memory (SEG- vs FSVFG-based) ==@.@.";
  let rows = rows () in
  let table_rows =
    List.mapi
      (fun i r ->
        [
          string_of_int (i + 1);
          r.info.Subjects.name;
          string_of_int r.loc;
          str "%a" pp_bytes (r.seg_alloc +. r.pp_check_alloc);
          str "%a%s" pp_bytes
            (r.fsvfg_alloc +. r.svf_check_alloc)
            (if r.fsvfg_timeout then " (FSVFG timeout)" else "");
        ])
      rows
  in
  Pp.table
    ~header:
      [ "#"; "subject"; "LoC"; "Pinpoint (build+check)"; "SVF (build+check)" ]
    ~rows:table_rows Format.std_formatter ()

let fig10 () =
  Format.printf "@.== Figure 10: scalability curve fit ==@.";
  Format.printf
    "(paper: Pinpoint's time and memory grow almost linearly, R^2 > 0.9)@.@.";
  let rows = rows () in
  let tpoints =
    Array.of_list
      (List.map
         (fun r -> (float_of_int r.loc, r.seg_time +. r.pp_check_time))
         rows)
  in
  let mpoints =
    Array.of_list
      (List.map
         (fun r -> (float_of_int r.loc, r.seg_alloc +. r.pp_check_alloc))
         rows)
  in
  let tf = Pinpoint_util.Fit.linear tpoints in
  let mf = Pinpoint_util.Fit.linear mpoints in
  Format.printf "time   vs LoC: slope %.3e s/LoC,  R^2 = %.3f %s@." tf.slope
    tf.r2
    (if tf.r2 > 0.9 then "(matches the paper: > 0.9)" else "(paper expects > 0.9)");
  Format.printf "memory vs LoC: slope %.3e B/LoC,  R^2 = %.3f %s@." mf.slope
    mf.r2
    (if mf.r2 > 0.9 then "(matches the paper: > 0.9)" else "(paper expects > 0.9)");
  (* FSVFG comparison fit on the subjects it finished *)
  let fin = List.filter (fun r -> not r.fsvfg_timeout) rows in
  if List.length fin >= 3 then begin
    let fpoints =
      Array.of_list (List.map (fun r -> (float_of_int r.loc, r.fsvfg_time)) fin)
    in
    let ff = Pinpoint_util.Fit.power fpoints in
    Format.printf
      "FSVFG  vs LoC: best power fit exponent %.2f (super-linear blow-up), R^2 = %.3f@."
      ff.slope ff.r2
  end

(* ------------------------------------------------------------------ *)
(* Table 1 *)

let table1 () =
  Format.printf "@.== Table 1: use-after-free checkers (Pinpoint vs SVF) ==@.";
  Format.printf
    "(report counts are distinct source sites; ground truth is planted, so@.";
  Format.printf
    " FP classification is mechanical instead of developer confirmation)@.@.";
  let rows = rows () in
  let trow (r : row) =
    let s = r.pp_uaf_score in
    let fp_rate =
      if s.Truth.n_reports = 0 then "0"
      else str "%.1f%%" (100.0 *. Truth.fp_rate s)
    in
    [
      r.info.Subjects.name;
      string_of_int r.loc;
      string_of_int s.Truth.n_fp;
      string_of_int s.Truth.n_reports;
      fp_rate;
      str "%d/%d" s.Truth.n_found s.Truth.n_real_planted;
      string_of_int r.svf_n_reports;
      (if r.svf_n_reports = 0 then "0"
       else str "%.1f%%" (100.0 *. Truth.fp_rate r.svf_uaf_score));
    ]
  in
  Pp.table
    ~header:
      [
        "subject"; "LoC"; "PP #FP"; "PP #Rep"; "PP FP rate"; "PP recall";
        "SVF #Rep"; "SVF FP rate";
      ]
    ~rows:(List.map trow rows) Format.std_formatter ();
  (* overall *)
  let tot_fp = List.fold_left (fun a r -> a + r.pp_uaf_score.Truth.n_fp) 0 rows in
  let tot_rep =
    List.fold_left (fun a r -> a + r.pp_uaf_score.Truth.n_reports) 0 rows
  in
  let tot_svf = List.fold_left (fun a r -> a + r.svf_n_reports) 0 rows in
  Format.printf
    "overall: Pinpoint %d reports, %d FP (%.1f%%; paper: 14.3%%); SVF %d reports (%.0fx more; paper: ~1000x)@."
    tot_rep tot_fp
    (if tot_rep = 0 then 0.0 else 100.0 *. float_of_int tot_fp /. float_of_int tot_rep)
    tot_svf
    (if tot_rep = 0 then 0.0 else float_of_int tot_svf /. float_of_int tot_rep)

(* ------------------------------------------------------------------ *)
(* Table 2: taint checkers on the mysql-class subject *)

let table2 () =
  Format.printf "@.== Table 2: SEG-based taint analysis on the 2MLoC-class subject ==@.@.";
  let info =
    match Subjects.find "mysql" with Some i -> i | None -> assert false
  in
  let subject = Subjects.generate info in
  let prog = Gen.compile subject in
  let analysis, prep_m = Metrics.measure (fun () -> Pinpoint.Analysis.prepare prog) in
  let run (spec : Pinpoint.Checker_spec.t) =
    let reports, m =
      Metrics.measure (fun () -> fst (Pinpoint.Analysis.check analysis spec))
    in
    let keys = dedup_sources (pinpoint_keys reports) in
    let score = Truth.classify ~kind:spec.Pinpoint.Checker_spec.name subject.truth keys in
    [
      spec.Pinpoint.Checker_spec.name;
      str "%a" pp_bytes (prep_m.Metrics.alloc_bytes +. m.Metrics.alloc_bytes);
      str "%a" pp_dur (prep_m.Metrics.wall_s +. m.Metrics.wall_s);
      str "%d/%d" score.Truth.n_fp score.Truth.n_reports;
      str "%d/%d" score.Truth.n_found score.Truth.n_real_planted;
    ]
  in
  Pp.table
    ~header:[ "checker"; "memory"; "time"; "#FP/#Reports"; "recall" ]
    ~rows:
      [
        run Pinpoint.Checkers.path_traversal;
        run Pinpoint.Checkers.data_transmission;
      ]
    Format.std_formatter ();
  Format.printf "(paper: 11/56 and 24/92 on MySQL; 23.6%% overall taint FP rate)@."

(* ------------------------------------------------------------------ *)
(* Table 3 *)

let table3 () =
  Format.printf "@.== Table 3: Infer-like and CSA-like baselines ==@.@.";
  let rows =
    List.filter (fun r -> r.info.Subjects.category = Subjects.Open_source) (rows ())
  in
  let trow r =
    [
      r.info.Subjects.name;
      string_of_int r.loc;
      str "%a" pp_dur r.infer_time;
      str "%d/%d" r.infer_score.Truth.n_fp r.infer_score.Truth.n_reports;
      str "%a" pp_dur r.csa_time;
      str "%d/%d" r.csa_score.Truth.n_fp r.csa_score.Truth.n_reports;
    ]
  in
  Pp.table
    ~header:[ "subject"; "LoC"; "Infer time"; "Infer #FP/#Rep"; "CSA time"; "CSA #FP/#Rep" ]
    ~rows:(List.map trow rows) Format.std_formatter ();
  let tot f = List.fold_left (fun a r -> a + f r) 0 rows in
  Format.printf
    "totals: Infer %d/%d FP, CSA %d/%d FP (paper: 35/35 and 24/26)@."
    (tot (fun r -> r.infer_score.Truth.n_fp))
    (tot (fun r -> r.infer_score.Truth.n_reports))
    (tot (fun r -> r.csa_score.Truth.n_fp))
    (tot (fun r -> r.csa_score.Truth.n_reports))

(* ------------------------------------------------------------------ *)
(* Juliet recall *)

let juliet () =
  Format.printf "@.== Juliet-like suite: recall (paper §5.1.2) ==@.@.";
  let cases = Pinpoint_workload.Juliet.cases () in
  let found = ref 0 and missed = ref [] in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (c : Pinpoint_workload.Juliet.case) ->
      let prog = Pinpoint_workload.Juliet.compile c in
      let analysis = Pinpoint.Analysis.prepare prog in
      let spec =
        match Pinpoint.Checkers.by_name c.kind with
        | Some s -> s
        | None -> assert false
      in
      let reports, _ = Pinpoint.Analysis.check analysis spec in
      let keys = pinpoint_keys reports in
      let score = Truth.classify ~kind:c.kind c.truth keys in
      if score.Truth.n_found >= 1 then incr found else missed := c.id :: !missed)
    cases;
  Format.printf "detected %d / %d cases (%d flaw types) in %a@." !found
    (List.length cases) Pinpoint_workload.Juliet.flaw_types pp_dur
    (Unix.gettimeofday () -. t0);
  List.iter (fun id -> Format.printf "  MISSED %s@." id) !missed;
  Format.printf "(paper: all 1421 of 1421 detected)@."

(* ------------------------------------------------------------------ *)
(* Solver statistics (§3.1.1 claims) *)

let solverstats () =
  Format.printf "@.== Solver statistics (paper §3.1.1) ==@.@.";
  Pinpoint_smt.Linear_solver.reset_stats ();
  Pinpoint_pta.Pta.reset_stats ();
  Pinpoint_smt.Solver.reset_stats ();
  let info = match Subjects.find "mysql" with Some i -> i | None -> assert false in
  let subject = Subjects.generate info in
  let prog = Gen.compile subject in
  let analysis = Pinpoint.Analysis.prepare prog in
  List.iter
    (fun spec -> ignore (Pinpoint.Analysis.check analysis spec))
    Pinpoint.Checkers.all;
  let checks, easy_unsat = Pinpoint_smt.Linear_solver.stats () in
  let kept, pruned = Pinpoint_pta.Pta.stats_sat_conditions () in
  Format.printf "linear-time solver: %d checks, %d found trivially UNSAT@."
    checks easy_unsat;
  Format.printf
    "points-to stage:    %d conditions kept (apparently satisfiable), %d pruned => %.0f%% satisfiable (paper: ~70%%)@."
    kept pruned
    (100.0 *. float_of_int kept /. float_of_int (max 1 (kept + pruned)));
  let s = Pinpoint_smt.Solver.stats () in
  Format.printf
    "full solver (bug stage): %d queries (%d sat, %d unsat, %d unknown), %d theory calls@."
    s.Pinpoint_smt.Solver.n_queries s.n_sat s.n_unsat s.n_unknown s.n_theory_calls

(* ------------------------------------------------------------------ *)
(* Memory-leak checker (extension experiment): planted conditional leaks
   on the 2MLoC-class subject. *)

let leaks () =
  Format.printf "@.== Memory-leak checker (extension; Fastcheck/Saber-style) ==@.@.";
  let info = match Subjects.find "mysql" with Some i -> i | None -> assert false in
  let subject = Subjects.generate info in
  let prog = Gen.compile subject in
  let analysis = Pinpoint.Analysis.prepare prog in
  let reports, m =
    Metrics.measure (fun () ->
        Pinpoint.Leak.check analysis.Pinpoint.Analysis.prog
          ~seg_of:(Pinpoint.Analysis.seg_of analysis)
          ~rv:analysis.Pinpoint.Analysis.rv)
  in
  let keys =
    List.map (fun (r : Pinpoint.Leak.report) -> (r.alloc_loc.Pinpoint_ir.Stmt.line, 0)) reports
    |> List.sort_uniq compare
  in
  let score = Truth.classify ~kind:"memory-leak" subject.truth keys in
  Format.printf
    "subject %s (%d LoC): %d allocation(s) reported in %a; planted conditional leaks found: %d/%d@."
    subject.Gen.name subject.Gen.loc (List.length keys) pp_dur m.Metrics.wall_s
    score.Truth.n_found score.Truth.n_real_planted;
  Format.printf
    "(the remaining reports are the filler's genuinely unfreed local mallocs —@.";
  Format.printf
    " real leaks by construction, not false positives; spot-check a few:)@.";
  List.iteri
    (fun i r -> if i < 5 then Format.printf "  %a" Pinpoint.Leak.pp r)
    reports

(* ------------------------------------------------------------------ *)
(* Ablation: the design choices DESIGN.md calls out, toggled one at a
   time on the 2MLoC-class subject. *)

let ablation () =
  Format.printf "@.== Ablation: Pinpoint's design choices, one at a time ==@.@.";
  let info = match Subjects.find "mysql" with Some i -> i | None -> assert false in
  let subject = Subjects.generate info in
  let uaf_score analysis cfg =
    let reports, m =
      Metrics.measure (fun () ->
          fst (Pinpoint.Analysis.check ~config:cfg analysis Pinpoint.Checkers.use_after_free))
    in
    let keys = dedup_sources (pinpoint_keys reports) in
    (Truth.classify ~kind:"use-after-free" subject.truth keys, m)
  in
  let base_cfg = Pinpoint.Engine.default_config in
  let row name (cfg : Pinpoint.Engine.config) ~quasi =
    Pinpoint_pta.Pta.quasi_pruning := quasi;
    Pinpoint_pta.Pta.reset_stats ();
    let prog = Gen.compile subject in
    let analysis, prep_m = Metrics.measure (fun () -> Pinpoint.Analysis.prepare prog) in
    let score, check_m = uaf_score analysis cfg in
    let kept, pruned = Pinpoint_pta.Pta.stats_sat_conditions () in
    Pinpoint_pta.Pta.quasi_pruning := true;
    [
      name;
      str "%a" pp_dur (prep_m.Metrics.wall_s +. check_m.Metrics.wall_s);
      str "%a" pp_bytes (prep_m.Metrics.alloc_bytes +. check_m.Metrics.alloc_bytes);
      string_of_int score.Truth.n_reports;
      string_of_int score.Truth.n_fp;
      str "%d/%d" score.Truth.n_found score.Truth.n_real_planted;
      str "%d/%d" pruned (kept + pruned);
    ]
  in
  let rows =
    [
      row "full Pinpoint" base_cfg ~quasi:true;
      row "no quasi-PS pruning (§3.1.1)" base_cfg ~quasi:false;
      row "no SMT feasibility (§3.3)"
        { base_cfg with check_feasibility = false }
        ~quasi:true;
      row "no VF-summary pruning (§3.3.1)"
        { base_cfg with use_vf_pruning = false }
        ~quasi:true;
      row "context depth 2 (vs 6)"
        { base_cfg with max_call_depth = 2; max_expansions = 2 }
        ~quasi:true;
    ]
  in
  Pp.table
    ~header:
      [ "configuration"; "time"; "alloc"; "#Rep"; "#FP"; "recall"; "pruned conds" ]
    ~rows Format.std_formatter ();
  Format.printf
    "(expected: disabling the SMT stage floods FPs; disabling quasi pruning keeps@.";
  Format.printf
    " infeasible conditions alive; shallow contexts lose deep-call bugs)@."

(* ------------------------------------------------------------------ *)
(* Resilience: seeded solver-fault injection on the 2MLoC-class subject.
   Sweeps the sabotage rate to show that every run completes, that the
   degradation ladder absorbs the faults (rung counters), and that the
   incident log accounts for them.  Reports can only be lost to degraded
   Unsat verdicts, which are real refutations on every rung. *)

let resilience () =
  Format.printf "@.== Resilience: seeded solver-fault injection ==@.@.";
  let info =
    match Subjects.find "mysql" with Some i -> i | None -> assert false
  in
  let subject = Subjects.generate info in
  let cfg = { Pinpoint.Engine.default_config with solver_budget_s = 0.05 } in
  let run rate =
    if rate > 0.0 then
      Pinpoint_util.Resilience.Inject.(
        install { default with seed = 11; solver_fault_rate = rate })
    else Pinpoint_util.Resilience.Inject.clear ();
    let prog = Gen.compile subject in
    let analysis = Pinpoint.Analysis.prepare prog in
    let (reports, stats), m =
      Metrics.measure (fun () ->
          Pinpoint.Analysis.check ~config:cfg analysis
            Pinpoint.Checkers.use_after_free)
    in
    Pinpoint_util.Resilience.Inject.clear ();
    ( reports,
      stats,
      Pinpoint_util.Resilience.count analysis.Pinpoint.Analysis.resilience,
      m )
  in
  let baseline = ref [] in
  let rows =
    List.map
      (fun rate ->
        let reports, stats, n_inc, m = run rate in
        let reported = List.filter Pinpoint.Report.is_reported reports in
        let keys =
          List.sort_uniq compare (List.map Pinpoint.Report.key reported)
        in
        if rate = 0.0 then baseline := keys;
        let lost =
          List.filter (fun k -> not (List.mem k keys)) !baseline
        in
        [
          str "%.0f%%" (rate *. 100.0);
          string_of_int (List.length reported);
          string_of_int (List.length lost);
          string_of_int stats.Pinpoint.Engine.n_rung_full;
          string_of_int stats.Pinpoint.Engine.n_rung_halved;
          string_of_int stats.Pinpoint.Engine.n_rung_linear;
          string_of_int stats.Pinpoint.Engine.n_rung_gave_up;
          string_of_int n_inc;
          str "%a" pp_dur m.Metrics.wall_s;
        ])
      [ 0.0; 0.1; 0.2; 0.5 ]
  in
  Pp.table
    ~header:
      [
        "fault rate"; "#Rep"; "lost"; "full"; "halved"; "linear"; "gave-up";
        "incidents"; "check time";
      ]
    ~rows Format.std_formatter ();
  Format.printf
    "(use-after-free on the 2MLoC-class subject; seed 11, 50ms query budget.@.";
  Format.printf
    " Unsat is correct on every rung, so lost reports can only come from@.";
  Format.printf
    " degraded refutations — the report count never collapses.)@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure family. *)

let micro () =
  Format.printf "@.== Bechamel micro-benchmarks ==@.@.";
  let open Bechamel in
  let open Toolkit in
  let subject =
    Gen.generate ~name:"micro.mc"
      { Gen.default_params with seed = 5; target_loc = 800 }
  in
  let test_seg =
    Test.make ~name:"fig7_seg_build"
      (Staged.stage (fun () ->
           let prog = Gen.compile subject in
           ignore (Pinpoint.Analysis.prepare prog)))
  in
  let test_fsvfg =
    Test.make ~name:"fig7_fsvfg_build"
      (Staged.stage (fun () ->
           let prog = Gen.compile subject in
           ignore (Pinpoint_baselines.Svf.build prog)))
  in
  let analysis = Pinpoint.Analysis.prepare (Gen.compile subject) in
  let test_check =
    Test.make ~name:"table1_uaf_check"
      (Staged.stage (fun () ->
           ignore (Pinpoint.Analysis.check analysis Pinpoint.Checkers.use_after_free)))
  in
  let test_taint =
    Test.make ~name:"table2_taint_check"
      (Staged.stage (fun () ->
           ignore (Pinpoint.Analysis.check analysis Pinpoint.Checkers.path_traversal)))
  in
  let prog3 = Gen.compile subject in
  let test_infer =
    Test.make ~name:"table3_infer_like"
      (Staged.stage (fun () -> ignore (Pinpoint_baselines.Infer_like.check_uaf prog3)))
  in
  let test_csa =
    Test.make ~name:"table3_csa_like"
      (Staged.stage (fun () -> ignore (Pinpoint_baselines.Csa_like.check_uaf prog3)))
  in
  let seg_bar =
    match Pinpoint.Analysis.seg_of analysis "shared_get" with
    | Some seg -> seg
    | None -> invalid_arg "micro: missing shared_get"
  in
  let ret_var =
    match Pinpoint_ir.Func.return_stmt (Pinpoint_seg.Seg.func seg_bar) with
    | Some { Pinpoint_ir.Stmt.kind = Pinpoint_ir.Stmt.Return (Pinpoint_ir.Stmt.Ovar v :: _); _ } -> v
    | _ -> invalid_arg "micro: no return"
  in
  let test_pc_query =
    Test.make ~name:"fig10_pc_query"
      (Staged.stage (fun () -> ignore (Pinpoint_seg.Seg.dd seg_bar ret_var)))
  in
  let pc_formula =
    (Pinpoint_seg.Seg.dd seg_bar ret_var).Pinpoint_seg.Seg.f
  in
  let test_smt =
    Test.make ~name:"fig10_smt_solve"
      (Staged.stage (fun () -> ignore (Pinpoint_smt.Solver.check pc_formula)))
  in
  let case = List.hd (Pinpoint_workload.Juliet.cases ()) in
  let test_juliet =
    Test.make ~name:"juliet_one_case"
      (Staged.stage (fun () ->
           let prog = Pinpoint_workload.Juliet.compile case in
           let a = Pinpoint.Analysis.prepare prog in
           ignore (Pinpoint.Analysis.check a Pinpoint.Checkers.use_after_free)))
  in
  let tests =
    Test.make_grouped ~name:"pinpoint"
      [
        test_seg; test_fsvfg; test_check; test_taint; test_infer; test_csa;
        test_juliet; test_pc_query; test_smt;
      ]
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    let raw_results = Benchmark.all cfg instances tests in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw_results) instances
    in
    let results = Analyze.merge ols instances results in
    results
  in
  let results = benchmark () in
  Hashtbl.iter
    (fun _metric tbl ->
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] ->
            Format.printf "%-28s %a/run@." name pp_dur (est *. 1e-9)
          | _ -> Format.printf "%-28s (no estimate)@." name)
        tbl)
    results

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Parallel runtime: --jobs sweep over the domain pool (DESIGN.md §4.9).
   Measures prepare (transform + SEG + RV on SCC waves) and the UAF check
   (per-source fan-out) at 1/2/4/8 domains, verifies the report keys are
   identical at every level, and dumps machine-readable results to
   BENCH_par.json.  Speedups are only expected when the host has spare
   cores — on a 1-core container the sweep honestly measures the
   oversubscription overhead instead. *)

type par_run = {
  pr_jobs : int;
  pr_chunk : int;  (* representative prepare-fan-out chunk size; 0 = n/a *)
  pr_prep_s : float;
  pr_transform_s : float;  (* transform + PTA phase wall time *)
  pr_pta_busy_s : float;  (* busy seconds inside Pta.run, summed over domains *)
  pr_seg_s : float;
  pr_summary_s : float;
  pr_check_s : float;
}

let par () =
  Format.printf "@.== Parallel runtime: domain pool + SCC waves ==@.@.";
  let n_cores = Domain.recommended_domain_count () in
  Format.printf "host: %d recommended domain(s)%s@.@." n_cores
    (if n_cores = 1 then
       " — 1-core container; --jobs is capped at the core count, so every \
        level runs the same capped pool and the sweep verifies determinism \
        and flat overhead rather than speedup"
     else "");
  (* Keep the previous file's numbers (sans their own "previous") so the
     regenerated BENCH_par.json shows the before/after trajectory. *)
  let previous =
    match
      let ic = open_in "BENCH_par.json" in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception _ -> None
    | s -> (
      match Pinpoint_server.Json.parse s with
      | Ok (Pinpoint_server.Json.Obj fields) ->
        Some
          (Pinpoint_server.Json.to_string
             (Pinpoint_server.Json.Obj
                (List.filter (fun (k, _) -> k <> "previous") fields)))
      | _ -> None)
  in
  let jobs_levels = [ 1; 2; 4; 8 ] in
  let measure_one name =
    let info =
      match Subjects.find name with Some i -> i | None -> assert false
    in
    let subject = Subjects.generate info in
    let runs =
      List.map
        (fun jobs ->
          (* the transform rewrites the program in place: recompile per run *)
          let prog = Gen.compile subject in
          let n_funcs = List.length (Pinpoint_ir.Prog.functions prog) in
          let eff = Pinpoint_par.Pool.effective_jobs jobs in
          let chunk =
            if eff <= 1 then 0
            else
              let plan = Pinpoint_par.Chunk.plan ~jobs:eff n_funcs in
              (n_funcs + List.length plan - 1) / max 1 (List.length plan)
          in
          let run pool =
            Pinpoint_pta.Pta.reset_cumulative_wall ();
            let analysis, prep_m =
              Metrics.measure (fun () -> Pinpoint.Analysis.prepare ?pool prog)
            in
            let pta_busy = Pinpoint_pta.Pta.cumulative_wall_s () in
            let m = analysis.Pinpoint.Analysis.metrics in
            let reports, check_m =
              Metrics.measure (fun () ->
                  fst
                    (Pinpoint.Analysis.check analysis
                       Pinpoint.Checkers.use_after_free))
            in
            ( {
                pr_jobs = jobs;
                pr_chunk = chunk;
                pr_prep_s = prep_m.Metrics.wall_s;
                pr_transform_s = m.Pinpoint.Analysis.transform.Metrics.wall_s;
                pr_pta_busy_s = pta_busy;
                pr_seg_s = m.Pinpoint.Analysis.seg_build.Metrics.wall_s;
                pr_summary_s = m.Pinpoint.Analysis.summaries.Metrics.wall_s;
                pr_check_s = check_m.Metrics.wall_s;
              },
              List.sort_uniq compare
                (List.map Pinpoint.Report.key
                   (List.filter Pinpoint.Report.is_reported reports)) )
          in
          if eff <= 1 then run None
          else Pinpoint_par.Pool.with_pool ~jobs:eff (fun p -> run (Some p)))
        jobs_levels
    in
    let identical =
      match runs with
      | (_, k1) :: rest ->
        List.for_all
          (fun (r, k) ->
            if k <> k1 then
              Format.printf "  !! %s: reports at jobs=%d differ from jobs=1@."
                name r.pr_jobs;
            k = k1)
          rest
      | [] -> true
    in
    (name, subject.Gen.loc, List.map fst runs, identical)
  in
  let results = List.map measure_one [ "vortex"; "mysql" ] in
  let total r = r.pr_prep_s +. r.pr_check_s in
  List.iter
    (fun (name, loc, runs, identical) ->
      Format.printf "%s (%d LoC): reports %s across jobs levels@." name loc
        (if identical then "identical" else "DIFFER");
      let base = match runs with r :: _ -> total r | [] -> 0.0 in
      let rows =
        List.map
          (fun r ->
            [
              string_of_int r.pr_jobs;
              (if r.pr_chunk = 0 then "-" else string_of_int r.pr_chunk);
              str "%a" pp_dur r.pr_prep_s;
              str "%a" pp_dur r.pr_transform_s;
              str "%a" pp_dur r.pr_pta_busy_s;
              str "%a" pp_dur r.pr_seg_s;
              str "%a" pp_dur r.pr_summary_s;
              str "%a" pp_dur r.pr_check_s;
              str "%a" pp_dur (total r);
              str "%.2fx" (if total r > 0.0 then base /. total r else 1.0);
            ])
          runs
      in
      Pp.table
        ~header:
          [
            "jobs"; "chunk"; "prepare"; "transform"; "pta busy"; "seg";
            "summary"; "check"; "total"; "speedup";
          ]
        ~rows Format.std_formatter ();
      Format.printf
        "  (transform includes PTA; pta busy sums across domains, so it can \
         exceed the phase wall time at jobs > 1)@.@.")
    results;
  (* machine-readable dump; hand-rolled JSON (no JSON dependency) *)
  let oc = open_out "BENCH_par.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"experiment\": \"par\",\n  \"cores\": %d,\n  \"subjects\": [\n"
    n_cores;
  List.iteri
    (fun i (name, loc, runs, identical) ->
      let base = match runs with r :: _ -> total r | [] -> 0.0 in
      out "    {\"name\": %S, \"loc\": %d, \"reports_identical\": %b, \"runs\": [\n"
        name loc identical;
      List.iteri
        (fun j r ->
          out
            "      {\"jobs\": %d, \"chunk_size\": %d, \"prepare_s\": %.6f, \
             \"transform_s\": %.6f, \"pta_busy_s\": %.6f, \"seg_s\": %.6f, \
             \"summary_s\": %.6f, \"check_s\": %.6f, \"total_s\": %.6f, \
             \"speedup\": %.3f}%s\n"
            r.pr_jobs r.pr_chunk r.pr_prep_s r.pr_transform_s r.pr_pta_busy_s
            r.pr_seg_s r.pr_summary_s r.pr_check_s (total r)
            (if total r > 0.0 then base /. total r else 1.0)
            (if j = List.length runs - 1 then "" else ","))
        runs;
      out "    ]}%s\n" (if i = List.length results - 1 then "" else ","))
    results;
  out "  ]%s\n"
    (match previous with
    | Some _ -> ","
    | None -> "");
  (match previous with
  | Some p -> out "  \"previous\": %s\n" p
  | None -> ());
  out "}\n";
  close_out oc;
  Format.printf "(wrote BENCH_par.json)@."

(* ------------------------------------------------------------------ *)
(* SAT core ablation (DESIGN.md §4.12): CDCL vs the reference
   chronological DPLL (Sat_ref), on generated hard random 3-CNF near the
   satisfiability phase transition, where a non-learning solver's search
   tree blows up.  Dumps BENCH_smt.json. *)

type smt_core_run = {
  sc_verdict : string;
  sc_wall : float;
  sc_counts : Pinpoint_smt.Sat.counts;
}

let smt () =
  Format.printf "@.== SAT core ablation: CDCL vs reference DPLL ==@.@.";
  let module Sat = Pinpoint_smt.Sat in
  let module Sat_ref = Pinpoint_smt.Sat_ref in
  let module Prng = Pinpoint_util.Prng in
  (* --- hard random 3-CNF at clause/variable ratio 4.26 --- *)
  let gen_cnf ~seed ~n_vars =
    let rng = Prng.create seed in
    let n_clauses = int_of_float (4.26 *. float_of_int n_vars) in
    List.init n_clauses (fun _ ->
        let rec draw acc n =
          if n = 0 then acc
          else begin
            let v = Prng.in_range rng 1 n_vars in
            if List.exists (fun l -> abs l = v) acc then draw acc n
            else draw ((if Prng.bool rng then v else -v) :: acc) (n - 1)
          end
        in
        draw [] 3)
  in
  (* generous conflict cap so the reference core terminates even when its
     chronological search degenerates *)
  let budget = 2_000_000 in
  let timed solve counts =
    let verdict, m = Metrics.measure solve in
    { sc_verdict = verdict; sc_wall = m.Metrics.wall_s; sc_counts = counts () }
  in
  let solve_cdcl clauses =
    let s = Sat.create () in
    List.iter (Sat.add_clause s) clauses;
    timed
      (fun () ->
        match Sat.solve ~budget s with
        | Some (Sat.Sat _) -> "sat"
        | Some Sat.Unsat -> "unsat"
        | None -> "budget")
      (fun () -> Sat.counts s)
  in
  let solve_ref clauses =
    let s = Sat_ref.create () in
    List.iter (Sat_ref.add_clause s) clauses;
    timed
      (fun () ->
        match Sat_ref.solve ~budget s with
        | Some (Sat_ref.Sat _) -> "sat"
        | Some Sat_ref.Unsat -> "unsat"
        | None -> "budget")
      (fun () -> Sat_ref.counts s)
  in
  let hard_instances =
    List.map
      (fun (seed, n_vars) -> (seed, n_vars, gen_cnf ~seed ~n_vars))
      [ (11, 34); (12, 38); (13, 40); (14, 42); (15, 44); (16, 46) ]
  in
  let hard_results =
    List.map
      (fun (seed, n_vars, clauses) ->
        let cdcl = solve_cdcl clauses in
        let ref_ = solve_ref clauses in
        if cdcl.sc_verdict <> ref_.sc_verdict then
          Format.printf "  !! seed %d: verdicts differ (%s vs %s)@." seed
            cdcl.sc_verdict ref_.sc_verdict;
        (seed, n_vars, List.length clauses, cdcl, ref_))
      hard_instances
  in
  Pp.table
    ~header:
      [
        "instance"; "verdict"; "cdcl time"; "ref time"; "cdcl props";
        "ref props"; "cdcl confl"; "ref confl"; "learned"; "restarts";
      ]
    ~rows:
      (List.map
         (fun (seed, n_vars, n_clauses, c, r) ->
           [
             str "seed %d (%dv/%dc)" seed n_vars n_clauses;
             c.sc_verdict;
             str "%a" pp_dur c.sc_wall;
             str "%a" pp_dur r.sc_wall;
             string_of_int c.sc_counts.Sat.propagations;
             string_of_int r.sc_counts.Sat.propagations;
             string_of_int c.sc_counts.Sat.conflicts;
             string_of_int r.sc_counts.Sat.conflicts;
             string_of_int c.sc_counts.Sat.learned;
             string_of_int c.sc_counts.Sat.restarts;
           ])
         hard_results)
    Format.std_formatter ();
  let total f =
    List.fold_left (fun acc (_, _, _, c, r) -> acc + f c r) 0 hard_results
  in
  let cdcl_props = total (fun c _ -> c.sc_counts.Sat.propagations) in
  let ref_props = total (fun _ r -> r.sc_counts.Sat.propagations) in
  Format.printf
    "hard-CNF propagations: CDCL %d vs reference %d (%s)@.@." cdcl_props
    ref_props
    (if cdcl_props < ref_props then "strictly fewer, as required"
     else "NOT strictly fewer");
  let oc = open_out "BENCH_smt.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"experiment\": \"smt\",\n  \"hard_cnf\": {\n    \"instances\": [\n";
  List.iteri
    (fun i (seed, n_vars, n_clauses, c, r) ->
      let run label (x : smt_core_run) last =
        out
          "        {\"core\": %S, \"verdict\": %S, \"wall_s\": %.6f, \
           \"propagations\": %d, \"conflicts\": %d, \"learned\": %d, \
           \"restarts\": %d}%s\n"
          label x.sc_verdict x.sc_wall x.sc_counts.Sat.propagations
          x.sc_counts.Sat.conflicts x.sc_counts.Sat.learned
          x.sc_counts.Sat.restarts
          (if last then "" else ",")
      in
      out "      {\"seed\": %d, \"n_vars\": %d, \"n_clauses\": %d, \"runs\": [\n"
        seed n_vars n_clauses;
      run "cdcl" c false;
      run "ref" r true;
      out "      ]}%s\n" (if i = List.length hard_results - 1 then "" else ","))
    hard_results;
  out "    ],\n";
  out
    "    \"totals\": {\"cdcl_propagations\": %d, \"ref_propagations\": %d, \
     \"cdcl_strictly_fewer\": %b}\n"
    cdcl_props ref_props
    (cdcl_props < ref_props);
  out "  }\n}\n";
  close_out oc;
  Format.printf "(wrote BENCH_smt.json)@."

(* ------------------------------------------------------------------ *)
(* Editable serve-subject model shared by the obs and serve benches: a
   subject split into per-file fdecl lists, with a deterministic
   constant-flip edit and re-emission to source per request. *)

module Edit = struct
  module Ast = Pinpoint_frontend.Ast
  module Parser = Pinpoint_frontend.Parser

  let emit fds =
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    let current = ref "" in
    List.iter
      (fun (fd : Ast.fdecl) ->
        if fd.Ast.unit_name <> !current then begin
          Format.fprintf ppf "unit %S;@.@." fd.Ast.unit_name;
          current := fd.Ast.unit_name
        end;
        Format.fprintf ppf "%a@." Ast.pp_fdecl fd)
      fds;
    Format.pp_print_flush ppf ();
    Buffer.contents buf

  (* Split a source into [n_files] chunks of consecutive functions;
     returns the editable chunk array and the function count. *)
  let split ~n_files ~prefix src =
    let fds = (Parser.parse_string ~file:"<gen>" src).Ast.funcs in
    let n_funcs = List.length fds in
    let per = max 1 ((n_funcs + n_files - 1) / n_files) in
    let chunks = Array.make n_files [] in
    List.iteri
      (fun i fd ->
        let c = min (n_files - 1) (i / per) in
        chunks.(c) <- fd :: chunks.(c))
      fds;
    ( Array.mapi
        (fun i fds -> (Printf.sprintf "%s_%d.mc" prefix i, List.rev fds))
        chunks,
      n_funcs )

  let contents chunks =
    Array.to_list (Array.map (fun (n, fds) -> (n, emit fds)) chunks)

  let rec bump_expr found (e : Ast.expr) =
    let node =
      match e.Ast.enode with
      | Ast.Eint n when not !found ->
        found := true;
        Ast.Eint (n + 1)
      | (Ast.Eint _ | Ast.Ebool _ | Ast.Enull | Ast.Evar _ | Ast.Emalloc) as n
        ->
        n
      | Ast.Ederef (a, k) -> Ast.Ederef (bump_expr found a, k)
      | Ast.Ebin (op, a, b) ->
        let a = bump_expr found a in
        Ast.Ebin (op, a, bump_expr found b)
      | Ast.Eun (op, a) -> Ast.Eun (op, bump_expr found a)
      | Ast.Ecall (f, args) -> Ast.Ecall (f, List.map (bump_expr found) args)
      | Ast.Evcall (f, args) -> Ast.Evcall (f, List.map (bump_expr found) args)
    in
    { e with Ast.enode = node }

  let rec bump_stmt found (s : Ast.stmt) =
    let node =
      match s.Ast.snode with
      | Ast.Sdecl (t, x, e) -> Ast.Sdecl (t, x, Option.map (bump_expr found) e)
      | Ast.Sassign (x, e) -> Ast.Sassign (x, bump_expr found e)
      | Ast.Sstore (k, x, e) -> Ast.Sstore (k, x, bump_expr found e)
      | Ast.Sif (c, a, b) ->
        let c = bump_expr found c in
        let a = bump_stmt found a in
        Ast.Sif (c, a, Option.map (bump_stmt found) b)
      | Ast.Swhile (c, b) ->
        let c = bump_expr found c in
        Ast.Swhile (c, bump_stmt found b)
      | Ast.Sreturn e -> Ast.Sreturn (Option.map (bump_expr found) e)
      | Ast.Sexpr e -> Ast.Sexpr (bump_expr found e)
      | Ast.Sblock ss -> Ast.Sblock (List.map (bump_stmt found) ss)
    in
    { s with Ast.snode = node }

  (* Flip the first integer literal of the [idx]-th function (cyclically)
     of the chunk; returns false when that function has none. *)
  let bump_function chunks ~chunk ~idx =
    let name, cfds = chunks.(chunk) in
    let n = List.length cfds in
    if n = 0 then false
    else begin
      let target = idx mod n in
      let found = ref false in
      let cfds =
        List.mapi
          (fun j (fd : Ast.fdecl) ->
            if j = target then
              { fd with Ast.body = bump_stmt found fd.Ast.body }
            else fd)
          cfds
      in
      chunks.(chunk) <- (name, cfds);
      !found
    end
end

(* Latency percentile over a sample list (nearest-rank interpolation). *)
let pct p l =
  match List.sort compare l with
  | [] -> 0.0
  | sorted ->
    List.nth sorted
      (min
         (List.length sorted - 1)
         (int_of_float (p *. float_of_int (List.length sorted - 1) +. 0.5)))

(* ------------------------------------------------------------------ *)
(* Observability ablation (DESIGN.md §4.11): the same workload at the
   three levels — off / metrics-only / full tracing — measuring the wall
   time of prepare + UAF check, verifying the report keys are identical
   at every level, and dumping BENCH_obs.json.  The contract under test:
   the disabled path costs a flag check per hook (target < 2% overhead,
   i.e. within run-to-run noise), and no level changes the analysis.

   A second, serve-mode leg (DESIGN.md §4.16) drives the same 25-request
   edit stream through Server.handle_line at Off (flight recorder off)
   vs Metrics_only + flight, on a ~200 KLoC resident subject (override
   with PINPOINT_BENCH_OBS_SERVE_LOC): live request telemetry must cost
   <= 3% on request p50 and leave every response byte-identical modulo
   the wall-clock latency stamp. *)

let obs () =
  let module Obs = Pinpoint_obs.Obs in
  Format.printf "@.== Observability ablation: off / metrics / trace ==@.@.";
  let info =
    match Subjects.find "vortex" with Some i -> i | None -> assert false
  in
  let subject = Subjects.generate info in
  let reps = 5 in
  let run_once () =
    (* the transform rewrites the program in place: recompile per run *)
    let prog = Gen.compile subject in
    let (reports, spans, queries), m =
      Metrics.measure (fun () ->
          let analysis = Pinpoint.Analysis.prepare prog in
          let reports =
            fst
              (Pinpoint.Analysis.check analysis
                 Pinpoint.Checkers.use_after_free)
          in
          (reports, List.length (Obs.spans ()), List.length (Obs.queries ())))
    in
    let keys =
      List.sort_uniq compare
        (List.map Pinpoint.Report.key
           (List.filter Pinpoint.Report.is_reported reports))
    in
    (m.Metrics.wall_s, keys, spans, queries)
  in
  let median l =
    match List.sort compare l with
    | [] -> 0.0
    | sorted -> List.nth sorted (List.length sorted / 2)
  in
  let measure_level (label, level) =
    Obs.reset ();
    Obs.set_level level;
    ignore (run_once ()) (* warm-up *);
    let runs = List.init reps (fun _ -> run_once ()) in
    let walls = List.map (fun (w, _, _, _) -> w) runs in
    let _, keys, spans, queries = List.hd runs in
    Obs.set_level Obs.Off;
    Obs.reset ();
    (label, median walls, keys, spans, queries)
  in
  let results =
    List.map measure_level
      [ ("off", Obs.Off); ("metrics", Obs.Metrics_only); ("trace", Obs.Trace) ]
  in
  let base =
    match results with (_, w, _, _, _) :: _ -> w | [] -> 0.0
  in
  let keys_off =
    match results with (_, _, k, _, _) :: _ -> k | [] -> []
  in
  let identical =
    List.for_all (fun (_, _, k, _, _) -> k = keys_off) results
  in
  let overhead w = if base > 0.0 then ((w /. base) -. 1.0) *. 100.0 else 0.0 in
  Pp.table
    ~header:[ "level"; "median wall"; "overhead"; "spans"; "queries" ]
    ~rows:
      (List.map
         (fun (label, w, _, spans, queries) ->
           [
             label;
             str "%a" pp_dur w;
             str "%+.2f%%" (overhead w);
             string_of_int spans;
             string_of_int queries;
           ])
         results)
    Format.std_formatter ();
  Format.printf "reports %s across levels@."
    (if identical then "identical" else "DIFFER");
  (* Disabled-path micro: the same closure driven bare vs through the
     span hook with observability off.  The hook's off path is one atomic
     load + branch, so the per-call delta should be a few ns and the
     relative overhead on real work far under the 2% target. *)
  Obs.set_level Obs.Off;
  let n = 5_000_000 in
  let tick = ref 0 in
  let work () = tick := !tick + 1 in
  let micro f =
    let best = ref infinity in
    for _ = 1 to 5 do
      let _, m = Metrics.measure (fun () -> for _ = 1 to n do f () done) in
      if m.Metrics.wall_s < !best then best := m.Metrics.wall_s
    done;
    !best
  in
  let bare_s = micro work in
  let hooked_s = micro (fun () -> Obs.span "bench.noop" work) in
  let per_call_ns = (hooked_s -. bare_s) /. float_of_int n *. 1e9 in
  Format.printf
    "disabled hook: %.1fns/call over a bare call (%d calls: bare %a, hooked %a)@."
    per_call_ns n pp_dur bare_s pp_dur hooked_s;
  (* ---- serve-mode leg: request telemetry ablation (DESIGN.md §4.16) ---- *)
  let module Json = Pinpoint_server.Json in
  let module Server = Pinpoint_server.Server in
  let module Flight = Pinpoint_obs.Flight in
  let serve_loc =
    match Sys.getenv_opt "PINPOINT_BENCH_OBS_SERVE_LOC" with
    | Some s -> ( match int_of_string_opt (String.trim s) with
                  | Some n when n > 0 -> n
                  | _ -> 200_000)
    | None -> 200_000
  in
  Format.printf
    "@.-- serve-mode: Off vs Metrics_only+flight on a %d LoC resident \
     subject --@."
    serve_loc;
  let serve_subject =
    Gen.generate ~name:"obs-serve"
      { Gen.default_params with Gen.seed = 101; target_loc = serve_loc }
  in
  let n_files = 8 in
  let n_requests = 25 in
  (* Responses carry a wall-clock latency stamp; strip it (and nothing
     else) before comparing across levels. *)
  let rec strip_latency j =
    match j with
    | Json.Obj kvs ->
      Json.Obj
        (List.filter (fun (k, _) -> k <> "latency_s") kvs
        |> List.map (fun (k, v) -> (k, strip_latency v)))
    | Json.List l -> Json.List (List.map strip_latency l)
    | j -> j
  in
  let member_path path j =
    List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path
  in
  let run_serve_level (label, level, flight) =
    Obs.reset ();
    Obs.set_level level;
    Flight.clear ();
    Flight.set_enabled flight;
    let chunks, _ =
      Edit.split ~n_files ~prefix:"obs_serve" serve_subject.Gen.source
    in
    let t =
      Server.create ~config:{ Server.default_config with Server.flight } ()
    in
    Server.load_files t (Edit.contents chunks);
    let lat = ref [] in
    let responses = ref [] in
    for r = 1 to n_requests do
      let chunk = r mod n_files in
      ignore (Edit.bump_function chunks ~chunk ~idx:(r / n_files));
      let name, cfds = chunks.(chunk) in
      let req =
        Json.to_string
          (Json.Obj
             [
               ("id", Json.Int r);
               ("op", Json.String "check");
               ( "files",
                 Json.List
                   [
                     Json.Obj
                       [
                         ("name", Json.String name);
                         ("contents", Json.String (Edit.emit cfds));
                       ];
                   ] );
               ("checkers", Json.List [ Json.String "use-after-free" ]);
             ])
      in
      let (resp, _), m = Metrics.measure (fun () -> Server.handle_line t req) in
      lat := m.Metrics.wall_s :: !lat;
      let stripped =
        match Json.parse resp with
        | Ok j -> Json.to_string (strip_latency j)
        | Error _ -> resp
      in
      responses := stripped :: !responses
    done;
    (* after the stream, the metrics op must report non-trivial ordered
       latency quantiles at Metrics_only *)
    let quantiles =
      if level = Obs.Metrics_only then begin
        let resp, _ =
          Server.handle_line t
            (Json.to_string (Json.Obj [ ("op", Json.String "metrics") ]))
        in
        match Json.parse resp with
        | Error _ -> None
        | Ok j ->
          let q field =
            Option.bind
              (member_path
                 [ "totals"; "histograms"; "server.request_latency_s"; field ]
                 j)
              Json.number_opt
          in
          (match (q "p50", q "p95", q "p99") with
          | Some p50, Some p95, Some p99 -> Some (p50, p95, p99)
          | _ -> None)
      end
      else None
    in
    Obs.set_level Obs.Off;
    Obs.reset ();
    Flight.set_enabled false;
    Flight.clear ();
    (label, pct 0.5 !lat, pct 0.95 !lat, List.rev !responses, quantiles)
  in
  let serve_results =
    List.map run_serve_level
      [
        ("off", Obs.Off, false); ("metrics+flight", Obs.Metrics_only, true);
      ]
  in
  let serve_p50_off, serve_responses_off =
    match serve_results with
    | (_, p50, _, rs, _) :: _ -> (p50, rs)
    | [] -> (0.0, [])
  in
  let serve_identical =
    List.for_all (fun (_, _, _, rs, _) -> rs = serve_responses_off)
      serve_results
  in
  let serve_overhead w =
    if serve_p50_off > 0.0 then ((w /. serve_p50_off) -. 1.0) *. 100.0 else 0.0
  in
  Pp.table
    ~header:[ "level"; "request p50"; "request p95"; "p50 overhead" ]
    ~rows:
      (List.map
         (fun (label, p50, p95, _, _) ->
           [
             label; str "%a" pp_dur p50; str "%a" pp_dur p95;
             str "%+.2f%%" (serve_overhead p50);
           ])
         serve_results)
    Format.std_formatter ();
  Format.printf "responses %s across levels (latency stamp stripped)@."
    (if serve_identical then "identical" else "DIFFER");
  let serve_quantiles =
    List.fold_left (fun acc (_, _, _, _, q) -> if q <> None then q else acc)
      None serve_results
  in
  (match serve_quantiles with
  | Some (p50, p95, p99) ->
    Format.printf
      "metrics op after %d requests: request_latency p50=%a p95=%a p99=%a@."
      n_requests pp_dur p50 pp_dur p95 pp_dur p99;
    if not (p50 > 0.0 && p50 <= p95 && p95 <= p99) then
      failwith "obs serve: metrics op quantiles trivial or unordered"
  | None -> failwith "obs serve: metrics op returned no latency quantiles");
  if not serve_identical then
    failwith "obs serve: responses differ across obs levels";
  (* Keep the previous file's numbers (sans their own "previous") so the
     regenerated BENCH_obs.json shows the before/after trajectory. *)
  let previous =
    match
      let ic = open_in "BENCH_obs.json" in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception _ -> None
    | s -> (
      match Json.parse s with
      | Ok (Json.Obj fields) ->
        Some
          (Json.to_string
             (Json.Obj (List.filter (fun (k, _) -> k <> "previous") fields)))
      | _ -> None)
  in
  let oc = open_out "BENCH_obs.json" in
  let out fmt = Printf.fprintf oc fmt in
  out
    "{\n  \"experiment\": \"obs\",\n  \"subject\": %S,\n  \"loc\": %d,\n\
    \  \"reps\": %d,\n  \"reports_identical\": %b,\n  \"levels\": [\n"
    "vortex" subject.Gen.loc reps identical;
  List.iteri
    (fun i (label, w, _, spans, queries) ->
      out
        "    {\"level\": %S, \"median_wall_s\": %.6f, \"overhead_pct\": \
         %.3f, \"spans\": %d, \"queries\": %d}%s\n"
        label w (overhead w) spans queries
        (if i = List.length results - 1 then "" else ","))
    results;
  out
    "  ],\n  \"disabled_hook\": {\"calls\": %d, \"bare_s\": %.6f, \
     \"hooked_s\": %.6f, \"per_call_ns\": %.3f},\n"
    n bare_s hooked_s per_call_ns;
  out
    "  \"serve\": {\n    \"loc\": %d,\n    \"requests\": %d,\n\
    \    \"responses_identical\": %b,\n    \"levels\": [\n"
    serve_loc n_requests serve_identical;
  List.iteri
    (fun i (label, p50, p95, _, _) ->
      out
        "      {\"level\": %S, \"request_p50_s\": %.6f, \"request_p95_s\": \
         %.6f, \"p50_overhead_pct\": %.3f}%s\n"
        label p50 p95 (serve_overhead p50)
        (if i = List.length serve_results - 1 then "" else ","))
    serve_results;
  (match serve_quantiles with
  | Some (p50, p95, p99) ->
    out
      "    ],\n    \"metrics_op\": {\"p50_s\": %.6f, \"p95_s\": %.6f, \
       \"p99_s\": %.6f}\n  }"
      p50 p95 p99
  | None -> out "    ]\n  }");
  (match previous with
  | Some prev -> out ",\n  \"previous\": %s\n" prev
  | None -> out "\n");
  out "}\n";
  close_out oc;
  Format.printf "(wrote BENCH_obs.json)@."

(* ------------------------------------------------------------------ *)
(* Server mode (DESIGN.md §4.13): resident incremental re-analysis vs a
   full batch re-run, over a stream of small edits.  Each request edits
   ~1% of the subject's functions (a constant flip, re-emitted to source)
   and re-checks UAF; the incremental side applies Incr.update + check on
   the resident state, the batch side recompiles and re-prepares from the
   same file contents.  Per request we assert the rendered reports are
   byte-identical, then dump latency percentiles and reuse rates to
   BENCH_serve.json.  The contract: incremental p50 strictly below batch
   p50, with identical reports throughout. *)

let serve () =
  let module Ast = Pinpoint_frontend.Ast in
  let module Parser = Pinpoint_frontend.Parser in
  let module Lower = Pinpoint_frontend.Lower in
  let module Incr = Pinpoint_server.Incr in
  Format.printf "@.== Server mode: incremental re-analysis vs batch re-run ==@.@.";
  let subject =
    Gen.generate ~name:"serve"
      { Gen.default_params with Gen.seed = 77; target_loc = 1500 }
  in
  let n_files = 8 in
  let n_requests = 25 in
  (* Editable model: per-file fdecl lists; contents re-emitted per edit. *)
  let chunks, n_funcs =
    Edit.split ~n_files ~prefix:"serve" subject.Gen.source
  in
  let contents () = Edit.contents chunks in
  let bump_function ~chunk ~idx = Edit.bump_function chunks ~chunk ~idx in
  let spec = Pinpoint.Checkers.use_after_free in
  let renders reports =
    List.map Pinpoint.Report.one_line
      (List.filter Pinpoint.Report.is_reported reports)
  in
  let st = Incr.load (contents ()) in
  let edits_per_request = max 1 (n_funcs / 100) in
  Format.printf
    "subject %d funcs in %d files, %d requests x %d edited funcs (~1%%)@."
    n_funcs n_files n_requests edits_per_request;
  let incr_lat = ref [] in
  let batch_lat = ref [] in
  let cones = ref [] in
  let mismatches = ref 0 in
  for r = 1 to n_requests do
    (* Edit ~1% of the functions, spread over chunks. *)
    let touched = Hashtbl.create 4 in
    for e = 0 to edits_per_request - 1 do
      let k = (r * edits_per_request) + e in
      let chunk = k mod n_files in
      ignore (bump_function ~chunk ~idx:(k / n_files));
      Hashtbl.replace touched chunk ()
    done;
    let changed =
      Hashtbl.fold
        (fun c () acc ->
          let name, cfds = chunks.(c) in
          (name, Edit.emit cfds) :: acc)
        touched []
    in
    let (stats, incr_renders), m_incr =
      Metrics.measure (fun () ->
          let stats = Incr.update st changed in
          (stats, renders (fst (Incr.check st spec))))
    in
    let batch_renders, m_batch =
      Metrics.measure (fun () ->
          let fds =
            List.concat_map
              (fun (n, c) -> (Parser.parse_string ~file:n c).Ast.funcs)
              (contents ())
          in
          let prog = Lower.compile { Ast.funcs = fds } in
          let a = Pinpoint.Analysis.prepare prog in
          renders (fst (Pinpoint.Analysis.check a spec)))
    in
    if incr_renders <> batch_renders then incr mismatches;
    incr_lat := m_incr.Metrics.wall_s :: !incr_lat;
    batch_lat := m_batch.Metrics.wall_s :: !batch_lat;
    cones := stats.Incr.dirty_cone :: !cones
  done;
  let p50i = pct 0.5 !incr_lat and p99i = pct 0.99 !incr_lat in
  let p50b = pct 0.5 !batch_lat and p99b = pct 0.99 !batch_lat in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let mean_cone = mean (List.map float_of_int !cones) in
  let reuse_pct = 100.0 *. (1.0 -. (mean_cone /. float_of_int n_funcs)) in
  Pp.table
    ~header:[ "side"; "p50"; "p99"; "mean" ]
    ~rows:
      [
        [
          "incremental"; str "%a" pp_dur p50i; str "%a" pp_dur p99i;
          str "%a" pp_dur (mean !incr_lat);
        ];
        [
          "batch"; str "%a" pp_dur p50b; str "%a" pp_dur p99b;
          str "%a" pp_dur (mean !batch_lat);
        ];
      ]
    Format.std_formatter ();
  Format.printf
    "reports %s across %d requests; mean dirty cone %.1f/%d funcs (%.1f%% reused); p50 speedup %.1fx@."
    (if !mismatches = 0 then "identical" else "DIFFER")
    n_requests mean_cone n_funcs reuse_pct
    (if p50i > 0.0 then p50b /. p50i else 0.0);
  let oc = open_out "BENCH_serve.json" in
  let out fmt = Printf.fprintf oc fmt in
  out
    "{\n  \"experiment\": \"serve\",\n  \"subject\": %S,\n  \"loc\": %d,\n\
    \  \"functions\": %d,\n  \"files\": %d,\n  \"requests\": %d,\n\
    \  \"edited_funcs_per_request\": %d,\n  \"reports_identical\": %b,\n\
    \  \"incremental\": {\"p50_s\": %.6f, \"p99_s\": %.6f, \"mean_s\": %.6f},\n\
    \  \"batch\": {\"p50_s\": %.6f, \"p99_s\": %.6f, \"mean_s\": %.6f},\n\
    \  \"p50_speedup\": %.3f,\n  \"mean_dirty_cone\": %.2f,\n\
    \  \"reuse_pct\": %.2f\n}\n"
    "serve" subject.Gen.loc n_funcs n_files n_requests edits_per_request
    (!mismatches = 0) p50i p99i (mean !incr_lat) p50b p99b (mean !batch_lat)
    (if p50i > 0.0 then p50b /. p50i else 0.0)
    mean_cone reuse_pct;
  close_out oc;
  if !mismatches > 0 then
    failwith "serve: incremental reports diverged from batch";
  Format.printf "(wrote BENCH_serve.json)@."

(* ------------------------------------------------------------------ *)
(* scale: MLoC scaling with the disk-resident artifact store
   (DESIGN.md §4.14).  Subjects of 0.02-4 MLoC (override with
   PINPOINT_BENCH_SCALE_MLOCS="0.02,0.5") run through the CLI as
   subprocesses — one process per configuration so the getrusage peak-RSS
   watermark (read back from --metrics-json) is isolated per run — store
   off vs on.  The contract: identical reports, and at MLoC scale the
   store holds peak RSS and artifact bytes/LoC below the all-resident
   run.  Dumps BENCH_scale.json.  Opt-in (like micro): subprocess runs at
   4 MLoC take minutes. *)

let scale () =
  Format.printf "@.=== scale: MLoC subjects, store on vs off ===@.";
  let mlocs =
    match Sys.getenv_opt "PINPOINT_BENCH_SCALE_MLOCS" with
    | Some s ->
      String.split_on_char ',' s
      |> List.filter_map (fun x -> float_of_string_opt (String.trim x))
    | None -> [ 0.02; 0.5; 1.0; 4.0 ]
  in
  let jobs =
    match Sys.getenv_opt "PINPOINT_BENCH_SCALE_JOBS" with
    | Some s -> int_of_string s
    | None -> 4
  in
  let cli =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/pinpoint_cli.exe"
  in
  if not (Sys.file_exists cli) then
    failwith (str "scale: CLI not found at %s (run under dune exec)" cli);
  let tmp = Filename.get_temp_dir_name () in
  let base = Filename.concat tmp (str "pinpoint_scale_%d" (Unix.getpid ())) in
  (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sh cmd =
    let t0 = Unix.gettimeofday () in
    let rc = Sys.command cmd in
    if rc <> 0 && rc <> 2 then failwith (str "scale: command failed (%d): %s" rc cmd);
    Unix.gettimeofday () -. t0
  in
  let metric_of file key =
    let ic = open_in file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    let pat = str "%S: " key in
    let rec find i =
      if i + String.length pat > String.length s then 0.0
      else if String.sub s i (String.length pat) = pat then begin
        let j = ref (i + String.length pat) in
        let b = Buffer.create 16 in
        while
          !j < String.length s
          && (match s.[!j] with '0' .. '9' | '.' | '-' | 'e' -> true | _ -> false)
        do
          Buffer.add_char b s.[!j];
          incr j
        done;
        float_of_string (Buffer.contents b)
      end
      else find (i + 1)
    in
    find 0
  in
  let file_eq a b =
    let read f =
      let ic = open_in_bin f in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    in
    read a = read b
  in
  let dir_bytes d =
    if Sys.file_exists d then
      Array.fold_left
        (fun acc f ->
          acc + (Unix.stat (Filename.concat d f)).Unix.st_size)
        0 (Sys.readdir d)
    else 0
  in
  let rows =
    List.map
      (fun mloc ->
        let subject =
          Gen.generate ~name:"scale" (Gen.scaled ~seed:7 ~mloc ())
        in
        let tag = str "%03dk" (int_of_float (mloc *. 1000.0)) in
        let src = Filename.concat base (str "s%s.mc" tag) in
        let oc = open_out src in
        output_string oc subject.Gen.source;
        close_out oc;
        let loc = subject.Gen.loc in
        Format.printf "%.2f MLoC (%d lines): store off...@." mloc loc;
        let m_off = Filename.concat base (str "off%s.json" tag) in
        let r_off = Filename.concat base (str "off%s.txt" tag) in
        let t_off =
          sh
            (str "%s check %s -c use-after-free --jobs %d --metrics-json %s > %s"
               (Filename.quote cli) (Filename.quote src) jobs
               (Filename.quote m_off) (Filename.quote r_off))
        in
        Format.printf "  ... on@.";
        let store_dir = Filename.concat base (str "store%s" tag) in
        let m_on = Filename.concat base (str "on%s.json" tag) in
        let r_on = Filename.concat base (str "on%s.txt" tag) in
        let t_on =
          sh
            (str
               "%s check %s -c use-after-free --jobs %d --store-dir %s \
                --metrics-json %s > %s"
               (Filename.quote cli) (Filename.quote src) jobs
               (Filename.quote store_dir) (Filename.quote m_on)
               (Filename.quote r_on))
        in
        let rss_off = metric_of m_off "process.maxrss_kb" in
        let rss_on = metric_of m_on "process.maxrss_kb" in
        let store_bytes = dir_bytes store_dir in
        let identical = file_eq r_off r_on in
        Sys.remove src;
        (mloc, loc, t_off, t_on, rss_off, rss_on, store_bytes, identical))
      mlocs
  in
  Pp.table
    ~header:
      [ "MLoC"; "rss off"; "rss on"; "wall off"; "wall on"; "store B/LoC"; "reports" ]
    ~rows:
      (List.map
         (fun (mloc, loc, t_off, t_on, rss_off, rss_on, sb, id) ->
           [
             str "%.2f" mloc;
             str "%a" pp_bytes (rss_off *. 1024.0);
             str "%a" pp_bytes (rss_on *. 1024.0);
             str "%a" pp_dur t_off;
             str "%a" pp_dur t_on;
             str "%.1f" (float_of_int sb /. float_of_int loc);
             (if id then "identical" else "DIFFER");
           ])
         rows)
    Format.std_formatter ();
  let oc = open_out "BENCH_scale.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"experiment\": \"scale\",\n  \"jobs\": %d,\n  \"rows\": [\n" jobs;
  List.iteri
    (fun i (mloc, loc, t_off, t_on, rss_off, rss_on, sb, id) ->
      out
        "    {\"mloc\": %.3f, \"loc\": %d, \"wall_off_s\": %.3f, \
         \"wall_on_s\": %.3f, \"maxrss_off_kb\": %.0f, \"maxrss_on_kb\": \
         %.0f, \"store_bytes\": %d, \"store_bytes_per_loc\": %.2f, \
         \"reports_identical\": %b}%s\n"
        mloc loc t_off t_on rss_off rss_on sb
        (float_of_int sb /. float_of_int loc)
        id
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ]\n}\n";
  close_out oc;
  if List.exists (fun (_, _, _, _, _, _, _, id) -> not id) rows then
    failwith "scale: store-on reports diverged from store-off";
  Format.printf "(wrote BENCH_scale.json)@."

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("juliet", juliet);
    ("solverstats", solverstats);
    ("ablation", ablation);
    ("leaks", leaks);
    ("resilience", resilience);
    ("par", par);
    ("smt", smt);
    ("obs", obs);
    ("serve", serve);
    ("scale", scale);
    ("micro", micro);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let to_run =
    match args with
    | [] | [ "all" ] ->
      (* everything except the opt-in slow ones: micro (statistically
         sound but slow) and scale (multi-minute MLoC subprocess runs) *)
      List.filter (fun (n, _) -> n <> "micro" && n <> "scale") experiments
    | names ->
      List.filter_map
        (fun n ->
          match List.assoc_opt n experiments with
          | Some f -> Some (n, f)
          | None ->
            Format.eprintf "unknown experiment %s (known: %s)@." n
              (String.concat ", " (List.map fst experiments));
            exit 1)
        names
  in
  Format.printf "Pinpoint reproduction benchmarks (see DESIGN.md / EXPERIMENTS.md)@.";
  List.iter (fun (_, f) -> f ()) to_run
