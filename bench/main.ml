(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §3 for the experiment index).

   Usage:
     dune exec bench/main.exe                 # run everything but scale
     dune exec bench/main.exe -- fig7         # one experiment

   Experiments: fig7 fig8 fig9 fig10 table1 table2 table3 juliet
   solverstats ablation leaks scale.  The paper's precision claims are
   also asserted, with deterministic counts, by test/test_paper.ml. *)

module Metrics = Pinpoint_util.Metrics
module Subjects = Pinpoint_workload.Subjects
module Gen = Pinpoint_workload.Gen
module Truth = Pinpoint_workload.Truth
module Pp = Pinpoint_util.Pp
module Obs = Pinpoint_obs.Obs

let fsvfg_budget = 5.0 (* seconds; stands in for the paper's 12h timeout *)
let check_budget = 30.0

let str fmt = Format.asprintf fmt
let pp_dur = Metrics.pp_duration
let pp_bytes = Metrics.pp_bytes

(* Run [f]; return its result and a lookup of each counter's change over
   the call (the registry counts at every obs level). *)
let counting f =
  let before = Obs.snapshot () in
  let r = f () in
  (r, Obs.Snapshot.counter (Obs.Snapshot.diff (Obs.snapshot ()) before))

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
  let info = match Subjects.find "mysql" with Some i -> i | None -> assert false in
  let subject = Subjects.generate info in
  let prog = Gen.compile subject in
  let (), count =
    counting (fun () ->
        let analysis = Pinpoint.Analysis.prepare prog in
        List.iter
          (fun spec -> ignore (Pinpoint.Analysis.check analysis spec))
          Pinpoint.Checkers.all)
  in
  let solver name = count ("solver." ^ name) in
  let kept = count "pta.n_kept" and pruned = count "pta.n_pruned" in
  Format.printf "linear-time solver: %d checks, %d found trivially UNSAT@."
    (count "linear.n_checks") (count "linear.n_unsat");
  Format.printf
    "points-to stage:    %d conditions kept (apparently satisfiable), %d pruned => %.0f%% satisfiable (paper: ~70%%)@."
    kept pruned
    (100.0 *. float_of_int kept /. float_of_int (max 1 (kept + pruned)));
  Format.printf
    "full solver (bug stage): %d queries (%d sat, %d unsat, %d unknown), %d theory calls@."
    (solver "n_queries") (solver "n_sat") (solver "n_unsat") (solver "n_unknown")
    (solver "n_theory_calls")

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
    let reports =
      fst (Pinpoint.Analysis.check ~config:cfg analysis Pinpoint.Checkers.use_after_free)
    in
    let keys = dedup_sources (pinpoint_keys reports) in
    Truth.classify ~kind:"use-after-free" subject.truth keys
  in
  let base_cfg = Pinpoint.Engine.default_config in
  let row name (cfg : Pinpoint.Engine.config) ~quasi =
    Pinpoint_pta.Pta.quasi_pruning := quasi;
    let score, count =
      counting (fun () ->
          uaf_score (Pinpoint.Analysis.prepare (Gen.compile subject)) cfg)
    in
    let kept = count "pta.n_kept" and pruned = count "pta.n_pruned" in
    Pinpoint_pta.Pta.quasi_pruning := true;
    [
      name;
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
      [ "configuration"; "#Rep"; "#FP"; "recall"; "pruned conds" ]
    ~rows Format.std_formatter ();
  Format.printf
    "(expected: disabling the SMT stage floods FPs; disabling quasi pruning keeps@.";
  Format.printf
    " infeasible conditions alive; shallow contexts lose deep-call bugs)@."

(* ------------------------------------------------------------------ *)
(* scale: MLoC scaling with the disk-resident artifact store
   (DESIGN.md §4.14).  Subjects of 0.02-4 MLoC (override with
   PINPOINT_BENCH_SCALE_MLOCS="0.02,0.5") run through the CLI as
   subprocesses — one process per configuration so the getrusage peak-RSS
   watermark (read back from --metrics-json) is isolated per run — store
   off vs on.  The contract: identical reports, and at MLoC scale the
   store holds peak RSS and artifact bytes/LoC below the all-resident
   run.  Dumps BENCH_scale.json.  Opt-in: subprocess runs at 4 MLoC take
   minutes. *)

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
    ("scale", scale);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let to_run =
    match args with
    | [] | [ "all" ] ->
      (* everything except scale: its MLoC subprocess runs take minutes *)
      List.filter (fun (n, _) -> n <> "scale") experiments
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
