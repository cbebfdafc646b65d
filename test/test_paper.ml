(* The paper's evaluation claims, checked on the generated subjects.  The
   counts are the ones bench/main.exe prints: Pinpoint's reports are
   distinct source sites, a baseline's are every (source, sink) pair, and
   each is scored against the subject's planted ground truth.  Every
   baseline runs without a deadline, so no assertion depends on host
   speed. *)

module Subjects = Pinpoint_workload.Subjects
module Gen = Pinpoint_workload.Gen
module Truth = Pinpoint_workload.Truth
module Stmt = Pinpoint_ir.Stmt

let uaf = "use-after-free"

let subject name =
  match Subjects.find name with
  | Some info -> Subjects.generate info
  | None -> Alcotest.failf "no subject %s" name

(* One key per reported source site, as Table 1 counts Pinpoint. *)
let pinpoint_keys reports =
  List.filter_map
    (fun (r : Pinpoint.Report.t) ->
      if Pinpoint.Report.is_reported r then Some (r.source_loc.Stmt.line, 0)
      else None)
    reports
  |> List.sort_uniq compare

let key (source : Stmt.loc) (sink : Stmt.loc) =
  (source.Stmt.line, sink.Stmt.line)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* Table 1's subjects: the paper's list up to libicu.  Past it, the
   layered baseline's build takes seconds (mysql) or does not finish in
   bench's budget (firefox). *)
let table1_subjects =
  let rec upto = function
    | [] -> []
    | (info : Subjects.info) :: rest ->
      info :: (if info.name = "libicu" then [] else upto rest)
  in
  upto Subjects.all

(* [program] is the subject compiled for the baselines, which leave it as
   it is (Pinpoint's transform rewrites its own copy in place). *)
type row = {
  subject : Gen.subject;
  program : Pinpoint_ir.Prog.t;
  pinpoint : Truth.score;
  svf : Truth.score;
}

let table1_rows =
  lazy
    (List.map
       (fun info ->
         let s = Subjects.generate info in
         let a = Pinpoint.Analysis.prepare (Gen.compile s) in
         let reports, _ =
           Pinpoint.Analysis.check a Pinpoint.Checkers.use_after_free
         in
         let program = Gen.compile s in
         let svf = Pinpoint_baselines.Svf.build program in
         let svf_keys =
           List.map
             (fun (r : Pinpoint_baselines.Svf.report) ->
               key r.source_loc r.sink_loc)
             (Pinpoint_baselines.Svf.check_uaf svf)
         in
         {
           subject = s;
           program;
           pinpoint = Truth.classify ~kind:uaf s.truth (pinpoint_keys reports);
           svf = Truth.classify ~kind:uaf s.truth svf_keys;
         })
       table1_subjects)

let test_table1 () =
  let rows = Lazy.force table1_rows in
  let pp_reports = sum (fun r -> r.pinpoint.Truth.n_reports) rows in
  let pp_fp = sum (fun r -> r.pinpoint.Truth.n_fp) rows in
  let found = sum (fun r -> r.pinpoint.Truth.n_found) rows in
  let planted = sum (fun r -> r.pinpoint.Truth.n_real_planted) rows in
  let svf_reports = sum (fun r -> r.svf.Truth.n_reports) rows in
  let svf_fp = sum (fun r -> r.svf.Truth.n_fp) rows in
  Alcotest.(check int) "planted real use-after-free bugs" 7 planted;
  Alcotest.(check int) "Pinpoint finds every planted bug" planted found;
  if float_of_int pp_fp > 0.143 *. float_of_int pp_reports then
    Alcotest.failf "Pinpoint: %d FP of %d reports, above the paper's 14.3%%"
      pp_fp pp_reports;
  if svf_reports < 100 * pp_reports then
    Alcotest.failf "SVF: %d reports, under 100x Pinpoint's %d" svf_reports
      pp_reports;
  if float_of_int svf_fp < 0.9 *. float_of_int svf_reports then
    Alcotest.failf "SVF: %d FP of %d reports, under 90%%" svf_fp svf_reports

(* The 2 MLoC-class subject, prepared once for Table 2, the solver split
   and the ablation, with a lookup of each counter's change over the
   preparation. *)
let mysql =
  lazy
    (let s = subject "mysql" in
     let a, delta =
       Helpers.with_counters (fun () ->
           Pinpoint.Analysis.prepare (Gen.compile s))
     in
     (s, a, Pinpoint_obs.Obs.Snapshot.counter delta))

let score ?config (s : Gen.subject) a (spec : Pinpoint.Checker_spec.t) =
  let reports, _ = Pinpoint.Analysis.check ?config a spec in
  Truth.classify ~kind:spec.name s.truth (pinpoint_keys reports)

let test_table2 () =
  let s, a, _ = Lazy.force mysql in
  List.iter
    (fun ((spec : Pinpoint.Checker_spec.t), paper_fp_rate) ->
      let sc = score s a spec in
      Alcotest.(check int)
        (spec.name ^ ": planted bugs")
        3 sc.Truth.n_real_planted;
      Alcotest.(check int) (spec.name ^ ": found") 3 sc.Truth.n_found;
      if Truth.fp_rate sc > paper_fp_rate then
        Alcotest.failf "%s: %d FP of %d reports, above the paper's %.1f%%"
          spec.name sc.Truth.n_fp sc.Truth.n_reports (100.0 *. paper_fp_rate))
    [
      (Pinpoint.Checkers.path_traversal, 0.196);
      (Pinpoint.Checkers.data_transmission, 0.261);
    ]

(* Table 3, on the open-source subjects of Table 1 and mysql: the
   unit-confined baselines miss every cross-unit bug, so each of their
   true positives is an intra-procedural planted bug (the generator names
   its function [*_luaf_N]). *)
let test_table3 () =
  let mysql, _, _ = Lazy.force mysql in
  let subjects =
    List.filter_map
      (fun ((info : Subjects.info), row) ->
        if info.category = Subjects.Open_source then
          Some (row.subject, row.program)
        else None)
      (List.combine table1_subjects (Lazy.force table1_rows))
    @ [ (mysql, Gen.compile mysql) ]
  in
  let contains ~sub s =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  let check_true_positives name keys =
    let tps =
      List.concat_map
        (fun ((s : Gen.subject), program) ->
          List.filter_map
            (fun (source_line, _) ->
              List.find_opt
                (fun (p : Truth.planted) ->
                  p.kind = uaf && p.real && p.source_line = source_line)
                s.truth)
            (keys program))
        subjects
    in
    if tps = [] then Alcotest.failf "%s: no true positive" name;
    List.iter
      (fun (p : Truth.planted) ->
        if not (contains ~sub:"_luaf_" p.fname) then
          Alcotest.failf "%s finds the cross-function bug in %s (%s)" name
            p.fname p.descr)
      tps
  in
  check_true_positives "Infer-like" (fun prog ->
      List.map
        (fun (r : Pinpoint_baselines.Infer_like.report) ->
          key r.source_loc r.sink_loc)
        (Pinpoint_baselines.Infer_like.check_uaf prog));
  check_true_positives "CSA-like" (fun prog ->
      List.map
        (fun (r : Pinpoint_baselines.Csa_like.report) ->
          key r.source_loc r.sink_loc)
        (Pinpoint_baselines.Csa_like.check_uaf prog))

(* §3.1.1: only the linear-time solver runs before bug detection, and it
   prunes points-to conditions there.  [solver.n_queries] counts
   full-solver queries. *)
let test_solver_split () =
  let _, _, prepared = Lazy.force mysql in
  Alcotest.(check int) "full-solver queries while preparing mysql" 0
    (prepared "solver.n_queries");
  Alcotest.(check bool) "conditions pruned while preparing mysql" true
    (prepared "pta.n_pruned" > 0)

(* The ablation's feasibility cliff: without the SMT stage, the
   branch-correlated traps all come back as false positives. *)
let test_feasibility_cliff () =
  let s, a, _ = Lazy.force mysql in
  let fp config =
    (score ~config s a Pinpoint.Checkers.use_after_free).Truth.n_fp
  in
  let config = Pinpoint.Engine.default_config in
  Alcotest.(check int) "FPs with feasibility" 0 (fp config);
  Alcotest.(check int) "FPs without feasibility" 32
    (fp { config with check_feasibility = false })

let suite =
  [
    Alcotest.test_case "Table 1: Pinpoint vs SVF" `Quick test_table1;
    Alcotest.test_case "Table 2: taint FP rates" `Quick test_table2;
    Alcotest.test_case "Table 3: unit-confined baselines" `Quick test_table3;
    Alcotest.test_case "3.1.1: no full solver in preparation" `Quick
      test_solver_split;
    Alcotest.test_case "ablation: feasibility cliff" `Quick
      test_feasibility_cliff;
  ]
