(* Shared helpers for the test suite. *)

let compile src = Pinpoint_frontend.Lower.compile_string ~file:"<test>" src

let prepare src = Pinpoint.Analysis.prepare_source ~file:"<test>" src

let func prog name =
  match Pinpoint_ir.Prog.find prog name with
  | Some f -> f
  | None -> Alcotest.failf "function %s not found" name

let run_checker ?config src spec =
  let a = prepare src in
  let reports, _ = Pinpoint.Analysis.check ?config a spec in
  reports

let reported ?config src spec =
  List.filter Pinpoint.Report.is_reported (run_checker ?config src spec)

let n_reported ?config src spec = List.length (reported ?config src spec)

let uaf = Pinpoint.Checkers.use_after_free
let dfree = Pinpoint.Checkers.double_free
let taint_path = Pinpoint.Checkers.path_traversal
let taint_trans = Pinpoint.Checkers.data_transmission

(* qcheck wrapper *)
let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Run [f] with metrics on and return its result together with the
   registry's change over the call: the solver and the engine count their
   work only in the registry, and only while metrics are on. *)
let with_counters f =
  let module Obs = Pinpoint_obs.Obs in
  let level = Obs.level () and before = Obs.snapshot () in
  Obs.set_level Obs.Metrics_only;
  let r = Fun.protect ~finally:(fun () -> Obs.set_level level) f in
  (r, Obs.Snapshot.diff (Obs.snapshot ()) before)

(* A counter's value in a snapshot; 0 when absent. *)
let counter snap name =
  match List.assoc_opt name snap with
  | Some (Pinpoint_obs.Obs.Snapshot.Counter n) -> n
  | _ -> 0
