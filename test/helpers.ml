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

(* Run [f] and return its result together with the registry's change
   over the call: the solver, the engine and the points-to filter count
   their work only in the registry, at every obs level.  Read a count
   with [Obs.Snapshot.counter]. *)
let with_counters f =
  let module Obs = Pinpoint_obs.Obs in
  let before = Obs.snapshot () in
  let r = f () in
  (r, Obs.Snapshot.diff (Obs.snapshot ()) before)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun name -> remove_tree (Filename.concat path name))
      (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Run [f] on a fresh directory under the temp dir, named [prefix] plus a
   unique suffix, and remove its tree afterwards, also when [f] raises. *)
let with_temp_dir prefix f =
  let dir = Filename.temp_dir prefix "" in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)
