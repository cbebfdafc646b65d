(* The Pinpoint benchmark.  Run from the root of the repository through
   perfbench/run.sh, which builds the analyser and this program first:

     run.sh --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
     run.sh suite --seed N [--seconds S] [--out FILE]
     run.sh compare OLD.json NEW.json
     run.sh scaling [--seed N]

   The first form runs one workload: end to end with --trace 0, as one
   traced in-process pass with --trace 1.  It prints every metric it
   measured, then as its last line a JSON object with the verdict and the
   metrics BENCHMARK.json lists for that mode, and exits 1 if any output
   was wrong.  Scratch files go under .perfbench/ and are removed. *)

open Perfbench

let spec_file = "BENCHMARK.json"
let state_dir = ".perfbench"

let usage =
  "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]\n\
  \       main.exe suite --seed N [--seconds S] [--out FILE]\n\
  \       main.exe compare OLD.json NEW.json\n\
  \       main.exe scaling [--seed N]"

let seed = ref 1
let seconds = ref 25
let trace = ref 0
let workload = ref ""
let out = ref ""
let cli = "_build/default/bin/pinpoint_cli.exe"

let common =
  [
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_int seconds, "S measuring time per workload");
    ("--out", Arg.Set_string out, "FILE also write the results as JSON");
  ]

(* Spans stay in memory during a run and are written once, at its end, as
   a Chrome trace (open it in Perfetto). *)
let write_trace name =
  let path = Filename.concat state_dir (Printf.sprintf "trace-%s-seed%d.json" name !seed) in
  Pinpoint_obs.Export.write_trace path;
  Printf.printf "Chrome trace written to %s\n" path

let parse argv specs =
  let anon = ref [] in
  Arg.parse_argv ~current:(ref 0) argv (Arg.align specs) (fun a -> anon := a :: !anon) usage;
  List.rev !anon

(* A scratch directory for one invocation, removed afterwards; children
   must have exited [budget_s] from now. *)
let with_ctx ~budget_s f =
  if not (Sys.file_exists state_dir) then Sys.mkdir state_dir 0o755;
  let dir = Filename.concat state_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Workloads.rm_rf dir;
  Sys.mkdir dir 0o755;
  if not (Sys.file_exists cli) then Spec.fail "pinpoint binary not found at %s" cli;
  Fun.protect
    ~finally:(fun () -> Workloads.rm_rf dir)
    (fun () ->
      let deadline = Proc.now () +. budget_s in
      f { Workloads.cli; dir; deadline; speed = Speed.start () })

let run_one argv =
  ignore
    (parse argv
       (common
       @ [
           ("--workload", Arg.Set_string workload, "NAME workload to run");
           ("--trace", Arg.Set_int trace, "0|1 end to end (0) or one traced pass (1)");
         ]));
  if !trace <> 0 && !trace <> 1 then Spec.fail "--trace takes 0 or 1";
  if !seconds < 1 then Spec.fail "--seconds takes a positive number";
  let spec = Spec.load spec_file in
  let w =
    match Workloads.find !workload with
    | Some w when List.mem_assoc !workload spec.workloads -> w
    | _ -> Spec.fail "unknown workload %S" !workload
  in
  (* a run must end within 180 s: leave room after the last child *)
  let o =
    with_ctx ~budget_s:165.0 (fun ctx ->
        if !trace = 1 then Workloads.traced ctx w ~seed:!seed
        else Workloads.measure ctx w ~seed:!seed ~seconds:!seconds)
  in
  if !trace = 1 then write_trace w.name;
  Outcome.print stdout o;
  if !out <> "" then Outcome.write_results !out ~seed:!seed ~seconds:!seconds [ o ];
  let wanted = if !trace = 1 then spec.per_layer else spec.end_to_end in
  print_endline (Outcome.summary_line o (Outcome.select o wanted));
  if not o.correct then exit 1

let run_suite argv =
  ignore (parse argv common);
  let spec = Spec.load spec_file in
  let outcomes = with_ctx ~budget_s:3600.0 (fun ctx -> Workloads.suite ctx ~seed:!seed ~seconds:!seconds) in
  write_trace "suite";
  List.iter (Outcome.print stdout) outcomes;
  List.iter
    (fun (o : Outcome.t) -> ignore (Outcome.select o (if o.traced then spec.per_layer else spec.end_to_end)))
    outcomes;
  let path =
    if !out <> "" then !out else Filename.concat state_dir (Printf.sprintf "suite-seed%d.json" !seed)
  in
  Outcome.write_results path ~seed:!seed ~seconds:!seconds outcomes;
  Printf.printf "results written to %s\n" path;
  if List.exists (fun (o : Outcome.t) -> not o.correct) outcomes then exit 1

let run_compare argv =
  match parse argv [] with
  | [ old_file; new_file ] ->
    let rows =
      Compare.rows (Spec.load spec_file) (Outcome.read_samples old_file)
        (Outcome.read_samples new_file)
    in
    Compare.print stdout rows;
    if List.exists (fun (r : Compare.row) -> r.verdict = Compare.Worse) rows then exit 1
  | _ -> Spec.fail "compare takes two results files"

let run_scaling argv =
  ignore (parse argv common);
  with_ctx ~budget_s:3600.0 (fun ctx -> Scaling.print stdout (Scaling.measure ~dir:ctx.dir ~seed:!seed))

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let argv = Sys.argv in
  let rest () = Array.sub argv 1 (Array.length argv - 1) in
  try
    match if Array.length argv > 1 then argv.(1) else "" with
    | "suite" -> run_suite (rest ())
    | "compare" -> run_compare (rest ())
    | "scaling" -> run_scaling (rest ())
    | _ -> run_one argv
  with
  | Failure msg | Sys_error msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  | Arg.Bad msg | Arg.Help msg ->
    prerr_string msg;
    exit 2
