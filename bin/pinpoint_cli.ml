(* The pinpoint command-line driver.

   Usage:
     pinpoint check FILE.mc [-c use-after-free] [-c double-free] ...
     pinpoint dump FILE.mc [--what cfg|seg|iface]
     pinpoint baseline FILE.mc [--tool svf|infer|csa]
     pinpoint list-checkers *)

open Cmdliner

let checkers_conv =
  let parse s =
    match Pinpoint.Checkers.by_name s with
    | Some c -> Ok c
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown checker %s (try: %s)" s
             (String.concat ", "
                (List.map
                   (fun (c : Pinpoint.Checker_spec.t) -> c.Pinpoint.Checker_spec.name)
                   Pinpoint.Checkers.all))))
  in
  let print ppf (c : Pinpoint.Checker_spec.t) =
    Format.pp_print_string ppf c.Pinpoint.Checker_spec.name
  in
  Arg.conv (parse, print)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MC source file")

let files_arg =
  Arg.(
    non_empty & pos_all file []
    & info [] ~docv:"FILE"
        ~doc:
          "MC source file(s); several files are compiled as one program \
           (calls may cross file boundaries)")

let checkers_arg =
  Arg.(
    value
    & opt_all checkers_conv Pinpoint.Checkers.all
    & info [ "c"; "checker" ] ~docv:"NAME" ~doc:"Checker to run (repeatable)")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print value-flow traces")

let confirm_arg =
  Arg.(
    value & flag
    & info [ "confirm" ]
        ~doc:"Fuzz the program with the concrete interpreter and mark reports \
              whose sink was observed at run time")

(* Resilience flags (shared by check and serve). *)

let deadline_arg =
  Arg.(
    value & opt float infinity
    & info [ "deadline" ] ~docv:"SEC"
        ~doc:
          "Wall-clock budget per checker run.  On expiry, in-flight \
           feasibility queries step down the solver degradation ladder and \
           the remaining sources are skipped; reports found so far are kept.")

let solver_budget_arg =
  Arg.(
    value & opt float infinity
    & info [ "solver-budget" ] ~docv:"SEC"
        ~doc:
          "Wall-clock budget per feasibility query for the full solver rung \
           (the halved retry gets half of it).")

let solver_conflicts_arg =
  Arg.(
    value & opt int Pinpoint_smt.Sat.default_budget
    & info [ "solver-conflicts" ] ~docv:"N"
        ~doc:
          "CDCL conflict budget per SAT call for the full solver rung (the \
           halved retry gets half).  Exhaustion yields an Unknown verdict \
           (report kept), not a ladder step-down.")

let no_refine_arg =
  Arg.(
    value & flag
    & info [ "no-refine" ]
        ~doc:
          "Disable demand-driven refinement of Sat feasibility verdicts \
           (reports refuted only by derived linear facts — false positives \
           of the weak nonlinear theory — are kept).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run the analysis on $(docv) domains (default 1 = sequential, \
           capped at the host's core count — extra domains beyond that \
           only add GC-barrier overhead).  Reports and stats are \
           identical at every level.")

(* Artifact-store flags (DESIGN.md §4.14), shared by check and serve. *)

let store_dir_arg =
  Arg.(
    value & opt (some string) None
    & info [ "store-dir" ] ~docv:"DIR"
        ~doc:
          "Spill per-function analysis artifacts (SEGs and value-flow \
           summaries) to a disk-resident store under $(docv), bounding peak \
           memory for MLoC subjects.  Reports are identical to an in-memory \
           run.")

let max_resident_arg =
  Arg.(
    value & opt int 64
    & info [ "max-resident-fns" ] ~docv:"N"
        ~doc:
          "With $(b,--store-dir): keep at most $(docv) decoded functions \
           resident per artifact kind (LRU; 0 = unbounded).")

let rss_cap_arg =
  Arg.(
    value & opt float 0.0
    & info [ "rss-cap-mb" ] ~docv:"MB"
        ~doc:
          "Fail (exit 3) if the process peak RSS exceeded $(docv) megabytes \
           by the end of the run (0 = no cap).  Used by CI to pin the \
           store's memory bound.")

(* A path on the command line that cannot be used is a usage error,
   found before any analysis runs: one line on stderr and exit 1, as for
   a parse error. *)
let guard_path flag path f =
  try f ()
  with Unix.Unix_error (e, _, _) ->
    Printf.eprintf "pinpoint: %s %s: %s\n%!" flag path (Unix.error_message e);
    exit 1

(* [dir] exists and takes new entries. *)
let writable_dir dir =
  match (Unix.stat dir).Unix.st_kind with
  | Unix.S_DIR -> Unix.access dir [ Unix.W_OK; Unix.X_OK ]
  | _ -> raise (Unix.Unix_error (Unix.ENOTDIR, "stat", dir))

(* A file written at the end of the run ([--trace], [--metrics-json]):
   open it for writing now, and leave the file system as it was. *)
let check_output flag =
  Option.iter (fun path ->
      guard_path flag path (fun () ->
          let existed = Sys.file_exists path in
          Unix.close (Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644);
          if not existed then Sys.remove path))

(* A directory made on first use ([--snapshot-dir]): its nearest existing
   ancestor must take new entries. *)
let check_dir flag =
  let rec nearest dir =
    if Sys.file_exists dir then writable_dir dir
    else nearest (Filename.dirname dir)
  in
  Option.iter (fun dir -> guard_path flag dir (fun () -> nearest dir))

(* An input program that does not parse or lower is the user's error:
   one [FILE:LINE: ...] line on stderr and exit 1. *)
let or_bad_input files f =
  try f () with
  | Pinpoint_frontend.Parser.Error (msg, line) ->
    Printf.eprintf "%s:%d: parse error: %s\n" (String.concat "," files) line msg;
    exit 1
  | Pinpoint_frontend.Lower.Error (msg, loc) ->
    Printf.eprintf "%s:%d: error: %s\n" loc.Pinpoint_ir.Stmt.file
      loc.Pinpoint_ir.Stmt.line msg;
    exit 1

let with_store ~store_dir ~max_resident f =
  match store_dir with
  | None -> f None
  | Some dir ->
    (* Store mode trades CPU for bounded memory; decode faults churn the
       major heap, so run the GC with a tighter space overhead or the
       slack eats the residency savings.  Only ever lower it, so an
       explicit OCAMLRUNPARAM o=... below 40 still wins. *)
    let g = Gc.get () in
    if g.Gc.space_overhead > 40 then Gc.set { g with Gc.space_overhead = 40 };
    let st =
      guard_path "--store-dir" dir (fun () ->
          Pinpoint_store.Store.create ~dir ~max_resident ())
    in
    f (Some st)

let check_rss_cap ~rss_cap_mb =
  if rss_cap_mb > 0.0 then begin
    let peak_mb = float_of_int (Pinpoint_util.Metrics.peak_rss_kb ()) /. 1024.0 in
    if peak_mb > rss_cap_mb then begin
      Printf.eprintf "peak RSS %.1f MB exceeds cap %.1f MB\n" peak_mb rss_cap_mb;
      exit 3
    end
  end

let publish_process_obs store =
  Option.iter Pinpoint_store.Store.publish_obs store;
  Pinpoint_obs.Obs.set_gauge
    (Pinpoint_obs.Obs.gauge "process.maxrss_kb")
    (float_of_int (Pinpoint_util.Metrics.peak_rss_kb ()))

(* Observability flags (DESIGN.md §4.11), shared by check and stats.
   Observability never changes the analysis: reports and stats are
   byte-identical with it on or off. *)

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON timeline of the run to $(docv) \
           (one track per domain; open in chrome://tracing or Perfetto).  \
           Implies full tracing.")

let metrics_json_arg =
  Arg.(
    value & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:
          "Write the metrics registry (counters, gauges, histograms) and the \
           SMT query profile (rung distribution, top-K slowest queries with \
           source/sink attribution) as JSON to $(docv).")

let obs_arg =
  Arg.(
    value & flag
    & info [ "obs" ]
        ~doc:"Print the observability summary (metrics tables and the SMT \
              query profile) after the run.")

(* Check the export paths, then set the level the flags ask for. *)
let init_obs ~trace ~metrics_json ~obs =
  check_output "--trace" trace;
  check_output "--metrics-json" metrics_json;
  Pinpoint_obs.Obs.set_level
    (if trace <> None then Pinpoint_obs.Obs.Trace
     else if metrics_json <> None || obs then Pinpoint_obs.Obs.Metrics_only
     else Pinpoint_obs.Obs.Off)

(* Called explicitly before any [exit 2] (a [Fun.protect] finaliser would
   not run across [exit]). *)
let export_obs ?pool ~trace ~metrics_json ~obs () =
  (* The pool outlives the export (it is shut down by [with_jobs]), so
     fold its par.* counters into the registry before writing the file. *)
  Option.iter Pinpoint_par.Pool.publish_obs pool;
  Option.iter Pinpoint_obs.Export.write_trace trace;
  Option.iter Pinpoint_obs.Export.write_metrics metrics_json;
  if obs then Format.printf "%a" Pinpoint_obs.Export.pp_summary ()

(* [--jobs 1] must be the plain sequential pipeline — no pool, no domains —
   so it stays byte-for-byte the historical code path. *)
let with_jobs jobs f =
  let jobs = Pinpoint_par.Pool.effective_jobs jobs in
  if jobs <= 1 then f None
  else Pinpoint_par.Pool.with_pool ~jobs (fun p -> f (Some p))

let print_incidents ~verbose (a : Pinpoint.Analysis.t) =
  let res = a.Pinpoint.Analysis.resilience in
  if Pinpoint_util.Resilience.count res > 0 then begin
    Format.printf "== incidents: %a@." Pinpoint_util.Resilience.pp_summary res;
    if verbose then
      List.iter
        (fun i ->
          Format.printf "  %a@." Pinpoint_util.Resilience.pp_incident i)
        (Pinpoint_util.Resilience.incidents res)
  end

(* A command's EXIT STATUS section: its own codes, then cmdliner's. *)
let exits codes =
  List.map (fun (code, doc) -> Cmd.Exit.info code ~doc) codes
  @ List.filter (fun i -> Cmd.Exit.info_code i <> Cmd.Exit.ok) Cmd.Exit.defaults

let bad_program_exit = (1, "when the input program does not parse or lower.")

let bad_input_exit =
  ( 1,
    "when the input program does not parse or lower, or when a path given \
     on the command line cannot be used." )

let check_cmd =
  let run files checkers verbose confirm deadline_s budget_s solver_conflicts
      no_refine jobs store_dir max_resident rss_cap_mb trace metrics_json obs =
    init_obs ~trace ~metrics_json ~obs;
    with_jobs jobs @@ fun pool ->
    with_store ~store_dir ~max_resident @@ fun store ->
    let a =
      or_bad_input files (fun () ->
          Pinpoint.Analysis.prepare_files ?pool ?store files)
    in
    (* Persist the VF summaries the checkers will need, then seal: a
       disk store's blob gets its index and checksummed trailer, and the
       checks that follow read artifacts through the mmap path. *)
    Pinpoint.Analysis.seal_store a checkers;
    let any = ref false in
    List.iter
      (fun (spec : Pinpoint.Checker_spec.t) ->
        (* A fresh per-checker deadline: one slow checker cannot starve
           the next one of its whole budget. *)
        let config =
          {
            Pinpoint.Engine.default_config with
            deadline = Pinpoint_util.Metrics.deadline_after deadline_s;
            solver_budget_s = budget_s;
            solver_conflict_budget = solver_conflicts;
            use_refine = not no_refine;
          }
        in
        let reports, stats = Pinpoint.Analysis.check ~config a spec in
        let reported = List.filter Pinpoint.Report.is_reported reports in
        let n name = Pinpoint_obs.Obs.Snapshot.counter stats ("engine.n_" ^ name) in
        let halved = n "rung_halved"
        and linear = n "rung_linear"
        and gave_up = n "rung_gave_up" in
        Format.printf "== %s: %d report(s) (%d sources, %d candidates)%t@."
          spec.Pinpoint.Checker_spec.name (List.length reported)
          (n "sources") (n "candidates")
          (fun ppf ->
            if halved + linear + gave_up > 0 then
              Format.fprintf ppf " [degraded queries: %d halved, %d linear, %d gave-up]"
                halved linear gave_up);
        let statuses =
          if confirm then
            Pinpoint.Confirm.confirm_all a.Pinpoint.Analysis.prog reported
          else List.map (fun r -> (r, `Unconfirmed)) reported
        in
        List.iter
          (fun ((r : Pinpoint.Report.t), status) ->
            any := true;
            let suffix =
              if confirm then
                Pinpoint_util.Pp.to_string
                  (fun ppf () ->
                    Format.fprintf ppf " [%a]" Pinpoint.Confirm.pp_status status)
                  ()
              else ""
            in
            if verbose then Format.printf "%a%s@." Pinpoint.Report.pp r suffix
            else
              Format.printf "%s%s@." (Pinpoint.Report.one_line r) suffix)
          statuses)
      checkers;
    print_incidents ~verbose a;
    publish_process_obs store;
    export_obs ?pool ~trace ~metrics_json ~obs ();
    Option.iter Pinpoint_store.Store.close store;
    check_rss_cap ~rss_cap_mb;
    if !any then exit 2
  in
  let term =
    Term.(
      const run $ files_arg $ checkers_arg $ verbose_arg $ confirm_arg
      $ deadline_arg $ solver_budget_arg $ solver_conflicts_arg
      $ no_refine_arg $ jobs_arg $ store_dir_arg $ max_resident_arg
      $ rss_cap_arg $ trace_arg $ metrics_json_arg $ obs_arg)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Run checkers on MC source file(s)"
       ~exits:
         (exits
            [
              (0, "when no checker reports.");
              bad_input_exit;
              (2, "when a checker reports.");
              (3, "when the peak RSS exceeded $(b,--rss-cap-mb).");
            ]))
    term

let what_arg =
  Arg.(
    value
    & opt (enum [ ("cfg", `Cfg); ("seg", `Seg); ("iface", `Iface); ("ir", `Ir) ]) `Seg
    & info [ "what" ] ~doc:"What to dump: cfg, seg, iface or ir")

let dump_cmd =
  let run file what =
    let a = or_bad_input [ file ] (fun () -> Pinpoint.Analysis.prepare_file file) in
    List.iter
      (fun (f : Pinpoint_ir.Func.t) ->
        match what with
        | `Cfg -> print_string (Pinpoint_ir.Func.dot f)
        | `Ir -> Format.printf "%a@." Pinpoint_ir.Func.pp f
        | `Seg -> (
          match Pinpoint.Analysis.seg_of a f.Pinpoint_ir.Func.fname with
          | Some seg -> print_string (Pinpoint_seg.Seg.dot seg)
          | None -> ())
        | `Iface -> (
          match
            Hashtbl.find_opt
              a.Pinpoint.Analysis.ifaces
              f.Pinpoint_ir.Func.fname
          with
          | Some iface ->
            Format.printf "%s: %a@." f.Pinpoint_ir.Func.fname
              Pinpoint_transform.Transform.pp_iface iface
          | None -> ()))
      (Pinpoint_ir.Prog.functions a.Pinpoint.Analysis.prog)
  in
  let term = Term.(const run $ file_arg $ what_arg) in
  Cmd.v
    (Cmd.info "dump" ~doc:"Dump IR / CFG / SEG / interfaces"
       ~exits:(exits [ (0, "on success."); bad_program_exit ]))
    term

let tool_arg =
  Arg.(
    value
    & opt (enum [ ("svf", `Svf); ("infer", `Infer); ("csa", `Csa) ]) `Svf
    & info [ "tool" ] ~doc:"Baseline tool: svf, infer or csa")

let baseline_cmd =
  let run file tool =
    let prog =
      or_bad_input [ file ] (fun () -> Pinpoint_frontend.Lower.compile_file file)
    in
    let print_report source_fn source_loc sink_loc =
      Format.printf "use-after-free: %a -> %a (%s)@." Pinpoint_ir.Stmt.pp_loc
        source_loc Pinpoint_ir.Stmt.pp_loc sink_loc source_fn
    in
    match tool with
    | `Svf ->
      let svf = Pinpoint_baselines.Svf.build prog in
      let st = Pinpoint_baselines.Svf.stats svf in
      Format.printf
        "FSVFG: %d nodes, %d direct + %d indirect edges%s@." st.n_nodes
        st.n_direct_edges st.n_indirect_edges
        (if st.timed_out then " (timed out)" else "");
      List.iter
        (fun (r : Pinpoint_baselines.Svf.report) ->
          print_report r.source_fn r.source_loc r.sink_loc)
        (Pinpoint_baselines.Svf.check_uaf svf)
    | `Infer ->
      List.iter
        (fun (r : Pinpoint_baselines.Infer_like.report) ->
          print_report r.source_fn r.source_loc r.sink_loc)
        (Pinpoint_baselines.Infer_like.check_uaf prog)
    | `Csa ->
      List.iter
        (fun (r : Pinpoint_baselines.Csa_like.report) ->
          print_report r.source_fn r.source_loc r.sink_loc)
        (Pinpoint_baselines.Csa_like.check_uaf prog)
  in
  let term = Term.(const run $ file_arg $ tool_arg) in
  Cmd.v
    (Cmd.info "baseline" ~doc:"Run a baseline tool on an MC source file"
       ~exits:(exits [ (0, "on success."); bad_program_exit ]))
    term

let leaks_cmd =
  let run file jobs =
    with_jobs jobs @@ fun pool ->
    let a =
      or_bad_input [ file ] (fun () -> Pinpoint.Analysis.prepare_file ?pool file)
    in
    let reports =
      Pinpoint.Leak.check ~resilience:a.Pinpoint.Analysis.resilience
        a.Pinpoint.Analysis.prog ~seg_of:(Pinpoint.Analysis.seg_of a)
        ~rv:a.Pinpoint.Analysis.rv
    in
    Format.printf "== memory-leak: %d report(s)@." (List.length reports);
    List.iter (fun r -> Format.printf "%a" Pinpoint.Leak.pp r) reports;
    print_incidents ~verbose:false a;
    if reports <> [] then exit 2
  in
  let term = Term.(const run $ file_arg $ jobs_arg) in
  Cmd.v
    (Cmd.info "leaks" ~doc:"Run the memory-leak checker"
       ~exits:
         (exits
            [
              (0, "when nothing leaks.");
              bad_program_exit;
              (2, "when a leak is reported.");
            ]))
    term

let stats_cmd =
  let run file jobs trace metrics_json obs =
    init_obs ~trace ~metrics_json ~obs;
    with_jobs jobs @@ fun pool ->
    let a =
      or_bad_input [ file ] (fun () -> Pinpoint.Analysis.prepare_file ?pool file)
    in
    let v, e = Pinpoint.Analysis.seg_size a in
    let prog = a.Pinpoint.Analysis.prog in
    Format.printf "functions: %d   statements: %d   SEG: %d vertices, %d edges@."
      (List.length (Pinpoint_ir.Prog.functions prog))
      (Pinpoint_ir.Prog.n_stmts prog)
      v e;
    let m = a.Pinpoint.Analysis.metrics in
    Format.printf "phases: frontend %a | PTA+transform+SEG+summaries %a@."
      Pinpoint_util.Metrics.pp_duration m.Pinpoint.Analysis.frontend.wall_s
      Pinpoint_util.Metrics.pp_duration m.Pinpoint.Analysis.prepare.wall_s;
    Format.printf "@.%-24s %6s %6s %8s %8s  %s@." "function" "stmts" "blocks"
      "SEG |V|" "SEG |E|" "interface";
    List.iter
      (fun (f : Pinpoint_ir.Func.t) ->
        let name = f.Pinpoint_ir.Func.fname in
        let iface =
          match
            Hashtbl.find_opt
              a.Pinpoint.Analysis.ifaces
              name
          with
          | Some i ->
            Pinpoint_util.Pp.to_string Pinpoint_transform.Transform.pp_iface i
          | None -> "-"
        in
        let sv, se =
          match Pinpoint.Analysis.seg_of a name with
          | Some seg ->
            (Pinpoint_seg.Seg.n_vertices seg, Pinpoint_seg.Seg.n_edges seg)
          | None -> (0, 0)
        in
        Format.printf "%-24s %6d %6d %8d %8d  %s@." name
          (Pinpoint_ir.Func.n_stmts f)
          (Pinpoint_ir.Func.n_blocks f)
          sv se iface)
      (Pinpoint_ir.Prog.functions prog);
    export_obs ?pool ~trace ~metrics_json ~obs ()
  in
  let term =
    Term.(
      const run $ file_arg $ jobs_arg $ trace_arg
      $ metrics_json_arg $ obs_arg)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Per-function analysis statistics"
       ~exits:
         (exits [ (0, "on success."); bad_input_exit ]))
    term

(* ---------- the analysis server (DESIGN.md §4.13) ---------- *)

let socket_arg =
  Arg.(
    value & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Serve newline-delimited JSON requests over a Unix-domain socket \
           at $(docv) (default: stdin/stdout).")

let max_rss_arg =
  Arg.(
    value & opt float 0.0
    & info [ "max-rss-mb" ] ~docv:"MB"
        ~doc:
          "Load shedding: refuse check requests (after one forced major GC) \
           while the resident set exceeds $(docv) megabytes (0 = unlimited).")

let snapshot_dir_arg =
  Arg.(
    value & opt (some string) None
    & info [ "snapshot-dir" ] ~docv:"DIR"
        ~doc:
          "Crash-safe warm restart: write epoch snapshots and an update \
           journal under $(docv), and recover from them at startup.")

let snapshot_every_arg =
  Arg.(
    value & opt int Pinpoint_server.Server.default_config.snapshot_every
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:"Full snapshot (and journal truncation) every $(docv) updates.")

let incident_cap_arg =
  Arg.(
    value & opt int Pinpoint_server.Server.default_config.incident_cap
    & info [ "incident-cap" ] ~docv:"N"
        ~doc:
          "Retain at most $(docv) incidents in the shared log; older ones \
           are rotated out but stay counted.")

let serve_files_arg =
  Arg.(
    value & pos_all file []
    & info [] ~docv:"FILE"
        ~doc:
          "Initial MC source file(s) to load; may be empty, in which case \
           the first check request must carry the full file set.")

let prom_file_arg =
  Arg.(
    value & opt (some string) None
    & info [ "prom-file" ] ~docv:"PATH"
        ~doc:
          "Write a Prometheus text exposition of the live metrics registry \
           to $(docv), refreshed at request-processing time at most every \
           $(b,--prom-every) seconds.")

let prom_every_arg =
  Arg.(
    value & opt float Pinpoint_server.Server.default_config.prom_every_s
    & info [ "prom-every" ] ~docv:"SEC"
        ~doc:"Minimum seconds between $(b,--prom-file) refreshes.")

let flight_file_arg =
  Arg.(
    value & opt string Pinpoint_server.Server.default_config.flight_file
    & info [ "flight-file" ] ~docv:"PATH"
        ~doc:
          "Flight-recorder dump target for crashes, RSS sheds and the \
           $(b,dump) op, which writes no other file.")

let no_flight_arg =
  Arg.(
    value & flag
    & info [ "no-flight" ]
        ~doc:
          "Disable the always-on flight recorder (normally kept on even at \
           obs level off; its per-event cost is a few dozen nanoseconds).")

let serve_cmd =
  let run files socket max_rss_mb snapshot_dir snapshot_every
      incident_cap deadline_s budget_s solver_conflicts jobs store_dir
      max_resident prom_file prom_every flight_file no_flight trace
      metrics_json obs =
    init_obs ~trace ~metrics_json ~obs;
    (* a client that hangs up makes a write fail instead of killing the
       server; [Server.serve_channels] then ends that connection *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    check_dir "--snapshot-dir" snapshot_dir;
    Option.iter
      (fun path ->
        guard_path "--socket" path (fun () ->
            (* a Unix socket address holds at most 107 bytes of path on
               Linux; [bind] would fail only after the files load *)
            if String.length path > 107 then
              raise (Unix.Unix_error (Unix.ENAMETOOLONG, "bind", path));
            writable_dir (Filename.dirname path)))
      socket;
    with_jobs jobs @@ fun pool ->
    with_store ~store_dir ~max_resident @@ fun store ->
    let config =
      {
        Pinpoint_server.Server.max_rss_mb;
        snapshot_dir;
        snapshot_every;
        incident_cap;
        default_deadline_s = deadline_s;
        solver_budget_s = budget_s;
        solver_conflicts;
        pool;
        store;
        prom_file;
        prom_every_s = prom_every;
        flight_file;
        flight = not no_flight;
      }
    in
    let t = Pinpoint_server.Server.create ~config () in
    let recovered = Pinpoint_server.Server.recover t in
    if (not recovered) && files <> [] then begin
      let read path =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> (path, really_input_string ic (in_channel_length ic)))
      in
      or_bad_input files (fun () ->
          Pinpoint_server.Server.load_files t (List.map read files))
    end;
    (match socket with
    | Some path -> Pinpoint_server.Server.serve_socket t path
    | None -> Pinpoint_server.Server.serve_stdio t);
    publish_process_obs store;
    export_obs ?pool ~trace ~metrics_json ~obs ();
    Option.iter Pinpoint_store.Store.close store
  in
  let term =
    Term.(
      const run $ serve_files_arg $ socket_arg $ max_rss_arg
      $ snapshot_dir_arg $ snapshot_every_arg $ incident_cap_arg $ deadline_arg $ solver_budget_arg
      $ solver_conflicts_arg $ jobs_arg $ store_dir_arg
      $ max_resident_arg $ prom_file_arg $ prom_every_arg $ flight_file_arg
      $ no_flight_arg $ trace_arg $ metrics_json_arg $ obs_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent analysis server (newline-delimited JSON \
          requests; incremental re-analysis of changed files)"
       ~exits:
         (exits
            [ (0, "after a shutdown request or end of input."); bad_input_exit ]))
    term

let list_cmd =
  let run () =
    List.iter
      (fun (c : Pinpoint.Checker_spec.t) ->
        Printf.printf "%-20s %s\n" c.Pinpoint.Checker_spec.name
          c.Pinpoint.Checker_spec.description)
      Pinpoint.Checkers.all
  in
  Cmd.v (Cmd.info "list-checkers" ~doc:"List available checkers")
    Term.(const run $ const ())

let main =
  let doc = "Pinpoint: fast and precise sparse value-flow analysis" in
  Cmd.group (Cmd.info "pinpoint" ~doc)
    [ check_cmd; dump_cmd; baseline_cmd; stats_cmd; leaks_cmd; serve_cmd; list_cmd ]

let () = exit (Cmd.eval main)
