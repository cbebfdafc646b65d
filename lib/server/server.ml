(* The pinpoint analysis server (DESIGN.md §4.13).

   A long-lived process holding one resident subject (Incr.state) and
   answering newline-delimited JSON requests over stdin/stdout or a Unix
   socket.  Robustness model:

   - every request runs inside an exception barrier: a crash (organic or
     injected) produces an error response and leaves the resident state
     for the next request;
   - a per-request deadline is threaded into the engine config, where it
     feeds the solver degradation ladder — a blown deadline degrades
     verdicts, it never kills the server;
   - one loop on the calling domain reads a request, answers it and
     flushes the answer before it reads the next, so a client that writes
     ahead waits on the pipe's or socket's buffer; a check is refused
     (after one forced major GC) when the resident set exceeds the RSS
     watermark, with an explicit "overloaded" response so clients can
     back off;
   - crash-safe warm restart: file contents are snapshotted to disk
     (write-to-temp + rename) every N updates, with the in-between
     updates appended to a journal; recovery loads the snapshot and
     replays whole journal lines, so a torn tail line is ignored. *)

module Resilience = Pinpoint_util.Resilience
module Metrics = Pinpoint_util.Metrics
module Obs = Pinpoint_obs.Obs
module Window = Pinpoint_obs.Window
module Flight = Pinpoint_obs.Flight
module Export = Pinpoint_obs.Export

type config = {
  max_rss_mb : float;       (** RSS watermark; 0 = unlimited *)
  snapshot_dir : string option;
  snapshot_every : int;     (** updates between epoch snapshots *)
  incident_cap : int;       (** retained-incident cap for the shared log *)
  default_deadline_s : float;  (** per-checker deadline when not overridden *)
  solver_budget_s : float;
  solver_conflicts : int;
  pool : Pinpoint_par.Pool.t option;
  store : Pinpoint_store.Store.t option;
      (** artifact store for the resident subject; kept unsealed so
          incremental updates can keep appending *)
  prom_file : string option;
      (** Prometheus text exposition refreshed here on the request-time
          timer (at most every [prom_every_s]) *)
  prom_every_s : float;
  flight_file : string;
      (** where crash, RSS-shed and [dump]-op flight dumps land *)
  flight : bool;  (** enable the flight recorder at [create] *)
}

let default_config =
  {
    max_rss_mb = 0.0;
    snapshot_dir = None;
    snapshot_every = 32;
    incident_cap = 1024;
    default_deadline_s = infinity;
    solver_budget_s = infinity;
    solver_conflicts = Pinpoint_smt.Sat.default_budget;
    pool = None;
    store = None;
    prom_file = None;
    prom_every_s = 5.0;
    flight_file = "flight.json";
    flight = true;
  }

type t = {
  cfg : config;
  mutable st : Incr.state option;
  mutable epoch_base : int;  (** epoch of the snapshot we recovered from *)
  started_at : float;
  window : Window.t;  (** rolling metrics window, ticked per request *)
  mutable last_prom : float;  (** monotonic time of the last prom-file write *)
  mutable last_snapshot_epoch : int;  (** abs epoch at last snapshot; -1 never *)
  mutable n_requests : int;
  mutable journal : out_channel option;
}

(* The server's counts live in the registry, which counts at every obs
   level: the status and metrics ops read them back from a snapshot.
   [server.op.<op>] counts requests by op, created on an op's first
   request. *)
let c_checks = Obs.counter "server.checks"
let c_errors = Obs.counter "server.errors"
let c_shed_rss = Obs.counter "server.shed_rss"  (* refused at the RSS watermark *)
let ops = [ "check"; "status"; "metrics"; "dump"; "shutdown" ]

(* ---------- RSS ---------- *)

let rss_mb () =
  match open_in "/proc/self/statm" with
  | exception Sys_error _ ->
    (* Non-procfs fallback: major-heap size. *)
    float_of_int (Gc.quick_stat ()).Gc.heap_words
    *. float_of_int (Sys.word_size / 8)
    /. 1048576.0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match String.split_on_char ' ' (input_line ic) with
        | _ :: resident :: _ ->
          (* statm is in pages; 4 KiB covers every platform we run on. *)
          float_of_string resident *. 4096.0 /. 1048576.0
        | _ -> 0.0)

(* ---------- snapshots ---------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let snapshot_path dir = Filename.concat dir "snapshot.json"
let journal_path dir = Filename.concat dir "journal.jsonl"

let files_json files =
  Json.List
    (List.map
       (fun (n, c) ->
         Json.Obj [ ("name", Json.String n); ("contents", Json.String c) ])
       files)

(* A request's file list: [{name, contents}] objects, each name at most
   once — a file named twice has no single contents to apply. *)
let files_of_json j =
  match Json.list_opt j with
  | None -> Error "bad request: files must be [{name, contents}]"
  | Some entries -> (
    let parse entry =
      match
        ( Option.bind (Json.member "name" entry) Json.string_opt,
          Option.bind (Json.member "contents" entry) Json.string_opt )
      with
      | Some n, Some c -> Some (n, c)
      | _ -> None
    in
    let files = List.filter_map parse entries in
    if List.length files <> List.length entries then
      Error "bad request: files must be [{name, contents}]"
    else
      let rec first_dup = function
        | [] -> None
        | n :: rest -> if List.mem n rest then Some n else first_dup rest
      in
      match first_dup (List.map fst files) with
      | Some n -> Error (Printf.sprintf "bad request: duplicate file %s" n)
      | None -> Ok files)

let abs_epoch t =
  match t.st with None -> 0 | Some st -> t.epoch_base + Incr.epoch st

(* Full-state snapshot: write-to-temp + rename is atomic on POSIX, so a
   crash mid-write leaves the previous snapshot intact.  The journal is
   truncated afterwards; losing the truncation to a crash only means some
   journal lines get replayed onto a snapshot that already contains them
   — replay of an already-applied file set is a no-op update. *)
let write_snapshot t =
  match (t.cfg.snapshot_dir, t.st) with
  | None, _ | _, None -> ()
  | Some dir, Some st ->
    mkdir_p dir;
    let tmp = snapshot_path dir ^ ".tmp" in
    let oc = open_out tmp in
    output_string oc
      (Json.to_string
         (Json.Obj
            [
              ("epoch", Json.Int (abs_epoch t));
              ("files", files_json (Incr.files st));
            ]));
    output_char oc '\n';
    close_out oc;
    Sys.rename tmp (snapshot_path dir);
    t.last_snapshot_epoch <- abs_epoch t;
    Option.iter close_out_noerr t.journal;
    t.journal <- Some (open_out (journal_path dir))

let journal_update t changed =
  match t.cfg.snapshot_dir with
  | None -> ()
  | Some dir ->
    let oc =
      match t.journal with
      | Some oc -> oc
      | None ->
        mkdir_p dir;
        let oc =
          open_out_gen [ Open_append; Open_creat ] 0o644 (journal_path dir)
        in
        t.journal <- Some oc;
        oc
    in
    output_string oc
      (Json.to_string
         (Json.Obj
            [ ("epoch", Json.Int (abs_epoch t)); ("files", files_json changed) ]));
    output_char oc '\n';
    flush oc

let create ?(config = default_config) () =
  if config.flight then Flight.set_enabled true;
  {
    cfg = config;
    st = None;
    epoch_base = 0;
    started_at = Metrics.now ();
    window = Window.create ~now:(Metrics.now_mono ()) ();
    last_prom = neg_infinity;
    last_snapshot_epoch = -1;
    n_requests = 0;
    journal = None;
  }

let load_files t files =
  let st =
    Incr.load ~incident_cap:t.cfg.incident_cap ?pool:t.cfg.pool
      ?store:t.cfg.store files
  in
  t.st <- Some st;
  t.epoch_base <- 0;
  write_snapshot t

(* Warm restart: snapshot + whole journal lines.  A torn final line
   (crash mid-append) fails to parse and ends the replay — everything
   before it is intact by construction. *)
let recover t =
  match t.cfg.snapshot_dir with
  | None -> false
  | Some dir when not (Sys.file_exists (snapshot_path dir)) -> false
  | Some dir -> (
    let read_all path =
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Json.parse (String.trim (read_all (snapshot_path dir))) with
    | Error _ -> false
    | Ok snap -> (
      match Option.map files_of_json (Json.member "files" snap) with
      | None | Some (Error _) -> false
      | Some (Ok files) ->
        let epoch =
          Option.value ~default:0
            (Option.bind (Json.member "epoch" snap) Json.int_opt)
        in
        let st =
          Incr.load ~incident_cap:t.cfg.incident_cap ?pool:t.cfg.pool
            ?store:t.cfg.store files
        in
        t.st <- Some st;
        t.epoch_base <- epoch;
        if Sys.file_exists (journal_path dir) then begin
          let ic = open_in (journal_path dir) in
          (try
             while true do
               let line = input_line ic in
               if String.trim line <> "" then
                 match Json.parse line with
                 | Error _ -> raise Exit
                 | Ok j -> (
                   match Option.map files_of_json (Json.member "files" j) with
                   | None | Some (Error _) -> raise Exit
                   | Some (Ok changed) -> ignore (Incr.update st changed))
             done
           with End_of_file | Exit -> ());
          close_in_noerr ic
        end;
        true))

(* ---------- responses ---------- *)

(* Each op answers with its response's fields; [handle_line] puts the
   request's id before them, stamps the request id and latency after
   them, and serialises the object once. *)
let error_fields ?(extra = []) msg =
  [ ("ok", Json.Bool false); ("error", Json.String msg) ] @ extra

let report_json (r : Pinpoint.Report.t) =
  let loc (l : Pinpoint_ir.Stmt.loc) =
    Json.Obj
      [
        ("file", Json.String l.Pinpoint_ir.Stmt.file);
        ("line", Json.Int l.Pinpoint_ir.Stmt.line);
      ]
  in
  Json.Obj
    [
      ("render", Json.String (Pinpoint.Report.one_line r));
      ("checker", Json.String r.Pinpoint.Report.checker);
      ("source_fn", Json.String r.Pinpoint.Report.source_fn);
      ("source", loc r.Pinpoint.Report.source_loc);
      ("sink_fn", Json.String r.Pinpoint.Report.sink_fn);
      ("sink", loc r.Pinpoint.Report.sink_loc);
      ( "verdict",
        Json.String
          (match r.Pinpoint.Report.verdict with
          | Pinpoint.Report.Feasible -> "feasible"
          | Pinpoint.Report.Feasible_unknown -> "feasible?"
          | Pinpoint.Report.Infeasible -> "infeasible") );
      ("degraded", Json.Bool (Pinpoint.Report.is_degraded r));
    ]

(* A check's counts: its run's change in the [engine.*] counters. *)
let stats_json stats =
  let n name = Json.Int (Obs.Snapshot.counter stats ("engine.n_" ^ name)) in
  Json.Obj
    (List.map
       (fun name -> (name, n name))
       [
         "sources"; "reused_sources"; "candidates"; "solver_calls"; "rung_full";
         "rung_halved"; "rung_linear"; "rung_gave_up"; "incidents";
       ])

(* ---------- the status view ---------- *)

(* Force-publish every registry contributor so the gauges and the
   par.* / store.* counters a status/metrics reader sees are fresh at
   read time rather than stale-from-last-export.  Pool and store publish
   deltas, so repeated refreshes keep the registry equal to lifetime
   totals. *)
let refresh_obs t =
  Option.iter Pinpoint_par.Pool.publish_obs t.cfg.pool;
  Option.iter Pinpoint_store.Store.publish_obs t.cfg.store;
  Obs.set_gauge (Obs.gauge "server.uptime_s") (Metrics.now () -. t.started_at);
  Obs.set_gauge (Obs.gauge "server.rss_mb") (rss_mb ());
  Obs.set_gauge (Obs.gauge "server.requests") (float_of_int t.n_requests)

let ops_json snap =
  Json.Obj
    (List.map
       (fun op -> (op, Json.Int (Obs.Snapshot.counter snap ("server.op." ^ op))))
       (ops @ [ "unknown" ]))

let window_info t =
  [
    ("width_s", Json.Float (Window.width_s t.window));
    ("slots", Json.Int (Window.slots t.window));
    ("filled", Json.Int (Window.filled t.window));
    ("rolls", Json.Int (Window.rolls t.window));
  ]

let status_fields t =
  refresh_obs t;
  let snap = Obs.snapshot () in
  let count name = Json.Int (Obs.Snapshot.counter snap name) in
  let incidents =
    match t.st with
    | None -> []
    | Some st ->
      let log = Incr.resilience st in
      [
        ( "incidents",
          Json.Obj
            [
              ("total", Json.Int (Resilience.count log));
              ("retained", Json.Int (Resilience.retained log));
              ("dropped", Json.Int (Resilience.dropped log));
              ( "by_phase",
                Json.Obj
                  (List.map
                     (fun (ph, n) -> (Resilience.phase_name ph, Json.Int n))
                     (Resilience.by_phase log)) );
            ] );
      ]
  in
  let state =
    match t.st with
    | None -> [ ("loaded", Json.Bool false) ]
    | Some st ->
      [
        ("loaded", Json.Bool true);
        ("epoch", Json.Int (abs_epoch t));
        ("files", Json.Int (List.length (Incr.files st)));
        ("functions", Json.Int (Incr.n_functions st));
      ]
  in
  [
    ("ok", Json.Bool true);
    ("uptime_s", Json.Float (Metrics.now () -. t.started_at));
    ("requests", Json.Int t.n_requests);
    ("ops", ops_json snap);
    ("last_snapshot_epoch", Json.Int t.last_snapshot_epoch);
    ("window", Json.Obj (window_info t));
    ("flight", Json.Bool (Flight.enabled ()));
    ("checks", count "server.checks");
    ("errors", count "server.errors");
    ("shed_rss", count "server.shed_rss");
    ("rss_mb", Json.Float (rss_mb ()));
    ( "rungs",
      Json.Obj
        (List.map
           (fun rung -> (rung, count ("engine.n_rung_" ^ rung)))
           [ "full"; "halved"; "linear"; "gave_up" ]) );
  ]
  @ state @ incidents

(* ---------- the metrics view ---------- *)

let level_name () =
  match Obs.level () with
  | Obs.Off -> "off"
  | Obs.Metrics_only -> "metrics"
  | Obs.Trace -> "trace"

(* Registry snapshot -> response JSON.  Histograms are summarised to
   (n, sum, p50/p95/p99) — the full bucket vectors stay in the
   [--metrics-json] batch export; a live poller wants the quantiles. *)
let snapshot_fields (snap : Obs.Snapshot.t) =
  let counters, gauges, histograms =
    List.fold_left
      (fun (cs, gs, hs) (name, v) ->
        match (v : Obs.Snapshot.value) with
        | Obs.Snapshot.Counter n -> ((name, Json.Int n) :: cs, gs, hs)
        | Obs.Snapshot.Gauge g -> (cs, (name, Json.Float g) :: gs, hs)
        | Obs.Snapshot.Histogram h ->
          let q p =
            Json.Float
              (Option.value ~default:0.0 (Obs.Snapshot.quantile v p))
          in
          ( cs,
            gs,
            ( name,
              Json.Obj
                [
                  ("n", Json.Int h.n);
                  ("sum", Json.Float h.sum);
                  ("p50", q 0.50);
                  ("p95", q 0.95);
                  ("p99", q 0.99);
                ] )
            :: hs ))
      ([], [], []) snap
  in
  [
    ("counters", Json.Obj (List.rev counters));
    ("gauges", Json.Obj (List.rev gauges));
    ("histograms", Json.Obj (List.rev histograms));
  ]

let metrics_fields t req =
  match Json.member "format" req with
  | Some (Json.String "prometheus") ->
    refresh_obs t;
    [
      ("ok", Json.Bool true);
      ("format", Json.String "prometheus");
      ("prometheus", Json.String (Export.prometheus ()));
    ]
  | None | Some (Json.String "json") ->
    refresh_obs t;
    let current = Obs.snapshot () in
    let windowed = Window.view t.window ~current in
    [
      ("ok", Json.Bool true);
      ("level", Json.String (level_name ()));
      ("window", Json.Obj (window_info t @ snapshot_fields windowed));
      ("totals", Json.Obj (snapshot_fields current));
      ("ops", ops_json current);
    ]
  | Some _ -> error_fields {|bad request: format must be "json" or "prometheus"|}

(* The request's optional fields: an absent one keeps its default, a
   present one of the wrong type refuses the request before any state
   changes. *)
let field req key conv ~expected ~default =
  match Json.member key req with
  | None -> Ok default
  | Some j -> (
    match conv j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "bad request: %s must be %s" key expected))

(* ---------- the dump view (flight recorder / per-request traces) ---------- *)

(* A flight dump writes only to [--flight-file]: a client names no path
   on the server's file system. *)
let dump_fields t req =
  let fields =
    let ( let* ) = Result.bind in
    let* () =
      if Json.member "path" req = None then Ok ()
      else Error "bad request: path is not accepted (a dump goes to --flight-file)"
    in
    let* what = field req "what" Json.string_opt ~expected:"a string" ~default:"flight" in
    let* request_id =
      field req "request_id"
        (fun j -> Option.map Option.some (Json.string_opt j))
        ~expected:"a string" ~default:None
    in
    let* inline =
      field req "inline" Json.bool_opt ~expected:"a boolean" ~default:false
    in
    Ok (what, request_id, inline)
  in
  match fields with
  | Error msg -> error_fields msg
  | Ok ("trace", request_id, _) ->
    (* Per-request Chrome trace slice: every span recorded under the
       given request id, loadable in Perfetto as-is.  Needs --trace. *)
    [
      ("ok", Json.Bool true);
      ("what", Json.String "trace");
      ("level", Json.String (level_name ()));
      ("trace", Json.String (Export.trace_json ?request_id ()));
    ]
  | Ok ("flight", _, inline) ->
    let path = t.cfg.flight_file in
    let n_events = List.length (Flight.events ()) in
    let written = Flight.dump ~reason:"dump op" path in
    let inline =
      if inline then
        [ ("flight", Json.String (Flight.to_json ~reason:"dump op" ())) ]
      else []
    in
    [
      ("ok", Json.Bool true);
      ("what", Json.String "flight");
      ("enabled", Json.Bool (Flight.enabled ()));
      ("path", Json.String path);
      ("written", Json.Bool written);
      ("events", Json.Int n_events);
    ]
    @ inline
  | Ok (what, _, _) -> error_fields (Printf.sprintf "unknown dump target %S" what)

(* ---------- request handling ---------- *)

let engine_config t req =
  let ( let* ) = Result.bind in
  let number key default =
    field req key Json.number_opt ~expected:"a number" ~default
  in
  let* deadline_s = number "deadline_s" t.cfg.default_deadline_s in
  let* solver_budget_s = number "solver_budget_s" t.cfg.solver_budget_s in
  let* solver_conflicts =
    field req "solver_conflicts" Json.int_opt ~expected:"an integer"
      ~default:t.cfg.solver_conflicts
  in
  Ok
    (fun () ->
      (* A fresh deadline per checker, matching the batch CLI. *)
      {
        Pinpoint.Engine.default_config with
        Pinpoint.Engine.deadline = Metrics.deadline_after deadline_s;
        solver_budget_s;
        solver_conflict_budget = solver_conflicts;
      })

let checkers_of req =
  match
    field req "checkers" Json.list_opt ~expected:"a list of checker names"
      ~default:[]
  with
  | Error _ as e -> e
  | Ok [] -> Ok Pinpoint.Checkers.all
  | Ok names ->
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | j :: rest -> (
        match Json.string_opt j with
        | None -> Error "bad request: checkers must be strings"
        | Some n -> (
          match Pinpoint.Checkers.by_name n with
          | Some c -> resolve (c :: acc) rest
          | None -> Error (Printf.sprintf "bad request: unknown checker %S" n)))
    in
    resolve [] names

(* Dirty-cone sizes are function counts, not latencies — own edges. *)
let cone_buckets = [| 0.; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000. |]

let check_fields t req =
  (* Seeded crash injection for the flight-recorder crash path: only
     honoured while fault injection is installed (tests), so an
     ordinary client cannot trip it. *)
  if
    Resilience.Inject.enabled ()
    && Json.member "inject_crash" req = Some (Json.Bool true)
  then raise Resilience.Injected_crash;
  let incidents_before =
    match t.st with Some st -> Resilience.count (Incr.resilience st) | None -> 0
  in
  let request =
    let ( let* ) = Result.bind in
    let* changed =
      match Json.member "files" req with
      | None -> Ok []
      | Some j -> files_of_json j
    in
    let* checkers = checkers_of req in
    let* mk_config = engine_config t req in
    Ok (changed, checkers, mk_config)
  in
  match request with
  | Error msg -> error_fields msg
  | Ok (changed, checkers, mk_config) -> (
    let update_result =
      match (t.st, changed) with
      | None, [] -> Error "no subject loaded: first request must carry files"
      | None, files ->
        load_files t files;
        Ok
          (let n = Incr.n_functions (Option.get t.st) in
           {
             Incr.changed_files = List.length files;
             changed_funcs = -1;
             retransformed = n;
             resummarised = 0;
             dirty_cone = n;
             full_rebuild = true;
           })
      | Some _, [] ->
        (* Plain re-check of the resident state: not an update, so the
           epoch is untouched and no file is compared. *)
        Ok
          {
            Incr.changed_files = 0;
            changed_funcs = 0;
            retransformed = 0;
            resummarised = 0;
            dirty_cone = 0;
            full_rebuild = false;
          }
      | Some st, changed ->
        let stats = Incr.update st changed in
        journal_update t changed;
        if
          t.cfg.snapshot_every > 0
          && Incr.epoch st mod t.cfg.snapshot_every = 0
        then write_snapshot t;
        Ok stats
    in
    match update_result with
    | Error msg -> error_fields msg
    | Ok ustats ->
      Obs.observe
        (Obs.histogram ~buckets:cone_buckets "server.dirty_cone")
        (float_of_int ustats.Incr.dirty_cone);
      Obs.add (Obs.counter "incr.retransformed") ustats.Incr.retransformed;
      Obs.add (Obs.counter "incr.resummarised") ustats.Incr.resummarised;
      let st = Option.get t.st in
      let checker_results =
        List.map
          (fun (spec : Pinpoint.Checker_spec.t) ->
            Obs.add c_checks 1;
            let reports, stats = Incr.check ~config:(mk_config ()) st spec in
            let reported = List.filter Pinpoint.Report.is_reported reports in
            Json.Obj
              [
                ("checker", Json.String spec.Pinpoint.Checker_spec.name);
                ("reports", Json.List (List.map report_json reported));
                ( "n_infeasible",
                  Json.Int (List.length reports - List.length reported) );
                ("stats", stats_json stats);
              ])
          checkers
      in
      let log = Incr.resilience st in
      [
        ("ok", Json.Bool true);
        ("epoch", Json.Int (abs_epoch t));
        ( "incremental",
          Json.Obj
            [
              ("changed_files", Json.Int ustats.Incr.changed_files);
              ("changed_funcs", Json.Int ustats.Incr.changed_funcs);
              ("retransformed", Json.Int ustats.Incr.retransformed);
              ("resummarised", Json.Int ustats.Incr.resummarised);
              ("dirty_cone", Json.Int ustats.Incr.dirty_cone);
              ("full_rebuild", Json.Bool ustats.Incr.full_rebuild);
            ] );
        ("checkers", Json.List checker_results);
        ( "incidents",
          Json.Obj
            [
              ("new", Json.Int (Resilience.count log - incidents_before));
              ("total", Json.Int (Resilience.count log));
              ("dropped", Json.Int (Resilience.dropped log));
            ] );
      ])

(* Request-time maintenance: roll the metrics window and refresh the
   Prometheus file.  Both are cheap on the common path — the window tick
   is one float compare until a width elapses, and the prom write is
   rate-limited by [prom_every_s]. *)
let maintain t =
  let now = Metrics.now_mono () in
  Window.tick t.window ~now Obs.snapshot;
  match t.cfg.prom_file with
  | Some path when now -. t.last_prom >= t.cfg.prom_every_s ->
    t.last_prom <- now;
    refresh_obs t;
    (try
       let oc = open_out path in
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () -> output_string oc (Export.prometheus ()))
     with Sys_error _ -> ())
  | _ -> ()

(* A request line is a JSON object whose [op], when present, is a
   string; a request without an op is a check. *)
let request_op req =
  match req with
  | Json.Obj kvs -> (
    match List.assoc_opt "op" kvs with
    | None -> Ok "check"
    | Some (Json.String op) -> Ok op
    | Some _ -> Error "op must be a string")
  | _ -> Error "request must be a JSON object"

(* One request line -> one response line, plus a continue/stop signal.
   The whole handler runs inside an exception barrier: whatever a request
   does to itself, the server (and the resident state, whose mutation
   phases have their own per-function barriers) survives to serve the
   next one.

   Every request gets a fresh id ("r000001", …) installed as the ambient
   Obs request context for the whole dispatch — spans, SMT profiler rows
   and flight events recorded anywhere below (including on pool workers,
   which re-install the submitter's id) carry it, and the response is
   stamped with it so a client can correlate.  The id sequence depends
   only on the request order, never on the obs level, so responses stay
   byte-identical across levels. *)
let handle_line t line : string * [ `Continue | `Stop ] =
  t.n_requests <- t.n_requests + 1;
  let rid = Printf.sprintf "r%06d" t.n_requests in
  let t0 = Metrics.now_mono () in
  let finish ?id ~op (fields, action) =
    let latency_s = Metrics.now_mono () -. t0 in
    Obs.observe (Obs.histogram "server.request_latency_s") latency_s;
    if Flight.enabled () then
      Flight.record ~req:rid ~kind:"response"
        ~detail:(Printf.sprintf "%.6fs" latency_s)
        op;
    maintain t;
    let id = match id with Some id -> [ ("id", id) ] | None -> [] in
    ( Json.to_string
        (Json.Obj
           (id @ fields
           @ [
               ("request", Json.String rid);
               ("latency_s", Json.Float latency_s);
             ])),
      action )
  in
  let bad_request ?id ~detail msg =
    Obs.add c_errors 1;
    if Flight.enabled () then Flight.record ~req:rid ~kind:"request" ~detail "?";
    finish ?id ~op:"?"
      (error_fields (Printf.sprintf "bad request: %s" msg), `Continue)
  in
  Obs.with_request rid (fun () ->
      match Result.map (fun req -> (req, request_op req)) (Json.parse line) with
      | Error msg -> bad_request ~detail:"unparseable" msg
      | Ok (req, Error msg) ->
        bad_request ?id:(Json.member "id" req) ~detail:"malformed" msg
      | Ok (req, Ok op) ->
        if Flight.enabled () then Flight.record ~req:rid ~kind:"request" op;
        Obs.add
          (Obs.counter
             ("server.op." ^ if List.mem op ops then op else "unknown"))
          1;
        Obs.span "server.request"
          ~attrs:[ ("op", op); ("request", rid) ]
          (fun () ->
            finish ?id:(Json.member "id" req) ~op
              (match op with
              | "status" -> (status_fields t, `Continue)
              | "metrics" -> (metrics_fields t req, `Continue)
              | "dump" -> (dump_fields t req, `Continue)
              | "shutdown" ->
                ([ ("ok", Json.Bool true); ("shutdown", Json.Bool true) ], `Stop)
              | "check" ->
                (* RSS watermark: one forced major GC gets a second opinion
                   before shedding — transient garbage from the previous
                   request must not count against this one. *)
                let over_watermark () =
                  t.cfg.max_rss_mb > 0.0
                  && rss_mb () > t.cfg.max_rss_mb
                  && begin
                       Gc.full_major ();
                       rss_mb () > t.cfg.max_rss_mb
                     end
                in
                if over_watermark () then begin
                  Obs.add c_shed_rss 1;
                  if Flight.enabled () then begin
                    Flight.record ~req:rid ~kind:"shed"
                      ~detail:(Printf.sprintf "rss_mb=%.1f" (rss_mb ()))
                      "rss-watermark";
                    ignore (Flight.dump ~reason:"rss-shed" t.cfg.flight_file)
                  end;
                  ( error_fields
                      ~extra:
                        [
                          ("overloaded", Json.Bool true);
                          ("rss_mb", Json.Float (rss_mb ()));
                        ]
                      "overloaded: resident set above watermark",
                    `Continue )
                end
                else
                  ( (try check_fields t req with
                    | Pinpoint_frontend.Parser.Error (msg, line) ->
                      Obs.add c_errors 1;
                      error_fields
                        (Printf.sprintf "parse error at line %d: %s" line msg)
                    | Pinpoint_frontend.Lower.Error (msg, loc) ->
                      Obs.add c_errors 1;
                      error_fields
                        (Printf.sprintf "%s:%d: %s" loc.Pinpoint_ir.Stmt.file
                           loc.Pinpoint_ir.Stmt.line msg)
                    | exn ->
                      (* A crash that reached the top barrier is exactly
                         what the flight recorder exists for: dump the ring
                         before answering. *)
                      Obs.add c_errors 1;
                      if Flight.enabled () then begin
                        Flight.record ~req:rid ~kind:"crash"
                          ~detail:(Printexc.to_string exn) "server.check";
                        ignore
                          (Flight.dump
                             ~reason:("crash: " ^ Printexc.to_string exn)
                             t.cfg.flight_file)
                      end;
                      error_fields
                        (Printf.sprintf "internal error: %s"
                           (Printexc.to_string exn))),
                    `Continue )
              | op ->
                Obs.add c_errors 1;
                (error_fields (Printf.sprintf "unknown op %S" op), `Continue))))

(* ---------- transports ---------- *)

(* One loop on the calling domain: each response is written and flushed
   before the next line is read, so a client that writes ahead waits on
   the pipe's or socket's buffer, and the lines after a shutdown stay
   unread.  A client that hung up makes the write fail ([Sys_error], with
   SIGPIPE ignored): that ends its connection, not the server. *)
let serve_channels t ic oc =
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> `Eof
    | line -> (
      let resp, action = handle_line t line in
      let written =
        try
          output_string oc resp;
          output_char oc '\n';
          flush oc;
          true
        with Sys_error _ -> false
      in
      match action with
      | `Stop -> `Stop
      | `Continue -> if written then loop () else `Eof)
  in
  loop ()

let serve_stdio t = ignore (serve_channels t stdin stdout)

let serve_socket t path =
  if Sys.file_exists path then Sys.remove path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let rec accept_loop () =
        let conn, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr conn in
        let oc = Unix.out_channel_of_descr conn in
        let result = serve_channels t ic oc in
        (* closes [conn], dropping what a hung-up client left unflushed *)
        close_out_noerr oc;
        match result with `Eof -> accept_loop () | `Stop -> ()
      in
      accept_loop ())
