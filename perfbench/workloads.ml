(* The four workloads, each run two ways:

   - end to end ([measure]): the real `pinpoint` binary as a child process
     with telemetry off, repeated for the run's measuring time, giving the
     end-to-end metrics a user sees;
   - traced ([traced]): one in-process pass with Obs at Trace level and the
     benchmark's own spans around each public call the CLI or the server
     makes, giving the per-layer metrics.

   Every run checks its outputs: recall against the planted bugs, the same
   reports on every repetition, the traced pass's reports equal to the
   child's, and the server's final reports equal to a batch check of the
   final files. *)

module Gen = Pinpoint_workload.Gen
module Truth = Pinpoint_workload.Truth
module Json = Pinpoint_server.Json
module Server = Pinpoint_server.Server
module Obs = Pinpoint_obs.Obs
module Pool = Pinpoint_par.Pool
module Store = Pinpoint_store.Store

type kind =
  | Batch of { jobs : int; store : bool }  (** `pinpoint check`, all checkers *)
  | Serve of { files : int }  (** `pinpoint serve` over stdio, one closed-loop client *)

type t = { name : string; kind : kind; params : int -> Gen.params }

(* Trap-heavy: many infeasible candidates whose path conditions need the
   SMT ladder, so checking outweighs preparation. *)
let paths_params seed =
  {
    Gen.default_params with
    seed;
    target_loc = 16_000;
    n_units = 12;
    n_real_uaf = 120;
    n_real_df = 60;
    n_uaf_traps = 360;
    n_hard_traps = 120;
    n_shared_core = 120;
    n_use_before_free = 60;
    n_taint_real = 60;
    n_taint_traps = 120;
  }

(* Sizes keep one `pinpoint check` near 1.5 s, so a run's median is taken
   over a dozen or more repetitions. *)
let all =
  [
    {
      name = "batch-50k";
      kind = Batch { jobs = 2; store = false };
      params = (fun seed -> Gen.scaled ~seed ~mloc:0.05 ());
    };
    { name = "paths-16k"; kind = Batch { jobs = 1; store = false }; params = paths_params };
    {
      name = "lowmem-10k";
      kind = Batch { jobs = 1; store = true };
      params = (fun seed -> Gen.scaled ~seed ~mloc:0.01 ());
    };
    {
      name = "serve-20k";
      kind = Serve { files = 16 };
      params = (fun seed -> Gen.scaled ~seed ~mloc:0.02 ());
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ---------- run context and bookkeeping ---------- *)

type ctx = {
  cli : string;  (** the pinpoint binary *)
  dir : string;  (** this run's scratch directory *)
  deadline : float;  (** monotonic time by which every child must have exited *)
  speed : Speed.t;  (** the host's speed, timed between measured intervals *)
}

type tally = { mutable attempted : int; mutable failed : int; mutable problems : string list }

let new_tally () = { attempted = 0; failed = 0; problems = [] }
let problem tally fmt = Printf.ksprintf (fun s -> tally.problems <- s :: tally.problems) fmt

let failure tally fmt =
  tally.failed <- tally.failed + 1;
  problem tally fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let mb_of_kb kb = float_of_int kb /. 1024.0
let mb = 1048576.0

let last_line s =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> "(no output)"

let outcome w tally ~traced metrics =
  {
    Outcome.workload = w.name;
    traced;
    correct = tally.problems = [];
    attempted = tally.attempted;
    failed = tally.failed;
    problems = tally.problems;
    metrics;
  }

(* ---------- inputs ---------- *)

type inputs = {
  files : (string * string) list;  (** path, contents, as written to disk *)
  truth : Truth.planted list;
  split : Edit.t option;  (** serve: the editable per-file model *)
}

(* Generate the workload's inputs from [seed] and write them under
   [ctx.dir]: the program only ever sees these files. *)
let generate ctx w ~seed =
  let subject = Gen.generate ~name:w.name (w.params seed) in
  let files, split =
    match w.kind with
    | Batch _ -> ([ (Filename.concat ctx.dir (w.name ^ ".mc"), subject.Gen.source) ], None)
    | Serve { files } ->
      let name i = Filename.concat ctx.dir (Printf.sprintf "%s_%02d.mc" w.name i) in
      let split = Edit.split ~n_files:files ~name subject.Gen.source in
      (Edit.contents split, Some split)
  in
  List.iter (fun (p, c) -> write_file p c) files;
  { files; truth = subject.Gen.truth; split }

let digest inputs = Digest.string (Marshal.to_string inputs.files [])

(* Set-up: generate the inputs from the seed and write them, timed.  A
   regeneration must give byte-identical inputs to [first]'s. *)
let timed_generate ctx tally w ~seed ~first =
  let t0 = Proc.now () in
  let inputs = generate ctx w ~seed in
  let setup_s = Proc.now () -. t0 in
  (match first with
  | Some d when d <> digest inputs -> problem tally "seed %d generated different inputs" seed
  | _ -> ());
  (inputs, setup_s)

(* ---------- batch: `pinpoint check` children ---------- *)

let check_args inputs ~jobs ~store_dir =
  ("check" :: List.map fst inputs.files)
  @ [ "--jobs"; string_of_int jobs ]
  @ match store_dir with Some d -> [ "--store-dir"; d ] | None -> []

(* One `pinpoint check` child; [Some] when it exited cleanly (0, or 2 for
   "reports found") with parsable output and no degraded query or incident. *)
let run_check ctx tally ~tag args =
  tally.attempted <- tally.attempted + 1;
  let stdout = Filename.concat ctx.dir (tag ^ ".out") in
  let stderr = Filename.concat ctx.dir (tag ^ ".err") in
  let status, wall = Proc.run ~deadline:ctx.deadline ~stdout ~stderr ctx.cli args in
  let text = read_file stdout in
  if status.Proc.timed_out then (failure tally "%s: killed at the deadline" tag; (wall, None))
  else if status.code <> 0 && status.code <> 2 then (
    failure tally "%s: exit %d: %s" tag status.code (last_line (read_file stderr));
    (wall, None))
  else
    match Check_output.parse text with
    | exception Check_output.Malformed line ->
      failure tally "%s: unparsable line %S" tag line;
      (wall, None)
    | out ->
      let degraded =
        List.fold_left (fun n (c : Check_output.checker) -> n + c.degraded) 0 out.checkers
      in
      if degraded + out.incidents > 0 then (
        failure tally "%s: %d degraded queries, %d incidents" tag degraded out.incidents;
        (wall, None))
      else (wall, Some (status, text, out))

type batch = {
  ctx : ctx;
  w : t;
  seed : int;
  jobs : int;
  store : bool;
  tally : tally;
  inputs : inputs;
  mutable setup_s : (float * float) list;  (** set-up time, speed-scaled and as measured *)
  mutable reps : int;
  mutable measured_s : float;  (** the measured repetitions, speed loops included *)
  mutable walls : (float * float) list;  (** check wall time, speed-scaled and as measured *)
  mutable rss_mb : float list;
  mutable reference : (string * Check_output.t) option;  (** the first clean output *)
  mutable mismatches : int;
}

let batch_setup ctx w ~seed ~jobs ~store =
  let tally = new_tally () in
  let inputs, setup_s = timed_generate ctx tally w ~seed ~first:None in
  let scale = Speed.scale ctx.speed in
  {
    ctx;
    w;
    seed;
    jobs;
    store;
    tally;
    inputs;
    setup_s = [ (scale *. setup_s, setup_s) ];
    reps = 0;
    measured_s = 0.0;
    walls = [];
    rss_mb = [];
    reference = None;
    mismatches = 0;
  }

(* The first repetition warms the binary and the inputs into the page
   cache: its output is checked, its time and memory are not sampled. *)
let batch_rep b =
  let t0 = Proc.now () in
  b.reps <- b.reps + 1;
  let warm_up = b.reps = 1 in
  (* Every repetition sets up again, so the set-up samples span the
     measuring time as the repetitions do. *)
  let _, setup_s = timed_generate b.ctx b.tally b.w ~seed:b.seed ~first:(Some (digest b.inputs)) in
  let tag = Printf.sprintf "%s-rep%d" b.w.name b.reps in
  let store_dir = Filename.concat b.ctx.dir (tag ^ ".store") in
  let args =
    check_args b.inputs ~jobs:b.jobs ~store_dir:(if b.store then Some store_dir else None)
  in
  let wall, result = run_check b.ctx b.tally ~tag args in
  rm_rf store_dir;
  let scale = Speed.scale b.ctx.speed in
  b.setup_s <- (scale *. setup_s, setup_s) :: b.setup_s;
  if not warm_up then b.measured_s <- b.measured_s +. (Proc.now () -. t0);
  match result with
  | None -> ()
  | Some (status, text, out) -> (
    if not warm_up then begin
      b.walls <- (scale *. wall, wall) :: b.walls;
      b.rss_mb <- mb_of_kb status.Proc.maxrss_kb :: b.rss_mb
    end;
    match b.reference with
    | None -> b.reference <- Some (text, out)
    | Some (first, _) ->
      if text <> first then begin
        b.mismatches <- b.mismatches + 1;
        problem b.tally "%s: reports differ from the first repetition" tag
      end)

let min_reps = 3

(* Another repetition fits the measuring time — the warm-up and at least
   [min_reps] measured ones — and the run's deadline. *)
let batch_wants_more b ~seconds =
  let typical = if b.reps <= 1 then 0.0 else b.measured_s /. float_of_int (b.reps - 1) in
  b.reps <= min_reps
  || (b.measured_s +. typical <= float_of_int seconds
     && Proc.now () +. (2.0 *. typical) < b.ctx.deadline)

(* Recall and false reports of one clean output against the planted bugs. *)
let truth_metrics tally truth out =
  let s = Check_output.score truth out in
  if s.Check_output.found < s.planted then
    problem tally "recall %d/%d: a planted bug went unreported" s.found s.planted;
  [
    Outcome.ratio "recall" (float_of_int s.found) (float_of_int s.planted)
      ~base:"planted bugs found";
    Outcome.metric "false_reports" "count" (float_of_int s.false_reports)
      ~note:"reported sources that are no planted bug";
  ]

(* A run's times scaled to the nominal host speed, then as measured, then
   the scale factors.  [times] are (name, name of the measured times,
   (scaled, measured) pairs); the factors are those of the last entry. *)
let speed_scaled times =
  List.concat_map
    (fun (name, measured, pairs) ->
      if pairs = [] then []
      else
        [
          Outcome.sampled name "s" (List.map fst pairs);
          Outcome.sampled measured "s" (List.map snd pairs);
        ])
    times
  @
  match List.rev times with
  | (_, _, (_ :: _ as pairs)) :: _ ->
    [ Outcome.sampled "speed.scale" "fraction" (List.map (fun (s, m) -> s /. m) pairs) ]
  | _ -> []

let failure_metrics tally ~mismatches =
  [
    Outcome.ratio "failed_frac" (float_of_int tally.failed) (float_of_int tally.attempted)
      ~base:"operations failed";
    Outcome.metric "report_mismatches" "count" (float_of_int mismatches);
  ]

let batch_finish b =
  let truth =
    match b.reference with
    | None ->
      problem b.tally "no repetition ran cleanly";
      []
    | Some (_, out) -> truth_metrics b.tally b.inputs.truth out
  in
  let sampled name unit_ = function [] -> [] | xs -> [ Outcome.sampled name unit_ xs ] in
  outcome b.w b.tally ~traced:false
    (speed_scaled
       [ ("setup_s", "setup_measured_s", b.setup_s); ("analysis_s", "analysis_measured_s", b.walls) ]
    @ sampled "peak_rss_mb" "MB" b.rss_mb
    @ truth
    @ failure_metrics b.tally ~mismatches:b.mismatches)

(* ---------- serve: a `pinpoint serve` child and its client ---------- *)

(* The client's request [r] (from 1): every third edits one function and
   re-checks, the others re-check the unchanged files.  Returns whether it
   is an edit, and the request line. *)
let request split r =
  let file = if r mod 3 = 0 then Option.map (Edit.file split) (Edit.bump split ((r / 3) - 1)) else None in
  let files =
    match file with
    | None -> []
    | Some (name, contents) ->
      [
        ( "files",
          Json.List [ Json.Obj [ ("name", Json.String name); ("contents", Json.String contents) ] ]
        );
      ]
  in
  (file <> None, Json.to_string (Json.Obj ([ ("id", Json.Int r); ("op", Json.String "check") ] @ files)))

type response = {
  server_s : float;  (** the server's own [latency_s] for the request *)
  dirty_cone : int;
  renders : (string * string list) list;  (** checker, rendered reports *)
}

let parse_response line =
  match Json.parse line with
  | Error _ -> None
  | Ok j ->
    let get path = List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path in
    if get [ "ok" ] <> Some (Json.Bool true) || get [ "overloaded" ] <> None then None
    else
      let renders =
        List.map
          (fun c ->
            ( Option.value (Option.bind (Json.member "checker" c) Json.string_opt) ~default:"?",
              List.filter_map
                (fun r -> Option.bind (Json.member "render" r) Json.string_opt)
                (Option.value (Option.bind (Json.member "reports" c) Json.list_opt) ~default:[]) ))
          (Option.value (Option.bind (get [ "checkers" ]) Json.list_opt) ~default:[])
      in
      Some
        {
          server_s = Option.value (Option.bind (get [ "latency_s" ]) Json.number_opt) ~default:0.0;
          dirty_cone =
            Option.value (Option.bind (get [ "incremental"; "dirty_cone" ]) Json.int_opt) ~default:0;
          renders;
        }

let serve_args ctx inputs =
  ("serve" :: List.map fst inputs.files) @ [ "--flight-file"; Filename.concat ctx.dir "flight.json" ]

(* Spawn a server on [inputs] and wait for its first status reply, i.e.
   until it has loaded and fully prepared the subject. *)
let start_server ctx tally inputs ~tag =
  let srv =
    Proc.spawn_server ~stderr:(Filename.concat ctx.dir (tag ^ ".err")) ctx.cli (serve_args ctx inputs)
  in
  (match Proc.request ~deadline:ctx.deadline srv {|{"op":"status"}|} with
  | Some _, _ -> ()
  | None, _ -> failure tally "%s: no status reply" tag);
  srv

let stop_server ctx tally srv ~tag =
  let status = Proc.stop ~deadline:ctx.deadline srv in
  if status.Proc.timed_out || status.code <> 0 then
    failure tally "%s: server exited with %d" tag status.code;
  status

type sample = { edit : bool; client_s : float; resp : response }

(* Send requests [from] to [upto] in a closed loop, each after the
   previous reply. *)
let client ctx tally srv ~tag ~from ~upto requests =
  let rec loop r acc =
    if r > upto then List.rev acc
    else
      let edit, line = requests r in
      tally.attempted <- tally.attempted + 1;
      match Proc.request ~deadline:ctx.deadline srv line with
      | Some resp, client_s -> (
        match parse_response resp with
        | Some resp -> loop (r + 1) ({ edit; client_s; resp } :: acc)
        | None ->
          failure tally "%s: request %d answered %s" tag r resp;
          loop (r + 1) acc)
      | None, _ ->
        failure tally "%s: request %d got no reply" tag r;
        List.rev acc
  in
  loop from []

let final_read ctx tally srv ~tag =
  match Proc.request ~deadline:ctx.deadline srv {|{"op":"check"}|} with
  | Some line, _ -> parse_response line
  | None, _ ->
    failure tally "%s: final check got no reply" tag;
    None

(* One serve session: a fresh server on inputs generated from the seed,
   then the first [script_length] requests of the seed's stream and a
   closing re-check.  Every session sends the same script, so its
   latencies and the server's peak memory do not depend on how fast the
   host ran it.  The set-up and each of the script's [blocks] blocks close
   with a speed loop, so every block, like a batch repetition, is scaled
   by the host's speed around it. *)
let script_length = 60
let blocks = 3

type session = {
  s_inputs : inputs;  (** [split] holds the files as the script's edits left them *)
  s_setup : float * float;  (** generating the inputs plus [s_ready_s]: speed-scaled, measured *)
  s_ready_s : float;  (** spawn to the first status reply *)
  s_samples : sample list;
  s_script : float * float;  (** client-side time of the whole script: speed-scaled, measured *)
  s_rss_mb : float;
  s_final : response option;  (** the closing re-check *)
}

let serve_session ctx tally w ~seed ~first ~tag =
  let inputs, generate_s = timed_generate ctx tally w ~seed ~first in
  let t0 = Proc.now () in
  let srv = start_server ctx tally inputs ~tag in
  let ready_s = Proc.now () -. t0 in
  let setup_s = generate_s +. ready_s in
  let setup = (Speed.scale ctx.speed *. setup_s, setup_s) in
  let per_block = script_length / blocks in
  let timed_blocks =
    List.init blocks (fun i ->
        let samples =
          client ctx tally srv ~tag
            ~from:((i * per_block) + 1)
            ~upto:((i + 1) * per_block)
            (request (Option.get inputs.split))
        in
        (Speed.scale ctx.speed, samples))
  in
  let final = final_read ctx tally srv ~tag in
  let status = stop_server ctx tally srv ~tag in
  let client_s samples = List.fold_left (fun a s -> a +. s.client_s) 0.0 samples in
  let sum f = List.fold_left (fun a b -> a +. f b) 0.0 timed_blocks in
  {
    s_inputs = inputs;
    s_setup = setup;
    s_ready_s = ready_s;
    s_samples = List.concat_map snd timed_blocks;
    s_script = (sum (fun (scale, ss) -> scale *. client_s ss), sum (fun (_, ss) -> client_s ss));
    s_rss_mb = mb_of_kb status.Proc.maxrss_kb;
    s_final = final;
  }

let min_sessions = 2

(* Sessions repeat while another fits in the measuring time, so the set-up
   samples span the run as the request samples do. *)
let serve_measure ctx w ~seed ~seconds =
  let tally = new_tally () in
  let t_start = Proc.now () in
  let session k first = serve_session ctx tally w ~seed ~first ~tag:(Printf.sprintf "serve%d" k) in
  let first = session 1 None in
  let rec more k runs =
    let elapsed = Proc.now () -. t_start in
    let typical = elapsed /. float_of_int (k - 1) in
    if k > min_sessions && elapsed +. typical > float_of_int seconds then List.rev runs
    else more (k + 1) (session k (Some (digest first.s_inputs)) :: runs)
  in
  let runs = more 2 [ first ] in
  let inputs = first.s_inputs and final = first.s_final in
  let samples = List.concat_map (fun r -> r.s_samples) runs in
  (* The served state must report exactly what a batch check of the final
     files reports. *)
  let final_files = Edit.contents (Option.get inputs.split) in
  List.iter (fun (p, c) -> write_file p c) final_files;
  let _, batch =
    run_check ctx tally ~tag:"serve-batch"
      (check_args { inputs with files = final_files } ~jobs:1 ~store_dir:None)
  in
  let mismatches =
    match (final, batch) with
    | Some r, Some (_, _, out) ->
      let batch_renders =
        List.map (fun (c : Check_output.checker) -> (c.name, c.lines)) out.checkers
      in
      if r.renders <> batch_renders then begin
        problem tally "serve: final reports differ from a batch check of the final files";
        1
      end
      else 0
    | _ -> 0
  in
  let lat edit samples =
    List.filter_map (fun s -> if s.edit = edit then Some s.client_s else None) samples
  in
  let edits = lat true samples and reads = lat false samples in
  (* One analysis_s sample per session: the client-side time of its whole
     script.  A median over one session's edits swings with the few edits
     whose dirty cone is large; the script's total does not. *)
  let scripts = List.filter_map (fun r -> if r.s_samples = [] then None else Some r.s_script) runs in
  let ms xs = List.map (fun x -> x *. 1000.0) xs in
  let tails =
    List.filter_map Fun.id
      [ Outcome.tail "read_tail_ms" "ms" (ms reads); Outcome.tail "edit_tail_ms" "ms" (ms edits) ]
  in
  let cones = List.filter_map (fun s -> if s.edit then Some (float_of_int s.resp.dirty_cone) else None) samples in
  let nonempty name unit_ xs = if xs = [] then [] else [ Outcome.sampled name unit_ xs ] in
  outcome w tally ~traced:false
    (speed_scaled
       [
         ("setup_s", "setup_measured_s", List.map (fun r -> r.s_setup) runs);
         ("analysis_s", "analysis_measured_s", scripts);
       ]
    @ [ Outcome.sampled "peak_rss_mb" "MB" (List.map (fun r -> r.s_rss_mb) runs) ]
    @ nonempty "read_p50_ms" "ms" (ms reads)
    @ nonempty "edit_p50_ms" "ms" (ms edits)
    @ tails
    @ nonempty "transport_ms" "ms" (List.map (fun s -> 1000.0 *. (s.client_s -. s.resp.server_s)) samples)
    @ nonempty "dirty_cone" "count" cones
    @ failure_metrics tally ~mismatches)

let measure ctx w ~seed ~seconds =
  match w.kind with
  | Serve _ -> serve_measure ctx w ~seed ~seconds
  | Batch { jobs; store } ->
    let b = batch_setup ctx w ~seed ~jobs ~store in
    while batch_wants_more b ~seconds do
      batch_rep b
    done;
    batch_finish b

(* ---------- the traced in-process pass ---------- *)

type pass = {
  spans : Obs.span list;  (** recorded during the pass *)
  counters : Obs.Snapshot.t;  (** the registry's change over the pass *)
  majors : int;  (** major collections during the pass *)
}

(* Run [f] with tracing on, after emptying the process-wide solver caches
   so a pass never inherits an earlier pass's verdicts.  The registry is
   not reset: modules create some counters once at start-up, and a reset
   would detach them; the pass's counts are a snapshot difference. *)
let traced_call f =
  Pinpoint_smt.Qcache.clear ();
  Pinpoint_smt.Corecache.clear ();
  let t0 = Proc.now () and before = Obs.snapshot () in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  Obs.set_level Obs.Trace;
  let r = Fun.protect ~finally:(fun () -> Obs.set_level Obs.Off) f in
  ( r,
    {
      spans = List.filter (fun (s : Obs.span) -> s.t0 >= t0) (Obs.spans ());
      counters = Obs.Snapshot.diff (Obs.snapshot ()) before;
      majors = (Gc.quick_stat ()).Gc.major_collections - majors0;
    } )

let renders_of reports =
  List.map Pinpoint.Report.one_line (List.filter Pinpoint.Report.is_reported reports)

type batch_pass = {
  renders : (string * string list) list;  (** checker, rendered reports *)
  seg : int * int;  (** SEG vertices, edges *)
  jobs : int;  (** pool width after capping at the host's cores *)
  store_stats : Store.stats option;
}

(* `pinpoint check FILES --jobs J [--store-dir D]`, in-process: the calls
   the CLI makes, each inside a bench span. *)
let batch_pass ~jobs ~store_dir paths =
  Pinpoint_par.Chunk.set_override None;
  let jobs = Pool.effective_jobs jobs in
  let with_pool f = if jobs <= 1 then f None else Pool.with_pool ~jobs (fun p -> f (Some p)) in
  let gc = Gc.get () in
  Fun.protect ~finally:(fun () -> Gc.set gc) @@ fun () ->
  with_pool @@ fun pool ->
  let store =
    Option.map
      (fun dir ->
        (* the CLI's store-mode GC setting *)
        if gc.Gc.space_overhead > 40 then Gc.set { gc with Gc.space_overhead = 40 };
        Store.create ~dir ())
      store_dir
  in
  let renders, a =
    Obs.span "bench.pass" (fun () ->
        let prog =
          Obs.span "bench.lower" (fun () -> Pinpoint_frontend.Lower.compile_files paths)
        in
        let a = Obs.span "bench.prepare" (fun () -> Pinpoint.Analysis.prepare ?pool ?store prog) in
        if store <> None then
          Obs.span "bench.seal" (fun () -> Pinpoint.Analysis.seal_store a Pinpoint.Checkers.all);
        ( List.map
            (fun (spec : Pinpoint.Checker_spec.t) ->
              Obs.span "bench.check" (fun () ->
                  (spec.name, renders_of (fst (Pinpoint.Analysis.check a spec)))))
            Pinpoint.Checkers.all,
          a ))
  in
  let seg = Pinpoint.Analysis.seg_size a in
  Option.iter Pool.publish_obs pool;
  let store_stats = Option.map Store.stats store in
  Option.iter Store.close store;
  { renders; seg; jobs; store_stats }

(* The per-layer metrics of one traced pass.  [reference_s] is the wall
   time of the same work untraced, in a child process. *)
let layer_metrics pass ~seg:(vertices, edges) ~jobs ~store_stats ~reference_s ~server =
  let s = Layers.summarise pass.spans in
  let self l = (Layers.layer s l).Layers.self_s in
  let alloc_mb l = (Layers.layer s l).Layers.alloc_bytes /. mb in
  let value name =
    match List.assoc_opt name pass.counters with
    | Some (Obs.Snapshot.Counter n) -> float_of_int n
    | Some (Obs.Snapshot.Gauge g) -> g
    | _ -> 0.0
  in
  let count name key = Outcome.metric name "count" (value key) in
  let m = Outcome.metric in
  let wall = s.Layers.wall_s in
  let share l = Outcome.ratio (l ^ ".share") (self l) wall ~base:"s of the traced wall" in
  let queries_us = List.map (fun d -> d *. 1e6) (Layers.durations pass.spans "smt.query") in
  let query_tail =
    match Outcome.tail "smt.query_tail_us" "us" queries_us with
    | Some t -> t
    | None ->
      m "smt.query_tail_us" "us"
        (List.fold_left Float.max 0.0 queries_us)
        ~note:(Printf.sprintf "max of n=%d: too few queries for a tail" (List.length queries_us))
  in
  (* RV and VF summaries are one layer: on serve-20k the VF tables are
     built inside Incr.check, with no span of their own *)
  let summary_layer f = f "rv" +. f "vf" in
  let store_count name field =
    m name "count" (match store_stats with Some st -> float_of_int (field st) | None -> 0.0)
  in
  List.concat_map
    (fun (l, self_s, alloc) -> [ m (l ^ ".self_s") "s" self_s; m (l ^ ".alloc_mb") "MB" alloc ])
    (List.map (fun l -> (l, self l, alloc_mb l)) [ "frontend"; "pta"; "transform"; "seg" ]
    @ [ ("summary", summary_layer self, summary_layer alloc_mb) ]
    @ List.map (fun l -> (l, self l, alloc_mb l)) [ "engine"; "smt" ])
  @ [
      Outcome.ratio "summary.vf_share" (self "vf") (summary_layer self)
        ~base:"s of summary time in VF tables";
      m "seg.vertices" "count" (float_of_int vertices);
      m "seg.edges" "count" (float_of_int edges);
      count "engine.sources" "engine.n_sources";
      count "engine.steps" "engine.n_steps";
      count "engine.candidates" "engine.n_candidates";
      Outcome.ratio "engine.prune_ratio" (value "engine.n_pruned_prefixes")
        (value "engine.n_prefix_checks") ~base:"prefix checks pruned";
      count "engine.refine_removed" "engine.n_refine_removed";
      count "smt.queries" "solver.n_queries";
      (match queries_us with
      | [] -> m "smt.query_p50_us" "us" 0.0 ~note:"no queries"
      | qs -> Outcome.sampled "smt.query_p50_us" "us" qs);
      query_tail;
      count "smt.rung_full" "engine.n_rung_full";
      count "smt.rung_cached" "engine.n_rung_cached";
      m "smt.degraded" "count"
        (value "engine.n_rung_halved" +. value "engine.n_rung_linear" +. value "engine.n_rung_gave_up");
      count "smt.propagations" "solver.n_propagations";
      count "smt.conflicts" "solver.n_conflicts";
      Outcome.ratio "qcache.hit_ratio" (value "solver.n_cache_hits")
        (value "solver.n_cache_hits" +. value "solver.n_cache_misses")
        ~base:"verdict-cache probes hit";
      Outcome.ratio "corecache.subsume_ratio" (value "corecache.n_subsume_hit")
        (value "corecache.n_probe") ~base:"core-cache probes subsumed";
      count "corecache.shrink_checks" "corecache.n_shrink_check";
      count "par.tasks" "par.tasks";
      count "par.steals" "par.steals";
      Outcome.ratio "par.utilisation"
        (if jobs > 1 then value "par.busy_s" else 0.0)
        (float_of_int jobs *. wall)
        ~base:(Printf.sprintf "busy s over %d domain(s) x the traced wall" jobs);
      share "store";
      store_count "store.spills" (fun st -> st.Store.spills);
      store_count "store.faults" (fun st -> st.Store.faults);
      store_count "store.evictions" (fun st -> st.Store.evictions);
      m "store.file_mb" "MB"
        (match store_stats with Some st -> float_of_int st.Store.file_bytes /. mb | None -> 0.0);
      (match store_stats with
      | Some st ->
        let r = st.Store.row in
        Outcome.ratio "store.dedup_hit_ratio"
          (float_of_int r.Pinpoint_store.Intern.hits)
          (float_of_int (r.hits + r.misses))
          ~base:"artifact rows deduplicated"
      | None -> Outcome.ratio "store.dedup_hit_ratio" 0.0 0.0 ~base:"(no store)");
      share "server";
    ]
  @ server
  @ [
      m "gc.major_collections" "count" (float_of_int pass.majors);
      m "gc.alloc_mb" "MB" (s.Layers.alloc_bytes /. mb);
      m "trace.wall_s" "s" wall;
      Outcome.ratio "trace.unattributed_frac" s.Layers.unattributed_s wall
        ~base:"s of the traced wall in no layer";
      (* above 1 by the work that ran in parallel *)
      Outcome.ratio "trace.layer_sum_frac"
        (List.fold_left (fun a (_, l) -> a +. l.Layers.self_s) 0.0 s.Layers.by_layer)
        wall ~base:"layer self-time s over the traced wall";
      m "trace.overhead_frac" "fraction"
        ((wall /. reference_s) -. 1.0)
        ~note:(Printf.sprintf "traced %.3f s vs untraced %.3f s" wall reference_s);
    ]

(* Server-layer metrics of the requests; zeros for a batch workload. *)
let server_metrics ?(n_functions = 0) ?(samples = []) ?(update_s = 0.0) ?(request_s = 0.0) () =
  let edits = List.filter (fun s -> s.edit) samples in
  let cone =
    match edits with
    | [] -> 0.0
    | es -> Stats.median (List.map (fun s -> float_of_int s.resp.dirty_cone) es)
  in
  let client = List.fold_left (fun a s -> a +. s.client_s) 0.0 samples in
  let server = List.fold_left (fun a s -> a +. s.resp.server_s) 0.0 samples in
  [
    Outcome.metric "server.dirty_cone" "count" cone ~note:"median functions re-analysed per edit";
    Outcome.ratio "server.reuse_frac"
      (float_of_int n_functions -. cone)
      (float_of_int n_functions) ~base:"functions kept per edit";
    Outcome.ratio "server.update_share" update_s request_s ~base:"s of request time in Incr.update";
    Outcome.ratio "server.transport_share" (client -. server) client
      ~base:"s of client latency outside the server";
  ]

let traced_batch ctx w ~seed ~jobs ~store =
  let tally = new_tally () in
  let inputs = generate ctx w ~seed in
  let store_dir tag = if store then Some (Filename.concat ctx.dir (tag ^ ".store")) else None in
  let reference_s, reference =
    run_check ctx tally ~tag:"untraced" (check_args inputs ~jobs ~store_dir:(store_dir "untraced"))
  in
  tally.attempted <- tally.attempted + 1;
  let p, pass =
    traced_call (fun () -> batch_pass ~jobs ~store_dir:(store_dir "traced") (List.map fst inputs.files))
  in
  let mismatches =
    match reference with
    | None -> 0
    | Some (_, _, out) ->
      let child = List.map (fun (c : Check_output.checker) -> (c.name, c.lines)) out.checkers in
      List.length (List.filter (fun r -> not (List.mem r child)) p.renders)
  in
  if mismatches > 0 then problem tally "%d checker(s) report differently traced" mismatches;
  outcome w tally ~traced:true
    (layer_metrics pass ~seg:p.seg ~jobs:p.jobs ~store_stats:p.store_stats ~reference_s
       ~server:(server_metrics ())
    @ failure_metrics tally ~mismatches)

let traced_serve ctx w ~seed =
  let tally = new_tally () in
  (* untraced: a session against a server child *)
  let child = serve_session ctx tally w ~seed ~first:None ~tag:"untraced" in
  let reference_s = List.fold_left (fun a s -> a +. s.client_s) child.s_ready_s child.s_samples in
  (* traced: the same requests through Server.load_files and
     Server.handle_line, in-process *)
  let inputs = generate ctx w ~seed in
  let split = Option.get inputs.split in
  let replay = List.init script_length (fun i -> snd (request split (i + 1))) in
  let responses, pass =
    traced_call (fun () ->
        let t =
          Server.create
            ~config:{ Server.default_config with flight_file = Filename.concat ctx.dir "flight.json" }
            ()
        in
        Obs.span "bench.pass" (fun () ->
            Obs.span "bench.load" (fun () -> Server.load_files t inputs.files);
            List.map
              (fun line -> Obs.span "bench.request" (fun () -> fst (Server.handle_line t line)))
              replay))
  in
  tally.attempted <- tally.attempted + List.length responses;
  let traced = List.map parse_response responses in
  if List.mem None traced then failure tally "traced: a request failed";
  let mismatches =
    List.length
      (List.filteri
         (fun i s ->
           match List.nth_opt traced i with
           | Some (Some r) -> r.renders <> s.resp.renders
           | _ -> true)
         child.s_samples)
  in
  if mismatches > 0 then problem tally "%d response(s) report differently traced" mismatches;
  (* the SEG size of the loaded subject, outside the trace *)
  let seg =
    Pinpoint.Analysis.seg_size (Pinpoint.Analysis.prepare_files (List.map fst inputs.files))
  in
  let sum name = List.fold_left ( +. ) 0.0 (Layers.durations pass.spans name) in
  let server =
    server_metrics ~n_functions:(Edit.n_functions split) ~samples:child.s_samples
      ~update_s:(sum "incr.update")
      ~request_s:(sum "bench.request") ()
  in
  outcome w tally ~traced:true
    (layer_metrics pass ~seg ~jobs:1 ~store_stats:None ~reference_s ~server
    @ failure_metrics tally ~mismatches)

let traced ctx w ~seed =
  match w.kind with
  | Batch { jobs; store } -> traced_batch ctx w ~seed ~jobs ~store
  | Serve _ -> traced_serve ctx w ~seed

(* Every workload from one process: end to end first, with the batch
   workloads' repetitions interleaved round-robin so a slow stretch of the
   host hits all three alike, then one traced pass each. *)
let suite ctx ~seed ~seconds =
  let batches =
    List.filter_map
      (fun w ->
        match w.kind with
        | Batch { jobs; store } -> Some (batch_setup ctx w ~seed ~jobs ~store)
        | Serve _ -> None)
      all
  in
  let rec rounds () =
    match List.filter (batch_wants_more ~seconds) batches with
    | [] -> ()
    | pending ->
      List.iter batch_rep pending;
      rounds ()
  in
  rounds ();
  let end_to_end =
    List.map
      (fun w ->
        match List.find_opt (fun b -> b.w == w) batches with
        | Some b -> batch_finish b
        | None -> measure ctx w ~seed ~seconds)
      all
  in
  end_to_end @ List.map (fun w -> traced ctx w ~seed) all
