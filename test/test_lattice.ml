(* The configuration lattice (DESIGN.md §5): a 4-lane pool or none (built
   directly, so two domains run even where [Pool.effective_jobs] caps the
   CLI at one), a disk store keeping one function resident or the memory
   store, tracing with the flight recorder or neither, batch or served.
   Each of the 16 configurations runs the corpus files and a generated
   three-file subject through an edit stream; against the reference
   corner (jobs 1, store off, [Off], batch):
   (a) batch: every checker's renders, one-line and [-v], and the leak
       checker's are the reference's;
   (b) batch: each run's change in [engine.*], [solver.*], [pta.n_kept]
       and [pta.n_pruned] is the reference's;
   (c) served: every response but its [latency_s] is the served corner's,
       each check response's renders are the reference's over the same
       file contents, and the closing status counts agree;
   (d) every axis took effect: the store spilled, evicted and faulted, the
       pool ran tasks, tracing recorded [engine.source] spans, and only the
       structural edit was answered with a full rebuild. *)

module Obs = Pinpoint_obs.Obs
module Flight = Pinpoint_obs.Flight
module Pool = Pinpoint_par.Pool
module Store = Pinpoint_store.Store
module Json = Pinpoint_server.Json
module Server = Pinpoint_server.Server

type config = { jobs : int; store : bool; trace : bool; served : bool }

let configs =
  let each l f = List.concat_map f l and bools = [ false; true ] in
  each [ 1; 4 ] @@ fun jobs ->
  each bools @@ fun store ->
  each bools @@ fun trace ->
  each bools @@ fun served -> [ { jobs; store; trace; served } ]

let name c =
  Printf.sprintf "jobs %d, store %s, %s, %s" c.jobs
    (if c.store then "on" else "off")
    (if c.trace then "Trace" else "Off")
    (if c.served then "served" else "batch")

(* ---------- subjects ---------- *)

let corpus =
  lazy
    (let dir = Test_corpus.corpus_dir () in
     Sys.readdir dir |> Array.to_list
     |> List.filter (fun f -> Filename.check_suffix f ".mc")
     |> List.sort compare
     |> List.map (fun f -> (f, Test_store.read_file (Filename.concat dir f))))

(* A call chain appended to the generated subject's last file.  [lat_g]'s
   result is part of its RV entry, so editing [ret] re-summarises its
   callers, and a use-after-free in [lat_h] becomes feasible at a result
   above 5; with [call], [lat_g] passes the freed pointer on to [lat_k],
   which changes the call graph's edges under unchanged headers. *)
let chain ~ret ~call =
  Printf.sprintf
    {|
void lat_k(int *p) { print(*p); }
int lat_g(int *p, int a) {%s int r = %d; return r; }
int lat_f(int *p, int s) { int r = lat_g(p, s); return r; }
void lat_h(int n) {
  int *m = malloc();
  free(m);
  int r = lat_f(m, n);
  if (r > 5) { print(*m); }
}
|}
    (if call then " lat_k(p);" else "")
    ret

type edit = Body | Resummarise | Structural | Noop

type step = {
  what : string;
  edit : edit;
  changed : (string * string) list;  (** the request's files *)
  files : (string * string) list;  (** every file after the edit *)
}

(* The generated subject in three files, and the edit stream replayed
   against it: built once, so every configuration sees the same text. *)
let stream =
  lazy
    (let chunks = Helpers.split_subject 3 (Helpers.subject ~seed:23 ~loc:300 ()) in
     let tail = ref (chain ~ret:3 ~call:false) in
     let files () =
       List.mapi
         (fun i (n, c) -> if i = 2 then (n, c ^ !tail) else (n, c))
         (Helpers.contents_of chunks)
     in
     let step what edit k apply =
       apply ();
       let files = files () in
       { what; edit; changed = [ List.nth files k ]; files }
     in
     let bump chunk i () =
       if not (Helpers.bump_nth_function chunks ~chunk ~i) then
         Alcotest.failf "srv_%d.mc: function %d has no literal" chunk i
     in
     let load = files () in
     let body = step "body edit" Body 0 (bump 0 2) in
     let rv =
       step "RV edit" Resummarise 2 (fun () -> tail := chain ~ret:30 ~call:false)
     in
     let call =
       step "call edit" Body 2 (fun () -> tail := chain ~ret:30 ~call:true)
     in
     let structural =
       step "structural edit" Structural 1 (fun () ->
           Helpers.add_function chunks ~chunk:1)
     in
     let noop = step "no-op edit" Noop 0 ignore in
     let last = step "body edit after the rebuild" Body 1 (bump 1 1) in
     (load, [ body; rv; call; structural; noop; last ]))

(* ---------- one configuration ---------- *)

(* Run [f] under [c]'s obs level, flight recorder and pool, from a zeroed
   registry; return its result, the pool's task count and the spans. *)
let under c f =
  Obs.reset ();
  Obs.set_level (if c.trace then Obs.Trace else Obs.Off);
  Flight.set_enabled c.trace;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_level Obs.Off;
      Obs.reset ();
      Flight.set_enabled false;
      Flight.clear ())
  @@ fun () ->
  let r =
    if c.jobs > 1 then Pool.with_pool ~jobs:c.jobs (fun p -> f (Some p))
    else f None
  in
  (r, Obs.Snapshot.counter (Obs.snapshot ()) "par.tasks", Obs.spans ())

(* Run [f] with [c]'s store, a fresh one per subject, and count what went
   through it into [seen]. *)
let with_store c seen f =
  if not c.store then f None
  else
    Helpers.with_temp_dir "pinpoint_lattice_" @@ fun dir ->
    let st = Store.create ~dir ~max_resident:1 () in
    Fun.protect ~finally:(fun () -> Store.close st) @@ fun () ->
    let r = f (Some st) in
    seen := Store.stats st :: !seen;
    r

let counted delta =
  List.filter_map
    (fun (name, v) ->
      match v with
      | Obs.Snapshot.Counter n
        when String.starts_with ~prefix:"engine." name
             || String.starts_with ~prefix:"solver." name
             || name = "pta.n_kept" || name = "pta.n_pruned" ->
        Some (name, n)
      | _ -> None)
    delta

(* Per checker, the reported renders: one-line, then [-v]. *)
type renders = (string * (string list * string list)) list

(* As [pinpoint check -v] and [pinpoint leaks] run: prepare, seal, every
   checker, then the leak checker.  Returns the renders and the run's
   counts. *)
let batch pool store files : renders * _ =
  let renders, delta =
    Helpers.with_counters @@ fun () ->
    let a = Pinpoint.Analysis.prepare ?pool ?store (Helpers.compile_files files) in
    Pinpoint.Analysis.seal_store a Pinpoint.Checkers.all;
    let checks =
      List.map
        (fun (spec : Pinpoint.Checker_spec.t) ->
          let reports, _ = Pinpoint.Analysis.check a spec in
          ( spec.Pinpoint.Checker_spec.name,
            ( Helpers.render_reports reports,
              Helpers.render_reports ~render:(Format.asprintf "%a" Pinpoint.Report.pp)
                reports ) ))
        Pinpoint.Checkers.all
    in
    let leaks =
      List.map
        (Format.asprintf "%a" Pinpoint.Leak.pp)
        (Pinpoint.Leak.check ~resilience:a.Pinpoint.Analysis.resilience
           a.Pinpoint.Analysis.prog ~seg_of:(Pinpoint.Analysis.seg_of a)
           ~rv:a.Pinpoint.Analysis.rv)
    in
    checks @ [ ("memory-leak", (leaks, leaks)) ]
  in
  (renders, counted delta)

(* A session through [Server.handle_line]: load [files], answer [script],
   then a status.  Returns the responses without their [latency_s] and
   the status's counts. *)
let serve c pool store files script =
  let t =
    Server.create
      ~config:{ Server.default_config with pool; store; flight = c.trace }
      ()
  in
  Server.load_files t files;
  let answer line = Test_server.parse_response (fst (Server.handle_line t line)) in
  let responses =
    List.map
      (fun line ->
        match answer line with
        | Json.Obj kvs -> Json.Obj (List.remove_assoc "latency_s" kvs)
        | j -> j)
      script
  in
  let status = answer {|{"op":"status"}|} in
  ( responses,
    List.map
      (fun k -> (k, Option.map Json.to_string (Json.member k status)))
      [ "ops"; "rungs"; "checks"; "errors"; "shed_rss" ] )

let corner ~served = { jobs = 1; store = false; trace = false; served }

type run = {
  batches : (string * (renders * (string * int) list)) list;
      (** batch: per corpus file and generated state *)
  sessions : (string * (Json.t list * (string * string option) list)) list;
      (** served: per corpus file and the generated stream *)
  stores : Store.stats list;
  par_tasks : int;
  spans : string list;  (** distinct span names *)
}

let run_config c =
  let corpus = List.map (fun (f, src) -> (f, [ (f, src) ])) (Lazy.force corpus) in
  let load, steps = Lazy.force stream in
  let stores = ref [] in
  let (batches, sessions), par_tasks, spans =
    under c @@ fun pool ->
    if c.served then
      (* the registry counts across the sessions, in this order, so each
         closing status is cumulative *)
      let session (label, files, script) =
        (label, with_store c stores (fun store -> serve c pool store files script))
      in
      let corpus =
        List.map
          (fun (f, files) -> session (f, files, [ Test_server.req_of_files [] ]))
          corpus
      in
      let generated =
        session
          ( "generated",
            load,
            List.map Test_server.req_of_files
              ([] :: List.map (fun s -> s.changed) steps)
            @ [ "[1,2,3]" ] )
      in
      ([], corpus @ [ generated ])
    else
      (* the reference renders every state a session answers, the other
         corners the first and the last *)
      let states =
        ("generated: load", load)
        :: List.map (fun s -> ("generated: " ^ s.what, s.files)) steps
      in
      let states =
        if c = corner ~served:false then states
        else [ List.hd states; List.nth states (List.length steps) ]
      in
      ( List.map
          (fun (label, files) ->
            (label, with_store c stores (fun store -> batch pool store files)))
          (corpus @ states),
        [] )
  in
  {
    batches;
    sessions;
    stores = !stores;
    par_tasks;
    spans = List.sort_uniq compare (List.map (fun (s : Obs.span) -> s.Obs.name) spans);
  }

let runs = List.map (fun c -> (c, lazy (run_config c))) configs
let run c = Lazy.force (List.assoc c runs)

(* ---------- the assertions ---------- *)

(* (a) and (b) *)
let check_batch r =
  let reference = (run (corner ~served:false)).batches in
  List.iter
    (fun (label, (got, got_counts)) ->
      let expected, counts = List.assoc label reference in
      List.iter2
        (fun (checker, (one_line, full)) (_, (got_one_line, got_full)) ->
          Alcotest.(check (list string)) (label ^ ": " ^ checker) one_line got_one_line;
          Alcotest.(check (list string)) (label ^ ": " ^ checker ^ " -v") full got_full)
        expected got;
      Alcotest.(check (list (pair string int)))
        (label ^ ": engine.*, solver.*, pta.n_kept/n_pruned")
        counts got_counts)
    r.batches

(* The reference's one-line renders, in checker order, of the file
   contents each response of a session answers. *)
let batch_answers label =
  let one_line state =
    List.concat_map
      (fun (checker, (one_line, _)) -> if checker = "memory-leak" then [] else one_line)
      (fst (List.assoc state (run (corner ~served:false)).batches))
  in
  if label <> "generated" then [ one_line label ]
  else
    let _, steps = Lazy.force stream in
    List.map
      (fun what -> one_line ("generated: " ^ what))
      ("load" :: List.map (fun s -> s.what) steps)

(* (c) *)
let check_served r =
  List.iter2
    (fun (label, (expected, status)) (_, (got, got_status)) ->
      Alcotest.(check (list string))
        (label ^ ": responses without latency_s")
        (List.map Json.to_string expected)
        (List.map Json.to_string got);
      List.iteri
        (fun i answer ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s, response %d: server = batch" label i)
            answer
            (Test_server.response_renders (List.nth got i)))
        (batch_answers label);
      Alcotest.(check (list (pair string (option string))))
        (label ^ ": status ops, rungs, checks, errors, shed_rss")
        status got_status)
    (run (corner ~served:true)).sessions r.sessions;
  Alcotest.(check (option string)) "the non-object line counted as an error" (Some "1")
    (List.assoc "errors" (snd (List.assoc "generated" r.sessions)))

(* (d) *)
let check_axes c r =
  let total f = List.fold_left (fun n s -> n + f s) 0 r.stores in
  let spills = total (fun s -> s.Store.spills)
  and evictions = total (fun s -> s.Store.evictions)
  and faults = total (fun s -> s.Store.faults) in
  Alcotest.(check bool)
    (Printf.sprintf "store spilled (%d), evicted (%d), faulted (%d)" spills evictions
       faults)
    c.store
    (spills > 0 && evictions > 0 && faults > 0);
  Alcotest.(check bool)
    (Printf.sprintf "par.tasks %d with jobs %d" r.par_tasks c.jobs)
    (c.jobs > 1) (r.par_tasks > 0);
  Alcotest.(check bool) "engine.source spans" c.trace
    (List.mem "engine.source" r.spans);
  if not c.trace then Alcotest.(check (list string)) "no spans at Off" [] r.spans;
  if c.served then begin
    let _, steps = Lazy.force stream in
    (* the responses to the edits, after the first check's *)
    let responses = List.tl (fst (List.assoc "generated" r.sessions)) in
    List.iteri
      (fun i s ->
        let stat k =
          Option.bind (Json.member "incremental" (List.nth responses i)) (Json.member k)
        in
        let int k = Option.value ~default:(-1) (Option.bind (stat k) Json.int_opt) in
        Alcotest.(check (option bool))
          (s.what ^ ": full rebuild")
          (Some (s.edit = Structural))
          (Option.bind (stat "full_rebuild") Json.bool_opt);
        if s.edit = Resummarise then
          Alcotest.(check bool) (s.what ^ ": a caller re-summarised") true
            (int "resummarised" > 0);
        if s.edit = Noop then
          Alcotest.(check int) (s.what ^ ": empty cone") 0 (int "dirty_cone"))
      steps
  end

let test_config c () =
  let r = run c in
  if c.served then check_served r else check_batch r;
  check_axes c r

let suite =
  List.map (fun c -> Alcotest.test_case (name c) `Quick (test_config c)) configs
