(* Tests for the observability layer (lib/obs): span nesting under a
   multi-domain pool, snapshot merge algebra, histogram bucketing, the
   exporters and the SMT query profiler.  That observability never
   changes a report is the lattice's (test_lattice.ml). *)

module Obs = Pinpoint_obs.Obs
module Export = Pinpoint_obs.Export
module Window = Pinpoint_obs.Window
module Metrics = Pinpoint_util.Metrics

(* The level and the registry are process-global: every test restores
   [Off] and clears the buffers on the way out so the rest of the suite
   runs untouched. *)
let with_level level f =
  Obs.reset ();
  Obs.set_level level;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_level Obs.Off;
      Obs.reset ())
    f

let uaf_src =
  {|
void rel(int *p) { free(p); }
void top(int s) { int *q = malloc(); *q = s; rel(q); print(*q); }
void other(int t) { int *r = malloc(); *r = t; free(r); print(*r); }
|}

(* A traced use-after-free run of [uaf_src] on a 4-lane pool. *)
let traced_run () =
  with_level Obs.Trace @@ fun () ->
  let reports =
    Pinpoint_par.Pool.with_pool ~jobs:4 (fun pool ->
        let a = Pinpoint.Analysis.prepare_source ~pool ~file:"<obs-test>" uaf_src in
        fst (Pinpoint.Analysis.check a Pinpoint.Checkers.use_after_free))
  in
  (reports, Obs.spans (), Obs.queries (), Export.trace_json ())

(* --------------------------------------------------------------- *)
(* Span nesting and ordering *)

(* Replay one domain's B/E events in sequence order and check stack
   discipline: every close matches the most recent open. *)
let check_domain_wellformed dom (spans : Obs.span list) =
  let events =
    List.concat_map
      (fun (s : Obs.span) ->
        [ (s.Obs.open_seq, `B s); (s.Obs.close_seq, `E s) ])
      spans
    |> List.sort compare
  in
  (* sequence numbers are unique per domain *)
  let seqs = List.map fst events in
  Alcotest.(check int)
    (Printf.sprintf "domain %d: unique seqs" dom)
    (List.length seqs)
    (List.length (List.sort_uniq compare seqs));
  let stack =
    List.fold_left
      (fun stack (_, ev) ->
        match (ev, stack) with
        | `B s, _ -> s :: stack
        | `E s, top :: rest ->
          Alcotest.(check string)
            (Printf.sprintf "domain %d: E closes innermost B" dom)
            top.Obs.name s.Obs.name;
          Alcotest.(check bool)
            "E after its B" true
            (s.Obs.open_seq = top.Obs.open_seq
            && s.Obs.close_seq > s.Obs.open_seq);
          rest
        | `E _, [] -> Alcotest.fail "E with no open B")
      [] events
  in
  Alcotest.(check int)
    (Printf.sprintf "domain %d: all spans closed" dom)
    0 (List.length stack)

let test_span_nesting_jobs4 () =
  let reports, spans, _, _ = traced_run () in
  Alcotest.(check bool) "found reports" true (reports <> []);
  Alcotest.(check bool) "recorded spans" true (spans <> []);
  let doms =
    List.sort_uniq compare (List.map (fun (s : Obs.span) -> s.Obs.dom) spans)
  in
  List.iter
    (fun d ->
      check_domain_wellformed d
        (List.filter (fun (s : Obs.span) -> s.Obs.dom = d) spans))
    doms;
  List.iter
    (fun (s : Obs.span) ->
      Alcotest.(check bool) "t1 >= t0" true (s.Obs.t1 >= s.Obs.t0))
    spans

(* Deterministic multi-domain case: four domains each record the same
   nested span tree concurrently; the tracks must stay disjoint and each
   one well-formed — a worker's spans can never leak onto another track. *)
let test_span_tracks_disjoint () =
  with_level Obs.Trace @@ fun () ->
  let work () =
    for _ = 1 to 5 do
      Obs.span "outer" (fun () ->
          Obs.span "mid" (fun () -> Obs.span "inner" (fun () -> ())))
    done;
    (Domain.self () :> int)
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn work) in
  let ids = Array.to_list (Array.map Domain.join domains) in
  Alcotest.(check int) "4 distinct domains" 4
    (List.length (List.sort_uniq compare ids));
  let spans = Obs.spans () in
  List.iter
    (fun d ->
      let own = List.filter (fun (s : Obs.span) -> s.Obs.dom = d) spans in
      Alcotest.(check int)
        (Printf.sprintf "domain %d span count" d)
        15 (List.length own);
      check_domain_wellformed d own)
    ids;
  (* every span landed on the track of the domain that recorded it *)
  Alcotest.(check int) "no spans on the main track" 0
    (List.length
       (List.filter
          (fun (s : Obs.span) -> not (List.mem s.Obs.dom ids))
          spans))

let test_span_names_present () =
  let _, spans, queries, _ = traced_run () in
  let names = List.map (fun (s : Obs.span) -> s.Obs.name) spans in
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("phase " ^ expected) true (List.mem expected names))
    [
      "lower"; "pta"; "transform"; "seg.build"; "summary"; "engine.source";
      "smt.query"; "par.task"; "summary.vf";
    ];
  Alcotest.(check bool) "queries recorded" true (queries <> [])

(* --------------------------------------------------------------- *)
(* Snapshot merge algebra *)

let snap_testable =
  Alcotest.testable
    (fun ppf s -> Format.fprintf ppf "%s" (Marshal.to_string s []))
    ( = )

let test_merge_associative () =
  let h edges counts sum n =
    Obs.Snapshot.Histogram { edges; counts; sum; n }
  in
  let e = [| 0.1; 1.0 |] in
  let a =
    [ ("c.x", Obs.Snapshot.Counter 3); ("g.y", Obs.Snapshot.Gauge 1.5);
      ("h.z", h e [| 1; 0; 2 |] 4.5 3) ]
  in
  let b =
    [ ("c.w", Obs.Snapshot.Counter 7); ("c.x", Obs.Snapshot.Counter 4);
      ("h.z", h e [| 0; 5; 1 |] 9.0 6) ]
  in
  let c =
    [ ("c.x", Obs.Snapshot.Counter 10); ("g.y", Obs.Snapshot.Gauge 0.5) ]
  in
  let m = Obs.Snapshot.merge in
  Alcotest.check snap_testable "associative" (m (m a b) c) (m a (m b c));
  Alcotest.check snap_testable "commutative" (m a b) (m b a);
  Alcotest.check snap_testable "left identity" a (m [] a);
  (* counters added, gauges maxed, histogram pointwise *)
  (match List.assoc "c.x" (m (m a b) c) with
  | Obs.Snapshot.Counter n -> Alcotest.(check int) "counter sum" 17 n
  | _ -> Alcotest.fail "kind changed");
  match List.assoc "h.z" (m a b) with
  | Obs.Snapshot.Histogram hh ->
    Alcotest.(check (array int)) "hist counts" [| 1; 5; 3 |] hh.counts;
    Alcotest.(check int) "hist n" 9 hh.n
  | _ -> Alcotest.fail "kind changed"

let test_registry_counters () =
  with_level Obs.Metrics_only @@ fun () ->
  let c = Obs.counter "test.counter" in
  Obs.add c 3;
  Obs.add c 4;
  let g = Obs.gauge "test.gauge" in
  Obs.set_gauge g 2.5;
  match (List.assoc_opt "test.counter" (Obs.snapshot ()),
         List.assoc_opt "test.gauge" (Obs.snapshot ())) with
  | Some (Obs.Snapshot.Counter n), Some (Obs.Snapshot.Gauge v) ->
    Alcotest.(check int) "counter" 7 n;
    Alcotest.(check (float 0.0)) "gauge" 2.5 v
  | _ -> Alcotest.fail "metrics missing from snapshot"

(* The registry counts at every level; spans are recorded only when
   tracing. *)
let test_counters_count_when_off () =
  Obs.reset ();
  Obs.set_level Obs.Off;
  let c = Obs.counter "test.off" in
  Obs.add c 5;
  (match List.assoc_opt "test.off" (Obs.snapshot ()) with
  | Some (Obs.Snapshot.Counter n) -> Alcotest.(check int) "counts when off" 5 n
  | _ -> Alcotest.fail "counter not registered");
  Alcotest.(check int) "no spans when off" 0
    (List.length (Obs.span "x" (fun () -> Obs.spans ())));
  Obs.reset ()

(* [Obs.reset] zeroes every metric in place: a handle created before it
   (the store creates its counters once, when its module loads) still
   feeds the metric a later snapshot reads. *)
let test_reset_keeps_handles () =
  with_level Obs.Metrics_only @@ fun () ->
  Helpers.with_temp_dir "pinpoint_obs_reset_" @@ fun dir ->
  let module Store = Pinpoint_store.Store in
  let store = Store.create ~dir ~max_resident:2 () in
  let chain =
    {|
void c0(int *p) { free(p); }
void c1(int *p) { c0(p); }
void c2(int *p) { c1(p); }
void c3(int s) { int *q = malloc(); *q = s; c2(q); print(*q); }
|}
  in
  ignore (Pinpoint.Analysis.prepare_source ~store ~file:"<obs-reset>" chain);
  Store.publish_obs store;
  let spills = (Store.stats store).Store.spills in
  Store.close store;
  Alcotest.(check bool) "the store spilled" true (spills > 0);
  Alcotest.(check int) "store.spills = Store.stats spills" spills
    (Obs.Snapshot.counter (Obs.snapshot ()) "store.spills")

(* Snapshot.diff: the window algebra.  merge (diff b a) (diff c b) must
   equal diff c a on monotone snapshot chains — that identity is what
   makes the rolling window's per-slot deltas recombine correctly. *)
let test_diff_algebra () =
  let h counts sum n =
    Obs.Snapshot.Histogram { edges = [| 0.1; 1.0 |]; counts; sum; n }
  in
  let a =
    [ ("c", Obs.Snapshot.Counter 3); ("g", Obs.Snapshot.Gauge 1.0);
      ("h", h [| 1; 0; 0 |] 0.05 1) ]
  in
  let b =
    [ ("c", Obs.Snapshot.Counter 10); ("g", Obs.Snapshot.Gauge 2.0);
      ("h", h [| 1; 2; 0 |] 1.05 3) ]
  in
  let c =
    [ ("c", Obs.Snapshot.Counter 11); ("g", Obs.Snapshot.Gauge 2.5);
      ("h", h [| 2; 2; 1 |] 6.1 5); ("new", Obs.Snapshot.Counter 4) ]
  in
  let d = Obs.Snapshot.diff and m = Obs.Snapshot.merge in
  (* gauge chain is non-decreasing here: merge maxes gauges across
     window slots while diff keeps the newer reading, so recombination
     is exact on counters/histograms and max-vs-latest on gauges *)
  Alcotest.check snap_testable "window recombination" (d c a)
    (m (d b a) (d c b));
  (* counters subtract, gauges keep the newer reading even when lower *)
  (match List.assoc "c" (d b a) with
  | Obs.Snapshot.Counter n -> Alcotest.(check int) "counter delta" 7 n
  | _ -> Alcotest.fail "kind changed");
  (match List.assoc "g" (d [ ("g", Obs.Snapshot.Gauge 0.5) ] b) with
  | Obs.Snapshot.Gauge v -> Alcotest.(check (float 0.0)) "gauge newer" 0.5 v
  | _ -> Alcotest.fail "kind changed");
  (* names only in newer are kept; clamping never goes negative *)
  Alcotest.(check bool) "new name kept" true (List.mem_assoc "new" (d c a));
  match List.assoc "h" (d c b) with
  | Obs.Snapshot.Histogram hh ->
    Alcotest.(check (array int)) "hist delta" [| 1; 0; 1 |] hh.counts;
    Alcotest.(check int) "hist delta n" 2 hh.n
  | _ -> Alcotest.fail "kind changed"

(* Quantile interpolation: a known bucket layout with hand-computed
   answers. *)
let test_quantiles () =
  let v =
    Obs.Snapshot.Histogram
      {
        edges = [| 1.0; 2.0; 4.0 |];
        counts = [| 10; 0; 10; 0 |];  (* 20 obs: 10 in (0,1], 10 in (2,4] *)
        sum = 35.0;
        n = 20;
      }
  in
  let q p =
    match Obs.Snapshot.quantile v p with
    | Some x -> x
    | None -> Alcotest.fail "quantile on non-empty histogram"
  in
  (* p50: 10th obs closes the first bucket -> interpolates to its edge *)
  Alcotest.(check (float 1e-9)) "p50" 1.0 (q 0.50);
  (* p95: 19th obs = 9/10 through bucket (2,4] -> 2 + 2*0.9 *)
  Alcotest.(check (float 1e-9)) "p95" 3.8 (q 0.95);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (q 1.0);
  (* overflow-only histogram reports the last finite edge *)
  let over =
    Obs.Snapshot.Histogram
      { edges = [| 1.0; 2.0 |]; counts = [| 0; 0; 5 |]; sum = 50.0; n = 5 }
  in
  (match Obs.Snapshot.quantile over 0.5 with
  | Some x -> Alcotest.(check (float 1e-9)) "overflow -> last edge" 2.0 x
  | None -> Alcotest.fail "overflow quantile");
  (* empty histogram and non-histograms have no quantiles *)
  Alcotest.(check bool) "empty -> None" true
    (Obs.Snapshot.quantile
       (Obs.Snapshot.Histogram
          { edges = [| 1.0 |]; counts = [| 0; 0 |]; sum = 0.0; n = 0 })
       0.5
    = None);
  Alcotest.(check bool) "counter -> None" true
    (Obs.Snapshot.quantile (Obs.Snapshot.Counter 3) 0.5 = None)

(* Rolling window: deltas land in slots as the clock crosses widths, the
   view is live before any roll, and old slots age out of the ring. *)
let test_rolling_window () =
  with_level Obs.Metrics_only @@ fun () ->
  let w = Window.create ~slots:3 ~width_s:10.0 ~now:0.0 () in
  let c = Obs.counter "win.c" in
  Obs.add c 5;
  (* live tail: visible before the first roll *)
  (match List.assoc_opt "win.c" (Window.view w ~current:(Obs.snapshot ())) with
  | Some (Obs.Snapshot.Counter n) -> Alcotest.(check int) "live tail" 5 n
  | _ -> Alcotest.fail "counter missing from window view");
  (* idle tick: nothing rolls before the width elapses *)
  Window.tick w ~now:9.0 Obs.snapshot;
  Alcotest.(check int) "no roll yet" 0 (Window.rolls w);
  Window.tick w ~now:10.5 Obs.snapshot;
  Alcotest.(check int) "first roll" 1 (Window.rolls w);
  Obs.add c 7;
  (match List.assoc_opt "win.c" (Window.view w ~current:(Obs.snapshot ())) with
  | Some (Obs.Snapshot.Counter n) -> Alcotest.(check int) "slot + tail" 12 n
  | _ -> Alcotest.fail "counter missing");
  (* roll three more times with nothing new: the +5 slot ages out of the
     3-slot ring, leaving only the +7 *)
  Window.tick w ~now:21.0 Obs.snapshot;
  Window.tick w ~now:31.0 Obs.snapshot;
  Window.tick w ~now:41.0 Obs.snapshot;
  Alcotest.(check int) "ring full" 3 (Window.filled w);
  match List.assoc_opt "win.c" (Window.view w ~current:(Obs.snapshot ())) with
  | Some (Obs.Snapshot.Counter n) -> Alcotest.(check int) "aged out" 7 n
  | _ -> Alcotest.fail "counter missing"

(* --------------------------------------------------------------- *)
(* Histogram bucket edges *)

let test_histogram_buckets () =
  with_level Obs.Metrics_only @@ fun () ->
  let h = Obs.histogram ~buckets:[| 1.0; 2.0; 4.0 |] "test.hist" in
  (* boundary values go into the bucket they close (v <= edge) *)
  List.iter (Obs.observe h) [ 0.5; 1.0; 1.5; 2.0; 3.0; 4.0; 99.0 ];
  match List.assoc_opt "test.hist" (Obs.snapshot ()) with
  | Some (Obs.Snapshot.Histogram hh) ->
    Alcotest.(check (array int)) "bucket counts" [| 2; 2; 2; 1 |] hh.counts;
    Alcotest.(check int) "n" 7 hh.n;
    Alcotest.(check (float 1e-9)) "sum" 111.0 hh.sum
  | _ -> Alcotest.fail "histogram missing"

(* --------------------------------------------------------------- *)
(* Trace JSON golden checks: the document parses as JSON and contains
   the expected phase names with per-domain tracks. *)

(* Minimal recursive-descent JSON parser — validation only. *)
exception Bad_json of string

let parse_json (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> raise (Bad_json (Printf.sprintf "expected %c at %d" c !pos))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some ('t' | 'f' | 'n') -> keyword ()
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> raise (Bad_json (Printf.sprintf "unexpected char at %d" !pos))
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else begin
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); members ()
        | _ -> expect '}'
      in
      members ()
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else begin
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); elems ()
        | _ -> expect ']'
      in
      elems ()
    end
  and string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some 'u' -> advance (); for _ = 1 to 4 do advance () done
        | Some _ -> advance ()
        | None -> raise (Bad_json "eof in escape"));
        go ()
      | Some _ -> advance (); go ()
      | None -> raise (Bad_json "eof in string")
    in
    go ()
  and keyword () =
    let kw = [ "true"; "false"; "null" ] in
    match
      List.find_opt
        (fun k ->
          !pos + String.length k <= n && String.sub s !pos (String.length k) = k)
        kw
    with
    | Some k -> pos := !pos + String.length k
    | None -> raise (Bad_json "bad keyword")
  and number () =
    let is_num c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    let start = !pos in
    while (match peek () with Some c when is_num c -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then raise (Bad_json "empty number")
  in
  value ();
  skip_ws ();
  if !pos <> n then raise (Bad_json (Printf.sprintf "trailing data at %d" !pos))

let test_trace_json_golden () =
  let _, spans, _, json = traced_run () in
  (match parse_json (String.trim json) with
  | () -> ()
  | exception Bad_json msg -> Alcotest.failf "trace JSON does not parse: %s" msg);
  Alcotest.(check bool) "has traceEvents" true
    (Pinpoint_util.Pp.contains json "\"traceEvents\"");
  List.iter
    (fun phase ->
      Alcotest.(check bool) ("trace mentions " ^ phase) true
        (Pinpoint_util.Pp.contains json ("\"" ^ phase ^ "\"")))
    [
      "lower"; "pta"; "transform"; "seg.build"; "summary"; "engine.source";
      "smt.query";
    ];
  (* one named track per recorded domain *)
  let doms =
    List.sort_uniq compare (List.map (fun (s : Obs.span) -> s.Obs.dom) spans)
  in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "thread_name for domain %d" d)
        true
        (Pinpoint_util.Pp.contains json (Printf.sprintf "\"domain-%d\"" d)))
    doms

let test_metrics_json_golden () =
  with_level Obs.Metrics_only @@ fun () ->
  let a = Pinpoint.Analysis.prepare_source ~file:"<obs-test>" uaf_src in
  let _ = Pinpoint.Analysis.check a Pinpoint.Checkers.use_after_free in
  let json = Export.metrics_json () in
  (match parse_json (String.trim json) with
  | () -> ()
  | exception Bad_json msg ->
    Alcotest.failf "metrics JSON does not parse: %s" msg);
  List.iter
    (fun key ->
      Alcotest.(check bool) ("metrics mentions " ^ key) true
        (Pinpoint_util.Pp.contains json ("\"" ^ key ^ "\"")))
    [
      "counters"; "gauges"; "histograms"; "smt"; "rungs"; "top_slowest";
      "engine.n_sources"; "solver.n_queries"; "smt.query.latency_s";
      "p50"; "p95"; "p99";
    ]

(* --------------------------------------------------------------- *)
(* Prometheus text exposition *)

let test_prometheus_golden () =
  with_level Obs.Metrics_only @@ fun () ->
  let a = Pinpoint.Analysis.prepare_source ~file:"<obs-test>" uaf_src in
  let _ = Pinpoint.Analysis.check a Pinpoint.Checkers.use_after_free in
  let text = Export.prometheus () in
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "non-empty exposition" true (lines <> []);
  let is_name_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = ':'
  in
  let name_of line =
    let n = String.length line in
    let i = ref 0 in
    while !i < n && is_name_char line.[!i] do incr i done;
    String.sub line 0 !i
  in
  (* every line is a TYPE comment or a [name{labels} value] sample whose
     name is sanitized + pinpoint_-prefixed and whose value is a float *)
  List.iter
    (fun line ->
      if line.[0] = '#' then
        Alcotest.(check bool) ("comment is a TYPE line: " ^ line) true
          (Pinpoint_util.Pp.contains line "# TYPE pinpoint_")
      else begin
        Alcotest.(check bool) ("sample name prefixed: " ^ line) true
          (String.starts_with ~prefix:"pinpoint_" (name_of line));
        let j = String.rindex line ' ' in
        let v = String.sub line (j + 1) (String.length line - j - 1) in
        match float_of_string_opt v with
        | Some _ -> ()
        | None -> Alcotest.failf "bad sample value in %S" line
      end)
    lines;
  let sample_value prefix =
    List.filter_map
      (fun l ->
        if String.starts_with ~prefix l then
          let j = String.rindex l ' ' in
          Some (float_of_string (String.sub l (j + 1) (String.length l - j - 1)))
        else None)
      lines
  in
  (* histogram wellformedness for the SMT latency metric: cumulative
     buckets monotone, ending in a +Inf bucket that equals _count *)
  let h = "pinpoint_smt_query_latency_s" in
  let buckets = sample_value (h ^ "_bucket{le=") in
  Alcotest.(check bool) "has buckets" true (List.length buckets >= 2);
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "buckets cumulative-monotone" true (monotone buckets);
  Alcotest.(check bool) "last bucket is +Inf" true
    (List.exists
       (fun l -> String.starts_with ~prefix:(h ^ "_bucket{le=\"+Inf\"}") l)
       lines);
  (match (sample_value (h ^ "_count "), List.rev buckets) with
  | [ count ], inf :: _ ->
    Alcotest.(check (float 0.0)) "+Inf bucket = _count" count inf;
    Alcotest.(check bool) "histogram non-empty" true (count > 0.0)
  | _ -> Alcotest.fail "missing _count or buckets");
  (match sample_value (h ^ "_sum ") with
  | [ sum ] -> Alcotest.(check bool) "_sum >= 0" true (sum >= 0.0)
  | _ -> Alcotest.fail "missing _sum");
  (* a counter that the engine always bumps is present *)
  Alcotest.(check bool) "solver counter present" true
    (sample_value "pinpoint_solver_n_queries " <> [])

(* --------------------------------------------------------------- *)
(* Flight recorder *)

let test_flight_recorder () =
  let module Flight = Pinpoint_obs.Flight in
  let was = Flight.enabled () in
  Flight.set_enabled true;
  Flight.clear ();
  Obs.with_request "r000042" (fun () ->
      Flight.record ~kind:"request" "check";
      Flight.record ~kind:"response" ~detail:"ok" "check");
  Flight.record ~kind:"rung" ~detail:"s -> t sat" "full";
  let evs = Flight.events () in
  Alcotest.(check int) "three events" 3 (List.length evs);
  let ts = List.map (fun (e : Flight.event) -> e.Flight.e_t) evs in
  Alcotest.(check bool) "time-ordered" true
    (List.sort compare ts = ts);
  let reqs =
    List.filter_map
      (fun (e : Flight.event) ->
        if e.Flight.e_kind = "request" || e.Flight.e_kind = "response" then
          Some e.Flight.e_req
        else None)
      evs
  in
  Alcotest.(check (list string)) "ambient request id captured"
    [ "r000042"; "r000042" ] reqs;
  (* the JSON artifact parses and a dump round-trips to disk *)
  let json = Flight.to_json ~reason:"unit test" () in
  (match parse_json (String.trim json) with
  | () -> ()
  | exception Bad_json msg -> Alcotest.failf "flight JSON: %s" msg);
  Alcotest.(check bool) "reason embedded" true
    (Pinpoint_util.Pp.contains json "unit test");
  let path = Filename.temp_file "pinpoint_flight" ".json" in
  Alcotest.(check bool) "dump succeeds" true (Flight.dump ~reason:"t" path);
  let ic = open_in path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "dump has events" true
    (Pinpoint_util.Pp.contains contents "\"flight\"");
  (* disabled recorder is a no-op *)
  Flight.clear ();
  Flight.set_enabled false;
  Flight.record ~kind:"request" "ignored";
  Alcotest.(check int) "disabled -> no events" 0
    (List.length (Flight.events ()));
  Flight.set_enabled was

(* --------------------------------------------------------------- *)
(* SMT query profiler *)

(* Every checker on motivating.mc: the rows' conflicts add up to the
   registry's [solver.n_conflicts], so every query has its row. *)
let test_query_profile () =
  let src =
    Test_store.read_file (Filename.concat (Test_corpus.corpus_dir ()) "motivating.mc")
  in
  with_level Obs.Metrics_only @@ fun () ->
  let (), delta =
    Helpers.with_counters (fun () ->
        let a = Pinpoint.Analysis.prepare_source ~file:"motivating.mc" src in
        List.iter
          (fun spec -> ignore (Pinpoint.Analysis.check a spec))
          Pinpoint.Checkers.all)
  in
  let queries = Obs.queries () in
  Alcotest.(check bool) "has queries" true (queries <> []);
  Alcotest.(check int) "rows' conflicts = solver.n_conflicts"
    (Obs.Snapshot.counter delta "solver.n_conflicts")
    (List.fold_left (fun n (q : Obs.query) -> n + q.Obs.q_conflicts) 0 queries);
  List.iter
    (fun (q : Obs.query) ->
      Alcotest.(check bool) "subject is source -> sink" true
        (Pinpoint_util.Pp.contains q.Obs.q_subject " -> ");
      Alcotest.(check bool) "latency >= 0" true (q.Obs.q_latency_s >= 0.0);
      Alcotest.(check bool) "atoms >= 0" true (q.Obs.q_atoms >= 0);
      Alcotest.(check bool) "rung name valid" true
        (List.mem q.Obs.q_rung
           [ "full"; "halved"; "linear"; "gave-up"; "cached" ]))
    queries;
  let dist = Export.rung_distribution queries in
  Alcotest.(check int) "distribution covers all queries"
    (List.length queries)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 dist);
  let slow = Export.top_slowest ~top_k:1 queries in
  Alcotest.(check int) "top-1" 1 (List.length slow);
  let slowest = List.hd slow in
  List.iter
    (fun (q : Obs.query) ->
      Alcotest.(check bool) "top-1 is max latency" true
        (q.Obs.q_latency_s <= slowest.Obs.q_latency_s))
    queries

(* --------------------------------------------------------------- *)
(* Metrics.now_mono / measure *)

let test_now_mono () =
  let t0 = Metrics.now_mono () in
  let t1 = Metrics.now_mono () in
  Alcotest.(check bool) "monotone" true (t1 >= t0);
  let r, m = Metrics.measure (fun () -> Array.length (Array.make 50_000 'x')) in
  Alcotest.(check int) "result" 50_000 r;
  Alcotest.(check bool) "wall_s >= 0" true (m.Metrics.wall_s >= 0.0);
  Alcotest.(check bool) "alloc counted" true (m.Metrics.alloc_bytes > 0.0);
  Alcotest.(check bool) "promoted_words >= 0" true
    (m.Metrics.promoted_words >= 0.0)

let suite =
  [
    Alcotest.test_case "span nesting under jobs 4" `Quick
      test_span_nesting_jobs4;
    Alcotest.test_case "per-domain tracks disjoint" `Quick
      test_span_tracks_disjoint;
    Alcotest.test_case "phase names present" `Quick test_span_names_present;
    Alcotest.test_case "snapshot merge associativity" `Quick
      test_merge_associative;
    Alcotest.test_case "snapshot diff window algebra" `Quick test_diff_algebra;
    Alcotest.test_case "histogram quantiles" `Quick test_quantiles;
    Alcotest.test_case "rolling window" `Quick test_rolling_window;
    Alcotest.test_case "registry counters and gauges" `Quick
      test_registry_counters;
    Alcotest.test_case "counters count when off, spans do not" `Quick
      test_counters_count_when_off;
    Alcotest.test_case "reset keeps load-time handles" `Quick
      test_reset_keeps_handles;
    Alcotest.test_case "histogram bucket edges" `Quick test_histogram_buckets;
    Alcotest.test_case "trace JSON golden" `Quick test_trace_json_golden;
    Alcotest.test_case "metrics JSON golden" `Quick test_metrics_json_golden;
    Alcotest.test_case "Prometheus exposition golden" `Quick
      test_prometheus_golden;
    Alcotest.test_case "flight recorder" `Quick test_flight_recorder;
    Alcotest.test_case "SMT query profile" `Quick test_query_profile;
    Alcotest.test_case "now_mono and measure" `Quick test_now_mono;
  ]
