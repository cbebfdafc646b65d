module Pp = Pinpoint_util.Pp
module Metrics = Pinpoint_util.Metrics

(* ------------------------------------------------------------------ *)
(* JSON plumbing (hand-rolled, as elsewhere in the repo: no JSON dep). *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let jstr s = "\"" ^ escape s ^ "\""

(* JSON has no infinities/NaN; clamp the exotic floats a gauge could
   conceivably carry. *)
let jfloat f =
  if Float.is_nan f then "0"
  else if f = infinity then "1e308"
  else if f = neg_infinity then "-1e308"
  else Printf.sprintf "%.9g" f

let jobj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ v) fields)
  ^ "}"

let jarr items = "[" ^ String.concat ", " items ^ "]"

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export *)

let args_json attrs extra =
  jobj (List.map (fun (k, v) -> (k, jstr v)) attrs @ extra)

let trace_json ?request_id () =
  let spans =
    match request_id with
    | None -> Obs.spans ()
    | Some rid -> List.filter (fun (s : Obs.span) -> s.req = rid) (Obs.spans ())
  in
  let t_base =
    List.fold_left (fun acc (s : Obs.span) -> Float.min acc s.t0) infinity spans
  in
  let us t = (t -. t_base) *. 1e6 in
  let doms =
    List.sort_uniq compare (List.map (fun (s : Obs.span) -> s.dom) spans)
  in
  let meta =
    jobj
      [
        ("ph", jstr "M"); ("name", jstr "process_name"); ("pid", "1");
        ("tid", "0"); ("args", jobj [ ("name", jstr "pinpoint") ]);
      ]
    :: List.map
         (fun d ->
           jobj
             [
               ("ph", jstr "M"); ("name", jstr "thread_name"); ("pid", "1");
               ("tid", string_of_int d);
               ("args", jobj [ ("name", jstr (Printf.sprintf "domain-%d" d)) ]);
             ])
         doms
  in
  (* Two events per span, ordered by the per-domain sequence number —
     within one domain that is exactly execution order, so B/E pairs
     nest properly; across domains order is irrelevant (distinct tids). *)
  let events =
    List.concat_map
      (fun (s : Obs.span) ->
        [
          ( s.dom,
            s.open_seq,
            jobj
              [
                ("ph", jstr "B"); ("name", jstr s.name); ("cat", jstr "phase");
                ("pid", "1"); ("tid", string_of_int s.dom);
                ("ts", jfloat (us s.t0));
                ( "args",
                  args_json s.attrs
                    (if s.req = "" then [] else [ ("request", jstr s.req) ]) );
              ] );
          ( s.dom,
            s.close_seq,
            jobj
              [
                ("ph", jstr "E"); ("name", jstr s.name); ("cat", jstr "phase");
                ("pid", "1"); ("tid", string_of_int s.dom);
                ("ts", jfloat (us s.t1));
                ( "args",
                  jobj [ ("alloc_bytes", jfloat s.alloc_bytes) ] );
              ] );
        ])
      spans
    |> List.sort compare
    |> List.map (fun (_, _, j) -> j)
  in
  "{\"displayTimeUnit\": \"ms\", \"traceEvents\": "
  ^ jarr (meta @ events)
  ^ "}"

(* ------------------------------------------------------------------ *)
(* SMT query profile *)

let rung_distribution (qs : Obs.query list) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (q : Obs.query) ->
      Hashtbl.replace tbl q.q_rung
        (1 + Option.value (Hashtbl.find_opt tbl q.q_rung) ~default:0))
    qs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let top_slowest ?(top_k = 20) (qs : Obs.query list) =
  List.stable_sort
    (fun (a : Obs.query) (b : Obs.query) ->
      match compare b.q_latency_s a.q_latency_s with
      | 0 -> compare (a.q_subject, a.q_rung) (b.q_subject, b.q_rung)
      | c -> c)
    qs
  |> List.filteri (fun i _ -> i < top_k)

let query_json (q : Obs.query) =
  jobj
    [
      ("subject", jstr q.q_subject);
      ("rung", jstr q.q_rung);
      ("verdict", jstr q.q_verdict);
      ("atoms", string_of_int q.q_atoms);
      ("conflicts", string_of_int q.q_conflicts);
      ("shrinks", string_of_int q.q_shrinks);
      ("latency_s", jfloat q.q_latency_s);
      ("dom", string_of_int q.q_dom);
      ("request", jstr q.q_req);
    ]

(* ------------------------------------------------------------------ *)
(* Metrics JSON *)

let jquantile v q =
  match Obs.Snapshot.quantile v q with None -> "0" | Some x -> jfloat x

let value_json (v : Obs.Snapshot.value) =
  match v with
  | Obs.Snapshot.Counter n -> string_of_int n
  | Obs.Snapshot.Gauge g -> jfloat g
  | Obs.Snapshot.Histogram h ->
    jobj
      [
        ("edges", jarr (Array.to_list (Array.map jfloat h.edges)));
        ("counts", jarr (Array.to_list (Array.map string_of_int h.counts)));
        ("sum", jfloat h.sum);
        ("n", string_of_int h.n);
        ("p50", jquantile v 0.50);
        ("p95", jquantile v 0.95);
        ("p99", jquantile v 0.99);
      ]

let metrics_json ?top_k () =
  let snap = Obs.snapshot () in
  let pick f = List.filter_map f snap in
  let counters =
    pick (function
      | n, Obs.Snapshot.Counter _ as kv -> Some (n, value_json (snd kv))
      | _ -> None)
  in
  let gauges =
    pick (function
      | n, (Obs.Snapshot.Gauge _ as v) -> Some (n, value_json v)
      | _ -> None)
  in
  let histograms =
    pick (function
      | n, (Obs.Snapshot.Histogram _ as v) -> Some (n, value_json v)
      | _ -> None)
  in
  let qs = Obs.queries () in
  let smt =
    jobj
      [
        ("n_queries", string_of_int (List.length qs));
        ( "rungs",
          jobj
            (List.map
               (fun (r, n) -> (r, string_of_int n))
               (rung_distribution qs)) );
        ("top_slowest", jarr (List.map query_json (top_slowest ?top_k qs)));
      ]
  in
  jobj
    [
      ("counters", jobj counters);
      ("gauges", jobj gauges);
      ("histograms", jobj histograms);
      ("smt", smt);
    ]

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition (version 0.0.4: the `# TYPE` + samples
   format every scraper accepts).  Histogram buckets are cumulative and
   end with the mandatory `+Inf` bucket; names are sanitised to the
   Prometheus charset and prefixed `pinpoint_`. *)

let prom_name n =
  let b = Bytes.of_string n in
  Bytes.iteri
    (fun i c ->
      let ok =
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
        || c = '_' || c = ':'
      in
      if not ok then Bytes.set b i '_')
    b;
  "pinpoint_" ^ Bytes.to_string b

(* Prometheus floats: plain decimal or scientific, no JSON quirks. *)
let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else Printf.sprintf "%.9g" f

let prometheus ?snapshot () =
  let snap = match snapshot with Some s -> s | None -> Obs.snapshot () in
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  List.iter
    (fun (n, v) ->
      let pn = prom_name n in
      match (v : Obs.Snapshot.value) with
      | Obs.Snapshot.Counter c ->
        line "# TYPE %s counter" pn;
        line "%s %d" pn c
      | Obs.Snapshot.Gauge g ->
        line "# TYPE %s gauge" pn;
        line "%s %s" pn (prom_float g)
      | Obs.Snapshot.Histogram h ->
        line "# TYPE %s histogram" pn;
        let cum = ref 0 in
        Array.iteri
          (fun i c ->
            cum := !cum + c;
            if i < Array.length h.edges then
              line "%s_bucket{le=\"%s\"} %d" pn (prom_float h.edges.(i)) !cum)
          h.counts;
        line "%s_bucket{le=\"+Inf\"} %d" pn h.n;
        line "%s_sum %s" pn (prom_float h.sum);
        line "%s_count %d" pn h.n)
    snap;
  Buffer.contents b

(* ------------------------------------------------------------------ *)

let write path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc contents;
      output_char oc '\n')

let write_trace path = write path (trace_json ())
let write_metrics ?top_k path = write path (metrics_json ?top_k ())

(* ------------------------------------------------------------------ *)
(* Human summary *)

let pp_summary ppf () =
  let snap = Obs.snapshot () in
  let scalar_rows =
    List.filter_map
      (fun (n, v) ->
        match v with
        | Obs.Snapshot.Counter c -> Some [ n; string_of_int c ]
        | Obs.Snapshot.Gauge g -> Some [ n; Printf.sprintf "%.6g" g ]
        | Obs.Snapshot.Histogram _ -> None)
      snap
  in
  if scalar_rows <> [] then begin
    Format.fprintf ppf "== observability: counters & gauges ==@.";
    Pp.table ~header:[ "metric"; "value" ] ~rows:scalar_rows ppf ()
  end;
  List.iter
    (fun (n, v) ->
      match v with
      | Obs.Snapshot.Histogram h ->
        let q p =
          match Obs.Snapshot.quantile v p with
          | None -> "-"
          | Some x -> Printf.sprintf "%.3g" x
        in
        Format.fprintf ppf
          "== histogram %s: n=%d sum=%.6g p50=%s p95=%s p99=%s ==@." n h.n
          h.sum (q 0.50) (q 0.95) (q 0.99);
        let rows =
          List.init
            (Array.length h.counts)
            (fun i ->
              let label =
                if i < Array.length h.edges then
                  Printf.sprintf "<= %.3g" h.edges.(i)
                else "overflow"
              in
              [ label; string_of_int h.counts.(i) ])
        in
        Pp.table ~header:[ "bucket"; "count" ] ~rows ppf ()
      | _ -> ())
    snap;
  let qs = Obs.queries () in
  if qs <> [] then begin
    Format.fprintf ppf "== SMT queries: %d recorded ==@." (List.length qs);
    Pp.table ~header:[ "rung"; "queries" ]
      ~rows:
        (List.map
           (fun (r, n) -> [ r; string_of_int n ])
           (rung_distribution qs))
      ppf ();
    Format.fprintf ppf "== top slowest SMT queries ==@.";
    Pp.table
      ~header:
        [
          "source -> sink";
          "rung";
          "verdict";
          "atoms";
          "conflicts";
          "shrinks";
          "latency";
        ]
      ~rows:
        (List.map
           (fun (q : Obs.query) ->
             [
               q.q_subject;
               q.q_rung;
               q.q_verdict;
               string_of_int q.q_atoms;
               string_of_int q.q_conflicts;
               string_of_int q.q_shrinks;
               Pp.to_string Metrics.pp_duration q.q_latency_s;
             ])
           (top_slowest qs))
      ppf ()
  end
