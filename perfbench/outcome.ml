(* The outcome of one benchmark run of one workload: correctness, the
   operation tally and every metric computed, with its samples. *)

module Json = Pinpoint_server.Json

type metric = {
  name : string;
  unit_ : string;
  value : float;
  samples : float list;  (** per-repetition values behind [value]; [] for a single reading *)
  note : string;  (** sample count and quartiles, or the base of a ratio *)
}

type t = {
  workload : string;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  problems : string list;  (** why [correct] is false or an operation failed *)
  metrics : metric list;
}

let metric ?(note = "") name unit_ value = { name; unit_; value; samples = []; note }

(* A quantity measured once per repetition, reported as its median. *)
let sampled name unit_ samples =
  let q1, _, q3 = Stats.quartiles samples in
  {
    name;
    unit_;
    value = Stats.median samples;
    samples;
    note = Printf.sprintf "median of n=%d, q1 %.6g, q3 %.6g" (List.length samples) q1 q3;
  }

let ratio name num den ~base =
  metric name "fraction"
    (if den = 0.0 then 0.0 else num /. den)
    ~note:(Printf.sprintf "%.6g / %.6g %s" num den base)

(* A latency tail by the percentile rule of {!Stats.tail}; [None] when too
   few samples have one. *)
let tail name unit_ samples =
  Option.map
    (fun (p, v) -> metric name unit_ v ~note:(Printf.sprintf "p%g of n=%d" p (List.length samples)))
    (Stats.tail samples)

let pp_metric oc m = Printf.fprintf oc "  %-26s %16.6f %-9s %s\n" m.name m.value m.unit_ m.note

let print oc t =
  Printf.fprintf oc "== %s (%s): %s, %d attempted, %d failed\n" t.workload
    (if t.traced then "traced pass" else "end to end")
    (if t.correct then "correct" else "INCORRECT")
    t.attempted t.failed;
  List.iter (fun p -> Printf.fprintf oc "  problem: %s\n" p) (List.rev t.problems);
  List.iter (pp_metric oc) t.metrics

(* The metrics [wanted] lists, in its order; fails naming any the run did
   not produce or produced in another unit. *)
let select t (wanted : Spec.metric list) =
  List.map
    (fun (s : Spec.metric) ->
      match List.find_opt (fun m -> m.name = s.name) t.metrics with
      | None -> Spec.fail "%s: metric %s was not measured" t.workload s.name
      | Some m when m.unit_ <> s.unit_ ->
        Spec.fail "%s: metric %s is in %s, BENCHMARK.json says %s" t.workload s.name m.unit_
          s.unit_
      | Some m -> m)
    wanted

(* The last line of a benchmark run: the verdict and the selected metrics,
   every value with all the digits of the measured double. *)
let summary_line t metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool t.correct);
         ("attempted", Json.Int t.attempted);
         ("failed", Json.Int t.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
                metrics) );
       ])

(* ---------- results files (input of `compare`) ---------- *)

let to_json t =
  Json.Obj
    [
      ("workload", Json.String t.workload);
      ("traced", Json.Bool t.traced);
      ("correct", Json.Bool t.correct);
      ("attempted", Json.Int t.attempted);
      ("failed", Json.Int t.failed);
      ("problems", Json.List (List.map (fun p -> Json.String p) (List.rev t.problems)));
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Json.Obj
                   [
                     ("value", Json.Float m.value);
                     ("unit", Json.String m.unit_);
                     ("samples", Json.List (List.map (fun s -> Json.Float s) m.samples));
                   ] ))
             t.metrics) );
    ]

let write_results path ~seed ~seconds outcomes =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("seed", Json.Int seed);
                ("seconds", Json.Int seconds);
                ("results", Json.List (List.map to_json outcomes));
              ]));
      output_char oc '\n')

(* (workload, metric name) -> samples, for the end-to-end results of a
   results file; a metric read once counts as one sample. *)
let read_samples path =
  let j =
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> Spec.fail "%s: %s" path e
  in
  let get k j = Option.value (Json.member k j) ~default:Json.Null in
  List.concat_map
    (fun r ->
      if Json.bool_opt (get "traced" r) = Some true then []
      else
        let workload = Option.value (Json.string_opt (get "workload" r)) ~default:"?" in
        match get "metrics" r with
        | Json.Obj ms ->
          List.map
            (fun (name, m) ->
              let samples =
                List.filter_map Json.number_opt
                  (Option.value (Json.list_opt (get "samples" m)) ~default:[])
              in
              let samples =
                if samples <> [] then samples else Option.to_list (Json.number_opt (get "value" m))
              in
              ((workload, name), samples))
            ms
        | _ -> [])
    (Option.value (Json.list_opt (get "results" j)) ~default:[])
