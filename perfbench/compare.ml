(* `compare OLD.json NEW.json`: one row per workload and end-to-end metric
   of two results files, judged against the metric's bound.

   - worse: the new median is worse than the old by more than the bound;
   - better: it is better by more than the old runs' own spread;
   - within bound: neither;
   - unresolved: either side's spread (interquartile range over median)
     is wider than the bound, so a difference within it cannot be told
     from noise — unless every new sample beats (or loses to) every old
     one. *)

type verdict = Better | Within | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Within -> "within bound"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* The relative change of the new median over the old. *)
let change old_s new_s =
  let mo = Stats.median old_s in
  (Stats.median new_s -. mo) /. Float.max (Float.abs mo) Float.min_float

let judge ~lower_is_better ~bound old_s new_s =
  (* the change in the bad direction *)
  let worsening = if lower_is_better then change old_s new_s else -.change old_s new_s in
  let beats a b = if lower_is_better then a < b else a > b in
  let all_beat xs ys = List.for_all (fun x -> List.for_all (fun y -> beats x y) ys) xs in
  let spread_old = Stats.spread old_s and spread_new = Stats.spread new_s in
  if Float.max spread_old spread_new > bound then
    if all_beat new_s old_s then Better
    else if all_beat old_s new_s && worsening > bound then Worse
    else Unresolved
  else if worsening > bound then Worse
  else if -.worsening > spread_old then Better
  else Within

type row = {
  workload : string;
  metric : Spec.metric;
  old_s : float list;
  new_s : float list;
  verdict : verdict;
  change : float;  (** signed relative change of the median, new vs old *)
}

let rows (spec : Spec.t) old_samples new_samples =
  List.concat_map
    (fun (workload, _) ->
      List.filter_map
        (fun (m : Spec.metric) ->
          match
            ( List.assoc_opt (workload, m.name) old_samples,
              List.assoc_opt (workload, m.name) new_samples )
          with
          | Some (_ :: _ as old_s), Some (_ :: _ as new_s) ->
            let bound = Option.value m.bound ~default:0.0 in
            Some
              {
                workload;
                metric = m;
                old_s;
                new_s;
                verdict = judge ~lower_is_better:m.lower_is_better ~bound old_s new_s;
                change = change old_s new_s;
              }
          | _ -> None)
        spec.end_to_end)
    spec.workloads

let print oc rows =
  let quart xs =
    let q1, _, q3 = Stats.quartiles xs in
    Printf.sprintf "%.4g [%.4g, %.4g] n=%d" (Stats.median xs) q1 q3 (List.length xs)
  in
  Printf.fprintf oc "%-12s %-14s %-32s %-32s %8s %6s  %s\n" "workload" "metric" "old median [q1, q3]"
    "new median [q1, q3]" "change" "bound" "verdict";
  List.iter
    (fun r ->
      Printf.fprintf oc "%-12s %-14s %-32s %-32s %+7.1f%% %5.0f%%  %s\n" r.workload r.metric.Spec.name
        (quart r.old_s) (quart r.new_s) (100.0 *. r.change)
        (100.0 *. Option.value r.metric.bound ~default:0.0)
        (verdict_name r.verdict))
    rows
