(* Summary statistics over repeated measurements. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles exactly as Python's [statistics.quantiles xs ~n:4] computes
   them (its default "exclusive" method), so a spread printed here is the
   spread the benchmark's acceptance check computes from the same values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

(* Tail percentiles, in tenths of a percent, highest first. *)
let tail_candidates = [ 999; 990; 950; 900; 750; 500 ]

(* The highest tail percentile that has at least ten samples beyond its
   nearest-rank position, with its value — [None] when even the median has
   fewer.  A percentile with fewer samples beyond it is one outlier, not a
   tail.  Returns [(percentile, value)]. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  List.find_map
    (fun p10 ->
      let rank = ((p10 * n) + 999) / 1000 in
      if rank >= 1 && n - rank >= 10 then Some (float_of_int p10 /. 10.0, a.(rank - 1))
      else None)
    tail_candidates
