(* The host's speed during a run.

   On a shared 2-core host the same `pinpoint check` runs up to 1.7 times
   slower for minutes at a time, with its CPU time equal to its wall
   time: the processor itself slows, so no number of repetitions inside
   one run averages the slowdown away.  A fixed allocation-heavy loop —
   building a balanced map of 200,000 keys, a working set of about 10 MB
   walked through the OCaml GC as the analyser's own data is — slows
   with it.  The loop is timed between measured intervals, and each
   interval's times are scaled to the loop's [nominal_s] by the mean of
   the two loops around it.  On a quiet host of that kind the scale is
   near 1. *)

module Int_map = Map.Make (Int)

let loop () =
  let s = ref 0x2545F491 and m = ref Int_map.empty in
  for _ = 1 to 200_000 do
    s := ((!s * 1103515245) + 12345) land 0x3fffffff;
    m := Int_map.add !s !s !m
  done;
  Int_map.fold (fun _ v a -> a + v) !m 0

(* The loop's wall time on an unloaded 2-core x86-64 host. *)
let nominal_s = 0.25

(* One timed run of the loop. *)
let reference () =
  let t0 = Proc.now () in
  ignore (Sys.opaque_identity (loop ()));
  Proc.now () -. t0

(* The loop that closed the last measured interval, which opens the next. *)
type t = { mutable last : float }

let start () = { last = reference () }

(* Close the interval measured since the previous loop: time the loop
   again and return the factor that scales the interval's times to the
   nominal speed. *)
let scale t =
  let before = t.last and after = reference () in
  t.last <- after;
  2.0 *. nominal_s /. (before +. after)
