(* The pre-CDCL chronological DPLL core, preserved verbatim in structure so
   its search order (and hence its models) match the historical solver.
   Additions over the original: search-effort counters, conflict-based
   budgets (aligned with the CDCL core's semantics) and solving under
   assumption literals. *)

type t = {
  mutable n_vars : int;
  mutable clauses : int array list;
  mutable trivially_unsat : bool;
  mutable c_propagations : int;
  mutable c_decisions : int;
  mutable c_conflicts : int;
}

let create () =
  {
    n_vars = 0;
    clauses = [];
    trivially_unsat = false;
    c_propagations = 0;
    c_decisions = 0;
    c_conflicts = 0;
  }

let new_var t =
  t.n_vars <- t.n_vars + 1;
  t.n_vars

let ensure_vars t n = if n > t.n_vars then t.n_vars <- n

let add_clause t lits =
  match lits with
  | [] -> t.trivially_unsat <- true
  | _ ->
    List.iter (fun l -> ensure_vars t (abs l)) lits;
    t.clauses <- Array.of_list lits :: t.clauses

type result = Sat of bool array | Unsat

let counts t =
  {
    Sat.propagations = t.c_propagations;
    decisions = t.c_decisions;
    conflicts = t.c_conflicts;
    learned = 0;
    restarts = 0;
  }

(* Assignment: 0 = unassigned, 1 = true, -1 = false. *)

exception Budget

module Metrics = Pinpoint_util.Metrics

let solve ?(budget = 1_000_000) ?(assumptions = []) ?(deadline = Metrics.no_deadline)
    t =
  if t.trivially_unsat then Some Unsat
  else begin
    List.iter (fun l -> ensure_vars t (abs l)) assumptions;
    let n = t.n_vars in
    let assign = Array.make (n + 1) 0 in
    let clauses = Array.of_list t.clauses in
    let steps = ref 0 in
    let conflicts0 = t.c_conflicts in
    let value lit =
      let v = assign.(abs lit) in
      if v = 0 then 0 else if (lit > 0) = (v = 1) then 1 else -1
    in
    (* Assumptions are pinned before search; a contradictory set is Unsat
       under assumptions (the instance itself is untouched). *)
    let assumptions_ok =
      List.for_all
        (fun lit ->
          match value lit with
          | -1 -> false
          | _ ->
            assign.(abs lit) <- (if lit > 0 then 1 else -1);
            true)
        assumptions
    in
    (* Unit propagation over all clauses; returns false on conflict and the
       list of literals assigned (to undo). *)
    let rec propagate trail =
      let changed = ref false in
      let conflict = ref false in
      let trail = ref trail in
      Array.iter
        (fun clause ->
          if not !conflict then begin
            let unassigned = ref 0 and last = ref 0 and sat = ref false in
            Array.iter
              (fun lit ->
                match value lit with
                | 1 -> sat := true
                | 0 ->
                  incr unassigned;
                  last := lit
                | _ -> ())
              clause;
            if not !sat then
              if !unassigned = 0 then conflict := true
              else if !unassigned = 1 then begin
                let lit = !last in
                assign.(abs lit) <- (if lit > 0 then 1 else -1);
                t.c_propagations <- t.c_propagations + 1;
                trail := abs lit :: !trail;
                changed := true
              end
          end)
        clauses;
      if !conflict then (false, !trail)
      else if !changed then propagate !trail
      else (true, !trail)
    in
    let undo_to trail stop =
      let rec go = function
        | l when l == stop -> ()
        | [] -> ()
        | v :: rest ->
          assign.(v) <- 0;
          go rest
      in
      go trail
    in
    let rec pick_var () =
      (* First unassigned variable that appears in an unsatisfied clause;
         fall back to any unassigned variable. *)
      let best = ref 0 in
      (try
         Array.iter
           (fun clause ->
             let sat = ref false and cand = ref 0 in
             Array.iter
               (fun lit ->
                 match value lit with
                 | 1 -> sat := true
                 | 0 -> if !cand = 0 then cand := abs lit
                 | _ -> ())
               clause;
             if (not !sat) && !cand <> 0 then begin
               best := !cand;
               raise Exit
             end)
           clauses
       with Exit -> ());
      if !best <> 0 then !best
      else begin
        let v = ref 0 in
        (try
           for i = 1 to n do
             if assign.(i) = 0 then begin
               v := i;
               raise Exit
             end
           done
         with Exit -> ());
        !v
      end
    and dpll () =
      incr steps;
      (* Cooperative deadline poll: an adversarial instance must not stall
         the checker past its wall-clock budget (the conflict budget alone
         is not time-bounded). *)
      if !steps land 15 = 0 then Metrics.check deadline;
      let ok, trail = propagate [] in
      if not ok then begin
        t.c_conflicts <- t.c_conflicts + 1;
        if t.c_conflicts - conflicts0 > budget then raise Budget;
        undo_to trail [];
        false
      end
      else begin
        let v = pick_var () in
        if v = 0 then true (* all satisfied/assigned consistently *)
        else begin
          let try_value b =
            t.c_decisions <- t.c_decisions + 1;
            assign.(v) <- (if b then 1 else -1);
            let r = dpll () in
            if not r then assign.(v) <- 0;
            r
          in
          if try_value true then true
          else if try_value false then true
          else begin
            undo_to trail [];
            false
          end
        end
      end
    in
    try
      if not assumptions_ok then Some Unsat
      else if dpll () then begin
        let model = Array.make (n + 1) false in
        for i = 1 to n do
          model.(i) <- assign.(i) = 1
        done;
        Some (Sat model)
      end
      else Some Unsat
    with Budget -> None
  end
