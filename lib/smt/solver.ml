module Metrics = Pinpoint_util.Metrics
module Resilience = Pinpoint_util.Resilience
module Obs = Pinpoint_obs.Obs
module Flight = Pinpoint_obs.Flight

type verdict = Sat | Unsat | Unknown

let verdict_name = function
  | Sat -> "sat"
  | Unsat -> "unsat"
  | Unknown -> "unknown"

type rung = Rung_full | Rung_halved | Rung_linear | Rung_gave_up

let rung_name = function
  | Rung_full -> "full"
  | Rung_halved -> "halved"
  | Rung_linear -> "linear"
  | Rung_gave_up -> "gave-up"

let pp_rung ppf r = Format.pp_print_string ppf (rung_name r)

(* The solver's work counters (DESIGN.md §4.11), created once when the
   module loads and added to where the work happens, at every obs level.
   Registry counters are atomic sums, so a run's totals are the same at
   every [--jobs]. *)
let c_queries = Obs.counter "solver.n_queries"
let c_sat = Obs.counter "solver.n_sat"
let c_unsat = Obs.counter "solver.n_unsat"
let c_unknown = Obs.counter "solver.n_unknown"
let c_theory_calls = Obs.counter "solver.n_theory_calls"
let c_deadline_abort = Obs.counter "solver.n_deadline_abort"
let c_degraded = Obs.counter "solver.n_degraded"
let c_core_shrink_calls = Obs.counter "solver.n_core_shrink_calls"
let c_propagations = Obs.counter "solver.n_propagations"
let c_conflicts = Obs.counter "solver.n_conflicts"
let c_learned = Obs.counter "solver.n_learned"
let c_restarts = Obs.counter "solver.n_restarts"
let c_ne_dropped = Obs.counter "solver.n_ne_dropped"
let h_latency = Obs.histogram "smt.query.latency_s"

(* Tseitin encoding: returns the literal representing the expression and
   populates [sat] with defining clauses.  Atom expressions map to dedicated
   variables recorded in [atom_vars]. *)
let encode sat atom_vars (e : Expr.t) : int =
  let memo : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let rec enc (e : Expr.t) : int =
    match Hashtbl.find_opt memo e.id with
    | Some l -> l
    | None ->
      let l =
        match e.node with
        | Expr.True ->
          let v = Sat.new_var sat in
          Sat.add_clause sat [ v ];
          v
        | Expr.False ->
          let v = Sat.new_var sat in
          Sat.add_clause sat [ -v ];
          v
        | Expr.Not a -> -enc a
        | Expr.And (a, b) ->
          let la = enc a and lb = enc b in
          let v = Sat.new_var sat in
          Sat.add_clause sat [ -v; la ];
          Sat.add_clause sat [ -v; lb ];
          Sat.add_clause sat [ v; -la; -lb ];
          v
        | Expr.Or (a, b) ->
          let la = enc a and lb = enc b in
          let v = Sat.new_var sat in
          Sat.add_clause sat [ -v; la; lb ];
          Sat.add_clause sat [ v; -la ];
          Sat.add_clause sat [ v; -lb ];
          v
        | Expr.Var _ | Expr.Eq _ | Expr.Ne _ | Expr.Lt _ | Expr.Le _ -> (
          match Hashtbl.find_opt atom_vars e.id with
          | Some v -> v
          | None ->
            let v = Sat.new_var sat in
            Hashtbl.add atom_vars e.id v;
            v)
        | Expr.Int _ | Expr.Add _ | Expr.Sub _ | Expr.Mul _ | Expr.Neg _ ->
          invalid_arg "Solver.check: arithmetic term used as a formula"
      in
      Hashtbl.add memo e.id l;
      l
  in
  enc e

(* Persistent per-query solver state: the Tseitin encoding is built once
   and the root literal is passed to {!Sat.solve} as an *assumption*, not
   a unit clause, so the degradation ladder can re-enter the same
   instance (keeping learned clauses, saved phases and theory blocking
   clauses) with a different budget instead of rebuilding the CNF.  The
   query's own effort (the instance's [Sat.counts] and [q_shrinks]) is
   what the profiler row reports. *)
type query = {
  q_sat : Sat.t;
  q_root : int;
  q_atom_vars : (int, int) Hashtbl.t; (* atom expr id -> SAT var *)
  q_var_atom : (int, Expr.t) Hashtbl.t; (* SAT var -> atom expr *)
  mutable q_shrinks : int; (* unsat-core deletion-shrink passes *)
}

let make_query (e : Expr.t) : query =
  let sat = Sat.create () in
  let atom_vars : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let root = encode sat atom_vars e in
  (* Map SAT var -> atom expression for model extraction. *)
  let atoms = Expr.atoms e in
  let var_atom : (int, Expr.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun a ->
      match Hashtbl.find_opt atom_vars a.Expr.id with
      | Some v -> Hashtbl.add var_atom v a
      | None -> ())
    atoms;
  {
    q_sat = sat;
    q_root = root;
    q_atom_vars = atom_vars;
    q_var_atom = var_atom;
    q_shrinks = 0;
  }

(* Both wrappers below add the callee's effort to the registry even
   when the call escapes by [Metrics.Timeout]: a deadline abort must not
   make the work it burned disappear from the profile. *)

let solve_counted ~budget ~deadline q =
  let c0 = Sat.counts q.q_sat in
  Fun.protect
    (fun () -> Sat.solve ~budget ~assumptions:[ q.q_root ] ~deadline q.q_sat)
    ~finally:(fun () ->
      let c1 = Sat.counts q.q_sat in
      Obs.add c_propagations (c1.Sat.propagations - c0.Sat.propagations);
      Obs.add c_conflicts (c1.Sat.conflicts - c0.Sat.conflicts);
      Obs.add c_learned (c1.Sat.learned - c0.Sat.learned);
      Obs.add c_restarts (c1.Sat.restarts - c0.Sat.restarts))

let theory_check ~deadline literals =
  let d0 = Theory.n_dropped () in
  Fun.protect
    (fun () -> Theory.check ~deadline literals)
    ~finally:(fun () -> Obs.add c_ne_dropped (Theory.n_dropped () - d0))

(* The lazy-SMT core, verdict-stats-free so the degradation ladder can run
   it more than once per query.  Raises [Metrics.Timeout] when the deadline
   expires (polled before the linear fast path, at every refutation round,
   inside the CDCL propagation loop and inside the theory solver).

   [query] memoises the encoded instance across calls: a re-run (rung
   escalation) resumes the same solver state under assumptions and pays
   only the delta. *)
let check_raw ~max_iters ~conflicts ~deadline ?query (e : Expr.t) :
    verdict * (Expr.t * bool) list =
  if Expr.is_true e then (Sat, [])
  else if Expr.is_false e then (Unsat, [])
  else begin
    Metrics.check deadline;
    (* Fast path: the linear-time contradiction check. *)
    match Linear_solver.check e with
    | Linear_solver.Unsat -> (Unsat, [])
    | Linear_solver.Maybe ->
      let q = match query with Some get -> get () | None -> make_query e in
      let sat_model : (Expr.t * bool) list ref = ref [] in
      let rec loop iter =
        if iter >= max_iters then Unknown
        else begin
          Metrics.check deadline;
          match solve_counted ~budget:conflicts ~deadline q with
          | None -> Unknown
          | Some Sat.Unsat -> Unsat
          | Some (Sat.Sat model) -> (
            let literals =
              Hashtbl.fold
                (fun v atom acc -> (atom, model.(v)) :: acc)
                q.q_var_atom []
            in
            Obs.add c_theory_calls 1;
            match theory_check ~deadline literals with
            | Theory.Sat ->
              sat_model := literals;
              Sat
            | Theory.Unknown -> Unknown
            | Theory.Unsat ->
              (* Shrink to an (approximate) unsat core by deletion, so the
                 blocking clause prunes as much of the search as possible. *)
              let theory_lits =
                List.filter
                  (fun (atom, _) ->
                    match atom.Expr.node with
                    | Expr.Eq _ | Expr.Ne _ | Expr.Lt _ | Expr.Le _ -> true
                    | _ -> false)
                  literals
              in
              q.q_shrinks <- q.q_shrinks + 1;
              Obs.add c_core_shrink_calls 1;
              (* Deletion filter: one pass per candidate, flagging whether
                 it was actually present instead of recomputing two list
                 lengths (candidates already deleted in earlier rounds are
                 skipped without a theory call). *)
              let core = ref theory_lits in
              List.iter
                (fun lit ->
                  let removed = ref false in
                  let without =
                    List.filter
                      (fun l ->
                        if l == lit then begin
                          removed := true;
                          false
                        end
                        else true)
                      !core
                  in
                  if !removed && theory_check ~deadline without = Theory.Unsat
                  then core := without)
                theory_lits;
              let blocking =
                List.map
                  (fun (atom, b) ->
                    let v = Hashtbl.find q.q_atom_vars atom.Expr.id in
                    if b then -v else v)
                  !core
              in
              if blocking = [] then Unsat
              else begin
                (* The blocking clause persists in the instance: later
                   iterations — and later rungs resuming this query —
                   never revisit the refuted propositional model. *)
                Sat.add_clause q.q_sat blocking;
                loop (iter + 1)
              end)
        end
      in
      let v = loop 0 in
      (v, if v = Sat then !sat_model else [])
  end

let record_verdict = function
  | Sat -> Obs.add c_sat 1
  | Unsat -> Obs.add c_unsat 1
  | Unknown -> Obs.add c_unknown 1

let check_with_model ?(max_iters = 400) ?(conflict_budget = Sat.default_budget)
    ?(deadline = Metrics.no_deadline) (e : Expr.t) :
    verdict * (Expr.t * bool) list =
  Obs.add c_queries 1;
  let v, m = check_raw ~max_iters ~conflicts:conflict_budget ~deadline e in
  record_verdict v;
  (v, m)

let check ?max_iters ?conflict_budget ?deadline e =
  fst (check_with_model ?max_iters ?conflict_budget ?deadline e)

(* ------------------------------------------------------------------ *)
(* Degradation ladder (robustness layer): full lazy-SMT -> retry with
   halved budgets -> linear-time contradiction solver -> keep-the-report
   (Unknown).  Every rung is sound in the direction that matters to a
   soundy client: [Unsat] is always a real refutation, so stepping down
   can never lose a definitely-feasible report — at worst a query decides
   [Unknown] and the report survives. *)

(* Per-query observability: the latency histogram, at every level; with
   metrics on, a profiler row tagging the query with its source/sink
   subject, rung and atom count, and (when tracing) an "smt.query" span on
   the running domain's track.  When obs is off this is two
   monotonic-clock reads, one histogram observation and two branches.
   The row's conflicts and shrinks are the query's own: those of its
   encoded instance, if a rung built one. *)
let profile_query ~subject ~qt0 ~query e ((v, _, rung) as result) =
  let latency_s = Metrics.now_mono () -. qt0 in
  Obs.observe h_latency latency_s;
  let flight = Flight.enabled () in
  if Obs.metrics_on () || flight then begin
    let rung_s = rung_name rung and verdict_s = verdict_name v in
    (* Flight is independent of the obs level: rung decisions land in the
       post-mortem ring even at Off.  The row carries the ambient request
       id implicitly (both recorders read it from the domain). *)
    if flight then
      Flight.record ~kind:"rung" ~detail:(subject ^ " " ^ verdict_s) rung_s;
    if Obs.metrics_on () then begin
      let atoms = List.length (Expr.atoms e) in
      let conflicts, shrinks =
        match query with
        | Some q -> ((Sat.counts q.q_sat).Sat.conflicts, q.q_shrinks)
        | None -> (0, 0)
      in
      Obs.record_query ~subject ~rung:rung_s ~verdict:verdict_s ~atoms
        ~conflicts ~shrinks ~latency_s ();
      if Obs.tracing_on () then
        Obs.end_span
          ~attrs:
            [
              ("subject", subject);
              ("rung", rung_s);
              ("verdict", verdict_s);
              ("atoms", string_of_int atoms);
            ]
          ()
    end
  end;
  result

let check_degrading ?(max_iters = 400) ?(budget_s = infinity)
    ?(conflict_budget = Sat.default_budget) ?(deadline = Metrics.no_deadline)
    ?log ?(subject = "query") (e : Expr.t) :
    verdict * (Expr.t * bool) list * rung =
  let qt0 = Metrics.now_mono () in
  if Obs.tracing_on () then Obs.begin_span "smt.query";
  Obs.add c_queries 1;
  let t0 = Metrics.now () in
  let incident detail fallback =
    match log with
    | Some log ->
      Resilience.record log
        {
          Resilience.phase = Resilience.Solver_query;
          subject;
          detail;
          fallback;
          elapsed_s = Metrics.now () -. t0;
        }
    | None -> ()
  in
  let fault =
    if Resilience.Inject.enabled () then Resilience.Inject.solver_fault ()
    else None
  in
  (* The encoded instance is shared across rungs: built lazily on the
     first rung that needs it, re-entered (learned clauses, saved phases
     and theory blocking clauses intact) by any later rung. *)
  let memo_query = ref None in
  let get_query () =
    match !memo_query with
    | Some q -> q
    | None ->
      let q = make_query e in
      memo_query := Some q;
      q
  in
  (* Run one rung behind an exception barrier; [sabotage] only applies to
     the first (full) rung. *)
  let try_rung ~iters ~conflicts ~budget ~sabotage =
    let d = Metrics.min_deadline deadline (Metrics.deadline_after budget) in
    match
      (match sabotage with
       | Some Resilience.Inject.Crash -> raise Resilience.Injected_crash
       | Some Resilience.Inject.Hang ->
         Metrics.wait_until d;
         raise Metrics.Timeout
       | Some Resilience.Inject.Unknown_verdict | None -> ());
      check_raw ~max_iters:iters ~conflicts ~deadline:d ~query:get_query e
    with
    | v, m -> Ok (v, m)
    | exception Metrics.Timeout ->
      Obs.add c_deadline_abort 1;
      Error
        (match sabotage with
        | Some Resilience.Inject.Hang -> "injected: hang (deadline exhausted)"
        | _ -> "deadline exhausted")
    | exception Out_of_memory -> raise Out_of_memory
    | exception exn -> Error (Printexc.to_string exn)
  in
  let finish rung v m =
    if rung <> Rung_full then Obs.add c_degraded 1;
    record_verdict v;
    (v, m, rung)
  in
  let run_ladder sabotage =
    match
      try_rung ~iters:max_iters ~conflicts:conflict_budget ~budget:budget_s
        ~sabotage
    with
    | Ok (v, m) -> finish Rung_full v m
    | Error detail1 -> (
      incident detail1 "resume with halved budgets";
      (* The halved rung halves every budget axis consistently — loop
         iterations, wall-clock and the per-call conflict budget — and
         re-enters the same solver state under assumptions, so it pays
         only the delta beyond what the full rung already learned. *)
      match
        try_rung
          ~iters:(max 1 (max_iters / 2))
          ~conflicts:(max 1 (conflict_budget / 2))
          ~budget:(budget_s /. 2.0) ~sabotage:None
      with
      | Ok (v, m) -> finish Rung_halved v m
      | Error detail2 -> (
        incident detail2 "linear-time contradiction solver";
        match Linear_solver.check e with
        | Linear_solver.Unsat -> finish Rung_linear Unsat []
        | Linear_solver.Maybe -> finish Rung_gave_up Unknown []))
  in
  let result =
    match fault with
    | Some Resilience.Inject.Unknown_verdict ->
      incident "injected: unknown-verdict" "kept the report (Unknown)";
      finish Rung_gave_up Unknown []
    | sabotage -> run_ladder sabotage
  in
  profile_query ~subject ~qt0 ~query:!memo_query e result
