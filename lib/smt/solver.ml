module Metrics = Pinpoint_util.Metrics
module Resilience = Pinpoint_util.Resilience
module Obs = Pinpoint_obs.Obs
module Flight = Pinpoint_obs.Flight

type verdict = Sat | Unsat | Unknown

let verdict_name = function
  | Sat -> "sat"
  | Unsat -> "unsat"
  | Unknown -> "unknown"

type rung = Rung_full | Rung_halved | Rung_linear | Rung_gave_up | Rung_cached

let rung_name = function
  | Rung_full -> "full"
  | Rung_halved -> "halved"
  | Rung_linear -> "linear"
  | Rung_gave_up -> "gave-up"
  | Rung_cached -> "cached"

let pp_rung ppf r = Format.pp_print_string ppf (rung_name r)

type stats = {
  mutable n_queries : int;
  mutable n_sat : int;
  mutable n_unsat : int;
  mutable n_unknown : int;
  mutable n_theory_calls : int;
  mutable n_deadline_abort : int;
  mutable n_degraded : int;
  mutable n_cache_hits : int;
  mutable n_cache_misses : int;
  mutable n_core_shrink_calls : int;
  mutable n_propagations : int;
  mutable n_conflicts : int;
  mutable n_learned : int;
  mutable n_restarts : int;
  mutable n_ne_dropped : int;
}

let zero () =
  {
    n_queries = 0;
    n_sat = 0;
    n_unsat = 0;
    n_unknown = 0;
    n_theory_calls = 0;
    n_deadline_abort = 0;
    n_degraded = 0;
    n_cache_hits = 0;
    n_cache_misses = 0;
    n_core_shrink_calls = 0;
    n_propagations = 0;
    n_conflicts = 0;
    n_learned = 0;
    n_restarts = 0;
    n_ne_dropped = 0;
  }

(* Counters are domain-local: each worker accumulates into its own record
   (no contention, no torn updates), and a parallel client measures a task
   by [snapshot]/[diff] on the domain that ran it, then [merge]s the
   deltas in a deterministic order. *)
let stats_key : stats Domain.DLS.key = Domain.DLS.new_key zero
let stats () = Domain.DLS.get stats_key

(* The one enumeration of the record's fields; merge/diff/restore and the
   registry compatibility view all derive from it (Obs.Agg). *)
let fields =
  Obs.Agg.
    [
      field "n_queries" (fun s -> s.n_queries) (fun s v -> s.n_queries <- v);
      field "n_sat" (fun s -> s.n_sat) (fun s v -> s.n_sat <- v);
      field "n_unsat" (fun s -> s.n_unsat) (fun s v -> s.n_unsat <- v);
      field "n_unknown" (fun s -> s.n_unknown) (fun s v -> s.n_unknown <- v);
      field "n_theory_calls"
        (fun s -> s.n_theory_calls)
        (fun s v -> s.n_theory_calls <- v);
      field "n_deadline_abort"
        (fun s -> s.n_deadline_abort)
        (fun s v -> s.n_deadline_abort <- v);
      field "n_degraded" (fun s -> s.n_degraded) (fun s v -> s.n_degraded <- v);
      field "n_cache_hits"
        (fun s -> s.n_cache_hits)
        (fun s v -> s.n_cache_hits <- v);
      field "n_cache_misses"
        (fun s -> s.n_cache_misses)
        (fun s v -> s.n_cache_misses <- v);
      field "n_core_shrink_calls"
        (fun s -> s.n_core_shrink_calls)
        (fun s v -> s.n_core_shrink_calls <- v);
      field "n_propagations"
        (fun s -> s.n_propagations)
        (fun s v -> s.n_propagations <- v);
      field "n_conflicts" (fun s -> s.n_conflicts) (fun s v -> s.n_conflicts <- v);
      field "n_learned" (fun s -> s.n_learned) (fun s v -> s.n_learned <- v);
      field "n_restarts" (fun s -> s.n_restarts) (fun s v -> s.n_restarts <- v);
      field "n_ne_dropped"
        (fun s -> s.n_ne_dropped)
        (fun s v -> s.n_ne_dropped <- v);
    ]

let reset_stats () = Obs.Agg.copy_into fields ~into:(stats ()) (zero ())

let snapshot () =
  let s = stats () in
  { s with n_queries = s.n_queries }

let restore s' = Obs.Agg.copy_into fields ~into:(stats ()) s'

let merge a b =
  let r = zero () in
  Obs.Agg.add_into fields ~into:r a;
  Obs.Agg.add_into fields ~into:r b;
  r

let diff a b =
  let r = zero () in
  Obs.Agg.add_into fields ~into:r a;
  Obs.Agg.sub_into fields ~into:r b;
  r

let obs_publish s =
  Obs.Agg.publish ~prefix:"solver." fields s;
  (* The verdict cache's lifetime state (process-wide, not per-run deltas):
     entry count, capacity and clock evictions — the gauges a resident
     server's RSS bound is judged by. *)
  if Obs.metrics_on () then begin
    let q = Qcache.stats () in
    Obs.set_gauge (Obs.gauge "qcache.entries") (float_of_int q.Qcache.entries);
    Obs.set_gauge (Obs.gauge "qcache.capacity")
      (match q.Qcache.cap with Some c -> float_of_int c | None -> -1.0);
    Obs.set_gauge (Obs.gauge "qcache.evictions")
      (float_of_int q.Qcache.evictions);
    Obs.set_gauge (Obs.gauge "qcache.inserts") (float_of_int q.Qcache.inserts);
    Obs.set_gauge (Obs.gauge "qcache.probes") (float_of_int q.Qcache.probes)
  end

let sat_or_unknown = function Sat | Unknown -> true | Unsat -> false

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
   clauses) with a different budget instead of rebuilding the CNF. *)
type query = {
  q_sat : Sat.t;
  q_root : int;
  q_atom_vars : (int, int) Hashtbl.t; (* atom expr id -> SAT var *)
  q_var_atom : (int, Expr.t) Hashtbl.t; (* SAT var -> atom expr *)
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
  }

(* Both wrappers below fold the callee's effort counters into the
   domain-local stats even when the call escapes by [Metrics.Timeout]:
   a deadline abort must not make the work it burned disappear from the
   profile. *)

let solve_counted ~budget ~deadline q =
  let st = stats () in
  let c0 = Sat.counts q.q_sat in
  let fin () =
    let c1 = Sat.counts q.q_sat in
    st.n_propagations <-
      st.n_propagations + (c1.Sat.propagations - c0.Sat.propagations);
    st.n_conflicts <- st.n_conflicts + (c1.Sat.conflicts - c0.Sat.conflicts);
    st.n_learned <- st.n_learned + (c1.Sat.learned - c0.Sat.learned);
    st.n_restarts <- st.n_restarts + (c1.Sat.restarts - c0.Sat.restarts)
  in
  match Sat.solve ~budget ~assumptions:[ q.q_root ] ~deadline q.q_sat with
  | r ->
    fin ();
    r
  | exception exn ->
    fin ();
    raise exn

let theory_check ~deadline literals =
  let st = stats () in
  let d0 = Theory.n_dropped () in
  let fin () = st.n_ne_dropped <- st.n_ne_dropped + (Theory.n_dropped () - d0) in
  match Theory.check ~deadline literals with
  | r ->
    fin ();
    r
  | exception exn ->
    fin ();
    raise exn

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
            let st = stats () in
            st.n_theory_calls <- st.n_theory_calls + 1;
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
              let st = stats () in
              st.n_core_shrink_calls <- st.n_core_shrink_calls + 1;
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

let record_verdict v =
  let st = stats () in
  match v with
  | Sat -> st.n_sat <- st.n_sat + 1
  | Unsat -> st.n_unsat <- st.n_unsat + 1
  | Unknown -> st.n_unknown <- st.n_unknown + 1

let cached_verdict = function
  | Qcache.Cached_sat m -> (Sat, m)
  | Qcache.Cached_unsat -> (Unsat, [])

(* Only definitive full-strength verdicts go in: [Unknown] is a budget
   artefact of this particular call, not a property of the formula. *)
let cache_store e v m =
  match v with
  | Sat -> Qcache.add e (Qcache.Cached_sat m)
  | Unsat -> Qcache.add e Qcache.Cached_unsat
  | Unknown -> ()

let check_with_model ?(max_iters = 400) ?(conflict_budget = Sat.default_budget)
    ?(deadline = Metrics.no_deadline) (e : Expr.t) :
    verdict * (Expr.t * bool) list =
  let st = stats () in
  st.n_queries <- st.n_queries + 1;
  match Qcache.find e with
  | Some entry ->
    st.n_cache_hits <- st.n_cache_hits + 1;
    let v, m = cached_verdict entry in
    record_verdict v;
    (v, m)
  | None ->
    if Qcache.enabled () then st.n_cache_misses <- st.n_cache_misses + 1;
    let v, m = check_raw ~max_iters ~conflicts:conflict_budget ~deadline e in
    record_verdict v;
    cache_store e v m;
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

(* Per-query observability: latency histogram + a profiler record tagging
   the query with its source/sink subject, rung and atom count, and (when
   tracing) an "smt.query" span on the running domain's track.  When obs
   is off this is two monotonic-clock reads and three branches.  The
   histogram is looked up by name each time (not cached in a [lazy]):
   [Obs.reset] replaces the registry's entries, and a cached handle would
   go on feeding an orphan. *)
let profile_query ~subject ~qt0 ~conf0 ~shrink0 e
    ((v, _, rung) as result) =
  let flight = Flight.enabled () in
  if Obs.metrics_on () || flight then begin
    let rung_s = rung_name rung and verdict_s = verdict_name v in
    (* Flight is independent of the obs level: rung decisions land in the
       post-mortem ring even at Off.  The row carries the ambient request
       id implicitly (both recorders read it from the domain). *)
    if flight then
      Flight.record ~kind:"rung" ~detail:(subject ^ " " ^ verdict_s) rung_s;
    if Obs.metrics_on () then begin
      let latency_s = Metrics.now_mono () -. qt0 in
      let atoms = List.length (Expr.atoms e) in
      let conflicts = (stats ()).n_conflicts - conf0 in
      let shrinks = (stats ()).n_core_shrink_calls - shrink0 in
      Obs.record_query ~subject ~rung:rung_s ~verdict:verdict_s ~atoms
        ~conflicts ~shrinks ~latency_s ();
      Obs.observe (Obs.histogram "smt.query.latency_s") latency_s;
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
  let st = stats () in
  st.n_queries <- st.n_queries + 1;
  let conf0 = st.n_conflicts in
  let shrink0 = st.n_core_shrink_calls in
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
      st.n_deadline_abort <- st.n_deadline_abort + 1;
      Error
        (match sabotage with
        | Some Resilience.Inject.Hang -> "injected: hang (deadline exhausted)"
        | _ -> "deadline exhausted")
    | exception Out_of_memory -> raise Out_of_memory
    | exception exn -> Error (Printexc.to_string exn)
  in
  let finish rung v m =
    if rung <> Rung_full then st.n_degraded <- st.n_degraded + 1;
    record_verdict v;
    (v, m, rung)
  in
  let run_ladder sabotage =
    match
      try_rung ~iters:max_iters ~conflicts:conflict_budget ~budget:budget_s
        ~sabotage
    with
    | Ok (v, m) ->
      (* Only an unsabotaged full-rung verdict is cacheable; degraded-rung
         answers may be weaker than what the full solver would say.
         (Crash/Hang sabotage never reaches [Ok] on the first rung, so the
         guard is for documentation as much as safety.) *)
      if sabotage = None then cache_store e v m;
      finish Rung_full v m
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
  (* The fault is drawn before the cache is consulted (draw-first), and a
     sabotaged query bypasses the cache entirely — no read, no write.  This
     keeps the per-subject injection stream aligned with the query sequence
     (one draw per query, hit or miss), so incident fingerprints stay
     identical across [--jobs] levels even though which domain populates a
     given cache entry is racy. *)
  let result =
    match fault with
    | Some Resilience.Inject.Unknown_verdict ->
      incident "injected: unknown-verdict" "kept the report (Unknown)";
      finish Rung_gave_up Unknown []
    | Some (Resilience.Inject.Crash | Resilience.Inject.Hang) ->
      run_ladder fault
    | None -> (
      match Qcache.find e with
      | Some entry ->
        st.n_cache_hits <- st.n_cache_hits + 1;
        let v, m = cached_verdict entry in
        record_verdict v;
        (v, m, Rung_cached)
      | None ->
        if Qcache.enabled () then st.n_cache_misses <- st.n_cache_misses + 1;
        run_ladder None)
  in
  profile_query ~subject ~qt0 ~conf0 ~shrink0 e result
