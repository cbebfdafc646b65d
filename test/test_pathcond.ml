(* Precision tests for path conditions (paper §3.2.2 Equations 1-3):
   the computed PC of the motivating example must entail exactly the
   branch outcomes the paper names (θ1 ∧ θ3 ∧ θ2), which we verify by
   forcing each branch variable's defining comparison the other way and
   checking the conjunction becomes unsatisfiable. *)

module E = Pinpoint_smt.Expr
module Solver = Pinpoint_smt.Solver

let fig2_src =
  {|
void bar(int **q) {
  int *c = malloc();
  bool th3 = *q != null;
  if (th3) {
    *q = c;
    free(c);
  } else {
    int t = input();
    bool th4 = t > 0;
    if (th4) { *q = null; }
  }
}

void qux(int **r) {
  int x = input();
  if (x > 5) { *r = null; } else { *r = null; }
}

void foo(int *a) {
  int **ptr = malloc();
  *ptr = a;
  int th1 = input();
  if (th1 > 0) { bar(ptr); } else { qux(ptr); }
  int *f = *ptr;
  int th2 = input();
  if (th2 > 0) { print(*f); }
}
|}

let the_report () =
  let a = Pinpoint.Analysis.prepare_source ~file:"fig2" fig2_src in
  let reports, _ = Pinpoint.Analysis.check a Pinpoint.Checkers.use_after_free in
  match List.filter Pinpoint.Report.is_reported reports with
  | [ r ] -> r
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

(* Find, in the PC's hints, the assignments of comparison atoms that
   mention a given constant; used to locate θ1 (th1 > 0), θ2 (th2 > 0)
   and θ3 (value != 0). *)
let test_pc_satisfiable () =
  let r = the_report () in
  Alcotest.(check bool) "verdict feasible" true
    (r.Pinpoint.Report.verdict = Pinpoint.Report.Feasible);
  Alcotest.(check bool) "pc sat" true
    (Solver.check r.Pinpoint.Report.cond = Solver.Sat)

let test_pc_structure () =
  (* the PC mentions clones from both foo and bar frames, and none from a
     qux frame on the winning path... qux constraints may appear through
     the load resolution (the other φ branch) but must be guarded. *)
  let r = the_report () in
  let names =
    List.map Pinpoint_smt.Symbol.name (E.vars r.Pinpoint.Report.cond)
  in
  let mentions affix =
    List.exists
      (fun n ->
        let nl = String.length n and al = String.length affix in
        let rec go i = i + al <= nl && (String.sub n i al = affix || go (i + 1)) in
        go 0)
      names
  in
  Alcotest.(check bool) "mentions foo frame" true (mentions "@foo");
  Alcotest.(check bool) "mentions bar frame" true (mentions "@bar")

(* Force the θ1-direction branch the wrong way: conjoin th1 <= 0 for the
   hint atom that decides the call to bar.  The paper's PC θ1∧θ3∧θ2 must
   become unsatisfiable. *)
let force_against (r : Pinpoint.Report.t) pred =
  let forced =
    List.filter_map
      (fun ((atom : E.t), b) -> if pred atom then Some (if b then E.not_ atom else atom) else None)
      r.Pinpoint.Report.hints
  in
  Alcotest.(check bool) "found atoms to force" true (forced <> []);
  E.conj (r.Pinpoint.Report.cond :: forced)

let is_cmp_with_zero (atom : E.t) =
  (* the θ guards compare against the constant 0 *)
  match atom.E.node with
  | E.Lt (a, b) | E.Le (a, b) | E.Eq (a, b) | E.Ne (a, b) -> (
    match (a.E.node, b.E.node) with
    | E.Int 0, _ | _, E.Int 0 -> true
    | _ -> false)
  | _ -> false

let test_pc_branches_essential () =
  let r = the_report () in
  (* Flipping ALL the zero-comparison atoms (the θ guards and the
     null-check) must refute the path. *)
  let flipped = force_against r is_cmp_with_zero in
  Alcotest.(check bool) "flipped guards refute the path" true
    (Solver.check flipped = Solver.Unsat)

let test_pc_each_hint_consistent () =
  (* conjoining the hints AS GIVEN must stay satisfiable (they are a
     model) *)
  let r = the_report () in
  let as_given =
    List.map
      (fun ((atom : E.t), b) -> if b then atom else E.not_ atom)
      r.Pinpoint.Report.hints
  in
  Alcotest.(check bool) "model consistent with pc" true
    (Solver.check (E.conj (r.Pinpoint.Report.cond :: as_given)) = Solver.Sat)

let test_pc_context_cloning () =
  (* two call sites of the same callee must not share constraint
     variables: analyse a program calling inc twice and check the PC of
     the (single) bug does not equate the two calls' internals *)
  let src =
    {|
int inc(int v) { int w = v + 1; return w; }
void top(int s) {
  int a = inc(s);
  int b = inc(a);
  int *p = malloc();
  *p = b;
  bool g = a < b;
  if (g) { free(p); }
  print(*p);
}
|}
  in
  let a = Pinpoint.Analysis.prepare_source ~file:"clone" src in
  let reports, _ = Pinpoint.Analysis.check a Pinpoint.Checkers.use_after_free in
  match List.filter Pinpoint.Report.is_reported reports with
  | [ r ] ->
    (* a < b where b = a + 1 is satisfiable — and must remain so under
       cloning (a context-insensitive analysis merging both calls could
       equate w-variables and still be fine here, but sharing in the
       wrong direction would make g unsatisfiable and lose the bug) *)
    Alcotest.(check bool) "feasible through two contexts" true
      (r.Pinpoint.Report.verdict = Pinpoint.Report.Feasible)
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

(* --- the one-shot oracle and the lazy builder ---------------------- *)

module Vpath = Pinpoint.Vpath
module Cond = Vpath.Cond
module Seg = Pinpoint_seg.Seg
module Rv = Pinpoint_summary.Rv
module Clone = Pinpoint_summary.Clone
module Var = Pinpoint_ir.Var
module Stmt = Pinpoint_ir.Stmt
module Func = Pinpoint_ir.Func

(* [condition] rebuilds PC(π) from scratch, hop by hop, folding the
   conjuncts left to right: the reference the engine's builder is checked
   against.  The frame counter is per call, so frame tags depend only on
   the path being conditioned. *)
type frame = { seg : Seg.t; clone : Clone.t }

let new_frame counter seg_of fname =
  incr counter;
  match seg_of fname with
  | Some seg ->
    Some { seg; clone = Clone.create (Printf.sprintf "%s_f%d" fname !counter) }
  | None -> None

(* Close a constraint against the RV summaries, then clone it into the
   frame. *)
let closed_in rv fr (cres : Seg.cres) =
  let f, _params = Rv.close rv fr.seg cres in
  Clone.subst fr.clone f

let add_cd rv fr acc sid = E.and_ acc (closed_in rv fr (Seg.cd_stmt fr.seg sid))

let add_formula rv fr acc formula =
  (* the formula itself plus the DD closure of its variables *)
  let dd = closed_in rv fr (Seg.dd_expr fr.seg formula) in
  E.and_ acc (E.and_ (Clone.subst fr.clone formula) dd)

let condition ~seg_of ~rv (path : Vpath.t) : E.t =
  let frame_counter = ref 0 in
  let acc = ref E.tru in
  let stack : frame list ref = ref [] in
  let push fname =
    match new_frame frame_counter seg_of fname with
    | Some fr -> stack := fr :: !stack
    | None -> ()
  in
  let pop () = stack := match !stack with _ :: rest -> rest | [] -> [] in
  let cur () = match !stack with fr :: _ -> Some fr | [] -> None in
  (* [callee]'s formals equal [caller]'s actuals *)
  let relate_formals callee_fr caller_fr args =
    List.iteri
      (fun i (p : Var.t) ->
        match List.nth_opt args i with
        | Some a ->
          acc :=
            E.and_ !acc
              (E.eq
                 (Clone.subst callee_fr.clone (Var.term p))
                 (Clone.subst caller_fr.clone (Stmt.operand_term a)))
        | None -> ())
      (Seg.func callee_fr.seg).Func.params
  in
  List.iter
    (fun (hop : Vpath.hop) ->
      match hop with
      | Hsource { fname; sid; _ } -> (
        push fname;
        match cur () with
        | Some fr -> acc := add_cd rv fr !acc sid
        | None -> ())
      | Hflow { src; dst; cond; kind; _ } -> (
        match cur () with
        | Some fr ->
          acc := add_formula rv fr !acc cond;
          (match kind with
          | Seg.Copy ->
            acc :=
              E.and_ !acc
                (Clone.subst fr.clone (E.eq (Var.term dst) (Var.term src)))
          | Seg.Operand ->
            (* the operator's defining constraint relates dst to src *)
            acc := E.and_ !acc (closed_in rv fr (Seg.dd fr.seg dst)));
          (match Seg.def_of fr.seg dst with
          | Some s -> acc := add_cd rv fr !acc s.Stmt.sid
          | None -> ())
        | None -> ())
      | Hcall { callee; call_sid; args; _ } -> (
        let caller_fr = cur () in
        push callee;
        match (cur (), caller_fr) with
        | Some callee_fr, Some caller_fr when callee_fr != caller_fr ->
          (* the call statement itself must be reachable *)
          acc := add_cd rv caller_fr !acc call_sid;
          (* bind callee formals to (cloned) actual terms *)
          List.iteri
            (fun i (p : Var.t) ->
              match List.nth_opt args i with
              | Some actual -> (
                Clone.bind callee_fr.clone (Var.symbol p)
                  (Clone.subst caller_fr.clone (Stmt.operand_term actual));
                (* the actual's own data dependence, in the caller frame *)
                match actual with
                | Stmt.Ovar av ->
                  acc :=
                    E.and_ !acc (closed_in rv caller_fr (Seg.dd caller_fr.seg av))
                | _ -> ())
              | None -> ())
            (Seg.func callee_fr.seg).Func.params
        | _ -> ())
      | Hret { ret_var; caller; call_sid; recv; args; popped; _ } -> (
        let callee_fr = cur () in
        (match callee_fr with
        | Some fr -> (
          (* the return is reachable under the callee frame *)
          match Seg.def_of fr.seg ret_var with
          | Some s -> acc := add_cd rv fr !acc s.Stmt.sid
          | None -> ())
        | None -> ());
        pop ();
        if not popped then push caller;
        match (cur (), callee_fr) with
        | Some caller_fr, Some callee_fr ->
          acc := add_cd rv caller_fr !acc call_sid;
          acc :=
            E.and_ !acc
              (E.eq
                 (Clone.subst caller_fr.clone (Var.term recv))
                 (Clone.subst callee_fr.clone (Var.term ret_var)));
          (* On bottom-up expansion, relate the callee's formals to the
             actuals just discovered (the callee frame may already have
             cloned them, so use equalities rather than bindings). *)
          if not popped then relate_formals callee_fr caller_fr args
        | _ -> ())
      | Hparam_up { param; caller; call_sid; actual; args; _ } -> (
        let callee_fr = cur () in
        pop ();
        push caller;
        match (cur (), callee_fr) with
        | Some caller_fr, Some callee_fr ->
          (* the call statement is reachable in the caller *)
          acc := add_cd rv caller_fr !acc call_sid;
          (* the actual the value rode in on *)
          acc :=
            E.and_ !acc
              (E.eq
                 (Clone.subst callee_fr.clone (Var.term param))
                 (Clone.subst caller_fr.clone (Var.term actual)));
          relate_formals callee_fr caller_fr args
        | _ -> ())
      | Hsink { sid; var; _ } -> (
        match cur () with
        | Some fr ->
          acc := add_cd rv fr !acc sid;
          acc := E.and_ !acc (closed_in rv fr (Seg.dd fr.seg var))
        | None -> ()))
    path;
  !acc

(* The builder extended by every hop of a path in order: what the engine
   built eagerly, one hop per DFS step, before it deferred hops to
   [emit]. *)
let of_path ~seg_of ~rv path =
  let b = Cond.create ~seg_of ~rv () in
  List.iter (Cond.extend b) path;
  b

let corpus_files () =
  let dir = Test_corpus.corpus_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mc")
  |> List.sort compare
  |> List.map (Filename.concat dir)

(* paths-16k's planted mix at a quarter of its size: most candidates are
   traps the solver refutes. *)
let trap_subject () =
  let module Gen = Pinpoint_workload.Gen in
  let s =
    Gen.generate ~name:"traps.mc"
      {
        Gen.default_params with
        seed = 5;
        target_loc = 4_000;
        n_units = 3;
        n_real_uaf = 30;
        n_real_df = 15;
        n_uaf_traps = 90;
        n_hard_traps = 30;
        n_shared_core = 30;
        n_use_before_free = 15;
        n_taint_real = 15;
        n_taint_traps = 30;
      }
  in
  Pinpoint.Analysis.prepare_source ~file:s.Gen.name s.Gen.source

(* Every report of every checker on [a], with the analysis' SEGs and RV
   summaries. *)
let iter_reports a f =
  let seg_of = Pinpoint.Analysis.seg_of a in
  let rv = a.Pinpoint.Analysis.rv in
  List.iter
    (fun spec ->
      let reports, _ = Pinpoint.Analysis.check a spec in
      List.iter (f ~seg_of ~rv spec) reports)
    Pinpoint.Checkers.all

(* For every path the engine ever conditioned (feasible AND infeasible
   candidates, over the whole corpus and every checker), the builder's
   formula must get the same solver verdict as the one-shot oracle. *)
let test_builder_matches_oracle () =
  let n_paths = ref 0 in
  List.iter
    (fun file ->
      iter_reports (Pinpoint.Analysis.prepare_file file)
        (fun ~seg_of ~rv spec (r : Pinpoint.Report.t) ->
          incr n_paths;
          let path = r.Pinpoint.Report.path in
          let oracle = condition ~seg_of ~rv path in
          let built = Cond.formula (of_path ~seg_of ~rv path) in
          if Solver.check built <> Solver.check oracle then
            Alcotest.failf "%s/%s: builder verdict differs from oracle" file
              spec.Pinpoint.Checker_spec.name))
    (corpus_files ());
  Alcotest.(check bool) "oracle saw paths" true (!n_paths > 0)

(* The engine applies a hop only when a candidate below it is emitted,
   and restores to shared prefixes in between; the formula it hands the
   solver must be physically the one the eager builder makes from the
   same path.  On the trap-heavy subject most hops lead to no candidate,
   so the builder must apply fewer hops than the search takes. *)
let test_lazy_equals_eager () =
  let n_conds = ref 0 in
  let check_same name =
    fun ~seg_of ~rv spec (r : Pinpoint.Report.t) ->
      incr n_conds;
      let eager = Cond.formula (of_path ~seg_of ~rv r.Pinpoint.Report.path) in
      if r.Pinpoint.Report.cond != eager then
        Alcotest.failf "%s/%s %s:%d -> %s:%d: lazy condition is not the eager one"
          name spec.Pinpoint.Checker_spec.name r.Pinpoint.Report.source_fn
          r.Pinpoint.Report.source_loc.Stmt.line r.Pinpoint.Report.sink_fn
          r.Pinpoint.Report.sink_loc.Stmt.line
  in
  List.iter
    (fun file -> iter_reports (Pinpoint.Analysis.prepare_file file) (check_same file))
    (corpus_files ());
  let a = trap_subject () in
  let n_corpus = !n_conds in
  let (), delta = Helpers.with_counters (fun () -> iter_reports a (check_same "traps")) in
  let hops = Pinpoint_obs.Obs.Snapshot.counter delta "engine.n_cond_hops"
  and steps = Pinpoint_obs.Obs.Snapshot.counter delta "engine.n_steps" in
  Alcotest.(check bool) "corpus conditions compared" true (n_corpus > 0);
  Alcotest.(check bool) "subject conditions compared" true (!n_conds - n_corpus > 100);
  if not (hops > 0 && hops < steps) then
    Alcotest.failf "engine.n_cond_hops %d, engine.n_steps %d" hops steps

let suite =
  [
    Alcotest.test_case "pc satisfiable" `Quick test_pc_satisfiable;
    Alcotest.test_case "pc mentions both frames" `Quick test_pc_structure;
    Alcotest.test_case "flipped guards refute" `Quick test_pc_branches_essential;
    Alcotest.test_case "hints form a model" `Quick test_pc_each_hint_consistent;
    Alcotest.test_case "context cloning" `Quick test_pc_context_cloning;
    Alcotest.test_case "builder matches one-shot oracle" `Quick
      test_builder_matches_oracle;
    Alcotest.test_case "lazy condition = eager condition" `Quick
      test_lazy_equals_eager;
  ]
