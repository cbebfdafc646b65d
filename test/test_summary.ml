(* Tests for RV and VF summaries (paper §3.3.2). *)

open Pinpoint_ir
module Rv = Pinpoint_summary.Rv
module Vf = Pinpoint_summary.Vf
module Clone = Pinpoint_summary.Clone
module Seg = Pinpoint_seg.Seg
module E = Pinpoint_smt.Expr
module Sym = Pinpoint_smt.Symbol

let setup src =
  let a = Helpers.prepare src in
  (a, a.Pinpoint.Analysis.rv)

let test_rv_identity () =
  let a, rv = setup "int id(int x) { return x; }  void top() { int y = id(3); print(y); }" in
  ignore a;
  match Rv.find rv "id" with
  | Some [| Some entry |] ->
    (* the constraint relates the returned vertex to x and x is in P *)
    Alcotest.(check int) "depends on one param" 1 (Var.Set.cardinal entry.Rv.params);
    Alcotest.(check bool) "nontrivial constraint" true (not (E.is_true entry.Rv.closed))
  | _ -> Alcotest.fail "missing summary"

let test_rv_constant () =
  let _, rv = setup "int k() { return 42; }" in
  match Rv.find rv "k" with
  | Some [| Some entry |] ->
    Alcotest.(check bool) "no params" true (Var.Set.is_empty entry.Rv.params)
  | _ -> Alcotest.fail "missing summary"

let test_rv_closing_through_callee () =
  (* g calls k; g's summary must be closed (k's range inlined, cloned) *)
  let _, rv =
    setup "int k() { return 7; }  int g() { int v = k(); return v + 1; }"
  in
  match Rv.find rv "g" with
  | Some [| Some entry |] ->
    (* fully closed: no parameters, and the formula pins the value chain *)
    Alcotest.(check bool) "closed" true (Var.Set.is_empty entry.Rv.params);
    Alcotest.(check bool) "has content" true (E.size entry.Rv.closed > 1)
  | _ -> Alcotest.fail "missing summary"

let test_clone_distinct () =
  let f1 = Clone.create "site1" and f2 = Clone.create "site2" in
  let s = Sym.fresh "cv" Sym.Int in
  let e = E.var s in
  let c1 = Clone.subst f1 e and c2 = Clone.subst f2 e in
  Alcotest.(check bool) "different clones" false (E.equal c1 c2);
  (* within a frame the clone is stable *)
  Alcotest.(check bool) "stable" true (E.equal c1 (Clone.subst f1 e))

let test_clone_binding () =
  let f = Clone.create "b" in
  let s = Sym.fresh "bv" Sym.Int in
  Clone.bind f s (E.int 9);
  Alcotest.(check bool) "bound" true (E.equal (Clone.subst f (E.var s)) (E.int 9))

(* --- VF summaries --- *)

let vf_of src (spec : Pinpoint.Checker_spec.t) =
  let a = Helpers.prepare src in
  (snd (Hashtbl.find a.Pinpoint.Analysis.vfs spec.Pinpoint.Checker_spec.name), a)

let test_vf1_passthrough () =
  let vf, _ = vf_of "int* pass(int *p) { return p; }" Helpers.uaf in
  match Vf.find vf "pass" with
  | Some s -> Alcotest.(check bool) "param flows to ret" true (List.mem (1, 0) s.Vf.vf1)
  | None -> Alcotest.fail "no summary"

let test_vf3_free_param () =
  let vf, _ = vf_of "void rel(int *p) { free(p); }" Helpers.uaf in
  match Vf.find vf "rel" with
  | Some s ->
    Alcotest.(check (list int)) "vf3" [ 1 ] s.Vf.vf3;
    Alcotest.(check (list int)) "no vf4 (free is not a deref)" [] s.Vf.vf4
  | None -> Alcotest.fail "no summary"

let test_vf4_deref_param () =
  let vf, _ = vf_of "void use(int *p) { print(*p); }" Helpers.uaf in
  match Vf.find vf "use" with
  | Some s -> Alcotest.(check (list int)) "vf4" [ 1 ] s.Vf.vf4
  | None -> Alcotest.fail "no summary"

let test_vf2_freed_return () =
  let vf, _ =
    vf_of "int* mk() { int *p = malloc(); free(p); return p; }" Helpers.uaf
  in
  match Vf.find vf "mk" with
  | Some s -> Alcotest.(check (list int)) "vf2" [ 0 ] s.Vf.vf2
  | None -> Alcotest.fail "no summary"

let test_vf_transitive () =
  (* wrapper around a freeing callee inherits vf3; wrapper around a
     dereffing callee inherits vf4 *)
  let vf, _ =
    vf_of
      "void rel(int *p) { free(p); } void rel2(int *p) { rel(p); } void use(int *p) { print(*p); } void use2(int *p) { use(p); }"
      Helpers.uaf
  in
  (match Vf.find vf "rel2" with
  | Some s -> Alcotest.(check (list int)) "vf3 inherited" [ 1 ] s.Vf.vf3
  | None -> Alcotest.fail "no rel2");
  match Vf.find vf "use2" with
  | Some s -> Alcotest.(check (list int)) "vf4 inherited" [ 1 ] s.Vf.vf4
  | None -> Alcotest.fail "no use2"

let test_vf_operand_mode () =
  (* taint flows through arithmetic only when follow_operands is set *)
  let src = "int mix(int d) { int e = d + 1; return e; }" in
  let vf_taint, _ = vf_of src Helpers.taint_path in
  let vf_uaf, _ = vf_of src Helpers.uaf in
  (match Vf.find vf_taint "mix" with
  | Some s -> Alcotest.(check bool) "taint flows" true (List.mem (1, 0) s.Vf.vf1)
  | None -> Alcotest.fail "no taint summary");
  match Vf.find vf_uaf "mix" with
  | Some s ->
    Alcotest.(check bool) "pointer value does not survive +" false
      (List.mem (1, 0) s.Vf.vf1)
  | None -> Alcotest.fail "no uaf summary"

let test_vf_connector_riding () =
  (* value flow through memory side effects rides the connectors: storing
     the parameter into *q makes it reach the extended return *)
  let vf, _ = vf_of "void put(int **q, int *v) { *q = v; }" Helpers.uaf in
  match Vf.find vf "put" with
  | Some s ->
    Alcotest.(check bool) "v reaches the aux return" true
      (List.exists (fun (i, _) -> i = 2) s.Vf.vf1)
  | None -> Alcotest.fail "no summary"

(* --- the sweep's tables against a per-checker oracle --- *)

(* The per-checker summariser the sweep replaced: one bottom-up pass per
   checker, fetching every SEG and re-deriving VF1 and the per-parameter
   reach sets each time. *)
module Oracle = struct
  type t = (string, Vf.fsum) Hashtbl.t

  let reach_from (seg : Seg.t) (t : t) (spec : Vf.spec) (starts : Var.t list) =
    let f = Seg.func seg in
    let stmt_by_sid = Hashtbl.create 16 in
    Func.iter_stmts f (fun _ s -> Hashtbl.replace stmt_by_sid s.Stmt.sid s);
    let visited = ref Var.Set.empty in
    let q = Queue.create () in
    let push w =
      if not (Var.Set.mem w !visited) then begin
        visited := Var.Set.add w !visited;
        Queue.add w q
      end
    in
    List.iter push starts;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      List.iter
        (fun (e : Seg.edge) ->
          match e.Seg.kind with
          | Seg.Copy -> push e.Seg.dst
          | Seg.Operand -> if spec.Vf.follow_operands then push e.Seg.dst)
        (Seg.succs seg v);
      List.iter
        (fun (u : Seg.use) ->
          match u.Seg.ukind with
          | Seg.Call_arg { callee; arg_index } -> (
            match Hashtbl.find_opt t callee with
            | None -> ()
            | Some callee_sum -> (
              match Hashtbl.find_opt stmt_by_sid u.Seg.sid with
              | Some { Stmt.kind = Stmt.Call c; _ } ->
                List.iter
                  (fun (i, j) ->
                    if i = arg_index + 1 then
                      match List.nth_opt c.Stmt.recvs j with
                      | Some r -> push r
                      | None -> ())
                  callee_sum.Vf.vf1
              | _ -> ()))
          | _ -> ())
        (Seg.uses_of seg v)
    done;
    !visited

  let summarize (seg : Seg.t) (t : t) (spec : Vf.spec) : Vf.fsum =
    let f = Seg.func seg in
    let call_sources =
      Func.fold_stmts f ~init:[] ~f:(fun acc _ s ->
          match s.Stmt.kind with
          | Stmt.Call c -> (
            match Hashtbl.find_opt t c.Stmt.callee with
            | None -> acc
            | Some cs ->
              List.filter_map (fun j -> List.nth_opt c.Stmt.recvs j) cs.Vf.vf2
              @ List.filter_map
                  (fun i ->
                    match List.nth_opt c.Stmt.args (i - 1) with
                    | Some (Stmt.Ovar u) -> Some u
                    | _ -> None)
                  cs.Vf.vf3
              @ acc)
          | _ -> acc)
    in
    let sources = List.map fst (spec.Vf.source_vars f) @ call_sources in
    let sink_vars =
      List.filter_map
        (fun (u : Seg.use) ->
          if spec.Vf.is_sink_use seg u then Some u.Seg.uvar
          else
            match u.Seg.ukind with
            | Seg.Call_arg { callee; arg_index } -> (
              match Hashtbl.find_opt t callee with
              | Some cs when List.mem (arg_index + 1) cs.Vf.vf4 -> Some u.Seg.uvar
              | _ -> None)
            | _ -> None)
        (Seg.uses seg)
      |> Var.Set.of_list
    in
    let ret_positions v =
      List.filter_map
        (fun (u : Seg.use) ->
          match u.Seg.ukind with
          | Seg.Ret_op j when Var.equal u.Seg.uvar v -> Some j
          | _ -> None)
        (Seg.uses_of seg v)
    in
    let source_set = Var.Set.of_list sources in
    let vf1 = ref [] and vf3 = ref [] and vf4 = ref [] in
    List.iteri
      (fun idx0 p ->
        let i = idx0 + 1 in
        Var.Set.iter
          (fun v ->
            List.iter (fun j -> vf1 := (i, j) :: !vf1) (ret_positions v);
            if Var.Set.mem v source_set then vf3 := i :: !vf3;
            if Var.Set.mem v sink_vars then vf4 := i :: !vf4)
          (reach_from seg t spec [ p ]))
      f.Func.params;
    let vf2 =
      Var.Set.fold
        (fun v acc -> ret_positions v @ acc)
        (reach_from seg t spec sources) []
    in
    {
      Vf.vf1 = List.sort_uniq compare !vf1;
      vf2 = List.sort_uniq compare vf2;
      vf3 = List.sort_uniq compare !vf3;
      vf4 = List.sort_uniq compare !vf4;
    }

  let generate prog seg_of spec : t =
    let t = Hashtbl.create 64 in
    List.iter
      (List.iter (fun (f : Func.t) ->
           Option.iter
             (fun seg -> Hashtbl.replace t f.Func.fname (summarize seg t spec))
             (seg_of f.Func.fname)))
      (Prog.bottom_up_sccs prog);
    t

  let dump (t : t) = Hashtbl.fold (fun n s acc -> (n, s) :: acc) t [] |> List.sort compare
end

let dump_vf vf =
  Vf.fold vf ~init:[] ~f:(fun acc n s -> (n, s) :: acc) |> List.sort compare

(* Every registered checker's table in [vfs] equals the per-checker
   oracle over [a]'s program and SEGs. *)
let check_against_oracle what (a : Pinpoint.Analysis.t) vfs =
  List.iter
    (fun (c : Pinpoint.Checker_spec.t) ->
      let _, vf = Hashtbl.find vfs c.Pinpoint.Checker_spec.name in
      let expected =
        Oracle.dump
          (Oracle.generate a.Pinpoint.Analysis.prog (Pinpoint.Analysis.seg_of a)
             (Pinpoint.Checker_spec.vf_spec c))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s table = oracle" what c.Pinpoint.Checker_spec.name)
        true
        (dump_vf vf = expected))
    Pinpoint.Checkers.all

let gen_subjects =
  [
    ("scaled", Pinpoint_workload.Gen.scaled ~seed:5 ~mloc:0.0015 ());
    ( "traps",
      {
        Pinpoint_workload.Gen.default_params with
        Pinpoint_workload.Gen.seed = 9;
        target_loc = 800;
        n_uaf_traps = 6;
        n_hard_traps = 4;
        n_shared_core = 3;
        n_taint_traps = 4;
      } );
    ( "cross-unit",
      {
        Pinpoint_workload.Gen.default_params with
        Pinpoint_workload.Gen.seed = 13;
        target_loc = 1_000;
        n_units = 3;
        cross_unit = true;
      } );
  ]

let gen_source (name, params) =
  (Pinpoint_workload.Gen.generate ~name params).Pinpoint_workload.Gen.source

let test_one_pass_corpus () =
  List.iter
    (fun path ->
      let a =
        Pinpoint.Analysis.prepare_source ~file:path (Test_store.read_file path)
      in
      check_against_oracle (Filename.basename path) a a.Pinpoint.Analysis.vfs)
    (Test_store.corpus_files ())

let test_one_pass_generated () =
  List.iter
    (fun ((name, _) as subject) ->
      let a = Helpers.prepare (gen_source subject) in
      check_against_oracle name a a.Pinpoint.Analysis.vfs)
    gen_subjects

(* A scripted edit: [free(p)] appended to the [k]-th function that has a
   pointer parameter, before its trailing return — a new VF3 fact for the
   free-based checkers, and for every transitive caller. *)
let add_free (fds : Pinpoint_frontend.Ast.fdecl list) k =
  let module A = Pinpoint_frontend.Ast in
  let ptr_param (fd : A.fdecl) =
    List.find_map
      (fun (ty, x) -> match ty with Ty.Ptr _ -> Some x | _ -> None)
      fd.A.params
  in
  let candidates = List.filter (fun fd -> ptr_param fd <> None) fds in
  let target = List.nth candidates (k mod List.length candidates) in
  let p = Option.get (ptr_param target) in
  let free_p =
    let e n = { A.eloc = target.A.floc; enode = n } in
    { A.sloc = target.A.floc; snode = A.Sexpr (e (A.Ecall ("free", [ e (A.Evar p) ]))) }
  in
  let body =
    match target.A.body.A.snode with
    | A.Sblock ss -> (
      match List.rev ss with
      | ({ A.snode = A.Sreturn _; _ } as r) :: rest ->
        A.Sblock (List.rev (r :: free_p :: rest))
      | _ -> A.Sblock (ss @ [ free_p ]))
    | _ -> A.Sblock [ target.A.body; free_p ]
  in
  ( target.A.fname,
    List.map
      (fun (fd : A.fdecl) ->
        if fd == target then { fd with A.body = { fd.A.body with A.snode = body } }
        else fd)
      fds )

(* Transitive callers of [name], itself included, as bottom-up SCCs. *)
let dirty_sccs prog name =
  let g, funcs = Prog.call_graph prog in
  let dirty = Hashtbl.create 16 in
  let rec visit i =
    let n = funcs.(i).Func.fname in
    if not (Hashtbl.mem dirty n) then begin
      Hashtbl.replace dirty n ();
      List.iter visit (Pinpoint_util.Digraph.preds g i)
    end
  in
  Array.iteri (fun i (f : Func.t) -> if f.Func.fname = name then visit i) funcs;
  List.filter
    (List.exists (fun (f : Func.t) -> Hashtbl.mem dirty f.Func.fname))
    (Prog.bottom_up_sccs prog)

(* Recursive SCCs whose members each carry a fact the other reads — one
   dereferences [p] and one frees it; both return a value closed over the
   other's: whichever member is swept first must see the other as
   unknown, not as its entry from before the sweep. *)
let mutual_recursion =
  {|void f(int *p, int n) { if (n > 0) { g(p, n - 1); } print(*p); }
void g(int *p, int n) { if (n > 0) { f(p, n - 1); } free(p); }
int h(int *p, int n) { int r = 0; if (n > 0) { r = k(p, n - 1); } return r + 1; }
int k(int *p, int n) { int r = 0; if (n > 0) { r = h(p, n - 1); } return r + 2; }
|}

(* Every function's RV entries, compared physically: formulas are
   hash-consed and clone symbols interned per call site, so a rebuilt
   entry equals the one it replaces exactly when it closes the same
   constraint. *)
let rv_entries (a : Pinpoint.Analysis.t) =
  List.map
    (fun (f : Func.t) -> (f.Func.fname, Rv.find a.Pinpoint.Analysis.rv f.Func.fname))
    (Prog.functions a.Pinpoint.Analysis.prog)

let same_rv x y =
  let same (e1 : Rv.entry) (e2 : Rv.entry) =
    Var.equal e1.Rv.var e2.Rv.var && E.equal e1.Rv.closed e2.Rv.closed
    && Var.Set.equal e1.Rv.params e2.Rv.params
  in
  match (x, y) with
  | None, None -> true
  | Some x, Some y ->
    Array.length x = Array.length y && Array.for_all2 (Option.equal same) x y
  | _ -> false

(* VF tables carried across scripted edits, each edit applied by an
   incremental sweep over the dirty SCCs of the edited program, equal the
   oracle over each edited program: the sweep drops the dirty entries and
   recomputes them against the retained clean ones.  The RV entries the
   sweep recomputes equal the from-scratch ones it replaced. *)
let test_sweep_update () =
  List.iter
    (fun (name, src) ->
      let module A = Pinpoint_frontend.Ast in
      let fds = ref (Pinpoint_frontend.Parser.parse_string ~file:"<gen>" src).A.funcs in
      let prepare () = Helpers.prepare (Format.asprintf "%a" A.pp_program { A.funcs = !fds }) in
      let vfs = (prepare ()).Pinpoint.Analysis.vfs in
      for k = 1 to 3 do
        let edited, fds' = add_free !fds (7 * k) in
        fds := fds';
        let a = prepare () in
        let prog = a.Pinpoint.Analysis.prog in
        let what = Printf.sprintf "%s edit %d (%s)" name k edited in
        let rv = rv_entries a in
        let sccs = dirty_sccs prog edited in
        (* Every dirty function is listed as replaced, so each dirty SCC is
           re-summarised from its retained SEGs; none is stale, so none is
           transformed again. *)
        let before = Hashtbl.create 16 in
        List.iter
          (List.iter (fun (f : Func.t) ->
               Hashtbl.replace before f.Func.fname
                 (f, Rv.find a.Pinpoint.Analysis.rv f.Func.fname)))
          sccs;
        ignore
          (Pinpoint.Analysis.sweep ~stale:(fun _ -> false) ~before
             { a with Pinpoint.Analysis.vfs } sccs);
        check_against_oracle what a vfs;
        List.iter2
          (fun (fn, before) (_, after) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s RV entries = from scratch" what fn)
              true (same_rv before after))
          rv (rv_entries a)
      done)
    (("mutual recursion", mutual_recursion)
    :: List.map (fun ((name, _) as subject) -> (name, gen_source subject)) gen_subjects)

let suite =
  [
    Alcotest.test_case "rv: identity" `Quick test_rv_identity;
    Alcotest.test_case "rv: constant" `Quick test_rv_constant;
    Alcotest.test_case "rv: closed through callee" `Quick test_rv_closing_through_callee;
    Alcotest.test_case "clone: distinct per site" `Quick test_clone_distinct;
    Alcotest.test_case "clone: binding" `Quick test_clone_binding;
    Alcotest.test_case "vf1: passthrough" `Quick test_vf1_passthrough;
    Alcotest.test_case "vf3: frees its param" `Quick test_vf3_free_param;
    Alcotest.test_case "vf4: derefs its param" `Quick test_vf4_deref_param;
    Alcotest.test_case "vf2: returns freed" `Quick test_vf2_freed_return;
    Alcotest.test_case "vf: transitive" `Quick test_vf_transitive;
    Alcotest.test_case "vf: operand mode" `Quick test_vf_operand_mode;
    Alcotest.test_case "vf: connector riding" `Quick test_vf_connector_riding;
    Alcotest.test_case "vf: one pass = oracle (corpus)" `Quick test_one_pass_corpus;
    Alcotest.test_case "vf: one pass = oracle (generated)" `Quick
      test_one_pass_generated;
    Alcotest.test_case "vf: update = oracle after edits" `Quick test_sweep_update;
  ]
