(* Tests for the IR layer: SSA, gating, control dependence, reachability,
   call graphs. *)

open Pinpoint_ir
module E = Pinpoint_smt.Expr
module D = Pinpoint_util.Digraph

let test_ssa_single_def () =
  let prog =
    Helpers.compile
      "int f(int a) { int x = 1; x = x + 1; x = x + a; if (a > 0) { x = 0; } return x; }"
  in
  let f = Helpers.func prog "f" in
  Alcotest.(check bool) "ssa" true (Ssa.is_ssa f);
  (* at least one phi after the if-merge *)
  let phis =
    Func.fold_stmts f ~init:0 ~f:(fun n _ s ->
        match s.Stmt.kind with Stmt.Phi _ -> n + 1 | _ -> n)
  in
  Alcotest.(check bool) "has phi" true (phis >= 1)

let test_ssa_uses_dominated () =
  let prog =
    Helpers.compile
      "int f(int a) { int r = 0; if (a > 0) { r = 1; } else { if (a < -5) { r = 2; } } return r + 1; }"
  in
  let f = Helpers.func prog "f" in
  let defs = Func.def_table f in
  let g = Func.cfg f in
  let dom = Pinpoint_util.Digraph.dominators g f.Func.entry in
  let b_of = Func.block_of_stmt f in
  Func.iter_stmts f (fun blk s ->
      List.iter
        (fun v ->
          match Var.Tbl.find_opt defs v with
          | None -> () (* parameter or undef *)
          | Some def_stmt -> (
            match Hashtbl.find_opt b_of def_stmt.Stmt.sid with
            | Some db ->
              if db <> blk.Func.bid then
                Alcotest.(check bool)
                  (Printf.sprintf "def of %s dominates use" v.Var.name)
                  true
                  (Pinpoint_util.Digraph.dominates dom db blk.Func.bid)
            | None -> ()))
        (* φ-argument uses are on edges, skip them *)
        (match s.Stmt.kind with Stmt.Phi _ -> [] | _ -> Stmt.uses s))

let test_gating_exclusive () =
  let prog =
    Helpers.compile
      "int f(int a) { int r = 0; if (a > 0) { r = 1; } else { r = 2; } return r; }"
  in
  let f = Helpers.func prog "f" in
  Func.iter_stmts f (fun _ s ->
      match s.Stmt.kind with
      | Stmt.Phi (_, args) ->
        let gates = List.filter_map (fun a -> a.Stmt.gate) args in
        Alcotest.(check int) "two gates" 2 (List.length gates);
        (* gates must be mutually exclusive and complete *)
        let g1 = List.nth gates 0 and g2 = List.nth gates 1 in
        Alcotest.(check bool) "exclusive" true (E.is_false (E.and_ g1 g2));
        Alcotest.(check bool) "complete" true (E.is_true (E.or_ g1 g2))
      | _ -> ())

(* The oracle for [Gating.join_gates]: reaching conditions from [root]
   over the whole function, [rc.(root) = true] and [rc.(b) = ∨ over preds
   p (rc.(p) ∧ guard(p -> b))] in topological order, [false] for the
   blocks [root] does not reach. *)
let reaching_conditions (f : Func.t) ~root =
  let g = Func.cfg f in
  let rc = Array.make (Func.n_blocks f) E.fls in
  let order =
    match D.topo_sort g with Some o -> o | None -> invalid_arg "cyclic CFG"
  in
  rc.(root) <- E.tru;
  List.iter
    (fun b ->
      if b <> root then
        rc.(b) <-
          List.fold_left
            (fun acc p -> E.or_ acc (E.and_ rc.(p) (Gating.edge_guard f p b)))
            E.fls (D.preds g b))
    order;
  rc

let test_reaching_conditions () =
  let prog =
    Helpers.compile "int f(int a) { int r = 0; if (a > 0) { r = 1; } return r; }"
  in
  let f = Helpers.func prog "f" in
  let rc = reaching_conditions f ~root:f.Func.entry in
  Alcotest.(check bool) "entry true" true (E.is_true rc.(f.Func.entry));
  (* the exit is always reachable *)
  Alcotest.(check bool) "exit true" true (E.is_true rc.(f.Func.exit_))

let same_gates = List.equal (fun (p, e) (p', e') -> p = p' && e == e')

(* Every join's gate list, and every φ argument's gate, is the very
   hash-consed node the oracle builds: [rc_{idom b}(p) ∧ guard(p -> b)],
   in [preds] order.  Returns the first mismatch. *)
let gate_mismatch (f : Func.t) =
  let gates = Gating.join_gates f in
  let g = Func.cfg f in
  let dom = D.dominators g f.Func.entry in
  let rcs = Hashtbl.create 8 in
  let oracle b =
    let root = if dom.D.idom.(b) = -1 then f.Func.entry else dom.D.idom.(b) in
    let rc =
      match Hashtbl.find_opt rcs root with
      | Some rc -> rc
      | None ->
        let rc = reaching_conditions f ~root in
        Hashtbl.add rcs root rc;
        rc
    in
    List.map (fun p -> (p, E.and_ rc.(p) (Gating.edge_guard f p b))) (D.preds g b)
  in
  let bad = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !bad = None then bad := Some m) fmt in
  for b = 0 to Func.n_blocks f - 1 do
    let expected = if List.length (D.preds g b) >= 2 then oracle b else [] in
    if not (same_gates gates.(b) expected) then fail "%s: join b%d" f.Func.fname b
  done;
  Func.iter_stmts f (fun blk s ->
      match s.Stmt.kind with
      | Stmt.Phi (_, args) ->
        let expected = oracle blk.Func.bid in
        List.iter
          (fun (a : Stmt.phi_arg) ->
            match a.Stmt.gate with
            | Some gate when gate == List.assoc a.Stmt.pred expected -> ()
            | _ -> fail "%s: φ gate b%d <- b%d" f.Func.fname blk.Func.bid a.Stmt.pred)
          args
      | _ -> ());
  !bad

(* A random DAG CFG: block [i] of the topological numbering jumps or
   branches (on one of a few shared conditions, so guards correlate) to
   later blocks; the last is the exit.  Block ids are a permutation of the
   numbering, and a block no earlier block targets is unreachable. *)
type rterm = RJump of int | RBr of int * int * int

let random_cfg =
  let gen =
    let open QCheck.Gen in
    int_range 2 24 >>= fun n ->
    shuffle_l (List.init n Fun.id) >|= Array.of_list >>= fun perm ->
    let term i =
      let later = int_range (i + 1) (n - 1) in
      frequency
        [
          (1, map (fun j -> RJump j) later);
          (3, map3 (fun c t e -> RBr (c, t, e)) (int_bound 5) later later);
        ]
    in
    let rec terms i =
      if i >= n - 1 then return []
      else term i >>= fun t -> terms (i + 1) >|= fun ts -> t :: ts
    in
    terms 0 >|= fun ts -> (perm, ts)
  in
  let print (perm, ts) =
    String.concat " "
      (List.mapi
         (fun i t ->
           match t with
           | RJump j -> Printf.sprintf "b%d->b%d" perm.(i) perm.(j)
           | RBr (c, x, y) ->
             Printf.sprintf "b%d:c%d?b%d:b%d" perm.(i) c perm.(x) perm.(y))
         ts)
  in
  QCheck.make gen ~print

let func_of_cfg (perm, ts) =
  let n = Array.length perm in
  let f = Func.create ~ordinal:0 "rand" ~params:[] ~ret_ty:None in
  for _ = 2 to n do
    ignore (Func.add_block f)
  done;
  let conds =
    Array.init 6 (fun i -> Var.make f.Func.vgen (Printf.sprintf "c%d" i) Ty.Bool)
  in
  List.iteri
    (fun i t ->
      Func.set_term f perm.(i)
        (match t with
        | RJump j -> Func.Jump perm.(j)
        | RBr (c, x, y) -> Func.Br (Stmt.Ovar conds.(c), perm.(x), perm.(y))))
    ts;
  f.Func.entry <- perm.(0);
  f.Func.exit_ <- perm.(n - 1);
  f

(* Also: selecting some joins (as lowering selects the φ blocks) cuts the
   walks short but leaves the selected joins' gates as they are. *)
let gates_vs_oracle_random =
  Helpers.qtest ~count:500 "gates = whole-function oracle (random DAG CFGs)"
    random_cfg (fun cfg ->
      let f = func_of_cfg cfg in
      match gate_mismatch f with
      | Some m -> QCheck.Test.fail_report m
      | None ->
        let all = Gating.join_gates f in
        let even = Gating.join_gates ~only:(fun b -> b mod 2 = 0) f in
        List.for_all
          (fun b -> same_gates even.(b) (if b mod 2 = 0 then all.(b) else []))
          (List.init (Func.n_blocks f) Fun.id))

let test_gates_vs_oracle_programs () =
  let dir = Test_corpus.corpus_dir () in
  let corpus =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".mc")
    |> List.sort compare
    |> List.map (fun n -> Helpers.compile (Test_store.read_file (Filename.concat dir n)))
  in
  let subject =
    Pinpoint_workload.Gen.compile
      (Pinpoint_workload.Gen.generate ~name:"gates.mc"
         (Pinpoint_workload.Gen.scaled ~seed:3 ~mloc:0.01 ()))
  in
  let n = ref 0 in
  List.iter
    (fun prog ->
      List.iter
        (fun f ->
          incr n;
          match gate_mismatch f with
          | None -> ()
          | Some m -> Alcotest.fail m)
        (Prog.functions prog))
    (corpus @ [ subject ]);
  Alcotest.(check bool) "functions checked" true (!n > 300)

let test_cdg () =
  let prog =
    Helpers.compile
      "void f(int a) { if (a > 0) { print(1); if (a > 5) { print(2); } } }"
  in
  let f = Helpers.func prog "f" in
  let cdg = Cdg.compute f in
  (* the block containing print(2) is directly controlled by a>5's block *)
  let b_of = Func.block_of_stmt f in
  let print2_block = ref (-1) and inner_branch_count = ref 0 in
  Func.iter_stmts f (fun _ s ->
      match s.Stmt.kind with
      | Stmt.Call c when c.Stmt.callee = "print" -> (
        match c.Stmt.args with
        | [ Stmt.Oint 2 ] ->
          print2_block := Option.value (Hashtbl.find_opt b_of s.Stmt.sid) ~default:(-1)
        | _ -> ())
      | _ -> ());
  Alcotest.(check bool) "found block" true (!print2_block >= 0);
  let deps = Cdg.deps_of_block cdg !print2_block in
  Alcotest.(check int) "one direct dep" 1 (List.length deps);
  List.iter
    (fun (d : Cdg.dep) ->
      Alcotest.(check bool) "positive polarity" true d.Cdg.polarity;
      incr inner_branch_count)
    deps;
  (* entry block has no control deps *)
  Alcotest.(check int) "entry free" 0
    (List.length (Cdg.deps_of_block cdg f.Func.entry))

let test_reaches () =
  let prog =
    Helpers.compile
      "void f(int a) { print(1); if (a > 0) { print(2); } else { print(3); } print(4); }"
  in
  let f = Helpers.func prog "f" in
  let sid_of_print n =
    Func.fold_stmts f ~init:(-1) ~f:(fun acc _ s ->
        match s.Stmt.kind with
        | Stmt.Call c when c.Stmt.callee = "print" && c.Stmt.args = [ Stmt.Oint n ] ->
          s.Stmt.sid
        | _ -> acc)
  in
  let p1 = sid_of_print 1 and p2 = sid_of_print 2 and p3 = sid_of_print 3 and p4 = sid_of_print 4 in
  Alcotest.(check bool) "1 reaches 2" true (Func.reaches f p1 p2);
  Alcotest.(check bool) "2 reaches 4" true (Func.reaches f p2 p4);
  Alcotest.(check bool) "2 not reaches 3" false (Func.reaches f p2 p3);
  Alcotest.(check bool) "4 not reaches 1" false (Func.reaches f p4 p1);
  Alcotest.(check bool) "same stmt reaches itself" true (Func.reaches f p1 p1)

let test_call_graph () =
  let prog =
    Helpers.compile
      "void a() { } void b() { a(); } void c() { b(); a(); input(); }"
  in
  let g, funcs = Prog.call_graph prog in
  Alcotest.(check int) "three nodes" 3 (Array.length funcs);
  Alcotest.(check int) "three edges" 3 (Pinpoint_util.Digraph.n_edges g)

let test_bottom_up_order () =
  let prog =
    Helpers.compile "void a() { } void b() { a(); } void c() { b(); }"
  in
  let sccs = Prog.bottom_up_sccs prog in
  let order = List.concat_map (List.map (fun f -> f.Func.fname)) sccs in
  Alcotest.(check (list string)) "callees first" [ "a"; "b"; "c" ] order

let test_recursion_scc () =
  let prog =
    Helpers.compile
      "void even(int n) { if (n > 0) { odd(n - 1); } } void odd(int n) { if (n > 0) { even(n - 1); } }"
  in
  let sccs = Prog.bottom_up_sccs prog in
  Alcotest.(check int) "one scc" 1 (List.length sccs);
  Alcotest.(check int) "two members" 2 (List.length (List.hd sccs))

let test_validate_catches () =
  let f = Func.create ~ordinal:0 "bad" ~params:[] ~ret_ty:None in
  Func.set_term f 0 (Func.Jump 99);
  (match Func.validate f with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bad target accepted")

let test_prog_units () =
  let prog =
    Helpers.compile "unit \"core\"; void a() { } unit \"net\"; void b() { }"
  in
  Alcotest.(check string) "a in core" "core" (Prog.unit_name prog "a");
  Alcotest.(check string) "b in net" "net" (Prog.unit_name prog "b")

let test_loc_estimate () =
  let prog = Helpers.compile "void a() { print(1); print(2); }" in
  Alcotest.(check bool) "roughly stmt count" true (Prog.loc_estimate prog >= 3)

let test_alloc_sites_distinct () =
  let prog =
    Helpers.compile "void f() { int *a = malloc(); int *b = malloc(); print(*a); print(*b); }"
  in
  let f = Helpers.func prog "f" in
  let sites =
    Func.fold_stmts f ~init:[] ~f:(fun acc _ s ->
        match s.Stmt.kind with Stmt.Alloc _ -> s.Stmt.sid :: acc | _ -> acc)
  in
  Alcotest.(check int) "two sites" 2 (List.length sites);
  Alcotest.(check bool) "distinct addresses" true
    (Pinpoint_seg.Seg.alloc_address f (List.nth sites 0)
    <> Pinpoint_seg.Seg.alloc_address f (List.nth sites 1))


(* The patched call graph equals a from-scratch build after every body
   edit: random small programs of one-parameter functions whose bodies
   are literals and calls, edited by flipping a literal, adding a call or
   removing one, so cycles are made and broken. *)
type op = Lit of int | Call of int

let emit_fn k body =
  Printf.sprintf "void f%d(int a) { %s }" k
    (String.concat " "
       (List.mapi
          (fun i -> function
            | Lit v -> Printf.sprintf "int x%d = %d;" i v
            | Call j -> Printf.sprintf "f%d(a);" j)
          body))

let edit_body n body (kind, arg) =
  let lits = List.filter (function Lit _ -> true | Call _ -> false) body in
  let calls = List.length body - List.length lits in
  let flip () =
    match lits with
    | [] -> body @ [ Lit arg ]
    | _ ->
      let target = arg mod List.length lits in
      let seen = ref (-1) in
      List.map
        (function
          | Lit v ->
            incr seen;
            if !seen = target then Lit (v + 1) else Lit v
          | op -> op)
        body
  in
  match kind mod 3 with
  | 0 -> flip ()
  | 1 ->
    let pos = arg / n mod (List.length body + 1) in
    List.filteri (fun i _ -> i < pos) body
    @ [ Call (arg mod n) ]
    @ List.filteri (fun i _ -> i >= pos) body
  | _ when calls = 0 -> flip ()
  | _ ->
    let target = arg mod calls in
    let seen = ref (-1) in
    List.filter
      (function
        | Call _ ->
          incr seen;
          !seen <> target
        | Lit _ -> true)
      body

let patched_graph_is_from_scratch =
  Helpers.qtest ~count:200 "callgraph replace = build (random body edits)"
    QCheck.(
      pair small_nat
        (list_of_size Gen.(1 -- 10)
           (list_of_size Gen.(1 -- 2) (triple small_nat small_nat small_nat))))
    (fun (seed, steps) ->
      let rng = Random.State.make [| seed |] in
      let n = 2 + Random.State.int rng 6 in
      let bodies =
        Array.init n (fun _ ->
            List.init (Random.State.int rng 4) (fun _ ->
                if Random.State.bool rng then Call (Random.State.int rng n)
                else Lit (Random.State.int rng 10)))
      in
      let src () =
        String.concat "\n" (List.init n (fun k -> emit_fn k bodies.(k)))
      in
      let program = Pinpoint_frontend.Parser.parse_string ~file:"g.mc" (src ()) in
      let sigs = Pinpoint_frontend.Lower.func_sigs program in
      let cur = Array.of_list (Prog.functions (Pinpoint_frontend.Lower.compile program)) in
      let scratch () =
        let p = Prog.create () in
        Array.iter (Prog.add p) cur;
        Callgraph.build p
      in
      let g = scratch () in
      let scc_of g =
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun scc ->
            let names = List.map (fun (f : Func.t) -> f.Func.fname) scc in
            List.iter (fun name -> Hashtbl.replace tbl name names) names)
          (Callgraph.sccs g);
        tbl
      in
      let same_site (f, s) (f', s') = f == f' && s == s' in
      List.for_all
        (fun step ->
          let prev = scc_of (scratch ()) in
          let edited = Hashtbl.create 2 in
          List.iter
            (fun (k, kind, arg) ->
              let k = k mod n in
              bodies.(k) <- edit_body n bodies.(k) (kind, arg);
              Hashtbl.replace edited k ())
            step;
          let fs =
            Hashtbl.fold
              (fun k () acc ->
                let fd =
                  List.hd
                    (Pinpoint_frontend.Parser.parse_string ~file:"g.mc"
                       (emit_fn k bodies.(k)))
                      .Pinpoint_frontend.Ast.funcs
                in
                let f = Pinpoint_frontend.Lower.lower_fdecl ~ordinal:k sigs fd in
                cur.(k) <- f;
                f :: acc)
              edited []
          in
          let moved = Callgraph.replace g fs in
          let fresh = scratch () in
          let now = scc_of fresh in
          let expected_moved =
            List.filter_map
              (fun (f : Func.t) ->
                let name = f.Func.fname in
                if Hashtbl.find prev name <> Hashtbl.find now name then Some name
                else None)
              (Array.to_list cur)
          in
          let ok =
            List.equal (List.equal ( == )) (Callgraph.sccs g) (Callgraph.sccs fresh)
            && List.equal ( == ) (Callgraph.functions g) (Callgraph.functions fresh)
            && Array.for_all
                 (fun (f : Func.t) ->
                   List.equal same_site
                     (Callgraph.callers g f.Func.fname)
                     (Callgraph.callers fresh f.Func.fname))
                 cur
            && moved = expected_moved
          in
          if not ok then
            QCheck.Test.fail_reportf "after editing %s:@.%s@.moved [%s], expected [%s]"
              (String.concat ", "
                 (Hashtbl.fold (fun k () acc -> Printf.sprintf "f%d" k :: acc) edited []))
              (src ()) (String.concat " " moved)
              (String.concat " " expected_moved);
          ok)
        steps)

let suite =
  [
    Alcotest.test_case "ssa single def" `Quick test_ssa_single_def;
    Alcotest.test_case "ssa uses dominated" `Quick test_ssa_uses_dominated;
    Alcotest.test_case "gating exclusive+complete" `Quick test_gating_exclusive;
    Alcotest.test_case "reaching conditions" `Quick test_reaching_conditions;
    gates_vs_oracle_random;
    Alcotest.test_case "gates = whole-function oracle (corpus, 10 KLoC)" `Quick
      test_gates_vs_oracle_programs;
    Alcotest.test_case "control dependence" `Quick test_cdg;
    Alcotest.test_case "reaches" `Quick test_reaches;
    Alcotest.test_case "call graph" `Quick test_call_graph;
    Alcotest.test_case "bottom-up order" `Quick test_bottom_up_order;
    Alcotest.test_case "recursion scc" `Quick test_recursion_scc;
    patched_graph_is_from_scratch;
    Alcotest.test_case "validate catches bad targets" `Quick test_validate_catches;
    Alcotest.test_case "units" `Quick test_prog_units;
    Alcotest.test_case "loc estimate" `Quick test_loc_estimate;
    Alcotest.test_case "alloc sites distinct" `Quick test_alloc_sites_distinct;
  ]
