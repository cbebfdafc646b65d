(* Tests for the IR layer: SSA, gating, control dependence, reachability,
   call graphs. *)

open Pinpoint_ir
module E = Pinpoint_smt.Expr

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

let test_reaching_conditions () =
  let prog =
    Helpers.compile "int f(int a) { int r = 0; if (a > 0) { r = 1; } return r; }"
  in
  let f = Helpers.func prog "f" in
  let rc = Gating.reaching_conditions f ~root:f.Func.entry in
  Alcotest.(check bool) "entry true" true (E.is_true rc.(f.Func.entry));
  (* the exit is always reachable *)
  Alcotest.(check bool) "exit true" true (E.is_true rc.(f.Func.exit_))

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
  let f = Func.create "bad" ~params:[] ~ret_ty:None in
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
    (Pinpoint_seg.Seg.alloc_address "f" (List.nth sites 0)
    <> Pinpoint_seg.Seg.alloc_address "f" (List.nth sites 1))


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
                let f = Pinpoint_frontend.Lower.lower_fdecl sigs fd in
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
