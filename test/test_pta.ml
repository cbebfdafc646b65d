(* Tests for the quasi path-sensitive points-to analysis (paper §3.1.1). *)

open Pinpoint_ir
module Pta = Pinpoint_pta.Pta
module Cell = Pinpoint_pta.Cell
module E = Pinpoint_smt.Expr
module Wavefront = Pinpoint_pta.Wavefront

let var_named f name =
  let found = ref None in
  Func.iter_stmts f (fun _ s ->
      List.iter
        (fun (v : Var.t) -> if v.Var.name = name then found := Some v)
        (Stmt.def s));
  List.iter (fun (p : Var.t) -> if p.Var.name = name then found := Some p) f.Func.params;
  match !found with
  | Some v -> v
  | None -> Alcotest.failf "no variable %s" name

let test_alloc_pts () =
  let prog = Helpers.compile "void f() { int *p = malloc(); print(*p); }" in
  let f = Helpers.func prog "f" in
  let pta = Pta.run f in
  let p = var_named f "p" in
  match Pta.pts_of pta p with
  | [ (Cell.CAlloc _, c) ] -> Alcotest.(check bool) "uncond" true (E.is_true c)
  | _ -> Alcotest.fail "p points to one alloc"

let test_copy_pts () =
  let prog = Helpers.compile "void f() { int *p = malloc(); int *q = p; print(*q); }" in
  let f = Helpers.func prog "f" in
  let pta = Pta.run f in
  let q = var_named f "q" in
  match Pta.pts_of pta q with
  | [ (Cell.CAlloc _, _) ] -> ()
  | _ -> Alcotest.fail "q aliases p's alloc"

let test_conditional_pts () =
  (* the paper's {(L, th1), (M, !th1)} shape *)
  let prog =
    Helpers.compile
      "void f(int s) { int *p = malloc(); if (s > 0) { int *q = malloc(); p = q; } print(*p); }"
  in
  let f = Helpers.func prog "f" in
  let pta = Pta.run f in
  (* the φ'd p has two conditional targets *)
  let phi_p =
    let found = ref None in
    Func.iter_stmts f (fun _ s ->
        match s.Stmt.kind with
        | Stmt.Phi (v, _) -> found := Some v
        | _ -> ());
    match !found with Some v -> v | None -> Alcotest.fail "no phi"
  in
  let pts = Pta.pts_of pta phi_p in
  Alcotest.(check int) "two targets" 2 (List.length pts);
  List.iter
    (fun (_, c) ->
      Alcotest.(check bool) "conditional" false (E.is_true c))
    pts

let test_formal_default () =
  let prog = Helpers.compile "void f(int *p) { print(*p); }" in
  let f = Helpers.func prog "f" in
  let pta = Pta.run f in
  let p = var_named f "p" in
  (match Pta.pts_of pta p with
  | [ (Cell.CDeref root, _) ] ->
    Alcotest.(check bool) "own deref cell" true (Var.equal root p)
  | _ -> Alcotest.fail "formal points to its deref cell");
  (* loading it materialises an incoming value and logs the REF *)
  Alcotest.(check (list (pair int int))) "ref paths" [ (1, 1) ] pta.Pta.refs

let test_store_load_resolution () =
  let prog =
    Helpers.compile
      "void f(int x) { int *p = malloc(); *p = x; int y = *p; print(y); }"
  in
  let f = Helpers.func prog "f" in
  let pta = Pta.run f in
  (* find the load and check its resolution is the stored value *)
  let checked = ref false in
  Func.iter_stmts f (fun _ s ->
      match s.Stmt.kind with
      | Stmt.Load (v, _, _) when v.Var.ty = Ty.Int -> (
        match Hashtbl.find_opt pta.Pta.load_res s.Stmt.sid with
        | Some [ e ] ->
          checked := true;
          (match e.Pta.value with
          | Stmt.Ovar u -> Alcotest.(check string) "stored x" "x" u.Var.name
          | _ -> Alcotest.fail "expected variable");
          Alcotest.(check bool) "unconditional" true (E.is_true e.Pta.cond)
        | _ -> Alcotest.fail "one entry")
      | _ -> ());
  Alcotest.(check bool) "found the load" true !checked

let test_strong_update () =
  let prog =
    Helpers.compile
      "void f(int a, int b) { int *p = malloc(); *p = a; *p = b; int y = *p; print(y); }"
  in
  let f = Helpers.func prog "f" in
  let pta = Pta.run f in
  Func.iter_stmts f (fun _ s ->
      match s.Stmt.kind with
      | Stmt.Load (v, _, _) when v.Var.ty = Ty.Int -> (
        match Hashtbl.find_opt pta.Pta.load_res s.Stmt.sid with
        | Some [ e ] -> (
          match e.Pta.value with
          | Stmt.Ovar u -> Alcotest.(check string) "second store wins" "b" u.Var.name
          | _ -> Alcotest.fail "var expected")
        | Some l -> Alcotest.failf "expected strong update, got %d entries" (List.length l)
        | None -> Alcotest.fail "unresolved")
      | _ -> ())

let test_weak_update_conditional () =
  let prog =
    Helpers.compile
      "void f(int a, int b, int s) { int *p = malloc(); *p = a; if (s > 0) { *p = b; } int y = *p; print(y); }"
  in
  let f = Helpers.func prog "f" in
  let pta = Pta.run f in
  Func.iter_stmts f (fun _ s ->
      match s.Stmt.kind with
      | Stmt.Load (v, _, _) when v.Var.ty = Ty.Int -> (
        match Hashtbl.find_opt pta.Pta.load_res s.Stmt.sid with
        | Some entries ->
          Alcotest.(check int) "both stores visible" 2 (List.length entries);
          (* conditions must be complementary, not both true *)
          let conds = List.map (fun e -> e.Pta.cond) entries in
          Alcotest.(check bool) "disjoint" true
            (E.is_false (E.conj conds))
        | None -> Alcotest.fail "unresolved")
      | _ -> ())

let test_depth2_chain () =
  let prog =
    Helpers.compile
      "void f(int x) { int *p = malloc(); *p = x; int **h = malloc(); *h = p; int y = **h; print(y); }"
  in
  let f = Helpers.func prog "f" in
  let pta = Pta.run f in
  let ok = ref false in
  Func.iter_stmts f (fun _ s ->
      match s.Stmt.kind with
      | Stmt.Load (v, _, 2) -> (
        ignore v;
        match Hashtbl.find_opt pta.Pta.load_res s.Stmt.sid with
        | Some [ e ] -> (
          match e.Pta.value with
          | Stmt.Ovar u ->
            ok := true;
            Alcotest.(check string) "x through two levels" "x" u.Var.name
          | _ -> ())
        | _ -> Alcotest.fail "depth-2 load resolution")
      | _ -> ());
  Alcotest.(check bool) "found depth-2 load" true !ok

let test_modref_discovery () =
  let prog =
    Helpers.compile
      "void f(int **q, int *v) { int *t = *q; print(*t); *q = v; }"
  in
  let f = Helpers.func prog "f" in
  let pta = Pta.run f in
  Alcotest.(check bool) "ref *(q,1)" true (List.mem (1, 1) pta.Pta.refs);
  Alcotest.(check bool) "ref *(q,2) via deref of t" true (List.mem (1, 2) pta.Pta.refs);
  Alcotest.(check bool) "mod *(q,1)" true (List.mem (1, 1) pta.Pta.mods)

let test_mod_returned_alloc () =
  let prog =
    Helpers.compile "int* f(int x) { int *p = malloc(); *p = x; return p; }"
  in
  let f = Helpers.func prog "f" in
  let pta = Pta.run f in
  Alcotest.(check bool) "mod *(ret,1)" true (List.mem (0, 1) pta.Pta.mods)

let test_freed_cells () =
  let prog =
    Helpers.compile "void f(int s) { int *p = malloc(); *p = s; free(p); }"
  in
  let f = Helpers.func prog "f" in
  let pta = Pta.run f in
  Alcotest.(check int) "one freed cell" 1 (List.length pta.Pta.freed_cells)

let test_quasi_pruning () =
  (* a φ-chain whose combined gate is g && !g gets pruned *)
  let prog =
    Helpers.compile
      {|
void f(int x) {
  int *a = malloc();
  bool g = x > 3;
  int *m1 = a;
  if (g) { m1 = malloc(); }
  int *m2 = a;
  if (g) { } else { m2 = m1; }
  print(*m2);
}
|}
  in
  let f = Helpers.func prog "f" in
  let pta = Pta.run f in
  let m2 =
    (* the merged m2 phi variable: find a phi defined in the final merge *)
    let last = ref None in
    Func.iter_stmts f (fun _ s ->
        match s.Stmt.kind with Stmt.Phi (v, _) when Ty.is_pointer v.Var.ty -> last := Some v | _ -> ());
    match !last with Some v -> v | None -> Alcotest.fail "no phi"
  in
  let pts = Pta.pts_of pta m2 in
  (* the malloc-from-then entry would require g && !g; must be pruned, so
     only feasible targets remain *)
  Alcotest.(check bool) "some target" true (pts <> []);
  List.iter
    (fun (_, c) ->
      Alcotest.(check bool) "no contradictory condition survives" false
        (Pinpoint_smt.Linear_solver.check c = Pinpoint_smt.Linear_solver.Unsat))
    pts

let test_incoming_naming () =
  let prog = Helpers.compile "void f(int **q) { int t = **q; print(t); }" in
  let f = Helpers.func prog "f" in
  let pta = Pta.run f in
  (* two materialisations: *(q,1) and *(q,2) *)
  Alcotest.(check int) "two incomings" 2 (List.length pta.Pta.incomings);
  Alcotest.(check (list (pair int int))) "refs" [ (1, 1); (1, 2) ] pta.Pta.refs

(* --- wavefront solver: difference propagation = the full-set oracle --- *)

let read_file path =
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  src

module ISet = Wavefront.ISet

(* The textbook full-set worklist: every processing re-unions a node's
   whole set into its successors.  Quadratic on deep copy chains but
   plainly right, so it is the oracle [Wavefront.solve] must agree with:
   both compute the least fixpoint of the same monotone system. *)
let solve_full (sys : Wavefront.sys) =
  let pts = Array.make sys.n_nodes ISet.empty in
  let copy = Array.copy sys.copy in
  let work = Queue.create () in
  let dirty = Hashtbl.create 64 in
  let enqueue n =
    if not (Hashtbl.mem dirty n) then begin
      Hashtbl.add dirty n ();
      Queue.add n work
    end
  in
  List.iter
    (fun (n, o) ->
      if not (ISet.mem o pts.(n)) then begin
        pts.(n) <- ISet.add o pts.(n);
        enqueue n
      end)
    sys.init;
  while not (Queue.is_empty work) do
    let n = Queue.pop work in
    Hashtbl.remove dirty n;
    let pn = pts.(n) in
    List.iter
      (fun dst ->
        ISet.iter
          (fun o ->
            let m = sys.obj_mem.(o) in
            if not (ISet.mem dst copy.(m)) then begin
              copy.(m) <- ISet.add dst copy.(m);
              if not (ISet.is_empty pts.(m)) then enqueue m
            end)
          pn)
      sys.loads.(n);
    List.iter
      (fun src ->
        ISet.iter
          (fun o ->
            let m = sys.obj_mem.(o) in
            if not (ISet.mem m copy.(src)) then begin
              copy.(src) <- ISet.add m copy.(src);
              if not (ISet.is_empty pts.(src)) then enqueue src
            end)
          pn)
      sys.stores.(n);
    ISet.iter
      (fun m ->
        let before = pts.(m) in
        let after = ISet.union before pn in
        if not (ISet.equal before after) then begin
          pts.(m) <- after;
          enqueue m
        end)
      copy.(n)
  done;
  pts

let solve_elements sys = Array.map ISet.elements (Wavefront.solve sys).Wavefront.pts

(* Tiny constraint system exercising copy, load, store and init:
   nodes 0..3 are variables x y p q, 4/5 the content cells of objects
   o0/o1.  x ∋ o0, p ∋ o1, x ⊆ y, *p ⊇ y, q ⊇ *p — so the store routes
   o0 into mem(o1) and the load reads it back into q, both via dynamic
   edges discovered mid-solve. *)
let test_wavefront_modes_synthetic () =
  let copy = Array.make 6 ISet.empty in
  copy.(0) <- ISet.singleton 1;
  let loads = Array.make 6 [] in
  loads.(2) <- [ 3 ];
  let stores = Array.make 6 [] in
  stores.(2) <- [ 1 ];
  let sys =
    {
      Wavefront.n_nodes = 6;
      obj_mem = [| 4; 5 |];
      copy;
      loads;
      stores;
      init = [ (0, 0); (2, 1) ];
    }
  in
  let full = Array.map ISet.elements (solve_full sys) in
  Alcotest.(check bool) "solve = full-set oracle" true (solve_elements sys = full);
  Alcotest.(check (list int)) "store routed o0 into mem(o1)" [ 0 ] full.(5);
  Alcotest.(check (list int)) "load read it back into q" [ 0 ] full.(3)

(* Random systems of up to 40 nodes and 8 objects, with random copy,
   load, store and init entries.  Content cells are arbitrary nodes, so
   objects may share a cell or alias a variable node. *)
let random_sys =
  let gen =
    let open QCheck.Gen in
    int_range 1 40 >>= fun n ->
    int_range 1 8 >>= fun n_obj ->
    let node = int_bound (n - 1) in
    let entries k = list_size (int_bound k) (pair node node) in
    array_repeat n_obj node >>= fun obj_mem ->
    entries (2 * n) >>= fun copies ->
    entries n >>= fun loads ->
    entries n >>= fun stores ->
    list_size (int_range 1 n) (pair node (int_bound (n_obj - 1))) >>= fun init ->
    let copy = Array.make n ISet.empty in
    List.iter (fun (src, dst) -> copy.(src) <- ISet.add dst copy.(src)) copies;
    let table pairs =
      let a = Array.make n [] in
      List.iter (fun (p, x) -> a.(p) <- x :: a.(p)) pairs;
      a
    in
    return
      {
        Wavefront.n_nodes = n;
        obj_mem;
        copy;
        loads = table loads;
        stores = table stores;
        init;
      }
  in
  let print (sys : Wavefront.sys) =
    let pairs name a =
      Printf.sprintf "%s=[%s]" name
        (String.concat ";"
           (List.concat
              (List.mapi
                 (fun p xs -> List.map (fun x -> Printf.sprintf "%d>%d" p x) xs)
                 (Array.to_list a))))
    in
    String.concat " "
      [
        Printf.sprintf "n=%d" sys.n_nodes;
        Printf.sprintf "mem=[%s]"
          (String.concat ";" (Array.to_list (Array.map string_of_int sys.obj_mem)));
        pairs "copy" (Array.map ISet.elements sys.copy);
        pairs "load" sys.loads;
        pairs "store" sys.stores;
        Printf.sprintf "init=[%s]"
          (String.concat ";"
             (List.map (fun (n, o) -> Printf.sprintf "%d:%d" n o) sys.init));
      ]
  in
  QCheck.make gen ~print

let wavefront_vs_oracle =
  Helpers.qtest ~count:500 "wavefront: solve = full-set oracle" random_sys
    (fun sys -> solve_elements sys = Array.map ISet.elements (solve_full sys))

(* --- row-level difference propagation: a memo hit is invisible --- *)

(* Each corpus file is compiled once and analysed twice.  The second
   pass finds every row verdict of the first in the memo, so it records
   hits; its results, kept/pruned counts included, must equal the
   first's. *)
let test_row_memo_identity () =
  let dir = Test_corpus.corpus_dir () in
  (* the pass's results, its kept/pruned counts and its memo hits *)
  let fingerprint prog =
    let per_fn, delta =
      Helpers.with_counters (fun () ->
          List.map
            (fun (f : Func.t) ->
              let t = Pta.run f in
              ( f.Func.fname,
                List.length t.Pta.incomings,
                t.Pta.refs,
                t.Pta.mods,
                List.length t.Pta.freed_cells ))
            (Prog.functions prog))
    in
    let n = Pinpoint_obs.Obs.Snapshot.counter delta in
    ((per_fn, n "pta.n_kept", n "pta.n_pruned"), n "pta.n_row_hits")
  in
  List.iter
    (fun file ->
      let prog = Helpers.compile (read_file (Filename.concat dir file)) in
      let first, _ = fingerprint prog in
      let _, kept, pruned = first in
      Alcotest.(check bool)
        (file ^ ": conditions were classified")
        true
        (kept + pruned > 0);
      let second, hits = fingerprint prog in
      Alcotest.(check bool) (file ^ ": second pass hits the memo") true (hits > 0);
      Alcotest.(check bool)
        (file ^ ": both passes identical (incl. kept/pruned stats)")
        true (first = second))
    [ "motivating.mc"; "correlated_trap.mc"; "complement_guards.mc" ]

let suite =
  [
    Alcotest.test_case "alloc pts" `Quick test_alloc_pts;
    Alcotest.test_case "copy pts" `Quick test_copy_pts;
    Alcotest.test_case "conditional pts" `Quick test_conditional_pts;
    Alcotest.test_case "formal default" `Quick test_formal_default;
    Alcotest.test_case "store/load resolution" `Quick test_store_load_resolution;
    Alcotest.test_case "strong update" `Quick test_strong_update;
    Alcotest.test_case "weak update conditional" `Quick test_weak_update_conditional;
    Alcotest.test_case "depth-2 chain" `Quick test_depth2_chain;
    Alcotest.test_case "mod/ref discovery" `Quick test_modref_discovery;
    Alcotest.test_case "mod of returned alloc" `Quick test_mod_returned_alloc;
    Alcotest.test_case "freed cells" `Quick test_freed_cells;
    Alcotest.test_case "quasi path-sensitive pruning" `Quick test_quasi_pruning;
    Alcotest.test_case "incoming materialisation" `Quick test_incoming_naming;
    Alcotest.test_case "wavefront: synthetic modes agree" `Quick
      test_wavefront_modes_synthetic;
    wavefront_vs_oracle;
    Alcotest.test_case "row memo on/off identity" `Quick
      test_row_memo_identity;
  ]
