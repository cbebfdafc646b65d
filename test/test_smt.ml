(* Tests for the SMT stack: expressions, the linear-time solver, rational
   arithmetic, the theory solver, the SAT core, and the full DPLL(T)
   solver (validated against brute-force enumeration). *)

open Pinpoint_smt
module E = Expr

let ivar name = E.var (Symbol.fresh name Symbol.Int)
let bvar name = E.var (Symbol.fresh name Symbol.Bool)

(* --- Expr --- *)

let test_constant_folding () =
  Alcotest.(check bool) "2+3=5" true (E.equal (E.add (E.int 2) (E.int 3)) (E.int 5));
  Alcotest.(check bool) "2*0=0" true (E.equal (E.mul (E.int 2) (E.int 0)) (E.int 0));
  Alcotest.(check bool) "2<3" true (E.is_true (E.lt (E.int 2) (E.int 3)));
  Alcotest.(check bool) "3<=2 false" true (E.is_false (E.le (E.int 3) (E.int 2)));
  Alcotest.(check bool) "neg neg" true
    (let x = ivar "x" in
     E.equal (E.neg (E.neg x)) x)

let test_bool_simplification () =
  let a = bvar "a" in
  Alcotest.(check bool) "a && true = a" true (E.equal (E.and_ a E.tru) a);
  Alcotest.(check bool) "a && false = false" true (E.is_false (E.and_ a E.fls));
  Alcotest.(check bool) "a || !a = true" true (E.is_true (E.or_ a (E.not_ a)));
  Alcotest.(check bool) "a && !a = false" true (E.is_false (E.and_ a (E.not_ a)));
  Alcotest.(check bool) "a && a = a" true (E.equal (E.and_ a a) a);
  Alcotest.(check bool) "!!a = a" true (E.equal (E.not_ (E.not_ a)) a)

let test_negation_pushing () =
  let x = ivar "x" and y = ivar "y" in
  (* !(x < y) becomes y <= x *)
  Alcotest.(check bool) "not lt is le" true
    (E.equal (E.not_ (E.lt x y)) (E.le y x));
  Alcotest.(check bool) "not eq is ne" true
    (E.equal (E.not_ (E.eq x y)) (E.ne x y))

let test_or_factoring () =
  let a = bvar "fa" and b = bvar "fb" in
  (* (a&&b) || (a&&!b) = a *)
  let lhs = E.or_ (E.and_ a b) (E.and_ a (E.not_ b)) in
  Alcotest.(check bool) "factoring collapses" true (E.equal lhs a);
  (* absorption: a || (a && b) = a *)
  Alcotest.(check bool) "absorption" true (E.equal (E.or_ a (E.and_ a b)) a)

let test_hash_consing () =
  let x = ivar "hx" and y = ivar "hy" in
  let e1 = E.add x y and e2 = E.add y x in
  Alcotest.(check bool) "commutative sharing" true (E.equal e1 e2);
  Alcotest.(check bool) "same id" true (e1.E.id = e2.E.id)

(* The interning table.  Each test interns integer literals from its own
   range, far from any the analyser or another test builds, so every node
   it counts is new. *)

(* Three node kinds per literal, 300,000 nodes in all: the table rehashes
   several times on the way, and every node must still be found, as the
   same node, and be created once. *)
let test_intern_rehash () =
  let n = 100_000 and base = 1 lsl 40 in
  let x = ivar "intern_x" in
  let build i =
    let leaf = E.of_node (E.Int (base + i)) in
    let lt = E.of_node (E.Lt (x, leaf)) in
    (leaf, lt, E.of_node (E.Not lt))
  in
  let before = E.n_created () in
  let nodes = Array.init n build in
  Alcotest.(check int) "one node per distinct node" (3 * n) (E.n_created () - before);
  Array.iteri
    (fun i (leaf, lt, not_lt) ->
      let leaf', lt', not_lt' = build i in
      if not (leaf' == leaf && lt' == lt && not_lt' == not_lt) then
        Alcotest.failf "literal %d re-interned as a new node" i;
      if leaf'.E.id <> leaf.E.id || not_lt'.E.id <> not_lt.E.id then
        Alcotest.failf "literal %d changed id" i)
    nodes;
  Alcotest.(check int) "re-interning creates nothing" (3 * n)
    (E.n_created () - before)

let[@inline never] intern_unreferenced n =
  let w = Weak.create 1 in
  let e = E.of_node (E.Int n) in
  Weak.set w 0 (Some e);
  (w, e.E.id)

(* The table holds its nodes weakly: a node nothing references is
   collected, and interning its structure again builds a new node with a
   new id. *)
let test_intern_weak () =
  let n = (1 lsl 40) + (1 lsl 30) in
  let w, id = intern_unreferenced n in
  Gc.full_major ();
  Alcotest.(check bool) "unreferenced node collected" false (Weak.check w 0);
  let again = E.of_node (E.Int n) in
  Alcotest.(check bool) "ids are not reused" true (again.E.id > id)

(* A DAG of [2n - 1] nodes: [n] literals, reduced pairwise by [Sub] to
   one root.  [rev] interns every level from its far end. *)
let intern_dag ~base ~n ~rev =
  let index m k = if rev then m - 1 - k else k in
  let level = Array.make n E.tru in
  for k = 0 to n - 1 do
    let i = index n k in
    level.(i) <- E.of_node (E.Int (base + i))
  done;
  let rec up level =
    let m = Array.length level in
    if m = 1 then level.(0)
    else begin
      let h = (m + 1) / 2 in
      let next = Array.make h E.tru in
      for k = 0 to h - 1 do
        let j = index h k in
        next.(j) <-
          (if (2 * j) + 1 < m then
             E.of_node (E.Sub (level.(2 * j), level.((2 * j) + 1)))
           else level.(2 * j))
      done;
      up next
    end
  in
  up level

(* Two domains intern one 20,000-node DAG at once, in opposite orders:
   each node is created once and both get the same root. *)
let test_intern_domains () =
  let n = 10_000 and base = (1 lsl 40) + (1 lsl 31) in
  let before = E.n_created () in
  let a = Domain.spawn (fun () -> intern_dag ~base ~n ~rev:false)
  and b = Domain.spawn (fun () -> intern_dag ~base ~n ~rev:true) in
  let ra = Domain.join a and rb = Domain.join b in
  Alcotest.(check bool) "same root" true (ra == rb);
  Alcotest.(check int) "each node created once" ((2 * n) - 1)
    (E.n_created () - before)

let test_bool_equality_iff () =
  let a = bvar "ia" and b = bvar "ib" in
  (* bool equality expands so the SAT core sees its structure *)
  let e = E.eq a b in
  (match e.E.node with
  | E.Or _ -> ()
  | _ -> Alcotest.fail "bool eq should expand to or/and");
  (* and it must be refutable in conjunction with a && !b *)
  let f = E.conj [ e; a; E.not_ b ] in
  Alcotest.(check bool) "iff refutable" true (Solver.check f = Solver.Unsat)

let test_atoms_vars () =
  let x = ivar "ax" and a = bvar "ab" in
  let f = E.and_ (E.lt x (E.int 3)) (E.or_ a (E.eq x (E.int 0))) in
  Alcotest.(check int) "three atoms" 3 (List.length (E.atoms f));
  Alcotest.(check int) "two vars" 2 (List.length (E.vars f))

let test_subst () =
  let xs = Symbol.fresh "sx" Symbol.Int in
  let x = E.var xs in
  let f = E.lt x (E.int 5) in
  let g = E.subst (fun s -> if s = xs then Some (E.int 7) else None) f in
  Alcotest.(check bool) "substituted and folded" true (E.is_false g)

let test_eval () =
  let xs = Symbol.fresh "ex" Symbol.Int and bs = Symbol.fresh "eb" Symbol.Bool in
  let env s = if s = xs then E.VInt 4 else if s = bs then E.VBool true else E.VInt 0 in
  let f = E.and_ (E.var bs) (E.lt (E.var xs) (E.int 10)) in
  Alcotest.(check bool) "eval true" true (E.eval env f = E.VBool true);
  let g = E.add (E.var xs) (E.int 1) in
  Alcotest.(check bool) "eval int" true (E.eval env g = E.VInt 5)

let test_sort_of () =
  Alcotest.(check bool) "lt is bool" true (E.sort_of (E.lt (ivar "s1") (E.int 0)) = Symbol.Bool);
  Alcotest.(check bool) "add is int" true (E.sort_of (E.add (ivar "s2") (E.int 1)) = Symbol.Int)

(* --- Rat --- *)

let test_rat_basic () =
  let open Rat in
  Alcotest.(check bool) "1/2 + 1/3 = 5/6" true (equal (add (make 1 2) (make 1 3)) (make 5 6));
  Alcotest.(check bool) "normalised" true (equal (make 2 4) (make 1 2));
  Alcotest.(check bool) "negative den" true (equal (make 1 (-2)) (make (-1) 2));
  Alcotest.(check int) "sign" (-1) (sign (make (-3) 7));
  Alcotest.(check bool) "div" true (equal (div (make 1 2) (make 1 4)) (of_int 2))

let rat_laws =
  Helpers.qtest "rat: add commutes, mul distributes"
    QCheck.(triple (pair (int_range (-50) 50) (int_range 1 20))
              (pair (int_range (-50) 50) (int_range 1 20))
              (pair (int_range (-50) 50) (int_range 1 20)))
    (fun ((a1, a2), (b1, b2), (c1, c2)) ->
      let open Rat in
      let a = make a1 a2 and b = make b1 b2 and c = make c1 c2 in
      equal (add a b) (add b a)
      && equal (mul a (add b c)) (add (mul a b) (mul a c)))

(* --- Linear solver (the paper's P/N rules) --- *)

let test_linear_direct_contradiction () =
  let a = bvar "la" in
  (* the smart constructors fold a && !a, so build it non-adjacently *)
  let b = bvar "lb" in
  let f = E.and_ (E.and_ a b) (E.not_ a) in
  Alcotest.(check bool) "easy unsat" true (Linear_solver.check f = Linear_solver.Unsat)

let test_linear_or_intersection () =
  let a = bvar "oa" and b = bvar "ob" in
  (* (a || b) && !a is satisfiable: P of the disjunction is the
     intersection, so no contradiction is visible *)
  let f = E.and_ (E.or_ a b) (E.not_ a) in
  Alcotest.(check bool) "or loses atoms" true (Linear_solver.check f = Linear_solver.Maybe);
  (* (a || a-part) both containing a: P = {a} survives the intersection *)
  let g = E.and_ (E.and_ (E.or_ (E.and_ a b) (E.and_ a (E.not_ b))) b) (E.not_ a) in
  (* note: the factoring rule collapses the disjunction to a, keeping a in P *)
  Alcotest.(check bool) "intersection keeps common atom" true
    (Linear_solver.check g = Linear_solver.Unsat)

let test_linear_canonical_complements () =
  let x = ivar "cx" and y = ivar "cy" in
  (* (x < y) && (y <= x): complements via canonicalisation *)
  let h = bvar "ch" in
  let f = E.and_ (E.and_ (E.lt x y) h) (E.le y x) in
  Alcotest.(check bool) "lt/le complement" true (Linear_solver.check f = Linear_solver.Unsat);
  let g = E.and_ (E.and_ (E.eq x y) h) (E.ne x y) in
  Alcotest.(check bool) "eq/ne complement" true (Linear_solver.check g = Linear_solver.Unsat)

let test_linear_incomplete () =
  let x = ivar "ix" in
  (* semantically unsat but not an apparent contradiction: Maybe *)
  let f = E.and_ (E.lt x (E.int 0)) (E.lt (E.int 5) x) in
  Alcotest.(check bool) "deep unsat not caught" true (Linear_solver.check f = Linear_solver.Maybe)

(* --- Theory solver --- *)

let test_theory_bounds () =
  let x = ivar "tx" in
  let lit e = (e, true) in
  Alcotest.(check bool) "x<5 && x>10 unsat" true
    (Theory.check [ lit (E.lt x (E.int 5)); lit (E.lt (E.int 10) x) ] = Theory.Unsat);
  Alcotest.(check bool) "x<5 && x>1 sat" true
    (Theory.check [ lit (E.lt x (E.int 5)); lit (E.lt (E.int 1) x) ] = Theory.Sat)

let test_theory_equalities () =
  let x = ivar "ex1" and y = ivar "ex2" and z = ivar "ex3" in
  let lit e = (e, true) in
  Alcotest.(check bool) "x=y, y=z, x!=z unsat" true
    (Theory.check [ lit (E.eq x y); lit (E.eq y z); lit (E.ne x z) ] = Theory.Unsat);
  Alcotest.(check bool) "x=y+1 && y=x unsat" true
    (Theory.check [ lit (E.eq x (E.add y (E.int 1))); lit (E.eq y x) ] = Theory.Unsat)

let test_theory_ne_split () =
  let x = ivar "nx" in
  let lit e = (e, true) in
  (* 0 <= x <= 0 && x != 0: needs the disequality split *)
  Alcotest.(check bool) "pinned ne unsat" true
    (Theory.check
       [ lit (E.le (E.int 0) x); lit (E.le x (E.int 0)); lit (E.ne x (E.int 0)) ]
    = Theory.Unsat);
  Alcotest.(check bool) "x != 0 alone sat" true
    (Theory.check [ lit (E.ne x (E.int 0)) ] = Theory.Sat)

let test_theory_nonlinear_uninterpreted () =
  let x = ivar "ux" in
  let lit e = (e, true) in
  (* x*x < 0 is satisfiable for the uninterpreted product (soundy) *)
  Alcotest.(check bool) "nonlinear stays sat" true
    (Theory.check [ lit (E.lt (E.mul x x) (E.int 0)) ] = Theory.Sat)

let test_theory_negated_literals () =
  let x = ivar "gx" in
  (* not (x < 5) === x >= 5; with x < 3 it is unsat *)
  Alcotest.(check bool) "polarity handling" true
    (Theory.check [ ((E.lt x (E.int 5)), false); ((E.lt x (E.int 3)), true) ]
    = Theory.Unsat)

(* --- SAT core --- *)

let test_sat_basic () =
  let s = Sat.create () in
  let v1 = Sat.new_var s and v2 = Sat.new_var s in
  Sat.add_clause s [ v1; v2 ];
  Sat.add_clause s [ -v1 ];
  (match Sat.solve s with
  | Some (Sat.Sat model) ->
    Alcotest.(check bool) "v1 false" false model.(v1);
    Alcotest.(check bool) "v2 true" true model.(v2)
  | _ -> Alcotest.fail "expected sat");
  Sat.add_clause s [ -v2 ];
  Alcotest.(check bool) "now unsat" true (Sat.solve s = Some Sat.Unsat)

let test_sat_empty_clause () =
  let s = Sat.create () in
  Sat.add_clause s [];
  Alcotest.(check bool) "empty clause unsat" true (Sat.solve s = Some Sat.Unsat)

let test_sat_assumptions () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Sat.add_clause s [ -a; b ];
  Alcotest.(check bool) "unsat under -b" true
    (Sat.solve ~assumptions:[ -b ] s = Some Sat.Unsat);
  (* unsat-under-assumptions must not poison the instance *)
  (match Sat.solve s with
  | Some (Sat.Sat m) -> Alcotest.(check bool) "b true" true m.(b)
  | _ -> Alcotest.fail "instance itself should be satisfiable");
  Alcotest.(check bool) "contradictory assumptions" true
    (Sat.solve ~assumptions:[ a; -a ] s = Some Sat.Unsat);
  (* an assumption over a brand-new variable is just pinned *)
  let c = Sat.new_var s in
  match Sat.solve ~assumptions:[ -c; b ] s with
  | Some (Sat.Sat m) ->
    Alcotest.(check bool) "assumption -c honoured" false m.(c);
    Alcotest.(check bool) "assumption b honoured" true m.(b)
  | _ -> Alcotest.fail "expected sat under assumptions"

(* Pigeonhole clauses PHP(n+1, n): n+1 pigeons into n holes — unsat, and
   exponentially hard for resolution, so it actually exercises conflict
   analysis, restarts and the conflict budget. *)
let php_clauses n =
  let v i j = (i * n) + j + 1 in
  let cs = ref [] in
  for i = 0 to n do
    cs := List.init n (fun j -> v i j) :: !cs
  done;
  for j = 0 to n - 1 do
    for i1 = 0 to n do
      for i2 = i1 + 1 to n do
        cs := [ -(v i1 j); -(v i2 j) ] :: !cs
      done
    done
  done;
  !cs

let test_sat_conflict_budget () =
  let mk () =
    let s = Sat.create () in
    List.iter (Sat.add_clause s) (php_clauses 5);
    s
  in
  let s = mk () in
  Alcotest.(check bool) "php(6,5) unsat" true (Sat.solve s = Some Sat.Unsat);
  let c = Sat.counts s in
  Alcotest.(check bool) "conflicts counted" true (c.Sat.conflicts > 0);
  Alcotest.(check bool) "clauses learned" true (c.Sat.learned > 0);
  Alcotest.(check bool) "propagations counted" true (c.Sat.propagations > 0);
  Alcotest.(check bool) "decisions counted" true (c.Sat.decisions > 0);
  let s2 = mk () in
  Alcotest.(check bool) "budget 0 exhausts" true (Sat.solve ~budget:0 s2 = None);
  (* budget exhaustion is resumable: everything learned so far persists
     and an uncapped call finishes the proof *)
  Alcotest.(check bool) "resume decides" true (Sat.solve s2 = Some Sat.Unsat)

(* --- CDCL vs the reference chronological DPLL (Sat_ref oracle) --- *)

let kcnf_gen =
  let gen =
    let open QCheck.Gen in
    int_range 3 10 >>= fun n_vars ->
    int_range 1 (4 * n_vars) >>= fun n_clauses ->
    list_size (return n_clauses)
      ( int_range 1 4 >>= fun len ->
        list_size (return len)
          ( int_range 1 n_vars >>= fun v ->
            bool >>= fun sign -> return (if sign then v else -v) ) )
    >>= fun clauses -> return (n_vars, clauses)
  in
  QCheck.make gen ~print:(fun (n, cs) ->
      Printf.sprintf "%d vars: %s" n
        (String.concat " & "
           (List.map
              (fun c ->
                "(" ^ String.concat " " (List.map string_of_int c) ^ ")")
              cs)))

let eval_clauses clauses (model : bool array) =
  List.for_all
    (List.exists (fun l -> if l > 0 then model.(abs l) else not model.(abs l)))
    clauses

let cdcl_vs_ref =
  Helpers.qtest ~count:500 "sat: CDCL agrees with reference DPLL" kcnf_gen
    (fun (n_vars, clauses) ->
      let s = Sat.create () in
      Sat.ensure_vars s n_vars;
      List.iter (Sat.add_clause s) clauses;
      let r = Sat_ref.create () in
      Sat_ref.ensure_vars r n_vars;
      List.iter (Sat_ref.add_clause r) clauses;
      match (Sat.solve s, Sat_ref.solve r) with
      (* every CDCL model is verified by direct clause evaluation *)
      | Some (Sat.Sat m), Some (Sat_ref.Sat m') ->
        eval_clauses clauses m && eval_clauses clauses m'
      | Some Sat.Unsat, Some Sat_ref.Unsat -> true
      | _ -> false)

(* Hard random 3-CNF at the satisfiability phase transition (clause /
   variable ratio 4.26, fixed seeds, 34-46 variables), where a
   non-learning search tree blows up: on each instance both cores reach
   the same verdict, and summed over the six CDCL makes strictly fewer
   unit propagations than the reference core. *)
let phase_transition_cnf ~seed ~n_vars =
  let module Prng = Pinpoint_util.Prng in
  let rng = Prng.create seed in
  let n_clauses = int_of_float (4.26 *. float_of_int n_vars) in
  List.init n_clauses (fun _ ->
      let rec draw acc n =
        if n = 0 then acc
        else
          let v = Prng.in_range rng 1 n_vars in
          if List.exists (fun l -> abs l = v) acc then draw acc n
          else draw ((if Prng.bool rng then v else -v) :: acc) (n - 1)
      in
      draw [] 3)

let test_cdcl_vs_ref_hard_cnf () =
  let budget = 2_000_000 in
  let cdcl_props, ref_props =
    List.fold_left
      (fun (cdcl_props, ref_props) (seed, n_vars) ->
        let clauses = phase_transition_cnf ~seed ~n_vars in
        let s = Sat.create () in
        List.iter (Sat.add_clause s) clauses;
        let r = Sat_ref.create () in
        List.iter (Sat_ref.add_clause r) clauses;
        let cdcl =
          match Sat.solve ~budget s with
          | Some (Sat.Sat m) when eval_clauses clauses m -> "sat"
          | Some Sat.Unsat -> "unsat"
          | _ -> "no verdict"
        in
        let reference =
          match Sat_ref.solve ~budget r with
          | Some (Sat_ref.Sat m) when eval_clauses clauses m -> "sat"
          | Some Sat_ref.Unsat -> "unsat"
          | _ -> "no verdict"
        in
        Alcotest.(check string)
          (Printf.sprintf "seed %d: same verdict" seed)
          reference cdcl;
        ( cdcl_props + (Sat.counts s).Sat.propagations,
          ref_props + (Sat_ref.counts r).Sat.propagations ))
      (0, 0)
      [ (11, 34); (12, 38); (13, 40); (14, 42); (15, 44); (16, 46) ]
  in
  if cdcl_props >= ref_props then
    Alcotest.failf "CDCL made %d propagations, the reference core %d"
      cdcl_props ref_props

let cdcl_assumptions_vs_units =
  Helpers.qtest ~count:300 "sat: assumptions equivalent to unit clauses"
    kcnf_gen (fun (n_vars, clauses) ->
      (* solving under assumptions must give the same verdict as solving a
         copy with the assumptions added as unit clauses, and must leave
         the instance reusable *)
      let assumptions = [ 1; -2 ] in
      let s = Sat.create () in
      Sat.ensure_vars s n_vars;
      List.iter (Sat.add_clause s) clauses;
      let u = Sat.create () in
      Sat.ensure_vars u n_vars;
      List.iter (Sat.add_clause u) clauses;
      List.iter (fun l -> Sat.add_clause u [ l ]) assumptions;
      let verdict_of = function
        | Some (Sat.Sat m) ->
          if eval_clauses clauses m then `Sat else `Bogus
        | Some Sat.Unsat -> `Unsat
        | None -> `Budget
      in
      let under_assumptions = verdict_of (Sat.solve ~assumptions s) in
      let with_units = verdict_of (Sat.solve u) in
      under_assumptions = with_units
      (* and the assumption query must not have weakened the instance *)
      && verdict_of (Sat.solve s)
         = verdict_of
             (let f = Sat.create () in
              Sat.ensure_vars f n_vars;
              List.iter (Sat.add_clause f) clauses;
              Sat.solve f))

(* --- full solver vs brute force --- *)

(* random formulas over 3 bools and 2 small ints; brute-force over
   bools x ints in [-3, 3] *)
let formula_gen =
  let open QCheck.Gen in
  sized_size (int_bound 6) (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                map (fun i -> `Bvar (i mod 3)) small_nat;
                map2 (fun i c -> `Cmp (i mod 2, c)) small_nat (int_range (-3) 3);
                return `True;
              ]
          else
            oneof
              [
                map2 (fun a b -> `And (a, b)) (self (n / 2)) (self (n / 2));
                map2 (fun a b -> `Or (a, b)) (self (n / 2)) (self (n / 2));
                map (fun a -> `Not a) (self (n - 1));
              ])
        n)

let solver_vs_bruteforce =
  let bsyms = Array.init 3 (fun i -> Symbol.fresh (Printf.sprintf "qb%d" i) Symbol.Bool) in
  let isyms = Array.init 2 (fun i -> Symbol.fresh (Printf.sprintf "qi%d" i) Symbol.Int) in
  let rec to_expr = function
    | `True -> E.tru
    | `Bvar i -> E.var bsyms.(i)
    | `Cmp (i, c) -> E.lt (E.var isyms.(i)) (E.int c)
    | `And (a, b) -> E.and_ (to_expr a) (to_expr b)
    | `Or (a, b) -> E.or_ (to_expr a) (to_expr b)
    | `Not a -> E.not_ (to_expr a)
  in
  let brute_sat e =
    let found = ref false in
    for bmask = 0 to 7 do
      for i0 = -3 to 3 do
        for i1 = -3 to 3 do
          if not !found then begin
            let env s =
              if s = bsyms.(0) then E.VBool (bmask land 1 <> 0)
              else if s = bsyms.(1) then E.VBool (bmask land 2 <> 0)
              else if s = bsyms.(2) then E.VBool (bmask land 4 <> 0)
              else if s = isyms.(0) then E.VInt i0
              else E.VInt i1
            in
            if E.eval env e = E.VBool true then found := true
          end
        done
      done
    done;
    !found
  in
  Helpers.qtest ~count:300 "solver agrees with brute force"
    (QCheck.make formula_gen) (fun ast ->
      let e = to_expr ast in
      let brute = brute_sat e in
      match Solver.check e with
      | Solver.Sat ->
        (* rational relaxation can claim SAT where bounded ints say no;
           but over this domain (strict bounds within range) they agree
           unless the witness lies outside [-3,3] — accept Sat when brute
           found none only if an unbounded witness could exist; to stay
           strict we only check the UNSAT direction plus SAT when brute
           agrees. *)
        true
      | Solver.Unsat -> not brute (* never refute a formula with a model *)
      | Solver.Unknown -> true)

let solver_sat_completeness =
  (* dual check: if brute force finds a model, the solver must not say
     Unsat (covered above) AND must find Sat for pure-bool formulas *)
  let bsyms = Array.init 3 (fun i -> Symbol.fresh (Printf.sprintf "pb%d" i) Symbol.Bool) in
  let rec to_expr = function
    | `True -> E.tru
    | `Bvar i -> E.var bsyms.(i)
    | `Cmp (i, _) -> E.var bsyms.(i mod 3)
    | `And (a, b) -> E.and_ (to_expr a) (to_expr b)
    | `Or (a, b) -> E.or_ (to_expr a) (to_expr b)
    | `Not a -> E.not_ (to_expr a)
  in
  let brute e =
    let found = ref false in
    for bmask = 0 to 7 do
      if not !found then begin
        let env s =
          if s = bsyms.(0) then E.VBool (bmask land 1 <> 0)
          else if s = bsyms.(1) then E.VBool (bmask land 2 <> 0)
          else E.VBool (bmask land 4 <> 0)
        in
        if E.eval env e = E.VBool true then found := true
      end
    done;
    !found
  in
  Helpers.qtest ~count:300 "pure-bool solver is exact" (QCheck.make formula_gen)
    (fun ast ->
      let e = to_expr ast in
      match (Solver.check e, brute e) with
      | Solver.Sat, b -> b
      | Solver.Unsat, b -> not b
      | Solver.Unknown, _ -> false (* pure bool must never be unknown *))

let test_solver_fastpath () =
  Alcotest.(check bool) "true" true (Solver.check E.tru = Solver.Sat);
  Alcotest.(check bool) "false" true (Solver.check E.fls = Solver.Unsat)

let test_solver_mixed () =
  let x = ivar "mx" and a = bvar "ma" in
  (* (a => x < 0) && (!a => x > 5) && x = 3: must pick !a, but then x>5
     contradicts x=3 -> unsat *)
  let f =
    E.conj
      [
        E.implies a (E.lt x (E.int 0));
        E.implies (E.not_ a) (E.lt (E.int 5) x);
        E.eq x (E.int 3);
      ]
  in
  Alcotest.(check bool) "mixed unsat" true (Solver.check f = Solver.Unsat);
  let g =
    E.conj [ E.implies a (E.lt x (E.int 0)); E.eq x (E.int 3) ]
  in
  Alcotest.(check bool) "mixed sat via !a" true (Solver.check g = Solver.Sat)

(* --- balanced conjunction / disjunction --- *)

let bal_b = Array.init 3 (fun i -> Symbol.fresh (Printf.sprintf "bal_b%d" i) Symbol.Bool)
let bal_i = Array.init 2 (fun i -> Symbol.fresh (Printf.sprintf "bal_i%d" i) Symbol.Int)

let conjunct_list_gen =
  let open QCheck.Gen in
  let atom =
    oneof
      [
        map (fun i -> E.var bal_b.(i mod 3)) small_nat;
        map (fun i -> E.not_ (E.var bal_b.(i mod 3))) small_nat;
        map2
          (fun i c -> E.lt (E.var bal_i.(i mod 2)) (E.int c))
          small_nat (int_range (-3) 3);
        map2
          (fun i c -> E.le (E.int c) (E.var bal_i.(i mod 2)))
          small_nat (int_range (-3) 3);
      ]
  in
  list_size (int_bound 8) atom

let balanced_equisat =
  Helpers.qtest ~count:300 "conj_balanced equisatisfiable with conj"
    (QCheck.make conjunct_list_gen) (fun l ->
      Solver.check (E.conj_balanced l) = Solver.check (E.conj l)
      && Solver.check (E.disj_balanced l) = Solver.check (E.disj l))

let balanced_order_independent =
  Helpers.qtest ~count:300 "conj_balanced is order-independent"
    (QCheck.make conjunct_list_gen) (fun l ->
      E.equal (E.conj_balanced l) (E.conj_balanced (List.rev l)))

(* --- theory: dropped disequalities are counted, not silent --- *)

let test_theory_ne_dropped_counted () =
  let x = ivar "ned_x" in
  let lits = List.init (Theory.max_ne_splits + 2) (fun i -> (E.ne x (E.int i), true)) in
  let d0 = Theory.n_dropped () in
  Alcotest.(check bool) "over-approximated to sat" true
    (Theory.check lits = Theory.Sat);
  Alcotest.(check int) "every dropped disequality counted"
    (Theory.max_ne_splits + 2)
    (Theory.n_dropped () - d0);
  (* under the cap nothing is dropped *)
  let small = List.init 3 (fun i -> (E.ne x (E.int i), true)) in
  let d1 = Theory.n_dropped () in
  ignore (Theory.check small);
  Alcotest.(check int) "below the cap: no drops" 0 (Theory.n_dropped () - d1)

let test_solver_ne_dropped_stat () =
  let x = ivar "nes_x" in
  let e =
    List.fold_left
      (fun acc i -> E.and_ acc (E.ne x (E.int i)))
      E.tru
      (List.init (Theory.max_ne_splits + 2) Fun.id)
  in
  let v, delta = Helpers.with_counters (fun () -> Solver.check e) in
  Alcotest.(check bool) "sat by over-approximation" true (v = Solver.Sat);
  Alcotest.(check bool) "solver.n_ne_dropped counted" true
    (Pinpoint_obs.Obs.Snapshot.counter delta "solver.n_ne_dropped" >= Theory.max_ne_splits + 2)

(* --- solver: CDCL effort counters flow into the registry --- *)

let test_solver_effort_counters () =
  let x = ivar "eff_x" in
  let e =
    E.and_
      (E.or_ (E.lt x (E.int 5)) (E.lt (E.int 7) x))
      (E.or_ (E.le (E.int 0) x) (E.eq x (E.int 9)))
  in
  let v, delta = Helpers.with_counters (fun () -> Solver.check e) in
  Alcotest.(check bool) "query decided" true (v <> Solver.Unsat);
  Alcotest.(check int) "one query" 1 (Pinpoint_obs.Obs.Snapshot.counter delta "solver.n_queries");
  Alcotest.(check bool) "propagations recorded" true
    (Pinpoint_obs.Obs.Snapshot.counter delta "solver.n_propagations" > 0)

let suite =
  [
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "bool simplification" `Quick test_bool_simplification;
    Alcotest.test_case "negation pushing" `Quick test_negation_pushing;
    Alcotest.test_case "or factoring/absorption" `Quick test_or_factoring;
    Alcotest.test_case "hash consing" `Quick test_hash_consing;
    Alcotest.test_case "intern: 300k nodes across rehashes" `Quick
      test_intern_rehash;
    Alcotest.test_case "intern: nodes held weakly" `Quick test_intern_weak;
    Alcotest.test_case "intern: two domains, one DAG" `Quick test_intern_domains;
    Alcotest.test_case "bool equality iff" `Quick test_bool_equality_iff;
    Alcotest.test_case "atoms and vars" `Quick test_atoms_vars;
    Alcotest.test_case "subst" `Quick test_subst;
    Alcotest.test_case "eval" `Quick test_eval;
    Alcotest.test_case "sort_of" `Quick test_sort_of;
    Alcotest.test_case "rat basics" `Quick test_rat_basic;
    rat_laws;
    Alcotest.test_case "linear: contradiction" `Quick test_linear_direct_contradiction;
    Alcotest.test_case "linear: or intersection" `Quick test_linear_or_intersection;
    Alcotest.test_case "linear: canonical complements" `Quick test_linear_canonical_complements;
    Alcotest.test_case "linear: incompleteness" `Quick test_linear_incomplete;
    Alcotest.test_case "theory: bounds" `Quick test_theory_bounds;
    Alcotest.test_case "theory: equalities" `Quick test_theory_equalities;
    Alcotest.test_case "theory: ne split" `Quick test_theory_ne_split;
    Alcotest.test_case "theory: nonlinear uninterpreted" `Quick test_theory_nonlinear_uninterpreted;
    Alcotest.test_case "theory: negated literals" `Quick test_theory_negated_literals;
    Alcotest.test_case "sat: basic" `Quick test_sat_basic;
    Alcotest.test_case "sat: empty clause" `Quick test_sat_empty_clause;
    Alcotest.test_case "sat: assumptions" `Quick test_sat_assumptions;
    Alcotest.test_case "sat: conflict budget + counters" `Quick
      test_sat_conflict_budget;
    cdcl_vs_ref;
    Alcotest.test_case "sat: CDCL vs reference on hard 3-CNF" `Quick
      test_cdcl_vs_ref_hard_cnf;
    cdcl_assumptions_vs_units;
    Alcotest.test_case "theory: ne drops counted" `Quick
      test_theory_ne_dropped_counted;
    Alcotest.test_case "solver: ne drop stat" `Quick test_solver_ne_dropped_stat;
    Alcotest.test_case "solver: effort counters" `Quick
      test_solver_effort_counters;
    solver_vs_bruteforce;
    solver_sat_completeness;
    Alcotest.test_case "solver: fast paths" `Quick test_solver_fastpath;
    Alcotest.test_case "solver: mixed theory" `Quick test_solver_mixed;
    balanced_equisat;
    balanced_order_independent;
  ]
