type verdict = Sat | Unsat | Unknown

let max_ne_splits = 10
let max_derived = 4000

(* Disequalities dropped past [max_ne_splits] silently over-approximate
   satisfiability; this domain-local counter makes the loss observable
   ({!Solver} adds the delta to its [solver.n_ne_dropped] counter). *)
let dropped_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let n_dropped () = !(Domain.DLS.get dropped_key)

(* A linear expression: map from variable key to rational coefficient, plus
   a constant.  Variable keys are symbol ids, and synthetic keys for
   uninterpreted (non-linear / boolean-valued) terms. *)
module IMap = Map.Make (Int)

type lin = { coeffs : Rat.t IMap.t; const : Rat.t }

let lconst c = { coeffs = IMap.empty; const = c }

let ladd a b =
  {
    coeffs =
      IMap.union
        (fun _ x y ->
          let s = Rat.add x y in
          if Rat.is_zero s then None else Some s)
        a.coeffs b.coeffs;
    const = Rat.add a.const b.const;
  }

let lscale k a =
  if Rat.is_zero k then lconst Rat.zero
  else { coeffs = IMap.map (Rat.mul k) a.coeffs; const = Rat.mul k a.const }

let lneg = lscale (Rat.of_int (-1))
let lsub a b = ladd a (lneg b)
let lvar key = { coeffs = IMap.singleton key Rat.one; const = Rat.zero }
let is_const l = IMap.is_empty l.coeffs

(* Uninterpreted-term keys live from [Symbol.bound] up, clear of every
   symbol id.  The intern table is global (shared by concurrent solver
   queries), so it is guarded by a mutex.  Key values are first-come and
   thus schedule-dependent; they only order map traversals (pivot
   selection), which cannot change a decided verdict — elimination is
   complete on the linear fragment. *)
let ut_table : (int * int, int) Hashtbl.t = Hashtbl.create 64
let ut_next = ref 0
let ut_lock = Mutex.create ()

let ut_key a b =
  let k = if a <= b then (a, b) else (b, a) in
  Mutex.protect ut_lock (fun () ->
      match Hashtbl.find_opt ut_table k with
      | Some id -> id
      | None ->
        let id = Symbol.bound + !ut_next in
        incr ut_next;
        Hashtbl.add ut_table k id;
        id)

(* Convert an integer-sorted expression to a linear form. *)
let rec lin_of (e : Expr.t) : lin =
  match e.node with
  | Expr.Int n -> lconst (Rat.of_int n)
  | Expr.Var v -> lvar v (* an id carries its sort: bools key apart *)
  | Expr.Add (a, b) -> ladd (lin_of a) (lin_of b)
  | Expr.Sub (a, b) -> lsub (lin_of a) (lin_of b)
  | Expr.Neg a -> lneg (lin_of a)
  | Expr.Mul (a, b) -> (
    match (a.node, b.node) with
    | Expr.Int n, _ -> lscale (Rat.of_int n) (lin_of b)
    | _, Expr.Int n -> lscale (Rat.of_int n) (lin_of a)
    | _ -> lvar (ut_key a.id b.id))
  | _ ->
    (* Boolean-sorted subterm in arithmetic position: uninterpreted. *)
    lvar (ut_key e.id e.id)

(* Constraints in the normal form  e ⋈ 0. *)
type cmp = CEq | CNe | CLt | CLe
type cstr = { l : lin; op : cmp }

(* Turn an atom+polarity into a constraint, or None for pure boolean atoms
   (no theory content). *)
let cstr_of (atom : Expr.t) (polarity : bool) : cstr option =
  let mk a b op nop =
    let l = lsub (lin_of a) (lin_of b) in
    Some { l; op = (if polarity then op else nop) }
  in
  match atom.node with
  | Expr.Eq (a, b) ->
    if Expr.sort_of a = Symbol.Int || Expr.sort_of b = Symbol.Int then mk a b CEq CNe
    else None
  | Expr.Ne (a, b) ->
    if Expr.sort_of a = Symbol.Int || Expr.sort_of b = Symbol.Int then mk a b CNe CEq
    else None
  (* a < b  ≡  a - b < 0 ;  ¬(a < b) ≡ b ≤ a ≡ b - a ≤ 0 *)
  | Expr.Lt (a, b) -> if polarity then mk a b CLt CLt else mk b a CLe CLe
  | Expr.Le (a, b) -> if polarity then mk a b CLe CLe else mk b a CLt CLt
  | Expr.Var _ -> None
  | _ -> None

(* Check a constant constraint; Some verdict if decided. *)
let const_verdict c =
  let s = Rat.sign c.l.const in
  match c.op with
  | CEq -> Some (if s = 0 then Sat else Unsat)
  | CNe -> Some (if s <> 0 then Sat else Unsat)
  | CLt -> Some (if s < 0 then Sat else Unsat)
  | CLe -> Some (if s <= 0 then Sat else Unsat)

(* Gaussian elimination of equalities: repeatedly pick an equality with a
   variable, solve for that variable, substitute everywhere. *)
let substitute key repl l =
  match IMap.find_opt key l.coeffs with
  | None -> l
  | Some c ->
    let l' = { l with coeffs = IMap.remove key l.coeffs } in
    ladd l' (lscale c repl)

exception Conflict

let eliminate_equalities cstrs =
  let eqs, rest = List.partition (fun c -> c.op = CEq) cstrs in
  let rest = ref rest in
  let pending = ref eqs in
  let continue = ref true in
  while !continue do
    match !pending with
    | [] -> continue := false
    | c :: more ->
      pending := more;
      if is_const c.l then begin
        if not (Rat.is_zero c.l.const) then raise Conflict
      end
      else begin
        let key, coef = IMap.min_binding c.l.coeffs in
        (* key = repl  where  repl = -(rest of l) / coef *)
        let repl =
          lscale
            (Rat.div (Rat.of_int (-1)) coef)
            { c.l with coeffs = IMap.remove key c.l.coeffs }
        in
        let sub_c c' = { c' with l = substitute key repl c'.l } in
        pending := List.map sub_c !pending;
        rest := List.map sub_c !rest
      end
  done;
  !rest

module Metrics = Pinpoint_util.Metrics

(* Fourier–Motzkin on CLt/CLe constraints. *)
let fourier_motzkin deadline cstrs =
  (* Filter out decided constant constraints first. *)
  let act = ref [] in
  List.iter
    (fun c ->
      if is_const c.l then begin
        match const_verdict c with
        | Some Unsat -> raise Conflict
        | _ -> ()
      end
      else act := c :: !act)
    cstrs;
  let budget = ref max_derived in
  let unknown = ref false in
  let rec elim cs =
    match cs with
    | [] -> ()
    | _ ->
      (* Pick the variable minimising (#lower * #upper) pairings. *)
      let vars = Hashtbl.create 16 in
      List.iter
        (fun c ->
          IMap.iter
            (fun v coef ->
              let lo, hi = try Hashtbl.find vars v with Not_found -> (0, 0) in
              if Rat.sign coef < 0 then Hashtbl.replace vars v (lo + 1, hi)
              else Hashtbl.replace vars v (lo, hi + 1))
            c.l.coeffs)
        cs;
      let best = ref None in
      Hashtbl.iter
        (fun v (lo, hi) ->
          let cost = lo * hi in
          match !best with
          | None -> best := Some (v, cost)
          | Some (_, c0) -> if cost < c0 then best := Some (v, cost))
        vars;
      (match !best with
      | None -> ()
      | Some (v, _) ->
        let lowers, rest = List.partition (fun c -> match IMap.find_opt v c.l.coeffs with Some k -> Rat.sign k < 0 | None -> false) cs in
        let uppers, rest = List.partition (fun c -> match IMap.find_opt v c.l.coeffs with Some k -> Rat.sign k > 0 | None -> false) rest in
        let derived = ref [] in
        List.iter
          (fun lo ->
            List.iter
              (fun up ->
                decr budget;
                if !budget <= 0 then begin
                  unknown := true;
                  raise Exit
                end;
                if !budget land 63 = 0 then Metrics.check deadline;
                let kl = IMap.find v lo.l.coeffs and ku = IMap.find v up.l.coeffs in
                (* kl < 0, ku > 0: combine  ku*lo - kl*up  to cancel v. *)
                let l' = ladd (lscale ku lo.l) (lscale (Rat.neg kl) up.l) in
                let op = if lo.op = CLt || up.op = CLt then CLt else CLe in
                let c' = { l = l'; op } in
                if is_const c'.l then begin
                  match const_verdict c' with
                  | Some Unsat -> raise Conflict
                  | _ -> ()
                end
                else derived := c' :: !derived)
              uppers)
          lowers;
        elim (List.rev_append !derived rest))
  in
  (try elim !act with Exit -> ());
  !unknown

let check_ineqs deadline cstrs =
  try
    let rest = eliminate_equalities cstrs in
    (* Split CNe into strict branches, capped. *)
    let nes, ineqs = List.partition (fun c -> c.op = CNe) rest in
    let nes =
      (* Constant disequalities are decided immediately. *)
      List.filter
        (fun c ->
          if is_const c.l then begin
            if Rat.is_zero c.l.const then raise Conflict;
            false
          end
          else true)
        nes
    in
    let nes =
      let n = List.length nes in
      if n > max_ne_splits then begin
        let d = Domain.DLS.get dropped_key in
        d := !d + n;
        []
      end
      else nes
    in
    let rec branch nes acc_unknown chosen =
      match nes with
      | [] -> (
        (* All NE resolved; run FM on inequalities + chosen strict forms. *)
        try
          let unk = fourier_motzkin deadline (List.rev_append chosen ineqs) in
          Some (acc_unknown || unk)
        with Conflict -> None)
      | c :: rest -> (
        (* Try e < 0 then e > 0. *)
        let lt = { l = c.l; op = CLt } in
        let gt = { l = lneg c.l; op = CLt } in
        match branch rest acc_unknown (lt :: chosen) with
        | Some u -> Some u
        | None -> branch rest acc_unknown (gt :: chosen))
    in
    match branch nes false [] with
    | Some true -> Unknown
    | Some false -> Sat
    | None -> Unsat
  with Conflict -> Unsat

let check ?(deadline = Metrics.no_deadline) literals =
  let cstrs = List.filter_map (fun (a, p) -> cstr_of a p) literals in
  match cstrs with [] -> Sat | _ -> check_ineqs deadline cstrs
