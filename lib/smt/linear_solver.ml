type verdict = Unsat | Maybe

module ISet = Set.Make (Int)
module Obs = Pinpoint_obs.Obs

(* Registry counters, shared across domains (the PTA phase and engine
   feasibility checks both run in workers): atomic sums, exact without a
   lock. *)
let c_checks = Obs.counter "linear.n_checks"
let c_unsat = Obs.counter "linear.n_unsat"

(* Canonical atom id and polarity of an atomic boolean expression.
   Complement pairs map to the same canonical id with opposite polarity:
   [Lt (a,b)] and [Le (b,a)], [Eq (a,b)] and [Ne (a,b)]. *)
let canon (e : Expr.t) : int * bool =
  match e.node with
  | Expr.Le (a, b) -> ((Expr.lt b a).id, false)
  | Expr.Ne (a, b) -> ((Expr.eq a b).id, false)
  | _ -> (e.id, true)

(* P and N sets as sets of canonical atom ids.

   The paper's rules assume negation normal form (the ¬ rule as stated is
   only exact over atoms: ¬(a ∧ b) must read as ¬a ∨ ¬b, or the solver
   would wrongly refute b1 ∧ ¬(b1 ∧ b2)).  We therefore push polarity
   through the connectives De-Morgan style during the single traversal —
   still linear in the number of atomic constraints. *)
let rec pn polarity (e : Expr.t) : ISet.t * ISet.t =
  match e.node with
  | Expr.True | Expr.False -> (ISet.empty, ISet.empty)
  | Expr.Not c -> pn (not polarity) c
  | Expr.And (a, b) ->
    let pa, na = pn polarity a and pb, nb = pn polarity b in
    if polarity then (ISet.union pa pb, ISet.union na nb)
    else (* ¬(a ∧ b) = ¬a ∨ ¬b *)
      (ISet.inter pa pb, ISet.inter na nb)
  | Expr.Or (a, b) ->
    let pa, na = pn polarity a and pb, nb = pn polarity b in
    if polarity then (ISet.inter pa pb, ISet.inter na nb)
    else (* ¬(a ∨ b) = ¬a ∧ ¬b *)
      (ISet.union pa pb, ISet.union na nb)
  | Expr.Var _ | Expr.Eq _ | Expr.Ne _ | Expr.Lt _ | Expr.Le _ ->
    let id, pos = canon e in
    let pos = pos = polarity in
    if pos then (ISet.singleton id, ISet.empty) else (ISet.empty, ISet.singleton id)
  | Expr.Int _ | Expr.Add _ | Expr.Sub _ | Expr.Mul _ | Expr.Neg _ ->
    (* Not boolean; cannot appear as a condition, but be defensive. *)
    (ISet.empty, ISet.empty)

let check e =
  Obs.add c_checks 1;
  let unsat =
    Expr.is_false e
    ||
    let p, n = pn true e in
    not (ISet.is_empty (ISet.inter p n))
  in
  if unsat then begin
    Obs.add c_unsat 1;
    Unsat
  end
  else Maybe
