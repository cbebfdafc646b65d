(* Demand-driven value-flow refinement (DESIGN.md §4.17).

   SUPA-style (Sui & Xue, CGO'16) last line of defence against spurious
   reports: instead of strengthening the whole-program analysis, walk
   backwards over the few value-flow definitions feeding one candidate
   report and recover facts the feasibility solver's weak theory dropped.

   The concrete weakness attacked here is nonlinear arithmetic.  The
   theory solver treats [Mul] as (almost) uninterpreted, so a path guarded
   by [y < 0] with the definition [y = x * x] on it looks feasible — the
   workload generator plants exactly this shape as its "soundy FP" trap.
   Over true integer semantics the definition entails [0 <= y], which is
   linear; conjoining it lets the cheap linear fragment refute the guard.

   The walk is demand-driven and strong-update-shaped: starting from the
   path condition's definition conjuncts ([v = rhs] equalities — each the
   unique binding the SSA/value-flow encoding gives [v] on this path), it
   chases [rhs] backwards through further definitions and derives
   provably-nonnegative bindings (squares, products and sums of
   nonnegatives, nonnegative literals), memoised per node with a cycle
   guard.  Every derived fact [0 <= v] is entailed by the condition under
   full integer semantics, so:

   - conjoining facts is {e sound}: if the original condition is
     satisfiable over ℤ, so is the strengthened one, hence the (weaker,
     over-approximating) solver still answers Sat — a report can only be
     removed when its path is truly infeasible, and recall is unchanged;
   - the strengthened query is purely additional work on the Sat side —
     verdicts that were already Unsat are never consulted. *)

module E = Pinpoint_smt.Expr
module Symbol = Pinpoint_smt.Symbol

(* The definition map: hash-cons id of a [Var] node -> the unique rhs it
   is equated to by a top-level conjunct.  A second, different binding for
   the same variable loses the strong update (both equalities hold
   conjunctively, so keeping the first is still sound — we just derive
   from one of them). *)
let build_defs (conjs : E.t list) : (int, E.t) Hashtbl.t =
  let defs = Hashtbl.create 16 in
  let bind (v : E.t) (rhs : E.t) =
    if not (Hashtbl.mem defs v.E.id) then Hashtbl.add defs v.E.id rhs
  in
  List.iter
    (fun (c : E.t) ->
      match c.E.node with
      | E.Eq (a, b) when E.sort_of a = Symbol.Int -> (
        match (a.E.node, b.E.node) with
        | E.Var _, _ -> bind a b
        | _, E.Var _ -> bind b a
        | _ -> ())
      | _ -> ())
    conjs;
  defs

(* Is [e] provably nonnegative given the path's definitions?  Memoised on
   hash-cons id; a variable currently being expanded maps to [false]
   (cycle guard — recursive bindings derive nothing). *)
let nonneg (defs : (int, E.t) Hashtbl.t) : E.t -> bool =
  let memo : (int, bool) Hashtbl.t = Hashtbl.create 32 in
  let rec go (e : E.t) : bool =
    match Hashtbl.find_opt memo e.E.id with
    | Some b -> b
    | None ->
      Hashtbl.add memo e.E.id false;
      let b =
        match e.E.node with
        | E.Int n -> n >= 0
        | E.Mul (a, b) ->
          (* A square is nonnegative whatever its operand's sign; hash-
             consing makes structural equality physical equality. *)
          a == b || (go a && go b)
        | E.Add (a, b) -> go a && go b
        | E.Var _ -> (
          match Hashtbl.find_opt defs e.E.id with
          | Some rhs -> go rhs
          | None -> false)
        | _ -> false
      in
      Hashtbl.replace memo e.E.id b;
      b
  in
  go

let facts (cond : E.t) : E.t list =
  let conjs = E.conjuncts cond in
  let defs = build_defs conjs in
  if Hashtbl.length defs = 0 then []
  else begin
    let nonneg = nonneg defs in
    (* Emit one [0 <= v] per nonnegatively-bound variable, in first-
       occurrence (conjunct) order so the fact list — and therefore the
       strengthened formula — is deterministic at every [--jobs] level. *)
    let seen = Hashtbl.create 8 in
    List.concat_map
      (fun (c : E.t) ->
        match c.E.node with
        | E.Eq (a, b) when E.sort_of a = Symbol.Int ->
          let pick (v : E.t) =
            match v.E.node with
            | E.Var _
              when (not (Hashtbl.mem seen v.E.id))
                   && Hashtbl.mem defs v.E.id && nonneg v ->
              Hashtbl.add seen v.E.id ();
              [ E.le (E.int 0) v ]
            | _ -> []
          in
          pick a @ pick b
        | _ -> [])
      conjs
  end
