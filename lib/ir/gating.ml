module D = Pinpoint_util.Digraph
open Pinpoint_smt

let edge_guard (f : Func.t) p b =
  let blk = Func.block f p in
  match blk.Func.term with
  | Func.Br (c, t, e) ->
    let c_expr = Stmt.operand_term c in
    (* A degenerate branch with both targets equal is unconditional. *)
    if t = e then Expr.tru
    else if t = b then c_expr
    else if e = b then Expr.not_ c_expr
    else Expr.tru
  | Func.Jump _ | Func.Exit -> Expr.tru

(* Every predecessor of a block that a root [r] strictly dominates is
   itself dominated by [r], so the reaching conditions from [r] need only
   [r]'s dominator subtree.  Numbered in preorder, with each node's
   children in reverse-post-order, the dominator tree is a topological
   order of the reachable blocks in which every subtree is one interval
   [pre.(r) .. last.(r)]: the walk from [r] scans that interval up to
   [r]'s last join, and a dominance test is two comparisons. *)
let join_gates ?(only = fun _ -> true) (f : Func.t) =
  let g = Func.cfg f in
  let nb = Func.n_blocks f in
  let entry = f.Func.entry in
  let dom = D.dominators g entry in
  let idom = dom.D.idom and rpo = dom.D.dom_order in
  let kids = Array.make nb [] in
  for i = Array.length rpo - 1 downto 1 do
    let v = rpo.(i) in
    kids.(idom.(v)) <- v :: kids.(idom.(v))
  done;
  let pre = Array.make nb (-1) and last = Array.make nb (-1) in
  let order = Array.make (Array.length rpo) entry in
  let next = ref 0 in
  let rec number v =
    pre.(v) <- !next;
    order.(!next) <- v;
    incr next;
    List.iter number kids.(v);
    last.(v) <- !next - 1
  in
  number entry;
  (* Joins grouped by root: the immediate dominator, or the entry for an
     unreachable join (whose gates are then all false). *)
  let joins = Array.make nb [] in
  for b = nb - 1 downto 0 do
    if List.compare_length_with (D.preds g b) 2 >= 0 && only b then begin
      let r = if idom.(b) = -1 then entry else idom.(b) in
      joins.(r) <- b :: joins.(r)
    end
  done;
  let gates = Array.make nb [] and rc = Array.make nb Expr.fls in
  for r = 0 to nb - 1 do
    if joins.(r) <> [] then begin
      (* [rc.(p) ∧ guard(p -> b)] for a predecessor [p] of the block [b]
         at preorder position [i]; a [p] outside the region is not
         reachable from [r]. *)
      let gated i b p =
        if pre.(p) < pre.(r) || pre.(p) > last.(r) then Expr.fls
        else if pre.(p) >= i then invalid_arg "Gating.join_gates: cyclic CFG"
        else Expr.and_ rc.(p) (edge_guard f p b)
      in
      let stop = List.fold_left (fun m b -> max m pre.(b)) (-1) joins.(r) in
      rc.(r) <- Expr.tru;
      for i = pre.(r) + 1 to stop - 1 do
        let x = order.(i) in
        rc.(x) <-
          List.fold_left
            (fun acc p -> Expr.or_ acc (gated i x p))
            Expr.fls (D.preds g x)
      done;
      List.iter
        (fun b ->
          gates.(b) <- List.map (fun p -> (p, gated pre.(b) b p)) (D.preds g b))
        joins.(r)
    end
  done;
  gates

let run (f : Func.t) =
  (* φs sit at the head of their block. *)
  let has_phi b =
    match (Func.block f b).Func.stmts with
    | { Stmt.kind = Stmt.Phi _; _ } :: _ -> true
    | _ -> false
  in
  let gates = join_gates ~only:has_phi f in
  Func.iter_blocks f (fun blk ->
      List.iter
        (fun s ->
          match s.Stmt.kind with
          | Stmt.Phi (_, args) ->
            List.iter
              (fun (a : Stmt.phi_arg) ->
                a.Stmt.gate <- List.assoc_opt a.Stmt.pred gates.(blk.Func.bid))
              args
          | _ -> ())
        blk.Func.stmts)
