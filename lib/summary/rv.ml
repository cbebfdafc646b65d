open Pinpoint_ir
module E = Pinpoint_smt.Expr
module Seg = Pinpoint_seg.Seg

type entry = { var : Var.t; closed : E.t; params : Var.Set.t }

type t = {
  prog : Prog.t;  (* callee formals are read off its IR *)
  find : string -> entry option array option;
}

let max_close_depth = 6
let max_summary_size = 4000
let create ~find prog = { prog; find }
let find t name = t.find name

(* Close a constraint: resolve its receiver dependences with callee RV
   summaries, cloning callee symbols and binding callee formals to actual
   terms; recursively pull in the data dependence of those actuals.
   [lookup] abstracts the summary table: during the bottom-up sweep it
   reads the SCC's own overlay, then the shared table, at engine
   time it is {!find}.  Callee formals come from the IR, so closing never
   needs a callee's SEG. *)
let rec close_cres t ~lookup (seg : Seg.t) depth (cres : Seg.cres) :
    E.t * Var.Set.t =
  if depth <= 0 then (cres.Seg.f, cres.Seg.params)
  else begin
    let acc_f = ref cres.Seg.f in
    let acc_p = ref cres.Seg.params in
    List.iter
      (fun (r : Seg.recv_dep) ->
        match lookup r.Seg.callee with
        | Some entries
          when r.Seg.ret_index >= 0 && r.Seg.ret_index < Array.length entries -> (
          match entries.(r.Seg.ret_index) with
          | Some sum ->
            let frame =
              Clone.create (Printf.sprintf "%s_s%d" r.Seg.callee r.Seg.call_sid)
            in
            (* ① the receiver equals the returned value *)
            Clone.bind frame (Var.symbol sum.var) (Var.term r.Seg.rvar);
            (* ③ callee formals are the actual terms *)
            (match Prog.find t.prog r.Seg.callee with
            | Some callee ->
              List.iteri
                (fun i (p : Var.t) ->
                  if Var.Set.mem p sum.params then
                    match List.nth_opt r.Seg.args i with
                    | Some actual ->
                      Clone.bind frame (Var.symbol p) (Stmt.operand_term actual);
                      (* pull in the actual's own data dependence *)
                      (match actual with
                      | Stmt.Ovar av ->
                        let f', p' =
                          close_cres t ~lookup seg (depth - 1) (Seg.dd seg av)
                        in
                        acc_f := E.and_ !acc_f f';
                        acc_p := Var.Set.union !acc_p p'
                      | _ -> ())
                    | None -> ())
                callee.Func.params
            | None -> ());
            (* ② the callee's closed range constraint, cloned *)
            acc_f := E.and_ !acc_f (Clone.subst frame sum.closed)
          | None -> ())
        | _ -> () (* unknown callee / SCC-internal: receiver stays free *))
      cres.Seg.recvs;
    if E.size !acc_f > max_summary_size then (cres.Seg.f, cres.Seg.params)
    else (!acc_f, !acc_p)
  end

let close t seg ?(depth = max_close_depth) cres =
  close_cres t ~lookup:(find t) seg depth cres

let summarise t ~lookup seg =
  match Func.return_stmt (Seg.func seg) with
  | Some { Stmt.kind = Stmt.Return ops; _ } ->
    Array.of_list
      (List.map
         (function
           | Stmt.Ovar v ->
             let closed, params =
               close_cres t ~lookup seg max_close_depth (Seg.dd seg v)
             in
             let closed =
               if E.size closed > max_summary_size then E.tru else closed
             in
             Some { var = v; closed; params }
           | _ -> None)
         ops)
  | _ -> [||]

(* Equality modulo renaming (DESIGN.md §4.13).  A re-lowered function is
   a new generation of symbols, and distinct symbols may share a name, so
   entries compare under one symbol bijection for the whole array: seeded
   with the formals by position and with each entry's [var], extended at
   every symbol pair the walk meets, and requiring equal names and sorts.
   The walk goes over both formulas in lockstep, memoised on node pairs:
   formulas are hash-consed DAGs, and a tree walk could blow up. *)
let equal_entries ((f : Func.t), (a : entry option array))
    ((g : Func.t), (b : entry option array)) =
  let fwd = Hashtbl.create 64 and bwd = Hashtbl.create 64 in
  let pair x y =
    match (Hashtbl.find_opt fwd x, Hashtbl.find_opt bwd y) with
    | Some y', _ -> y' = y
    | None, Some _ -> false
    | None, None ->
      Pinpoint_smt.Symbol.name x = Pinpoint_smt.Symbol.name y
      && Pinpoint_smt.Symbol.sort x = Pinpoint_smt.Symbol.sort y
      && begin
           Hashtbl.add fwd x y;
           Hashtbl.add bwd y x;
           true
         end
  in
  let var (v : Var.t) (w : Var.t) = pair (Var.symbol v) (Var.symbol w) in
  let walked = Hashtbl.create 256 in
  let rec expr (x : E.t) (y : E.t) =
    Hashtbl.mem walked (x.E.id, y.E.id)
    || (match (x.E.node, y.E.node) with
       | E.True, E.True | E.False, E.False -> true
       | E.Int n, E.Int m -> n = m
       | E.Var s, E.Var t -> pair s t
       | E.Not x1, E.Not y1 | E.Neg x1, E.Neg y1 -> expr x1 y1
       | E.And (x1, x2), E.And (y1, y2)
       | E.Or (x1, x2), E.Or (y1, y2)
       | E.Eq (x1, x2), E.Eq (y1, y2)
       | E.Ne (x1, x2), E.Ne (y1, y2)
       | E.Lt (x1, x2), E.Lt (y1, y2)
       | E.Le (x1, x2), E.Le (y1, y2)
       | E.Add (x1, x2), E.Add (y1, y2)
       | E.Sub (x1, x2), E.Sub (y1, y2)
       | E.Mul (x1, x2), E.Mul (y1, y2) ->
         expr x1 y1 && expr x2 y2
       | _ -> false)
       && begin
            Hashtbl.add walked (x.E.id, y.E.id) ();
            true
          end
  in
  let positions (h : Func.t) set =
    List.concat
      (List.mapi (fun i p -> if Var.Set.mem p set then [ i ] else []) h.Func.params)
  in
  let entry (x : entry) (y : entry) =
    var x.var y.var
    && positions f x.params = positions g y.params
    && expr x.closed y.closed
  in
  Array.length a = Array.length b
  && List.compare_lengths f.Func.params g.Func.params = 0
  && List.for_all2 var f.Func.params g.Func.params
  && Array.for_all2 (Option.equal entry) a b
