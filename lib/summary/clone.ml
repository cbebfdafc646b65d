module E = Pinpoint_smt.Expr
module Sym = Pinpoint_smt.Symbol

type t = { tag : string; tbl : (Sym.t, E.t) Hashtbl.t }

let create tag = { tag; tbl = Hashtbl.create 32 }

let bind t sym e = Hashtbl.replace t.tbl sym e

(* An unbound symbol's clone is interned by (symbol, tag) ({!Sym.clone}),
   so frames with one tag share it; why that is sound is in clone.mli. *)
let lookup t sym =
  match Hashtbl.find_opt t.tbl sym with
  | Some e -> e
  | None ->
    let e = E.var (Sym.clone sym t.tag) in
    Hashtbl.replace t.tbl sym e;
    e

let subst t e = E.subst (fun sym -> Some (lookup t sym)) e

let subst_var t v = lookup t (Pinpoint_ir.Var.symbol v)
