module E = Pinpoint_smt.Expr
module Sym = Pinpoint_smt.Symbol

type t = { tag : string; tbl : (Sym.t, E.t) Hashtbl.t }

let create tag = { tag; tbl = Hashtbl.create 32 }

let bind t sym e = Hashtbl.replace t.tbl sym e

(* Unbound-fallback clones are interned process-wide by (base symbol, tag):
   two frames carrying the same tag — e.g. the summary-closing frame of one
   call site reached from different paths, or a rebuilt path-condition
   frame — mint the same clone symbol instead of gensym-fresh ones.  This
   makes closed summaries and path conditions deterministic functions of
   the path structure, so they are structurally identical across runs,
   across [--jobs] levels, and between served and batch runs.  Sound
   because a tag is never shared by two distinct substitution contexts
   (summary frames embed the call-site id; path-condition frames embed a
   per-condition counter), and [bind]ings stay per-frame, never interned.
   The table never shrinks: a re-lowered function's fresh symbols add
   fresh entries, and the old ones stay. *)
let intern_lock = Mutex.create ()
let interned : (Sym.t * string, Sym.t) Hashtbl.t = Hashtbl.create 256

let clone_sym tag sym =
  let key = (sym, tag) in
  Mutex.protect intern_lock (fun () ->
      match Hashtbl.find_opt interned key with
      | Some c -> c
      | None ->
        let c = Sym.clone sym tag in
        Hashtbl.add interned key c;
        c)

let lookup t sym =
  match Hashtbl.find_opt t.tbl sym with
  | Some e -> e
  | None ->
    let e = E.var (clone_sym t.tag sym) in
    Hashtbl.replace t.tbl sym e;
    e

let subst t e = E.subst (fun sym -> Some (lookup t sym)) e

let subst_var t v = lookup t (Pinpoint_ir.Var.symbol v)
