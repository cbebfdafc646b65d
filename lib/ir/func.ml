type term = Jump of int | Br of Stmt.operand * int * int | Exit

type block = { bid : int; mutable stmts : Stmt.t list; mutable term : term }

type t = {
  fname : string;
  ordinal : int;
  mutable params : Var.t list;
  mutable ret_ty : Ty.t option;
  vgen : Var.gen;
  sgen : Pinpoint_util.Id_gen.t;
  mutable blocks : block array;
  mutable entry : int;
  mutable exit_ : int;
}

let create ~ordinal fname ~params ~ret_ty =
  let b0 = { bid = 0; stmts = []; term = Exit } in
  {
    fname;
    ordinal;
    params;
    ret_ty;
    vgen = Var.gen ~ordinal;
    sgen = Pinpoint_util.Id_gen.create ();
    blocks = [| b0 |];
    entry = 0;
    exit_ = 0;
  }

let add_block f =
  let bid = Array.length f.blocks in
  let b = { bid; stmts = []; term = Exit } in
  f.blocks <- Array.append f.blocks [| b |];
  b

let generation f = Var.generation f.vgen
let block f bid = f.blocks.(bid)
let n_blocks f = Array.length f.blocks
let set_term f bid t = f.blocks.(bid).term <- t

let append f bid s =
  let b = f.blocks.(bid) in
  b.stmts <- b.stmts @ [ s ]

let prepend_entry f s =
  let b = f.blocks.(f.entry) in
  let phis, rest =
    List.partition (fun st -> match st.Stmt.kind with Stmt.Phi _ -> true | _ -> false) b.stmts
  in
  b.stmts <- phis @ (s :: rest)

let succs = function Jump b -> [ b ] | Br (_, t, e) -> [ t; e ] | Exit -> []

let cfg f =
  let g = Pinpoint_util.Digraph.create ~initial_capacity:(n_blocks f) () in
  Pinpoint_util.Digraph.ensure_node g (n_blocks f - 1);
  Array.iter
    (fun b -> List.iter (fun s -> Pinpoint_util.Digraph.add_edge g b.bid s) (succs b.term))
    f.blocks;
  g

let iter_blocks f k = Array.iter k f.blocks
let iter_stmts f k = Array.iter (fun b -> List.iter (fun s -> k b s) b.stmts) f.blocks

let fold_stmts f ~init ~f:k =
  Array.fold_left
    (fun acc b -> List.fold_left (fun acc s -> k acc b s) acc b.stmts)
    init f.blocks

exception Found

let find_stmt f sid =
  let found = ref None in
  (try
     iter_stmts f (fun b s ->
         if s.Stmt.sid = sid then begin
           found := Some (b, s);
           raise Found
         end)
   with Found -> ());
  !found

let return_stmt f =
  List.find_opt
    (fun s -> match s.Stmt.kind with Stmt.Return _ -> true | _ -> false)
    f.blocks.(f.exit_).stmts

let n_stmts f = fold_stmts f ~init:0 ~f:(fun n _ _ -> n + 1)

let def_table f =
  let tbl = Var.Tbl.create 64 in
  iter_stmts f (fun _ s -> List.iter (fun v -> Var.Tbl.replace tbl v s) (Stmt.def s));
  tbl

let block_of_stmt f =
  let tbl : (int, int) Hashtbl.t = Hashtbl.create 64 in
  iter_stmts f (fun b s -> Hashtbl.replace tbl s.Stmt.sid b.bid);
  tbl

let reaches f sid1 sid2 =
  let b_of = block_of_stmt f in
  match (Hashtbl.find_opt b_of sid1, Hashtbl.find_opt b_of sid2) with
  | Some b1, Some b2 ->
    if b1 = b2 then begin
      (* same block: program order *)
      let pos s =
        let rec go i = function
          | [] -> -1
          | x :: rest -> if x.Stmt.sid = s then i else go (i + 1) rest
        in
        go 0 f.blocks.(b1).stmts
      in
      pos sid1 <= pos sid2
    end
    else begin
      let g = cfg f in
      let reach = Pinpoint_util.Digraph.reachable g b1 in
      b2 < Array.length reach && reach.(b2)
    end
  | _ -> false

let validate f =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let n = n_blocks f in
  let ok = ref (Ok ()) in
  let check_target t = if t < 0 || t >= n then ok := err "bad terminator target %d" t in
  Array.iter
    (fun b ->
      (match b.term with
      | Jump t -> check_target t
      | Br (_, t, e) ->
        check_target t;
        check_target e
      | Exit -> if b.bid <> f.exit_ then ok := err "Exit terminator outside exit block %d" b.bid);
      (* φs only at block head *)
      let seen_non_phi = ref false in
      List.iter
        (fun s ->
          match s.Stmt.kind with
          | Stmt.Phi _ -> if !seen_non_phi then ok := err "phi after non-phi in block %d" b.bid
          | _ -> seen_non_phi := true)
        b.stmts)
    f.blocks;
  (* single def per var *)
  let defs = Var.Tbl.create 64 in
  iter_stmts f (fun _ s ->
      List.iter
        (fun v ->
          if Var.Tbl.mem defs v then ok := err "variable %s defined twice" v.Var.name
          else Var.Tbl.add defs v ())
        (Stmt.def s));
  (match f.ret_ty with
  | Some _ -> if return_stmt f = None then ok := err "missing return in exit block"
  | None -> ());
  !ok

let pp ppf f =
  Format.fprintf ppf "function %s(%a)%s {@." f.fname
    (Pinpoint_util.Pp.list (fun ppf v ->
         Format.fprintf ppf "%a %a" Ty.pp v.Var.ty Var.pp v))
    f.params
    (match f.ret_ty with
    | None -> ""
    | Some t -> Printf.sprintf " : %s" (Ty.to_string t));
  Array.iter
    (fun b ->
      Format.fprintf ppf "  b%d%s:@." b.bid
        (if b.bid = f.entry then " (entry)" else if b.bid = f.exit_ then " (exit)" else "");
      List.iter (fun s -> Format.fprintf ppf "    s%d: %a@." s.Stmt.sid Stmt.pp s) b.stmts;
      match b.term with
      | Jump t -> Format.fprintf ppf "    jump b%d@." t
      | Br (c, t, e) ->
        Format.fprintf ppf "    br %a ? b%d : b%d@." Stmt.pp_operand c t e
      | Exit -> Format.fprintf ppf "    exit@.")
    f.blocks;
  Format.fprintf ppf "}@."

let dot f =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n  node [shape=box];\n" f.fname);
  Array.iter
    (fun b ->
      let label =
        String.concat "\\l"
          (Printf.sprintf "b%d" b.bid
          :: List.map (fun s -> Pinpoint_util.Pp.to_string Stmt.pp s) b.stmts)
      in
      Buffer.add_string buf
        (Printf.sprintf "  b%d [label=\"%s\\l\"];\n" b.bid (Pinpoint_util.Pp.quote label));
      List.iter
        (fun s -> Buffer.add_string buf (Printf.sprintf "  b%d -> b%d;\n" b.bid s))
        (succs b.term))
    f.blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
