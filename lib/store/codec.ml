open Pinpoint_ir
module E = Pinpoint_smt.Expr
module Sym = Pinpoint_smt.Symbol
module Pta = Pinpoint_pta.Pta
module Seg = Pinpoint_seg.Seg
module Rv = Pinpoint_summary.Rv
module Vf = Pinpoint_summary.Vf

type env = {
  funcs : (string, Func.t) Hashtbl.t;
  first_gen : (int, int) Hashtbl.t;
      (* ordinal -> the generation of the first function registered there;
         symbols store their generation relative to it *)
  expr_bank : (int, int * int) Hashtbl.t; (* expr id -> blob extent *)
  expr_cache : (int, E.t) Hashtbl.t;      (* blob offset -> decoded expr *)
  rows : Intern.t;
  mutable expr_hits : int;
  mutable expr_misses : int;
  append : bytes -> int;
  fetch : off:int -> len:int -> bytes;
}

type stats = { row : Intern.stats; expr_hits : int; expr_misses : int }

let create_env ~append ~fetch =
  {
    funcs = Hashtbl.create 256;
    first_gen = Hashtbl.create 256;
    expr_bank = Hashtbl.create 4096;
    expr_cache = Hashtbl.create 4096;
    rows = Intern.create ();
    expr_hits = 0;
    expr_misses = 0;
    append;
    fetch;
  }

let register_func env (f : Func.t) =
  Hashtbl.replace env.funcs f.Func.fname f;
  if not (Hashtbl.mem env.first_gen f.Func.ordinal) then
    Hashtbl.add env.first_gen f.Func.ordinal (Func.generation f)

let stats env =
  { row = Intern.stats env.rows; expr_hits = env.expr_hits; expr_misses = env.expr_misses }

let func_of env fname =
  match Hashtbl.find_opt env.funcs fname with
  | Some f -> f
  | None -> invalid_arg ("Codec: unregistered function " ^ fname)

(* A variable is stored as its vid and decodes to the resident [Var.t]
   of the function registered under its name. *)
let var_of env fname vid = Var.of_vid (func_of env fname).Func.vgen vid

(* --- formulas ------------------------------------------------------ *)

(* A symbol is stored by its place, never by its id: a program variable
   as its function's ordinal, its generation relative to the first one
   registered there, and its vid with its sort; a clone as its base and
   its tag.  So the bytes depend on the program alone. *)
let rec enc_sym env a (s : Sym.t) =
  match Sym.origin s with
  | Sym.Place { ordinal; generation; vid } ->
    let sort = if Sym.sort s = Sym.Int then 1 else 0 in
    let generation = generation - Hashtbl.find env.first_gen ordinal in
    List.iter (Arena.push a) [ 0; ordinal; generation; (vid lsl 1) lor sort ]
  | Sym.Clone (base, tag) ->
    Arena.push a 1;
    enc_sym env a base;
    Arena.push_str a tag
  | Sym.Fresh -> invalid_arg "Codec: a fresh symbol has no place"

let rec dec_sym env c : Sym.t =
  match Arena.read c with
  | 0 ->
    let ordinal = Arena.read c in
    let generation = Hashtbl.find env.first_gen ordinal + Arena.read c in
    let v = Arena.read c in
    Sym.of_place ~ordinal ~generation ~vid:(v lsr 1)
      (if v land 1 = 1 then Sym.Int else Sym.Bool)
  | _ ->
    let base = dec_sym env c in
    Sym.clone base (Arena.read_str c)

(* A banked formula is one record: its node DAG in dependency order,
   children as local indices.  Bottom-up re-interning through
   [E.of_node] returns the canonical hash-consed nodes, so decode(encode
   e) == e (physical equality). *)

let enc_expr_record env (e : E.t) : bytes =
  let a = Arena.create () in
  let memo = Hashtbl.create 16 in
  let count = ref 0 in
  let rec node_of (e : E.t) : int =
    match Hashtbl.find_opt memo e.E.id with
    | Some idx -> idx
    | None ->
      (* children first: every child index is below the node's own *)
      let payload =
        match e.E.node with
        | E.True -> `T 0
        | E.False -> `T 1
        | E.Int v -> `I (2, v)
        | E.Var s -> `S s
        | E.Not c -> `U (4, node_of c)
        | E.And (x, y) -> `B (5, node_of x, node_of y)
        | E.Or (x, y) -> `B (6, node_of x, node_of y)
        | E.Eq (x, y) -> `B (7, node_of x, node_of y)
        | E.Ne (x, y) -> `B (8, node_of x, node_of y)
        | E.Lt (x, y) -> `B (9, node_of x, node_of y)
        | E.Le (x, y) -> `B (10, node_of x, node_of y)
        | E.Add (x, y) -> `B (11, node_of x, node_of y)
        | E.Sub (x, y) -> `B (12, node_of x, node_of y)
        | E.Mul (x, y) -> `B (13, node_of x, node_of y)
        | E.Neg c -> `U (14, node_of c)
      in
      (match payload with
      | `T tag -> Arena.push a tag
      | `I (tag, v) ->
        Arena.push a tag;
        Arena.push a v
      | `S s ->
        Arena.push a 3;
        enc_sym env a s
      | `U (tag, c) ->
        Arena.push a tag;
        Arena.push a c
      | `B (tag, x, y) ->
        Arena.push a tag;
        Arena.push a x;
        Arena.push a y);
      let idx = !count in
      incr count;
      Hashtbl.replace memo e.E.id idx;
      idx
  in
  ignore (node_of e);
  Arena.to_bytes a

let dec_expr_record env (b : bytes) : E.t =
  let c = Arena.of_bytes b in
  let nodes = ref [] in
  let n = ref 0 in
  let arr = Array.make 16 E.tru in
  let grown = ref arr in
  let get i = !grown.(i) in
  let add e =
    if !n = Array.length !grown then begin
      let bigger = Array.make (2 * !n) E.tru in
      Array.blit !grown 0 bigger 0 !n;
      grown := bigger
    end;
    !grown.(!n) <- e;
    incr n
  in
  ignore nodes;
  while not (Arena.at_end c) do
    let tag = Arena.read c in
    let e =
      match tag with
      | 0 -> E.tru
      | 1 -> E.fls
      | 2 -> E.of_node (E.Int (Arena.read c))
      | 3 -> E.of_node (E.Var (dec_sym env c))
      | 4 -> E.of_node (E.Not (get (Arena.read c)))
      | 5 ->
        let x = get (Arena.read c) in
        E.of_node (E.And (x, get (Arena.read c)))
      | 6 ->
        let x = get (Arena.read c) in
        E.of_node (E.Or (x, get (Arena.read c)))
      | 7 ->
        let x = get (Arena.read c) in
        E.of_node (E.Eq (x, get (Arena.read c)))
      | 8 ->
        let x = get (Arena.read c) in
        E.of_node (E.Ne (x, get (Arena.read c)))
      | 9 ->
        let x = get (Arena.read c) in
        E.of_node (E.Lt (x, get (Arena.read c)))
      | 10 ->
        let x = get (Arena.read c) in
        E.of_node (E.Le (x, get (Arena.read c)))
      | 11 ->
        let x = get (Arena.read c) in
        E.of_node (E.Add (x, get (Arena.read c)))
      | 12 ->
        let x = get (Arena.read c) in
        E.of_node (E.Sub (x, get (Arena.read c)))
      | 13 ->
        let x = get (Arena.read c) in
        E.of_node (E.Mul (x, get (Arena.read c)))
      | 14 -> E.of_node (E.Neg (get (Arena.read c)))
      | t -> invalid_arg (Printf.sprintf "Codec: bad expr tag %d" t)
    in
    add e
  done;
  if !n = 0 then invalid_arg "Codec: empty expr record";
  get (!n - 1)

(* Inline form inside arenas: trivial formulas — constants and program
   variables — are stored in place, anything else (a clone too, whose tag
   is a string) as a banked extent (memoized per hash-cons id). *)
let enc_expr env a (e : E.t) =
  match e.E.node with
  | E.True -> Arena.push a 0
  | E.False -> Arena.push a 1
  | E.Int v ->
    Arena.push a 2;
    Arena.push a v
  | E.Var s when (match Sym.origin s with Sym.Place _ -> true | _ -> false) ->
    Arena.push a 3;
    enc_sym env a s
  | _ ->
    let off, len =
      match Hashtbl.find_opt env.expr_bank e.E.id with
      | Some extent ->
        env.expr_hits <- env.expr_hits + 1;
        extent
      | None ->
        let b = enc_expr_record env e in
        let off = env.append b in
        let extent = (off, Bytes.length b) in
        env.expr_misses <- env.expr_misses + 1;
        Hashtbl.replace env.expr_bank e.E.id extent;
        extent
    in
    Arena.push a 4;
    Arena.push a off;
    Arena.push a len

let dec_expr env c =
  match Arena.read c with
  | 0 -> E.tru
  | 1 -> E.fls
  | 2 -> E.of_node (E.Int (Arena.read c))
  | 3 -> E.of_node (E.Var (dec_sym env c))
  | 4 -> (
    let off = Arena.read c in
    let len = Arena.read c in
    match Hashtbl.find_opt env.expr_cache off with
    | Some e -> e
    | None ->
      let e = dec_expr_record env (env.fetch ~off ~len) in
      Hashtbl.replace env.expr_cache off e;
      e)
  | t -> invalid_arg (Printf.sprintf "Codec: bad inline expr tag %d" t)

(* --- small pieces --------------------------------------------------- *)

let enc_operand a (o : Stmt.operand) =
  match o with
  | Stmt.Ovar v ->
    Arena.push a 0;
    Arena.push a v.Var.vid
  | Stmt.Oint v ->
    Arena.push a 1;
    Arena.push a v
  | Stmt.Obool b ->
    Arena.push a 2;
    Arena.push a (if b then 1 else 0)
  | Stmt.Onull -> Arena.push a 3

let dec_operand env fname c : Stmt.operand =
  match Arena.read c with
  | 0 -> Stmt.Ovar (var_of env fname (Arena.read c))
  | 1 -> Stmt.Oint (Arena.read c)
  | 2 -> Stmt.Obool (Arena.read c <> 0)
  | 3 -> Stmt.Onull
  | t -> invalid_arg (Printf.sprintf "Codec: bad operand tag %d" t)

(* A row: a standalone arena serialised and interned by content.  Rows
   never contain strings (extents, vids, sids, tags and program-variable
   symbols only), so identical structure means identical bytes. *)
let put_row env (a : Arena.t) : int * int =
  Intern.put env.rows ~append:env.append (Arena.to_bytes a)

let fetch_row env ~off ~len = Arena.of_bytes (env.fetch ~off ~len)

(* --- SEG artifacts -------------------------------------------------- *)

(* Each keyed row as its key and extent, in the order given. *)
let push_rows a rows =
  Arena.push_list a
    (fun (key, (off, len)) ->
      Arena.push a key;
      Arena.push a off;
      Arena.push a len)
    rows

let read_rows env c dec_row =
  Arena.read_list c (fun c ->
      let key = Arena.read c in
      let off = Arena.read c in
      let len = Arena.read c in
      (key, dec_row (fetch_row env ~off ~len)))

(* A SEG is stored as its load rows (one per load sid: each points-to
   entry's stored value, condition and storing sid), its adjacency rows
   (one per variable) and its use list. *)
let enc_seg env (seg : Seg.t) : bytes =
  let fname = (Seg.func seg).Func.fname in
  let a = Arena.create ~cap:256 () in
  Arena.push_str a fname;
  Arena.push a (Seg.n_control_edges seg);
  push_rows a
    (List.map
       (fun (sid, entries) ->
         let row = Arena.create () in
         Arena.push_list row
           (fun (e : Pta.entry) ->
             enc_operand row e.Pta.value;
             enc_expr env row e.Pta.cond;
             Arena.push row e.Pta.store_sid)
           entries;
         (sid, put_row env row))
       (Seg.loads seg));
  let adj_rows fold =
    fold ~init:[] ~f:(fun acc (v : Var.t) (es : Seg.edge list) ->
        let row = Arena.create () in
        Arena.push_list row
          (fun (e : Seg.edge) ->
            Arena.push row e.Seg.dst.Var.vid;
            Arena.push row (match e.Seg.kind with Seg.Copy -> 0 | Seg.Operand -> 1);
            enc_expr env row e.Seg.cond)
          es;
        (v.Var.vid, put_row env row) :: acc)
  in
  push_rows a (adj_rows (Seg.fold_succs seg));
  push_rows a (adj_rows (Seg.fold_preds seg));
  Arena.push_list a
    (fun (u : Seg.use) ->
      Arena.push a u.Seg.uvar.Var.vid;
      Arena.push a u.Seg.sid;
      match u.Seg.ukind with
      | Seg.Deref k ->
        Arena.push a 0;
        Arena.push a k
      | Seg.Call_arg { callee; arg_index } ->
        Arena.push a 1;
        Arena.push_str a callee;
        Arena.push a arg_index
      | Seg.Ret_op i ->
        Arena.push a 2;
        Arena.push a i)
    (Seg.uses seg);
  Arena.to_bytes a

let dec_seg env (b : bytes) : Seg.t =
  let c = Arena.of_bytes b in
  let fname = Arena.read_str c in
  let func = func_of env fname in
  let n_control_edges = Arena.read c in
  let loads =
    read_rows env c (fun row ->
        Arena.read_list row (fun row ->
            let value = dec_operand env fname row in
            let cond = dec_expr env row in
            let store_sid = Arena.read row in
            { Pta.value; cond; store_sid }))
  in
  let dec_adj () =
    List.map
      (fun (vid, es) -> (var_of env fname vid, es))
      (read_rows env c (fun row ->
           Arena.read_list row (fun row ->
               let dst = var_of env fname (Arena.read row) in
               let kind = if Arena.read row = 0 then Seg.Copy else Seg.Operand in
               let cond = dec_expr env row in
               { Seg.dst; cond; kind })))
  in
  let succs = dec_adj () in
  let preds = dec_adj () in
  let uses =
    Arena.read_list c (fun c ->
        let uvar = var_of env fname (Arena.read c) in
        let sid = Arena.read c in
        let ukind =
          match Arena.read c with
          | 0 -> Seg.Deref (Arena.read c)
          | 1 ->
            let callee = Arena.read_str c in
            let arg_index = Arena.read c in
            Seg.Call_arg { callee; arg_index }
          | 2 -> Seg.Ret_op (Arena.read c)
          | t -> invalid_arg (Printf.sprintf "Codec: bad ukind tag %d" t)
        in
        { Seg.uvar; sid; ukind })
  in
  Seg.of_parts ~func ~loads ~succs ~preds ~uses ~n_control_edges

(* --- RV artifacts --------------------------------------------------- *)

let enc_rv env fname (entries : Rv.entry option array) : bytes =
  let a = Arena.create () in
  Arena.push_str a fname;
  Arena.push a (Array.length entries);
  Array.iter
    (function
      | None -> Arena.push a 0
      | Some (e : Rv.entry) ->
        Arena.push a 1;
        Arena.push a e.Rv.var.Var.vid;
        enc_expr env a e.Rv.closed;
        Arena.push_list a
          (fun (p : Var.t) -> Arena.push a p.Var.vid)
          (Var.Set.elements e.Rv.params))
    entries;
  Arena.to_bytes a

let dec_rv env (b : bytes) : Rv.entry option array =
  let c = Arena.of_bytes b in
  let fname = Arena.read_str c in
  let n = Arena.read c in
  let out = Array.make n None in
  for i = 0 to n - 1 do
    match Arena.read c with
    | 0 -> ()
    | _ ->
      let var = var_of env fname (Arena.read c) in
      let closed = dec_expr env c in
      let params =
        Arena.read_list c (fun c -> var_of env fname (Arena.read c))
        |> List.fold_left (fun acc v -> Var.Set.add v acc) Var.Set.empty
      in
      out.(i) <- Some { Rv.var; closed; params }
  done;
  out

(* --- VF artifacts --------------------------------------------------- *)

let enc_vf _env (vf : Vf.t) : bytes =
  let a = Arena.create () in
  let entries =
    Vf.fold vf ~init:[] ~f:(fun acc name s -> (name, s) :: acc)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Arena.push_list a
    (fun (name, (s : Vf.fsum)) ->
      Arena.push_str a name;
      Arena.push_list a
        (fun (i, j) ->
          Arena.push a i;
          Arena.push a j)
        s.Vf.vf1;
      let push_ints = Arena.push_list a (Arena.push a) in
      push_ints s.Vf.vf2;
      push_ints s.Vf.vf3;
      push_ints s.Vf.vf4)
    entries;
  Arena.to_bytes a

let dec_vf _env (b : bytes) : Vf.t =
  let c = Arena.of_bytes b in
  let vf = Vf.empty () in
  let entries =
    Arena.read_list c (fun c ->
        let name = Arena.read_str c in
        let vf1 =
          Arena.read_list c (fun c ->
              let i = Arena.read c in
              let j = Arena.read c in
              (i, j))
        in
        let read_ints () = Arena.read_list c Arena.read in
        let vf2 = read_ints () in
        let vf3 = read_ints () in
        let vf4 = read_ints () in
        (name, { Vf.vf1; vf2; vf3; vf4 }))
  in
  List.iter (fun (name, s) -> Vf.add vf name s) entries;
  vf
