type t = {
  mutable funcs : Func.t list;
  by_name : (string, Func.t) Hashtbl.t;
  unit_of : (string, string) Hashtbl.t;
}

let create () =
  { funcs = []; by_name = Hashtbl.create 64; unit_of = Hashtbl.create 64 }

let add t ?(unit_name = "main") f =
  if Hashtbl.mem t.by_name f.Func.fname then
    invalid_arg (Printf.sprintf "Prog.add: duplicate function %s" f.Func.fname);
  Hashtbl.add t.by_name f.Func.fname f;
  Hashtbl.add t.unit_of f.Func.fname unit_name;
  t.funcs <- t.funcs @ [ f ]

let find t name = Hashtbl.find_opt t.by_name name
let functions t = t.funcs

let unit_name t fname =
  match Hashtbl.find_opt t.unit_of fname with Some u -> u | None -> "main"

let intrinsics =
  [
    "malloc"; "free"; "print"; "fgetc"; "getpass"; "fopen"; "sendto"; "memset";
    "memcpy"; "input"; "output"; "use";
  ]

let is_intrinsic name = List.mem name intrinsics
let is_defined t name = Hashtbl.mem t.by_name name

let call_graph t =
  let funcs = Array.of_list t.funcs in
  let index = Hashtbl.create 64 in
  Array.iteri (fun i f -> Hashtbl.replace index f.Func.fname i) funcs;
  let g = Pinpoint_util.Digraph.create ~initial_capacity:(Array.length funcs) () in
  if Array.length funcs > 0 then
    Pinpoint_util.Digraph.ensure_node g (Array.length funcs - 1);
  Array.iteri
    (fun i f ->
      Func.iter_stmts f (fun _ s ->
          match s.Stmt.kind with
          | Stmt.Call c -> (
            match Hashtbl.find_opt index c.Stmt.callee with
            | Some j -> Pinpoint_util.Digraph.add_edge g i j
            | None -> ())
          | _ -> ()))
    funcs;
  (g, funcs)

let bottom_up_sccs t =
  let g, funcs = call_graph t in
  if Array.length funcs = 0 then []
  else
    Pinpoint_util.Digraph.sccs g
    |> List.map (fun comp -> List.map (fun i -> funcs.(i)) comp)

let n_stmts t = List.fold_left (fun acc f -> acc + Func.n_stmts f) 0 t.funcs

let loc_estimate t =
  List.fold_left (fun acc f -> acc + Func.n_stmts f + 2) 0 t.funcs

let validate t =
  let rec go = function
    | [] -> Ok ()
    | f :: rest -> (
      match Func.validate f with
      | Ok () -> go rest
      | Error e -> Error (Printf.sprintf "%s: %s" f.Func.fname e))
  in
  go t.funcs

let pp ppf t = List.iter (fun f -> Func.pp ppf f) t.funcs
