(* The editable serve subject: a generated program split into files of
   consecutive functions, with a deterministic constant-flip edit and
   re-emission of an edited file to source. *)

module Ast = Pinpoint_frontend.Ast
module Parser = Pinpoint_frontend.Parser

type t = (string * Ast.fdecl list) array  (** file name, its functions *)

let emit fds =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let current = ref "" in
  List.iter
    (fun (fd : Ast.fdecl) ->
      if fd.Ast.unit_name <> !current then begin
        Format.fprintf ppf "unit %S;@.@." fd.Ast.unit_name;
        current := fd.Ast.unit_name
      end;
      Format.fprintf ppf "%a@." Ast.pp_fdecl fd)
    fds;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* Split [src] into [n_files] files of consecutive functions, named by
   [name i]. *)
let split ~n_files ~name src : t =
  let fds = (Parser.parse_string ~file:"<gen>" src).Ast.funcs in
  let per = max 1 ((List.length fds + n_files - 1) / n_files) in
  let files = Array.make n_files [] in
  List.iteri
    (fun i fd ->
      let f = min (n_files - 1) (i / per) in
      files.(f) <- fd :: files.(f))
    fds;
  Array.mapi (fun i fds -> (name i, List.rev fds)) files

let n_functions (t : t) = Array.fold_left (fun n (_, fds) -> n + List.length fds) 0 t
let file (t : t) i = (fst t.(i), emit (snd t.(i)))
let contents (t : t) = List.init (Array.length t) (file t)

let rec bump_expr found (e : Ast.expr) =
  let node =
    match e.Ast.enode with
    | Ast.Eint n when not !found ->
      found := true;
      Ast.Eint (n + 1)
    | (Ast.Eint _ | Ast.Ebool _ | Ast.Enull | Ast.Evar _ | Ast.Emalloc) as n -> n
    | Ast.Ederef (a, k) -> Ast.Ederef (bump_expr found a, k)
    | Ast.Ebin (op, a, b) ->
      let a = bump_expr found a in
      Ast.Ebin (op, a, bump_expr found b)
    | Ast.Eun (op, a) -> Ast.Eun (op, bump_expr found a)
    | Ast.Ecall (f, args) -> Ast.Ecall (f, List.map (bump_expr found) args)
    | Ast.Evcall (f, args) -> Ast.Evcall (f, List.map (bump_expr found) args)
  in
  { e with Ast.enode = node }

let rec bump_stmt found (s : Ast.stmt) =
  let node =
    match s.Ast.snode with
    | Ast.Sdecl (t, x, e) -> Ast.Sdecl (t, x, Option.map (bump_expr found) e)
    | Ast.Sassign (x, e) -> Ast.Sassign (x, bump_expr found e)
    | Ast.Sstore (k, x, e) -> Ast.Sstore (k, x, bump_expr found e)
    | Ast.Sif (c, a, b) ->
      let c = bump_expr found c in
      let a = bump_stmt found a in
      Ast.Sif (c, a, Option.map (bump_stmt found) b)
    | Ast.Swhile (c, b) ->
      let c = bump_expr found c in
      Ast.Swhile (c, bump_stmt found b)
    | Ast.Sreturn e -> Ast.Sreturn (Option.map (bump_expr found) e)
    | Ast.Sexpr e -> Ast.Sexpr (bump_expr found e)
    | Ast.Sblock ss -> Ast.Sblock (List.map (bump_stmt found) ss)
  in
  { s with Ast.snode = node }

(* The [k]-th edit: in file [k mod n_files], add one to the first integer
   literal of the function at position [k / n_files] (cyclically), moving
   on to the next function when that one has no literal.  Returns the
   index of the edited file, or [None] when the file has no literal at
   all. *)
let bump (t : t) k =
  let i = k mod Array.length t in
  let name, fds = t.(i) in
  let fds = Array.of_list fds in
  let n = Array.length fds in
  let rec try_from tries =
    if tries >= n then None
    else
      let j = ((k / Array.length t) + tries) mod n in
      let found = ref false in
      let body = bump_stmt found fds.(j).Ast.body in
      if !found then begin
        fds.(j) <- { (fds.(j)) with Ast.body };
        t.(i) <- (name, Array.to_list fds);
        Some i
      end
      else try_from (tries + 1)
  in
  try_from 0
