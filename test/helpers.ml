(* Shared helpers for the test suite. *)

let compile src = Pinpoint_frontend.Lower.compile_string ~file:"<test>" src

let prepare src = Pinpoint.Analysis.prepare_source ~file:"<test>" src

let func prog name =
  match Pinpoint_ir.Prog.find prog name with
  | Some f -> f
  | None -> Alcotest.failf "function %s not found" name

let run_checker ?config src spec =
  let a = prepare src in
  let reports, _ = Pinpoint.Analysis.check ?config a spec in
  reports

let reported ?config src spec =
  List.filter Pinpoint.Report.is_reported (run_checker ?config src spec)

let n_reported ?config src spec = List.length (reported ?config src spec)

let uaf = Pinpoint.Checkers.use_after_free
let dfree = Pinpoint.Checkers.double_free
let taint_path = Pinpoint.Checkers.path_traversal
let taint_trans = Pinpoint.Checkers.data_transmission

(* qcheck wrapper *)
let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Run [f] and return its result together with the registry's change
   over the call: the solver, the engine and the points-to filter count
   their work only in the registry, at every obs level.  Read a count
   with [Obs.Snapshot.counter]. *)
let with_counters f =
  let module Obs = Pinpoint_obs.Obs in
  let before = Obs.snapshot () in
  let r = f () in
  (r, Obs.Snapshot.diff (Obs.snapshot ()) before)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun name -> remove_tree (Filename.concat path name))
      (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Run [f] on a fresh directory under the temp dir, named [prefix] plus a
   unique suffix, and remove its tree afterwards, also when [f] raises. *)
let with_temp_dir prefix f =
  let dir = Filename.temp_dir prefix "" in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* ---------- generated multi-file subjects and their edits ---------- *)

module Ast = Pinpoint_frontend.Ast
module Parser = Pinpoint_frontend.Parser

let subject ?(seed = 11) ?(loc = 400) () =
  (Pinpoint_workload.Gen.generate ~name:"srv"
     { Pinpoint_workload.Gen.default_params with seed; target_loc = loc })
    .source

(* Emit a run of fdecls as MC source, with unit headers where the unit
   changes (mirrors Ast.pp_program, which round-trips by construction). *)
let emit_fdecls (fds : Ast.fdecl list) =
  let buf = Buffer.create 1024 in
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

(* Split a subject into [k] files of consecutive functions.  The mutable
   array of per-file fdecl lists is the test's editable model; file
   contents are re-emitted from it after each edit. *)
let split_subject k src =
  let fds = (Parser.parse_string ~file:"<gen>" src).Ast.funcs in
  let n = List.length fds in
  let per = max 1 ((n + k - 1) / k) in
  let chunks = Array.make k [] in
  List.iteri
    (fun i fd -> chunks.(min (k - 1) (i / per)) <- fd :: chunks.(min (k - 1) (i / per)))
    fds;
  Array.mapi (fun i fds -> (Printf.sprintf "srv_%d.mc" i, List.rev fds)) chunks

let contents_of (chunks : (string * Ast.fdecl list) array) =
  Array.to_list (Array.map (fun (n, fds) -> (n, emit_fdecls fds)) chunks)

let rec bump_expr found (e : Ast.expr) =
  let node =
    match e.Ast.enode with
    | Ast.Eint n when not !found ->
      found := true;
      Ast.Eint (n + 1)
    | (Ast.Eint _ | Ast.Ebool _ | Ast.Enull | Ast.Evar _ | Ast.Emalloc) as n ->
      n
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

(* Flip the first integer literal of the [i]-th function (cyclically) of
   the chunk; returns false when that function has no integer literal. *)
let bump_nth_function chunks ~chunk ~i =
  let name, fds = chunks.(chunk) in
  let n = List.length fds in
  if n = 0 then false
  else begin
    let target = i mod n in
    let found = ref false in
    let fds =
      List.mapi
        (fun j (fd : Ast.fdecl) ->
          if j = target then { fd with Ast.body = bump_stmt found fd.Ast.body }
          else fd)
        fds
    in
    chunks.(chunk) <- (name, fds);
    !found
  end

let added_counter = ref 0

(* Append a fresh function to the chunk: a change of the function set,
   which the server answers with a full rebuild. *)
let add_function chunks ~chunk =
  incr added_counter;
  let fname = Printf.sprintf "__srv_added_%d" !added_counter in
  let src = Printf.sprintf "void %s() { int t = 1; print(t); }" fname in
  let fd = List.hd (Parser.parse_string ~file:"<add>" src).Ast.funcs in
  let name, fds = chunks.(chunk) in
  (* Keep the chunk's trailing unit: re-emission will re-open "main" for
     the added function if needed, which is itself a structural change. *)
  chunks.(chunk) <- (name, fds @ [ fd ])

(* ---------- batch runs over the same file contents ---------- *)

(* Several files compiled as one program, each parsed under its name, as
   the server and [pinpoint check FILE...] compile them. *)
let compile_files files =
  Pinpoint_frontend.Lower.compile
    {
      Ast.funcs =
        List.concat_map (fun (n, c) -> (Parser.parse_string ~file:n c).Ast.funcs) files;
    }

let render_reports ?(render = Pinpoint.Report.one_line) reports =
  List.map render (List.filter Pinpoint.Report.is_reported reports)

let batch_reports files (spec : Pinpoint.Checker_spec.t) =
  fst (Pinpoint.Analysis.check (Pinpoint.Analysis.prepare (compile_files files)) spec)

let batch_renders files spec = render_reports (batch_reports files spec)
