(* Tests for the MC frontend: lexer, parser, lowering. *)

open Pinpoint_frontend
open Pinpoint_ir

let tokens src =
  Array.to_list (Lexer.tokenize src) |> List.map (fun l -> l.Lexer.tok)

let test_lexer_basic () =
  Alcotest.(check int) "token count" 6
    (List.length (tokens "int x = 1;"));
  (match tokens "x >= 10" with
  | [ Lexer.IDENT "x"; Lexer.GE; Lexer.INT 10; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "ge lexing");
  match tokens "a&&b||!c" with
  | [ Lexer.IDENT "a"; Lexer.ANDAND; Lexer.IDENT "b"; Lexer.OROR;
      Lexer.BANG; Lexer.IDENT "c"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "operator lexing"

let test_lexer_comments () =
  Alcotest.(check int) "line comment" 1 (List.length (tokens "// hi\n"));
  Alcotest.(check int) "block comment" 1 (List.length (tokens "/* x \n y */"));
  Alcotest.check_raises "unterminated block"
    (Lexer.Error ("unterminated block comment", 2)) (fun () ->
      ignore (tokens "/* \n oops"))

let test_lexer_int_range () =
  (match tokens (string_of_int max_int) with
  | [ Lexer.INT n; Lexer.EOF ] when n = max_int -> ()
  | _ -> Alcotest.fail "max_int literal");
  Alcotest.check_raises "literal past max_int"
    (Lexer.Error ("integer literal out of range", 2)) (fun () ->
      ignore (tokens "x\n99999999999999999999"))

let test_lexer_lines () =
  let toks = Lexer.tokenize "int x;\nint y;" in
  let y_tok =
    Array.to_list toks
    |> List.find (fun l -> l.Lexer.tok = Lexer.IDENT "y")
  in
  Alcotest.(check int) "line tracking" 2 y_tok.Lexer.line

let test_lexer_keywords () =
  (match tokens "while null true malloc unit" with
  | [ Lexer.KW_WHILE; Lexer.KW_NULL; Lexer.KW_TRUE; Lexer.KW_MALLOC;
      Lexer.KW_UNIT; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "keywords");
  match tokens "whilex" with
  | [ Lexer.IDENT "whilex"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "keyword prefix is an ident"

let parse src = Parser.parse_string src

let test_parser_function () =
  let p = parse "int* f(int *a, int b) { return a; }" in
  match p.Ast.funcs with
  | [ f ] ->
    Alcotest.(check string) "name" "f" f.Ast.fname;
    Alcotest.(check int) "params" 2 (List.length f.Ast.params);
    Alcotest.(check bool) "ret ty" true (f.Ast.ret = Some (Ty.Ptr Ty.Int))
  | _ -> Alcotest.fail "one function"

let test_parser_precedence () =
  let p = parse "int f(int a) { int x = 1 + 2 * 3 < 7 && true; return x; }" in
  match p.Ast.funcs with
  | [ { Ast.body = { Ast.snode = Ast.Sblock (s :: _); _ }; _ } ] -> (
    match s.Ast.snode with
    | Ast.Sdecl (_, _, Some { Ast.enode = Ast.Ebin (Pinpoint_ir.Ops.Land, _, _); _ }) -> ()
    | _ -> Alcotest.fail "&& binds loosest")
  | _ -> Alcotest.fail "shape"

let test_parser_deref_store () =
  let p = parse "void f(int **h) { **h = 3; int x = **h; }" in
  match p.Ast.funcs with
  | [ { Ast.body = { Ast.snode = Ast.Sblock [ s1; s2 ]; _ }; _ } ] ->
    (match s1.Ast.snode with
    | Ast.Sstore (2, "h", _) -> ()
    | _ -> Alcotest.fail "store depth 2");
    (match s2.Ast.snode with
    | Ast.Sdecl (_, _, Some { Ast.enode = Ast.Ederef (_, 2); _ }) -> ()
    | _ -> Alcotest.fail "deref depth 2")
  | _ -> Alcotest.fail "shape"

let test_parser_units () =
  let p = parse "unit \"u1\"; void f() { } unit \"u2\"; void g() { }" in
  match p.Ast.funcs with
  | [ f; g ] ->
    Alcotest.(check string) "f unit" "u1" f.Ast.unit_name;
    Alcotest.(check string) "g unit" "u2" g.Ast.unit_name
  | _ -> Alcotest.fail "two functions"

let test_parser_errors () =
  let expect_error src =
    match parse src with
    | exception Parser.Error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %s" src
  in
  expect_error "void f( { }";
  expect_error "void f() { int; }";
  expect_error "void f() { x = ; }";
  expect_error "void f() { if x { } }"

let test_roundtrip () =
  let src = "int* f(int *a, int b) { if (b > 0) { *a = b; } else { int c = *a; print(c); } while (b < 3) { b = b + 1; } return a; }" in
  let p1 = parse src in
  let printed = Pinpoint_util.Pp.to_string Ast.pp_program p1 in
  let p2 = parse printed in
  Alcotest.(check int) "same function count" (List.length p1.Ast.funcs)
    (List.length p2.Ast.funcs);
  (* both compile to the same number of statements *)
  let c1 = Lower.compile p1 and c2 = Lower.compile p2 in
  Alcotest.(check int) "same stmt count" (Prog.n_stmts c1) (Prog.n_stmts c2)

(* --- lowering --- *)

let test_lower_basic () =
  let prog = Helpers.compile "int f(int a) { return a + 1; }" in
  (match Prog.validate prog with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let f = Helpers.func prog "f" in
  Alcotest.(check bool) "is ssa" true (Ssa.is_ssa f);
  match Func.return_stmt f with
  | Some { Stmt.kind = Stmt.Return [ _ ]; _ } -> ()
  | _ -> Alcotest.fail "single return with one operand"

let test_lower_single_exit () =
  let prog =
    Helpers.compile
      "int f(int a) { if (a > 0) { return 1; } return 2; }"
  in
  let f = Helpers.func prog "f" in
  let returns =
    Func.fold_stmts f ~init:0 ~f:(fun n _ s ->
        match s.Stmt.kind with Stmt.Return _ -> n + 1 | _ -> n)
  in
  Alcotest.(check int) "one return statement" 1 returns;
  Alcotest.(check bool) "dag" true
    (Pinpoint_util.Digraph.is_dag (Func.cfg f))

let test_lower_while_unroll () =
  let prog = Helpers.compile "int f(int a) { while (a > 0) { a = a - 1; } return a; }" in
  let f = Helpers.func prog "f" in
  (* unrolled: the CFG must be acyclic *)
  Alcotest.(check bool) "no back edge" true (Pinpoint_util.Digraph.is_dag (Func.cfg f))

let test_lower_cond_desugar () =
  (* if (p) with a pointer becomes p != 0 *)
  let prog = Helpers.compile "void f(int *p) { if (p) { print(1); } }" in
  let f = Helpers.func prog "f" in
  let has_ne =
    Func.fold_stmts f ~init:false ~f:(fun acc _ s ->
        match s.Stmt.kind with
        | Stmt.Binop (_, Pinpoint_ir.Ops.Ne, _, _) -> true
        | _ -> acc)
  in
  Alcotest.(check bool) "comparison inserted" true has_ne

let test_lower_dead_code () =
  let prog =
    Helpers.compile "int f(int a) { return 1; a = 2; print(a); return a; }"
  in
  let f = Helpers.func prog "f" in
  (* the statements after return are unreachable and removed *)
  Func.iter_blocks f (fun b ->
      Alcotest.(check bool) "block reachable" true
        (b.Func.bid = f.Func.entry
        || Pinpoint_util.Digraph.preds (Func.cfg f) b.Func.bid <> []))

let test_lower_errors () =
  let expect_error src =
    match Helpers.compile src with
    | exception Lower.Error _ -> ()
    | _ -> Alcotest.failf "expected lowering error for %s" src
  in
  expect_error "void f() { x = 1; }" (* undeclared *);
  expect_error "void f() { int x; int x; }" (* redeclaration *);
  expect_error "void f(int a) { int y = *a; }" (* deref non-pointer *);
  expect_error "void f() { return 1; }" (* void returns value *);
  expect_error "int f() { return; }" (* non-void returns nothing *);
  expect_error "void f(int *p) { free(p, p); }" (* arity *)

(* A second body for one name is a lowering error at that body — from
   one source, from an AST, and across files. *)
let test_lower_duplicate_function () =
  let expect what ~file ~line compile =
    match compile () with
    | exception Lower.Error (msg, loc) ->
      Alcotest.(check string)
        (what ^ ": message") "duplicate definition of function f" msg;
      Alcotest.(check (pair string int))
        (what ^ ": at the second body") (file, line)
        (loc.Pinpoint_ir.Stmt.file, loc.Pinpoint_ir.Stmt.line)
    | _ -> Alcotest.failf "%s: duplicate definition accepted" what
  in
  let src = "int f() { return 1; }\nint g() { return 2; }\nint f() { return 3; }" in
  expect "source" ~file:"d.mc" ~line:3 (fun () ->
      Lower.compile_string ~file:"d.mc" src);
  expect "ast" ~file:"d.mc" ~line:3 (fun () ->
      Lower.compile (Parser.parse_string ~file:"d.mc" src));
  let write name contents =
    let path = Filename.temp_file name ".mc" in
    Out_channel.with_open_bin path (fun oc -> output_string oc contents);
    path
  in
  let a = write "dup_a" "int f() { return 1; }"
  and b = write "dup_b" "void h() { }\n\nint f() { return 3; }" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ a; b ])
    (fun () ->
      expect "files" ~file:b ~line:3 (fun () -> Lower.compile_files [ a; b ]))

(* C rejects two parameters with one name; binding the last one would
   silently misattribute every use of the name. *)
let test_lower_duplicate_parameter () =
  match Lower.compile_string ~file:"p.mc" "void h() { }\nvoid f(int *a, int *a) { free(a); }" with
  | exception Lower.Error (msg, loc) ->
    Alcotest.(check string) "message" "duplicate parameter a" msg;
    Alcotest.(check (pair string int))
      "at the function" ("p.mc", 2)
      (loc.Pinpoint_ir.Stmt.file, loc.Pinpoint_ir.Stmt.line)
  | _ -> Alcotest.fail "duplicate parameter accepted"

let test_lower_scoping () =
  (* shadowing in nested blocks is allowed *)
  let prog =
    Helpers.compile
      "int f(int a) { int x = 1; if (a > 0) { int x = 2; print(x); } return x; }"
  in
  let f = Helpers.func prog "f" in
  Alcotest.(check bool) "ssa" true (Ssa.is_ssa f)

let test_lower_memcpy_like_calls () =
  (* intrinsics with flexible arity lower fine *)
  let prog =
    Helpers.compile
      "void f(int *d, int *s) { memcpy(d, s); memset(d, 0); print(*d); }"
  in
  match Prog.validate prog with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_lower_phi_gates_filled () =
  let prog =
    Helpers.compile
      "int f(int a) { int r = 0; if (a > 0) { r = 1; } else { r = 2; } return r; }"
  in
  let f = Helpers.func prog "f" in
  let all_gates =
    Func.fold_stmts f ~init:true ~f:(fun acc _ s ->
        match s.Stmt.kind with
        | Stmt.Phi (_, args) ->
          acc && List.for_all (fun a -> a.Stmt.gate <> None) args
        | _ -> acc)
  in
  Alcotest.(check bool) "gates filled" true all_gates

let gen_subject_compiles =
  Helpers.qtest ~count:25 "generated subjects always compile and validate"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let s =
        Pinpoint_workload.Gen.generate ~name:"q.mc"
          { Pinpoint_workload.Gen.default_params with seed; target_loc = 400 }
      in
      let prog = Pinpoint_workload.Gen.compile s in
      Prog.validate prog = Ok ()
      && List.for_all (fun f -> Ssa.is_ssa f) (Prog.functions prog))

let suite =
  [
    Alcotest.test_case "lexer basic" `Quick test_lexer_basic;
    Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer int range" `Quick test_lexer_int_range;
    Alcotest.test_case "lexer lines" `Quick test_lexer_lines;
    Alcotest.test_case "lexer keywords" `Quick test_lexer_keywords;
    Alcotest.test_case "parser function" `Quick test_parser_function;
    Alcotest.test_case "parser precedence" `Quick test_parser_precedence;
    Alcotest.test_case "parser deref/store" `Quick test_parser_deref_store;
    Alcotest.test_case "parser units" `Quick test_parser_units;
    Alcotest.test_case "parser errors" `Quick test_parser_errors;
    Alcotest.test_case "pp/parse roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "lower basic" `Quick test_lower_basic;
    Alcotest.test_case "lower single exit" `Quick test_lower_single_exit;
    Alcotest.test_case "lower while unroll" `Quick test_lower_while_unroll;
    Alcotest.test_case "lower cond desugar" `Quick test_lower_cond_desugar;
    Alcotest.test_case "lower dead code" `Quick test_lower_dead_code;
    Alcotest.test_case "lower errors" `Quick test_lower_errors;
    Alcotest.test_case "lower duplicate function" `Quick
      test_lower_duplicate_function;
    Alcotest.test_case "lower duplicate parameter" `Quick
      test_lower_duplicate_parameter;
    Alcotest.test_case "lower scoping" `Quick test_lower_scoping;
    Alcotest.test_case "lower intrinsics" `Quick test_lower_memcpy_like_calls;
    Alcotest.test_case "phi gates filled" `Quick test_lower_phi_gates_filled;
    gen_subject_compiles;
  ]
