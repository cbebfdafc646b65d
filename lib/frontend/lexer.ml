type token =
  | INT of int
  | IDENT of string
  | STRING of string
  | KW_INT | KW_BOOL | KW_VOID | KW_IF | KW_ELSE | KW_WHILE | KW_RETURN
  | KW_TRUE | KW_FALSE | KW_NULL | KW_UNIT | KW_MALLOC | KW_METHOD | KW_VCALL
  | LPAREN | RPAREN | LBRACE | RBRACE | COMMA | SEMI
  | STAR | PLUS | MINUS | BANG
  | ASSIGN | EQ | NE | LT | LE | GT | GE | ANDAND | OROR
  | EOF

type located = { tok : token; line : int }

exception Error of string * int

let keyword = function
  | "int" -> Some KW_INT
  | "bool" -> Some KW_BOOL
  | "void" -> Some KW_VOID
  | "if" -> Some KW_IF
  | "else" -> Some KW_ELSE
  | "while" -> Some KW_WHILE
  | "return" -> Some KW_RETURN
  | "true" -> Some KW_TRUE
  | "false" -> Some KW_FALSE
  | "null" | "NULL" -> Some KW_NULL
  | "unit" -> Some KW_UNIT
  | "malloc" -> Some KW_MALLOC
  | "method" -> Some KW_METHOD
  | "vcall" -> Some KW_VCALL
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize ?file:_ src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let emit tok = toks := { tok; line = !line } :: !toks in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      i := !i + 2;
      let closed = ref false in
      while (not !closed) && !i < n do
        if src.[!i] = '\n' then incr line;
        if src.[!i] = '*' && !i + 1 < n && src.[!i + 1] = '/' then begin
          closed := true;
          i := !i + 2
        end
        else incr i
      done;
      if not !closed then raise (Error ("unterminated block comment", !line))
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do
        incr i
      done;
      match int_of_string_opt (String.sub src start (!i - start)) with
      | Some v -> emit (INT v)
      | None -> raise (Error ("integer literal out of range", !line))
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      let word = String.sub src start (!i - start) in
      match keyword word with Some kw -> emit kw | None -> emit (IDENT word)
    end
    else if c = '"' then begin
      incr i;
      let buf = Buffer.create 16 in
      let closed = ref false in
      while (not !closed) && !i < n do
        if src.[!i] = '"' then begin
          closed := true;
          incr i
        end
        else begin
          if src.[!i] = '\n' then incr line;
          Buffer.add_char buf src.[!i];
          incr i
        end
      done;
      if not !closed then raise (Error ("unterminated string literal", !line));
      emit (STRING (Buffer.contents buf))
    end
    else begin
      let two =
        if !i + 1 < n then Some (String.sub src !i 2) else None
      in
      match two with
      | Some "==" -> emit EQ; i := !i + 2
      | Some "!=" -> emit NE; i := !i + 2
      | Some "<=" -> emit LE; i := !i + 2
      | Some ">=" -> emit GE; i := !i + 2
      | Some "&&" -> emit ANDAND; i := !i + 2
      | Some "||" -> emit OROR; i := !i + 2
      | _ -> (
        (match c with
        | '(' -> emit LPAREN
        | ')' -> emit RPAREN
        | '{' -> emit LBRACE
        | '}' -> emit RBRACE
        | ',' -> emit COMMA
        | ';' -> emit SEMI
        | '*' -> emit STAR
        | '+' -> emit PLUS
        | '-' -> emit MINUS
        | '!' -> emit BANG
        | '=' -> emit ASSIGN
        | '<' -> emit LT
        | '>' -> emit GT
        | c -> raise (Error (Printf.sprintf "unexpected character %C" c, !line)));
        incr i)
    end
  done;
  emit EOF;
  Array.of_list (List.rev !toks)

let pp_token ppf t =
  Format.pp_print_string ppf
    (match t with
    | INT n -> string_of_int n
    | IDENT s -> s
    | STRING s -> Printf.sprintf "%S" s
    | KW_INT -> "int"
    | KW_BOOL -> "bool"
    | KW_VOID -> "void"
    | KW_IF -> "if"
    | KW_ELSE -> "else"
    | KW_WHILE -> "while"
    | KW_RETURN -> "return"
    | KW_TRUE -> "true"
    | KW_FALSE -> "false"
    | KW_NULL -> "null"
    | KW_UNIT -> "unit"
    | KW_MALLOC -> "malloc"
    | KW_METHOD -> "method"
    | KW_VCALL -> "vcall"
    | LPAREN -> "("
    | RPAREN -> ")"
    | LBRACE -> "{"
    | RBRACE -> "}"
    | COMMA -> ","
    | SEMI -> ";"
    | STAR -> "*"
    | PLUS -> "+"
    | MINUS -> "-"
    | BANG -> "!"
    | ASSIGN -> "="
    | EQ -> "=="
    | NE -> "!="
    | LT -> "<"
    | LE -> "<="
    | GT -> ">"
    | GE -> ">="
    | ANDAND -> "&&"
    | OROR -> "||"
    | EOF -> "<eof>")
