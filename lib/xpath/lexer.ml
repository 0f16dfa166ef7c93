type token =
  | SLASH
  | DSLASH
  | LBRACKET
  | RBRACKET
  | LPAREN
  | RPAREN
  | STAR
  | DOT
  | AT
  | COMMA
  | EQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | NAME of string
  | STRING of string
  | NUMBER of float
  | EOF

exception Lex_error of { pos : int; msg : string }

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false
let is_digit c = c >= '0' && c <= '9'

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_name_char c = is_name_start c || is_digit c || c = '-' || c = ':'

let tokenize src =
  let n = String.length src in
  let rec go pos acc =
    if pos >= n then List.rev (EOF :: acc)
    else
      let c = src.[pos] in
      if is_ws c then go (pos + 1) acc
      else
        match c with
        | '/' ->
          if pos + 1 < n && src.[pos + 1] = '/' then go (pos + 2) (DSLASH :: acc)
          else go (pos + 1) (SLASH :: acc)
        | '[' -> go (pos + 1) (LBRACKET :: acc)
        | ']' -> go (pos + 1) (RBRACKET :: acc)
        | '(' -> go (pos + 1) (LPAREN :: acc)
        | ')' -> go (pos + 1) (RPAREN :: acc)
        | '*' -> go (pos + 1) (STAR :: acc)
        | '.' ->
          if pos + 1 < n && is_digit src.[pos + 1] then number pos acc
          else go (pos + 1) (DOT :: acc)
        | '@' -> go (pos + 1) (AT :: acc)
        | ',' -> go (pos + 1) (COMMA :: acc)
        | '=' -> go (pos + 1) (EQ :: acc)
        | '!' ->
          if pos + 1 < n && src.[pos + 1] = '=' then go (pos + 2) (NEQ :: acc)
          else raise (Lex_error { pos; msg = "expected != " })
        | '<' ->
          if pos + 1 < n && src.[pos + 1] = '=' then go (pos + 2) (LE :: acc)
          else go (pos + 1) (LT :: acc)
        | '>' ->
          if pos + 1 < n && src.[pos + 1] = '=' then go (pos + 2) (GE :: acc)
          else go (pos + 1) (GT :: acc)
        | '\'' | '"' -> string_lit c (pos + 1) (pos + 1) acc
        | c when is_digit c -> number pos acc
        | c when is_name_start c ->
          let stop = scan_while (pos + 1) is_name_char in
          go stop (NAME (String.sub src pos (stop - pos)) :: acc)
        | c -> raise (Lex_error { pos; msg = Printf.sprintf "unexpected character %C" c })
  and scan_while pos pred =
    if pos < n && pred src.[pos] then scan_while (pos + 1) pred else pos
  and string_lit quote start pos acc =
    if pos >= n then raise (Lex_error { pos = start; msg = "unterminated string literal" })
    else if src.[pos] = quote then
      go (pos + 1) (STRING (String.sub src start (pos - start)) :: acc)
    else string_lit quote start (pos + 1) acc
  and number pos acc =
    let stop = scan_while pos is_digit in
    let stop = if stop < n && src.[stop] = '.' then scan_while (stop + 1) is_digit else stop in
    go stop (NUMBER (float_of_string (String.sub src pos (stop - pos))) :: acc)
  in
  go 0 []

let token_to_string = function
  | SLASH -> "/"
  | DSLASH -> "//"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | LPAREN -> "("
  | RPAREN -> ")"
  | STAR -> "*"
  | DOT -> "."
  | AT -> "@"
  | COMMA -> ","
  | EQ -> "="
  | NEQ -> "!="
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | NAME s -> s
  | STRING s -> Printf.sprintf "%S" s
  | NUMBER f -> string_of_float f
  | EOF -> "<eof>"
