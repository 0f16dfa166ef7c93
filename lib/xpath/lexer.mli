(** Tokenizer shared by the XPath and transform-query parsers. *)

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

val tokenize : string -> token list
(** @raise Lex_error on unrecognized input. *)

val token_to_string : token -> string
