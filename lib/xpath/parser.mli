(** Recursive-descent parser for the XPath fragment X. *)

exception Parse_error of string

val parse : string -> Ast.path
(** Parse a complete path; the whole string must be consumed.
    @raise Parse_error otherwise. *)

val parse_qual : string -> Ast.qual
(** Parse a complete qualifier body (without the enclosing brackets). *)
