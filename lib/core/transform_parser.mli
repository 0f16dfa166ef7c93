(** Parser for transform queries in the concrete syntax of Section 2:

    {v
    transform copy $a := doc("foo") modify
      do delete $a//supplier[country = "A"]/price
    return $a
    v}

    Inserted/replacement elements are XML literals parsed by the XML
    substrate; paths are parsed by the X parser. *)

exception Parse_error of string

val parse : string -> Transform_ast.t

val parse_update : string -> Transform_ast.update
(** Parse just an update expression, e.g.
    [insert <foo/> into $a/site/people], with an optional trailing
    [return $a]. *)

val parse_updates : string -> Transform_ast.update list
(** The write-path query form: either a full transform query whose
    [modify do] clause may hold a parenthesized, comma-separated sequence
    of updates (document name ignored — the write request names the
    document itself), or a bare update / parenthesized update sequence
    over [$a] with an optional trailing [return $a].  Accepts everything
    {!parse_update} does, plus sequences.  A single un-parenthesized
    update yields a one-element list. *)
