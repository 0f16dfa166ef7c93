open Xut_xpath
open Xut_xquery

(** User queries of Section 4: the simple for/where/return form

    {v
    for $x in rho
    where rho'_1 = rho''_1 and ... and rho'_k = rho''_k
    return exp(rho_1, ..., rho_m)
    v}

    where the paths are X expressions rooted at [$x] (or the document)
    and [exp] is an element template with path-valued holes. *)

type operand =
  | Const of Ast.value
  | Rel of Ast.path * string option  (** $x/path, optionally /@attr *)

type cond = { left : operand; op : Ast.cmp; right : operand }

type template =
  | T_elem of string * (string * string) list * template list
  | T_text of string
  | T_hole of Ast.path * string option
      (** a path hole rooted at $x; [[], None] is $x itself *)

type t = {
  var : string;       (** the bound variable *)
  source : Ast.path;  (** rho, rooted at the document *)
  conds : cond list;
  template : template;
}

val make : ?var:string -> ?conds:cond list -> source:Ast.path -> template -> t

val of_expr : Xq_ast.expr -> (t, string) result
(** Recognize a parsed XQuery expression of the restricted form. *)

val parse : string -> t
(** Parse XQuery text and recognize.
    @raise Invalid_argument when the query is outside the fragment. *)

val cmp_to_xq : Ast.cmp -> Xq_ast.cmp

val template_to_expr : string -> template -> Xq_ast.expr

val where_expr : string -> cond list -> Xq_ast.expr option
(** [where_expr var conds]: the where clause over [$var], the
    conjunction of [conds] in order; [None] when there are none. *)

val to_expr : t -> Xq_ast.expr
(** Back to a plain XQuery expression (used by the Naive Composition
    method and for printing). *)

val to_string : t -> string

val run : t -> doc:Xut_xml.Node.element -> Xq_value.t
(** Evaluate directly over a document. *)
