open Xut_xml

(** Values of the engine: flat sequences of items. *)

type item =
  | N of Node.t                 (** a node (element, text, comment, PI) *)
  | D of Node.element           (** a document node, holding its element *)
  | A of string * string        (** an attribute: name, value *)
  | S of string
  | F of float
  | B of bool

type t = item list

exception Type_error of string

val of_bool : bool -> t
val of_string : string -> t

val ebv : t -> bool
(** Effective boolean value: empty is false, a leading node is true,
    a single atomic decides by its content.
    @raise Type_error for sequences of several atomics. *)

val atomize_item : item -> item
(** Nodes become their string value (direct-text concatenation for
    elements, see DESIGN.md), attributes their value. *)

val string_of_item : item -> string

val as_float : item -> float option
(** Numeric value of an atomic item ([None] for non-numbers; nodes must
    be atomized first). *)

val general_cmp : Xq_ast.cmp -> t -> t -> bool
(** XQuery general comparison: existential over both operands. *)

val item_identity : item -> item -> bool
(** The [is] operator: element ids for elements, physical equality for
    other nodes.
    @raise Type_error on non-node items. *)
