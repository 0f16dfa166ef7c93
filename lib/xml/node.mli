(** Immutable XML tree model.

    Elements carry a unique integer id, assigned when the element is built
    (allocation is atomic, so trees built on concurrent domains still get
    distinct ids).
    Ids give nodes an identity independent of structural equality, which the
    transform algorithms use to key per-node annotations (the [sat] vectors
    of Section 5) and to implement the node-set membership test of the Naive
    method.  Structural equality ({!equal}) ignores ids. *)

type t =
  | Element of element
  | Text of string
  | Comment of string
  | Pi of string * string  (** processing instruction: target, content *)

and element = private {
  id : int;
  name : string;
  sym : Sym.t;  (** interned {!name} (see {!Sym}), assigned at build time *)
  attrs : (string * string) list;
  children : t list;
  elements : int;
      (** the number of elements at and below this one, itself included:
          set by every constructor, so counting a subtree is a field
          read *)
  labels : int;
      (** the label summary: the {!label_bit} of every element name at
          and below this one, itself included, or-ed together.  Set by
          every constructor in the same pass that sums [elements].  The
          63 bits are shared modulo 63, so a clear bit is exact (no
          element of the subtree carries a name of that bit) and a set
          bit only says "maybe".  A walk that can select only elements
          of one name skips any subtree whose summary misses that name's
          bit ({!Xut_automata.Selecting_nfa.label_mask}) *)
}

val elem : ?attrs:(string * string) list -> string -> t list -> t
(** [elem name children] builds an element node with a fresh id. *)

val element : ?attrs:(string * string) list -> string -> t list -> element
(** Like {!elem} but returns the record, for document roots. *)

val element_of_sym : ?attrs:(string * string) list -> Sym.t -> t list -> element
(** Like {!element}, for a builder that already holds the name's symbol
    (a parser interns each start tag's name): the name is
    {!Sym.name} of it, and nothing is interned again. *)

val text : string -> t
val comment : string -> t
val pi : string -> string -> t

val with_children : element -> t list -> element
(** Replace the child list, keeping name/attrs and allocating a fresh id
    (and summing the new children's elements and labels). *)

val label_bit : Sym.t -> int
(** [1 lsl (sym mod 63)]: the bit a name sets in {!labels}. *)

val name : element -> string

val sym : element -> Sym.t
(** The interned element name, the automata's transition alphabet. *)

val id : element -> int
val children : element -> t list

val elements : element -> int
(** The element's [elements] field: {!element_count} without boxing
    the element as a {!t}. *)

val labels : element -> int
(** The element's [labels] field: its subtree's label summary. *)

val attrs : element -> (string * string) list
val attr : element -> string -> string option

val child_elements : element -> element list

val text_content : element -> string
(** Concatenation of the element's {e direct} text children (the string
    value used for qualifier comparisons; see DESIGN.md "String values"). *)

val equal : t -> t -> bool
(** Structural equality ignoring element ids. *)

val equal_element : element -> element -> bool

val size : t -> int
(** Number of nodes in the subtree (elements + texts + comments + PIs). *)

val element_count : t -> int
(** Number of elements in the subtree, in O(1): an element's
    [elements], 0 for any other node. *)

val depth : t -> int

val fold_elements : ('a -> element -> 'a) -> 'a -> element -> 'a
(** Pre-order fold over all elements of the subtree, root included. *)

val iter_elements : (element -> unit) -> element -> unit

val descendant_or_self : element -> element list
(** All elements of the subtree in document order, root first. *)

val refresh_ids : t -> t
(** Deep copy with fresh ids for every element (used by the
    copy-and-update baseline to model a full snapshot); counts and
    summaries are kept. *)

val align :
  (int, element) Hashtbl.t ->
  element ->
  element ->
  shared:(element -> unit) ->
  rebuilt:(element -> element -> unit) ->
  fresh:(element -> unit) ->
  departed:(element -> unit) ->
  unit
(** [align spine oe e ~shared ~rebuilt ~fresh ~departed] sorts the
    children of [e], a commit's rebuild of [oe], against [oe]'s in one
    ordered pass.  [spine] maps each rebuilt element's fresh id to the
    old element it replaced (the commit's diff).  A commit keeps the old
    children's order, so each new child is the old child itself
    ([shared]), a rebuild of the old child the spine map names
    ([rebuilt], old first), or inserted or replacement content
    ([fresh]); old elements passed over are [departed].  Matching the
    head of the old list settles every shared or rebuilt child of an
    insert without allocating; an index of the remaining old ids is
    built only when a child misses the head (fresh content, or a
    deletion before it). *)

val pp : Format.formatter -> t -> unit
(** Debug printer (single line, ids omitted). *)

val pp_element : Format.formatter -> element -> unit
