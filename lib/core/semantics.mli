open Xut_xml

(** Reference semantics of transform queries (Section 2): materialize
    [r\[\[p\]\]] with the direct evaluator, then rebuild the tree applying
    the update.  Deliberately unoptimized — the specification every other
    engine is tested against. *)

val apply : Transform_ast.update -> Node.element -> Node.element
(** @raise Transform_ast.Invalid_update when the update would delete the
    document element or replace it with a non-element. *)

val apply_matched :
  Transform_ast.update -> Node.element -> kids:Node.t list -> Node.t list
(** The node(s) a selected element becomes, given its already-processed
    children. *)

val document_element : Node.t list -> Node.element
(** The document element a transformed document element became.
    @raise Transform_ast.Invalid_update when the forest is empty (the
    update deleted it) or is not a single element. *)

val rebuild :
  mem:(Node.element -> bool) -> Transform_ast.update -> Node.element -> Node.element
(** Full-copy rebuild applying the update at every element selected by
    [mem]; shared by the Naive and copy-and-update baselines, which
    differ only in how membership is decided. *)

val ctx_holds : Xut_automata.Selecting_nfa.t -> Node.element -> bool
(** Do the context qualifiers of the embedded path hold at the virtual
    document node? *)

val start : Xut_automata.Selecting_nfa.t -> Node.element -> Xut_automata.Selecting_nfa.set
(** The state set at the virtual document node over [root]: the start
    state's closure, with the qualifier of a leading [//.\[q\]] step
    evaluated at the document node directly. *)

val apply_at_root : Transform_ast.update -> Node.element -> Node.element
(** Apply the update to the document element itself (the [p = '.'] case). *)
