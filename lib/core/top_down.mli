open Xut_xml
open Xut_automata

(** Algorithm [topDown] (Section 3.3, Fig. 3).

    A single top-down pass runs the selecting NFA while rebuilding the
    tree; subtrees where the state set empties are returned {e shared},
    without inspection — the pruning that separates this method from the
    Naive one.  Qualifier checking is pluggable: the default consults the
    direct evaluator at each node (the GENTOP configuration, where the
    "host engine" evaluates qualifiers natively); the Two-pass method
    passes the O(1) oracle from {!Xut_automata.Annotator} instead. *)

type checkp = int -> Node.element -> bool
(** [checkp s n]: does the qualifier of NFA state [s] hold at [n]? *)

val direct_checkp : Selecting_nfa.t -> checkp
(** Qualifier evaluation by the direct evaluator (GENTOP). *)

val run :
  ?checkp:checkp ->
  ?skip:(Node.element -> bool) ->
  Selecting_nfa.t ->
  Transform_ast.update ->
  Node.element ->
  Node.element
(** Evaluate the transform query whose embedded path built [nfa].
    [skip], when given, is a schema skip-set oracle
    ({!Xut_schema.Schema.skippable} over a validated document): a [true]
    answer promises no node at or below the argument can be selected, so
    the subtree is shared without running any transition.
    @raise Transform_ast.Invalid_update as {!Semantics.apply}. *)

val transform : Transform_ast.update -> Node.element -> Node.element
(** Convenience: build the NFA from the update's path and {!run} with the
    direct oracle. *)

val stream :
  ?checkp:checkp ->
  ?skip:(Node.element -> bool) ->
  Selecting_nfa.t ->
  Transform_ast.update ->
  Node.element ->
  (Sax.event -> unit) ->
  unit
(** The same walk as {!run}, but the result is pushed to a SAX sink as
    it is decided instead of being rebuilt as a tree: untouched subtrees
    (empty state set) and inserted/replacement subtrees are replayed
    whole, matched nodes get their update applied in event space.  Fed
    into {!Xut_xml.Serialize.Sink} this is the zero-materialization
    result path: the byte stream equals the serialization of {!run}'s
    result, with no output tree and no monolithic output string.
    @raise Transform_ast.Invalid_update as {!run} — before any event of
    the offending construct is emitted at the root, but possibly after
    earlier output (the mid-stream error case transports must carry). *)

val count :
  ?checkp:checkp ->
  ?skip:(Node.element -> bool) ->
  ?size:(Node.element -> int) ->
  elements:int ->
  Selecting_nfa.t ->
  Transform_ast.update ->
  Node.element ->
  int
(** The element count of {!run}'s result, by the same walk but without
    building the result.  [elements] must be the element count of the
    input [root]; the answer is [elements + Δ], where Δ sums, over the
    nodes the walk reaches:
    - a skipped subtree or one whose state set empties: 0 (never entered);
    - a matched [Delete] of [e]: [-size e];
    - a matched [Replace] of [e] by [enew]: [element_count enew - size e];
    - a matched [Insert]/[Insert_first] of [enew]: the children's Δ plus
      [element_count enew];
    - a matched [Rename], or an unmatched node: the children's Δ.

    [size e] must equal [Node.element_count (Element e)]; it is called
    once per deleted or replaced subtree, so an O(1) table (the schema
    validation's subtree sizes) makes each such node O(1).  Without it
    the deleted subtree itself is counted.  [checkp] and [skip] are as
    for {!run}, consulted at exactly the same nodes.
    @raise Transform_ast.Invalid_update exactly where {!run} does: the
    document element deleted or replaced by a non-element. *)

val transform_at :
  ?checkp:checkp ->
  Selecting_nfa.t ->
  Transform_ast.update ->
  states:Selecting_nfa.set ->
  Node.element ->
  Node.t list
(** The runtime [topDown(Mp, S, Qt, $z)] helper of the Compose Method
    (Section 4): apply the update at and below a node reached with the
    statically computed state set [states] (qualifiers are checked here,
    since delta' cannot).  Returns the transformed forest — empty when a
    matched delete erases the node itself. *)
