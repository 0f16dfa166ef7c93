open Xut_xml
open Xut_automata

(** Algorithm [topDown] (Section 3.3, Fig. 3).

    A single top-down pass runs the selecting NFA while rebuilding the
    tree; subtrees where the state set empties are returned {e shared},
    without inspection — the pruning that separates this method from the
    Naive one.  So is, before any transition, every subtree whose label
    summary ({!Xut_xml.Node.labels}) misses the automaton's
    {!Xut_automata.Selecting_nfa.label_mask}: no node in it carries the
    label every selected node carries, so a [//] walk skips what cannot
    hold a target, with or without a schema.  Only the spine above each
    change is rebuilt: a node none of whose children changed is returned
    physically, with nothing allocated, so an update that selects
    nothing returns the input root itself.  Qualifier checking is
    pluggable: the default consults the direct evaluator at each node
    (the GENTOP configuration, where the "host engine" evaluates
    qualifiers natively); the Two-pass method passes the O(1) oracle
    from {!Xut_automata.Annotator} instead. *)

(** What the walk makes of one node: the node itself, shared as it is,
    or the forest that takes its place (empty when it is deleted). *)
type step = Same | Changed of Node.t list

val rebuild_children :
  (Node.element -> 'a -> step) -> 'a -> Node.t list -> Node.t list option
(** [rebuild_children go states children]: the child list after
    [go c states] on each element child [c], or [None] when every call
    answers [Same] — then nothing is allocated.  The list is rebuilt
    only from the first changed child on, iteratively over the
    siblings, so a wide node costs no stack.  This is the one spine
    rebuild step: {!run} and {!transform_at} pass the NFA walk as [go],
    [Xut_update.Apply.materialize] a lookup in the pending table. *)

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
    the subtree is shared without running any transition.  The service
    no longer passes one: the label summaries prune from the data a
    subset of what it prunes (a subtree without the final label, but not
    one that holds the label only where the path cannot reach it).
    perfbench's replay still passes one.
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
(** {!run}, then its result replayed as SAX events
    ({!Xut_xml.Sax.events_of_node}, no document start/end): the bytes a
    {!Xut_xml.Serialize.Sink} makes of them are exactly the
    serialization of {!run}'s result.  A replay path for tools that
    consume events; the service serializes {!run}'s tree instead,
    putting shared subtrees whole.
    @raise Transform_ast.Invalid_update as {!run} — before any event is
    emitted, never mid-stream. *)

val count :
  ?checkp:checkp ->
  Selecting_nfa.t ->
  Transform_ast.update ->
  Node.element ->
  int
(** The element count of {!run}'s result, by the same walk but without
    building the result.  The answer is the input's count
    ({!Node.elements}) plus Δ, where Δ sums, over the nodes the walk
    reaches:
    - a subtree pruned by its label summary, or one whose state set
      empties: 0 (never entered);
    - a matched [Delete] of [e]: [-elements e];
    - a matched [Replace] of [e] by [enew]: [element_count enew - elements e];
    - a matched [Insert]/[Insert_first] of [enew]: the children's Δ plus
      [element_count enew];
    - a matched [Rename], or an unmatched node: the children's Δ.

    Every term is O(1), since each element stores its count, so the walk
    costs the nodes it visits and allocates nothing per element (beyond
    what [checkp] allocates).  [checkp] is as for {!run}, consulted at
    exactly the same nodes as a {!run} without [skip]; [count] takes no
    skip-set.
    @raise Transform_ast.Invalid_update exactly where {!run} does: the
    document element deleted or replaced by a non-element. *)

val settle : checkp:checkp -> Selecting_nfa.t -> Selecting_nfa.set -> Node.element -> Selecting_nfa.set
(** [settle ~checkp nfa states e]: the states of [states] that hold at
    [e] — those whose label test admits [e]'s name and whose qualifier,
    if any, [checkp] confirms there.  A state set from the Compose
    Method's static delta' simulation has checked neither, so every
    runtime helper settles it at the node it reaches first. *)

val transform_at :
  ?checkp:checkp ->
  Selecting_nfa.t ->
  Transform_ast.update ->
  states:Selecting_nfa.set ->
  Node.element ->
  Node.t list
(** The runtime [topDown(Mp, S, Qt, $z)] helper of the Compose Method
    (Section 4): apply the update at and below a node reached with the
    statically computed state set [states], first {!settle}d at the
    node.  Returns the transformed forest — empty when a
    matched delete erases the node itself. *)
