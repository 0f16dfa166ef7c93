open Xut_xml

(** The apply engine: evaluate transform updates into a {!Pending} list
    against one snapshot of a document, then materialize the list as a
    {b new} tree that shares every untouched subtree with the old root.

    The sharing is what makes the write path MVCC-friendly: the old root
    is never mutated (nodes are immutable), so in-flight readers holding
    it keep a consistent pre-commit snapshot for as long as they need it,
    while the new tree allocates only the spine from the root down to
    each touched node.  Elements on that spine get fresh {!Node.id}s
    (so downstream caches keyed by node id can tell the two trees
    apart — the root id {e always} changes when anything changes);
    untouched subtrees are physically the same values.  The rebuild is
    topDown's own step, {!Core.Top_down.rebuild_children}, driven by the
    pending table instead of an NFA.

    Both halves cost the spine, not the document.  Each update's path is
    resolved by a walk of its selecting NFA ({!select}), which stops
    wherever the state set empties, and before any transition at an
    element whose label summary ({!Xut_xml.Node.labels}) misses the
    path's {!Xut_automata.Selecting_nfa.label_mask}, and marks every
    proper ancestor of a target; the rebuild then answers [Same] at any
    element that is neither a target nor marked, without descending.
    So a [//x] step enters only the subtrees that hold an [x] (or a name
    sharing its summary bit), with or without a schema; what stays
    O(document) is a path whose final step is a wildcard or [//].

    Snapshot semantics: with several updates in one [modify do (...)],
    every path is resolved against the {e original} tree — unlike a
    left-to-right fold of {!Core.Engine.transform}, where each update
    sees the previous result.
    [rename $a/b as c, insert <k/> into $a/b] therefore inserts into the
    renamed node here (both primitives target the same snapshot node),
    where the sequential semantics would find nothing at [$a/b]. *)

exception Invalid of string
(** The pending list deletes the document element, or replaces it with a
    non-element — the write-path analogue of
    {!Core.Transform_ast.Invalid_update}. *)

(** What an apply evaluated to, before (or without) application. *)
type report = {
  targets : int;      (** distinct nodes selected across all updates *)
  primitives : int;   (** surviving primitives after merging *)
  collapsed : int;    (** primitives absorbed by the merge hierarchy *)
  conflicts : Pending.conflict list;
}

val select : ?mark:(int -> unit) -> Xut_xpath.Ast.path -> Node.element -> Node.element list
(** The nodes the path selects from the document element, in document
    order: the same list as [Xut_xpath.Eval.select_doc] (the reference
    semantics), found by a walk of the path's selecting NFA as
    {!Core.Top_down.run} walks — the context qualifier checked on the
    document node, no descent below an element whose state set is
    empty, and none into an element whose label summary misses the
    path's label mask.  [mark] is called once with the id of each
    element that has a selected node strictly below it.  Marking
    allocates nothing per element, and the walk counts one
    {!Core.Stats.nodes_visited} per element it enters and one
    {!Core.Stats.nodes_shared} per subtree its label summary prunes,
    adding them to the domain's counters once, when it returns or
    raises. *)

type plan
(** A list of updates, each with the selecting NFA of its path: what a
    write compiles once.  The NFAs carry their lazy DFAs, so a plan kept
    across requests (the serving layer's plan cache keeps one per write
    text) steps on a warm automaton each time. *)

val plan : Core.Transform_ast.update list -> plan

val stage : plan -> Node.element -> report * Pending.normalized
(** Resolve every update with {!select} against the one snapshot (the
    targets' ancestors marked in the list), then {!Pending.normalize}:
    the dry-run ([APPLY]) entry point.  No tree is built.

    @raise Invalid when the list deletes the document element or
    replaces it with a non-element, so a dry run that reports no
    conflicts is one a commit accepts. *)

type diff = { spine : (int, Node.element) Hashtbl.t }
(** The commit's touched-spine summary: each rebuilt spine element's
    {e fresh} id mapped to the pre-commit element it replaced.  Inserted
    and replacement subtrees are absent (nothing in the old tree pairs
    with them), as are shared subtrees (same value, same id).  The new
    root is in the map whenever the document element itself was rebuilt
    rather than replaced — the non-degenerate case downstream annotation
    repair requires. *)

val materialize : Pending.normalized -> Node.element -> (Node.element * diff) option
(** Apply a conflict-free normalized list.  [None] when the list is
    empty (nothing selected): the tree is unchanged and {e no new root
    exists} — callers must not treat this as a new version.  [Some
    (root', diff)] shares untouched subtrees with [root] physically.
    The walk enters only targets, the ancestors the list marks (see
    {!Pending.mark_ancestor}) and their children, ticking
    {!Core.Stats.nodes_visited} per element, and allocates only for rebuilt
    spine nodes, their diff entries and the fresh copies.
    Primitives targeting nodes inside a deleted or replaced subtree are
    subsumed (never applied), matching the reference engine's rebuild.

    @raise Invalid when the document element is deleted or replaced by a
    non-element. *)

val run :
  Core.Transform_ast.update list ->
  Node.element ->
  (report * (Node.element * diff) option, report) result
(** [stage] of the updates' {!plan} then, when conflict-free,
    [materialize].  [Error report] when the list has conflicts (the tree
    is untouched).

    @raise Invalid as {!materialize}. *)

val run_plan :
  plan -> Node.element -> (report * (Node.element * diff) option, report) result
(** {!run} on a compiled plan: the serving layer's COMMIT. *)
