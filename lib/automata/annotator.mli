open Xut_xml

(** The bottom-up qualifier-annotation pass (algorithm [bottomUp] of
    Section 5, Fig. 9), implemented natively on DOM trees.

    One post-order traversal evaluates, at every node the filtering
    machinery keeps alive, the truth of the LQ sub-qualifiers that are
    needed there ({!Lq.eval} is QualDP of Fig. 7), and records them in
    a side table keyed by element id.  Subtrees that no selecting-NFA
    state and no propagated qualifier need can be pruned without a visit
    — the role of the paper's filtering NFA (see DESIGN.md).

    Every pass enters an element through {!Dfa.step}: the tree walk,
    the SAX pass (Section 6) and the schema product all read what
    bottomUp does there from the plan's lazy DFA.

    The table then makes [checkp] O(1) for the Top Down method, giving
    the linear-time twoPass (TD-BU) evaluation. *)

type table
(** The truths, by element id, in an {!Xut_xml.Id_table} (open
    addressing with linear probing, at most half full).  An element's
    value is the set of LQ expressions true at it, as a bitset of 62 to
    a word ({!Xut_xpath.Lq.set}'s immediate form), so for lists of up to
    62 expressions (every Fig. 11 plan) one word, stored unboxed; a
    longer list takes as many words as it needs.  [checkp] and [sat]
    are one probe and one bit test, with no hashing of a boxed key, no
    polymorphic compare and no exception; [annotate] writes each entry
    into the value array, allocating nothing per entry.

    A re-key's table ({!repair}) is an {e overlay}: small arrays of the
    moved spine entries only, under their fresh ids, above the old
    table, which it shares and never writes.  A fresh id is allocated
    after every element of the old tree, so an id at or above the
    overlay's least fresh id is answered by the overlay and any other
    by the table below: a lookup passes one integer comparison per
    overlay and still makes one probe, and a table with no overlay
    (every {!annotate}d one) makes its probe directly.  A re-key over a
    chain of {!max_overlay_depth} overlays flattens the chain into one
    table first.  Entries are defined for the elements of the tree the table was
    built or repaired for.  A table is written only while it is built
    or repaired, by the domain doing it, and only read once it is
    returned. *)

(** {2 The tree pass} *)

val annotate : ?skip:(Node.element -> bool) -> Selecting_nfa.t -> Node.element -> table
(** Run the pass from the document element, with the start set of the
    NFA (the root's label is consumed by the first transition, matching
    the [$a/p] convention).  [skip], when given, is a schema skip-set
    oracle: a [true] answer promises every configuration at or below the
    argument is seed-free, so the subtree is left unvisited — the table
    is identical with or without the oracle, just cheaper to build. *)

type repair_stats = {
  recomputed : int;  (** entries a commit-time {!annotate} wrote *)
  reused : int;      (** entries a re-key carried over from the old table *)
  rekeyed : bool;    (** the plan could not observe the commit: re-keyed *)
}

type commit_footprint
(** What one commit touched, by label: the labels of its inserted,
    replacement and departed material, both names of each rename, and
    the labels of its rebuilt spine, as two bitsets over symbols, so
    testing a plan's labels against them is a bit test per label. *)

val commit_footprint : spine:(int, Node.element) Hashtbl.t -> Node.element -> commit_footprint
(** [commit_footprint ~spine new_root], from the diff alone: one walk of
    the spine pairs ({!Xut_xml.Node.align}) plus the inserted and
    departed material.  Compute it once per commit and hand it to every
    [repair] of that commit. *)

val repair :
  ?footprint:commit_footprint Lazy.t ->
  Selecting_nfa.t ->
  old_table:table ->
  spine:(int, Node.element) Hashtbl.t ->
  Node.element ->
  (table * repair_stats) option
(** The table of the committed tree [new_root], carried across a
    commit.  [spine] maps each fresh spine element's id in the
    post-commit tree to the pre-commit element it replaced
    ({!Xut_update.Apply.materialize}'s diff).  The result answers
    [sat] and [checkp] entry for entry as [annotate nfa new_root] does,
    and so as a build under any skip-set.

    The first test decides whether the plan can observe the commit at
    all.  When no label of the plan's {!Selecting_nfa.footprint} was
    inserted, removed or renamed, and no label it compares text at lies
    on the rebuilt spine, every entry stands as it was: entries are
    subtree-local, and untouched subtrees keep their ids.  The result
    is then the old table with each spine entry moved from its old id
    to its fresh id, with no evaluation ([rekeyed = true]): an overlay
    of the moved entries over the old table, copying nothing else, or
    the old table itself when no spine element held an entry.  A plan
    that can observe the commit gets [annotate nfa new_root], with no
    skip-set, and a plan with no qualifiers the empty table.
    [footprint] is the commit's {!commit_footprint}, forced only for
    plans with qualifiers; a lazy value shared across one commit's
    repairs computes it once, and it is computed from [spine] when
    absent.

    [None] when the diff is degenerate — the new root
    is not a rebuild of the old one (document element replaced) — and
    the caller must fall back to a full [annotate].  The old table is
    never mutated: concurrent readers of the pre-commit snapshot keep
    resolving it. *)

val sat : table -> Node.element -> int -> bool
(** [sat tbl n i]: truth of LQ expression [i] at node [n] ([false] for
    pruned or never-needed entries). *)

val checkp : table -> Selecting_nfa.t -> int -> Node.element -> bool
(** [checkp tbl nfa s n]: constant-time qualifier check for NFA state
    [s] at node [n], for use with {!Dfa.next}.  [checkp tbl nfa] is the
    checker a walk takes once: each call is one probe and one bit
    test. *)

val annotated_count : table -> int
(** Number of elements that were actually visited and annotated
    (instrumentation: shows the pruning at work). *)

val overlay_depth : table -> int
(** Overlays stacked in the table's chain: 0 for a flat table, at most
    {!max_overlay_depth} (instrumentation, for the tests of the
    re-key). *)

val max_overlay_depth : int
(** 8: the overlays a chain of re-keys stacks before the next re-key
    flattens it. *)

val wrapped : table -> int
(** {!Xut_xml.Id_table.wrapped} of the table's own entries
    (instrumentation, for the tests of the probe). *)
