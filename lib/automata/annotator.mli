open Xut_xml

(** The bottom-up qualifier-annotation pass (algorithm [bottomUp] of
    Section 5, Fig. 9), implemented natively on DOM trees.

    One post-order traversal evaluates, at every node the filtering
    machinery keeps alive, the truth of the LQ sub-qualifiers that are
    needed there ({!Lq.eval} is QualDP of Fig. 7), and records them in
    a side table keyed by element id.  Subtrees that no selecting-NFA
    state and no propagated qualifier need can be pruned without a visit
    — the role of the paper's filtering NFA (see DESIGN.md).

    Every pass enters an element through {!step}: the tree walk, its
    commit-time {!repair}, the SAX pass (Section 6) and the schema
    product all read what bottomUp does there from one memo.

    The table then makes [checkp] O(1) for the Top Down method, giving
    the linear-time twoPass (TD-BU) evaluation. *)

type table

(** {2 The step into an element} *)

type demand = private {
  seeds : Xut_xpath.Lq.set;
      (** the expressions to evaluate at the element (empty: none) *)
  candidates : Xut_xpath.Lq.set;  (** its children's candidate seeds *)
  own : int array;
      (** the LQ indices of the qualifiers its own states carry, whose
          truths the selecting NFA reads *)
  reads_text : bool;  (** whether an expression it evaluates compares its text *)
}

type step = private {
  states : Selecting_nfa.set;  (** the element's unchecked state set *)
  demand : demand;  (** what bottomUp evaluates at it *)
  reaches : bool;
      (** whether a node strictly below it can enter a qualifier state,
          transitions unchecked: when not, and it seeds nothing, bottomUp
          has nothing to evaluate in its subtree *)
}

type demands
(** A memo of steps, kept with the automaton of a plan: every run of
    the plan, on any domain, reads what an earlier one computed.
    Bounded and domain-safe as the transition memo is: a fixed table
    whose full probe window overwrites an entry, and a racing store may
    be lost, never torn. *)

val steps : Selecting_nfa.t -> demands
(** The automaton's memo, attached to it at the first call. *)

val computed : demands -> int
(** How many steps the memo has computed (a miss each). *)

val no_demand : demands -> demand
(** The demand of an element that evaluates nothing. *)

val step :
  demands -> Counter.local -> Xut_xpath.Lq.set -> Selecting_nfa.set -> Sym.t -> step
(** [step m here candidates parent sym]: an element labelled [sym] whose
    parent passes down [candidates] and has the unchecked state set
    [parent]: its states ({!Selecting_nfa.next_unchecked}, counted in
    [here]), and what bottomUp evaluates there: the candidates its label
    does not block and the qualifiers of its states, closed under
    sub-expressions with short-circuiting on label guards, and the
    [*/p] and [//p] expressions its children inherit.  Computed once per
    distinct triple while its entry stays in the table; a repeated
    triple it finds allocates nothing. *)

val document_demand : demands -> name:string -> demand
(** The demand at the virtual document node, named [name]: the
    qualifiers its start set carries. *)

(** {2 The tree pass} *)

val annotate : ?skip:(Node.element -> bool) -> Selecting_nfa.t -> Node.element -> table
(** Run the pass from the document element, with the start set of the
    NFA (the root's label is consumed by the first transition, matching
    the [$a/p] convention).  [skip], when given, is a schema skip-set
    oracle: a [true] answer promises every configuration at or below the
    argument is seed-free, so the subtree is left unvisited — the table
    is identical with or without the oracle, just cheaper to build. *)

type repair_stats = {
  recomputed : int;  (** entries written for fresh ids (spine + new material) *)
  reused : int;      (** entries carried over from the old table *)
  dropped : int;     (** stale old entries removed (departed subtrees) *)
  rekeyed : bool;    (** the plan could not observe the commit: re-keyed *)
}

type commit_footprint
(** What one commit touched, by label: the labels of its inserted,
    replacement and departed material, both names of each rename, and
    the labels of its rebuilt spine. *)

val commit_footprint : spine:(int, Node.element) Hashtbl.t -> Node.element -> commit_footprint
(** [commit_footprint ~spine new_root], from the diff alone: one walk of
    the spine pairs ([repair]'s child alignment) plus the inserted and
    departed material.  Compute it once per commit and hand it to every
    [repair] of that commit. *)

val repair :
  ?footprint:commit_footprint Lazy.t ->
  Selecting_nfa.t ->
  old_table:table ->
  spine:(int, Node.element) Hashtbl.t ->
  Node.element ->
  (table * repair_stats) option
(** Incremental maintenance across a commit.  [spine] maps each fresh
    spine element's id in the post-commit tree to the pre-commit element
    it replaced ({!Xut_update.Apply.materialize}'s diff).  Because
    entries are subtree-local and untouched subtrees keep their ids, the
    result is entry-for-entry equal to [annotate nfa new_root], and so
    to a build under any skip-set: repair takes none, and annotates
    fresh material unpruned.  The
    cost is one copy of the old table plus O(spine nodes + their
    children + fresh material + the old entries it drops): a shared
    child of a spine node is passed over unvisited unless the demand
    reaching it changed (e.g. a rename above it), in which case its
    subtree is re-annotated, and stale entries are found by replaying
    the old run's walk only where that run wrote.

    The first test decides whether the plan can observe the commit at
    all.  When no label of the plan's {!Selecting_nfa.footprint} was
    inserted, removed or renamed, and no label it compares text at lies
    on the rebuilt spine, every entry stands as it was: the result is
    the old table with each spine entry moved from its old id to its
    fresh id, with no evaluation ([rekeyed = true]).  [footprint] is
    the commit's {!commit_footprint}, forced only for plans with
    qualifiers; a lazy value shared across one commit's repairs computes
    it once, and it is computed from [spine] when absent.

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
    [s] at node [n], for use with {!Selecting_nfa.next_states}. *)

val annotated_count : table -> int
(** Number of elements that were actually visited and annotated
    (instrumentation: shows the pruning at work). *)
