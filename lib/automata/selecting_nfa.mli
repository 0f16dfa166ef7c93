open Xut_xpath

(** Selecting NFA for X expressions (Section 3.4).

    For [p] in the normal form [beta_1\[q_1\]/.../beta_k\[q_k\]] the
    automaton has the semi-linear structure of Fig. 5: a start state
    [(s_0,\[true\])], one state per step, epsilon transitions into ['//']
    states and a ['*'] self-loop on them.

    A qualified ['//'] step ([//.\[q\]]) is two states: the ['//'] state,
    unqualified, and a test state ({!K_desc_test}) carrying [q], entered by
    epsilon from it at each node where [q] holds.  The next step leaves
    from the test state, so [q] is checked at the node that step leaves
    from (the node where the ['//'] starts included), and a node that fails
    [q] keeps the ['//'] loop for the nodes below it.  Where the ['//'] starts
    at the document node, [q] is checked there ({!start_checked}).

    State sets are bitsets ({!type:set}): a single immediate [int] when the
    automaton has at most 62 states (the common case — one state per
    normalized step), a [Bytes]-backed bitset above.  Epsilon closures are
    precomputed per state when the automaton is built, and labels are
    compared as interned symbols ({!Xut_xml.Sym}).  The functions below
    compute a transition each time they are called: the walks step
    through the plan's lazy DFA ({!Dfa}), which keeps each transition it
    takes, and reach this module only on a DFA miss.  The automaton fixes
    the DFA's alphabet when it is built: one letter per label its states
    and qualifiers name ({!named}), one for every other symbol.

    The same structure doubles as the filtering NFA of Section 5: the LQ
    list built from all qualifiers is embedded ({!lq}), and each state
    knows the LQ index of its qualifier, which seeds the needs-propagation
    that stands in for the filtering NFA's qualifier chains (DESIGN.md). *)

type kind = K_start | K_label of string | K_wild | K_desc | K_desc_test

type t

val of_path : Ast.path -> t

val size : t -> int
(** Number of states (k + 1). *)

val final : t -> int

val lq : t -> Lq.t

val kind : t -> int -> kind
val state_qual : t -> int -> Ast.qual
(** Conjunction of the qualifiers attached to the state's step. *)

val state_lq : t -> int -> int
(** LQ index of {!state_qual}. *)

val state_lqs : t -> int array
(** Every state's {!state_lq}, by state: the automaton's own array, to
    be read only. *)

val has_qual : t -> int -> bool
(** Whether the state's qualifier is non-trivial. *)

val ctx_qual : t -> Ast.qual
(** Qualifier applying to the context node (from leading '.' steps). *)

type footprint = {
  labels : Xut_xml.Sym.t list;
      (** every label a selecting or qualifier step names: the only
          labels of the nodes an annotation table holds entries for *)
  compared : Xut_xml.Sym.t list;
      (** the labels at which a qualifier compares a node's string value
          (a subset of [labels]) *)
}

val footprint : t -> footprint option
(** The label footprint of the annotation pass, computed once when the
    automaton is built.  [None] (unbounded) when a wildcard step, a
    [//] step inside a qualifier, or a [//] step carrying qualifiers
    lets entries sit at nodes of any label.  Attribute tests add
    nothing (no update edits an existing node's attributes), nor does
    the context qualifier (never tabled). *)

val label_mask : t -> int
(** The label bits a subtree must meet to hold a selected node.  When
    the final state is a label state, every node the automaton selects
    carries that label, so the mask is its {!Xut_xml.Node.label_bit};
    otherwise (a wildcard, [//] or empty final step) it is all ones.
    An element [e] with [Node.labels e land label_mask t = 0] has no
    selected node at or below it: the summary's clear bits are exact,
    whatever the document's schema.  The tree walks ([Top_down]'s run
    and count, [Apply.select]) share such a subtree without a
    transition.  Computed once by {!of_path}. *)

type attached = ..
(* What another module derives from the automaton and keeps with it
   ({!Dfa.of_nfa}), so every run of a plan reads it. *)

type attached += Nothing

val attached : t -> attached

val attach : t -> attached -> attached
(** [attach t a] attaches [a] unless something is attached already, and
    answers what stays attached: domains racing to attach all get the
    same one. *)

val selects_context : t -> bool
(** True iff the path is empty (the final state is the start state, so
    the context node itself is selected). *)

(** {2 Bitset state sets (the hot-path representation)} *)

type set
(** An immutable set of states of one particular automaton.  Sets from
    different automata must not be mixed (checked only for automata of
    different widths). *)

val start : t -> set
(** Epsilon-closure of the start state, test states unchecked: the state
    set at the document node when {!checks_document} is false, and an
    over-approximation of it otherwise. *)

val checks_document : t -> bool
(** Whether the start state's closure reaches a test state: the path
    begins with [//.\[q\]], so [q] is checked at the document node. *)

val start_checked : t -> checkp:(int -> 'a -> bool) -> 'a -> set
(** The state set at the document node: the start state's closure with
    each test state [s] kept only where [checkp s x] (evaluated at the
    document node) holds.  {!start} itself unless {!checks_document}. *)

val set_of_list : t -> int list -> set
val set_to_list : set -> int list
(** Ascending. *)

val set_is_empty : set -> bool
val set_equal : set -> set -> bool
val set_inter : set -> set -> set

val set_intersects : set -> set -> bool
(** [not (set_is_empty (set_inter a b))], without allocating. *)

val set_fold : (int -> 'a -> 'a) -> set -> 'a -> 'a
(** Folds in ascending state order. *)

val accepts_set : t -> set -> bool
(** Does the set contain the final state? *)

val qual_states : t -> set
(** States with a non-trivial qualifier.  [set_inter s (qual_states t)]
    being empty is the one-instruction fast path that skips all
    per-node qualifier bookkeeping. *)

type transition = private {
  closed : set;  (** the targets and their closure, qualifiers unchecked *)
  checks : set;
      (** the states whose qualifier a checked step tests: the targets
          with a non-trivial qualifier, and the test states where the
          checked closures of the others stop (empty: none) *)
  closed_nq : set;  (** the checked closure of the other targets *)
}

val transition : t -> set -> Xut_xml.Sym.t -> transition
(** The transition from [s] on a node labelled [sym], in pieces. *)

val checked : t -> transition -> checkp:(int -> 'a -> bool) -> 'a -> set
(** [checked t tr ~checkp x]: [nextStates] of Fig. 4 from the pieces.
    [checkp s x] must say whether the qualifier of state [s] holds at the
    node being entered; [x] is that node, or whatever the caller keeps
    beside it, so a walk passes one checker for the whole run instead of
    a closure per node.  States whose qualifier fails are dropped before
    the closure, and the closure enters a test state only where its
    qualifier holds.  Allocates only a result that is neither [closed]
    nor [closed_nq]. *)

val next : t -> checkp:(int -> 'a -> bool) -> 'a -> set -> Xut_xml.Sym.t -> set
(** [checked] of [transition]. *)

val next_unchecked : t -> set -> Xut_xml.Sym.t -> set
(** Transition ignoring qualifiers (the over-approximation the bottom-up
    pass runs on, Fig. 9 lines 1–2): [closed]. *)

val named : t -> Xut_xml.Sym.t list
(** The labels its label states and its qualifiers name, interned when
    the automaton is built.  From one set, the transitions on any two
    symbols it does not name agree, and so does everything the bottom-up
    pass derives from a label ({!Xut_xpath.Lq.label_blocked}): the
    plan's DFA gives them one letter. *)

val consistent_at_sym : t -> int -> Xut_xml.Sym.t -> bool
(** Could state [s] be the current state at a node labelled [sym]?  A
    label state requires the matching label; start, wildcard and
    descendant states fit any node.  Settles statically computed
    (delta') sets against a concrete node. *)

(** {2 Static simulation (Compose Method, Section 4)}

    Transitions that ignore qualifiers, on any label, or on zero or more
    any-label steps, computed.  [delta'] on one label is
    {!next_unchecked}. *)

val next_on_any_set : t -> set -> set
val next_on_desc_set : t -> set -> set

(** {2 Reference implementation}

    The original list-based transition functions, kept as the oracle for
    the bitset core's equivalence tests.  Not used by the engines. *)

module Reference : sig
  val start_set : t -> int list
  val next_states : t -> checkp:(int -> bool) -> int list -> string -> int list
  val next_states_unchecked : t -> int list -> string -> int list
  val accepts : t -> int list -> bool
  val next_on_label : t -> int list -> string -> int list
  val next_on_any : t -> int list -> int list
  val next_on_desc : t -> int list -> int list
end

val to_string : t -> string
