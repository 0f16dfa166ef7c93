open Xut_xml

(** The lazy DFA of a plan (Green et al., "Processing XML Streams with
    Deterministic Automata", ICDT 2003): the selecting NFA's state sets
    (Section 3.4) and the needs propagation of the bottom-up pass
    (Section 5), determinized on demand and kept with the automaton.

    A {e configuration} is a state set together with the candidate seeds
    an element in it passes down to its children.  The state set is the
    unchecked one for the bottom-up pass and the checked one for topDown,
    whose configurations pass down no candidates.  Each configuration a
    walk reaches is interned as a small int, its id.

    The alphabet is the plan's: one letter per label its states and
    qualifiers name ({!Selecting_nfa.named}), and one letter for every other
    symbol, since such symbols step alike in the automaton and are
    blocked alike by every label guard.  A step from a configuration on
    a symbol is then one read of [table.(id * letters + letter)], with no
    hashing; the record it finds holds everything the walks read there.
    A miss computes the step from the NFA under one per-plan mutex and
    stores it; reads take no lock (the publication order is argued in
    dfa.ml).  Every step counts as [nfa_memo_hits] when found and
    [nfa_memo_misses] when computed, in the caller's cells.

    The table starts with room for a few ids and doubles.  At most
    {!id_cap} configurations get an id; past it, a configuration has id
    [-1] and every step from it is computed and not stored, so input
    that brings many configurations costs time, never memory. *)

type t

val of_nfa : Selecting_nfa.t -> t
(** The automaton's DFA, attached to it at the first call; every domain
    gets the same one. *)

val nfa : t -> Selecting_nfa.t

val id_cap : int

type config = private {
  id : int;  (** [-1] past {!id_cap} *)
  states : Selecting_nfa.set;
  cands : Xut_xpath.Lq.set;  (** the candidate seeds it passes down *)
  accepts : bool;  (** [states] holds the final state *)
  empty : bool;  (** [states] is empty *)
  moves : bool;  (** a child can hold a state: [states] has an any-label transition *)
}
(** Interned: two configurations with ids are the same configuration iff
    they are physically equal. *)

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
  child : config;
      (** the element's configuration for the bottom-up pass: its
          unchecked states and [demand.candidates] *)
  plain : config;
      (** its unchecked states, passing nothing down: topDown's
          configuration there when no qualifier is checked, or every
          checked one holds *)
  unmet : config;  (** topDown's configuration there when no checked qualifier holds *)
  demand : demand;  (** what bottomUp evaluates at it *)
  reaches : bool;
      (** whether a node strictly below it can enter a qualifier state,
          transitions unchecked: when not, and it seeds nothing, bottomUp
          has nothing to evaluate in its subtree *)
  tr : Selecting_nfa.transition;  (** the pieces a checked step reads *)
  gated : bool;  (** [tr.checks] is not empty: topDown checks qualifiers *)
  mutable checked : config list;
}

val unused : t -> step
(** A step no walk takes: what a frame array holds where no frame is. *)

val start : t -> config
(** The start set, passing nothing down. *)

val start_checked : t -> checkp:(int -> 'a -> bool) -> 'a -> config
(** {!Selecting_nfa.start_checked}'s configuration: {!start} unless the
    path tests the document node. *)

val config : t -> ?cands:Xut_xpath.Lq.set -> Selecting_nfa.set -> config
(** The configuration of a set computed outside the DFA (a static
    simulation, a settled set), passing down [cands] (default: none),
    interned under the mutex. *)

val document_demand : t -> name:string -> demand
(** The demand at the virtual document node, named [name]: the
    qualifiers its start set carries. *)

val step : t -> Counter.local -> config -> Sym.t -> step
(** [step t here c sym]: an element labelled [sym] whose parent is in
    [c].  Its states ({!Selecting_nfa.next_unchecked}) and what bottomUp
    evaluates there: the candidates its label does not block and the
    qualifiers of its states, closed under sub-expressions with
    short-circuiting on label guards, and the [*/p] and [//p]
    expressions its children inherit.  A step it finds allocates
    nothing. *)

val next : t -> Counter.local -> checkp:(int -> 'a -> bool) -> 'a -> config -> Sym.t -> config
(** topDown's step ({!Selecting_nfa.next}) from a configuration of
    checked states: [plain] unless a qualifier is checked, else the
    configuration of the checked states.  Allocates nothing once the
    outcome has been met, unless some checked qualifiers hold and some
    do not. *)

val computed : t -> int
(** Steps computed so far (a miss each). *)

val size : t -> int
(** Configurations interned so far. *)

val configs : t -> config list
(** Every interned configuration, by id. *)
