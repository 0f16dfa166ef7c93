open Xut_xml
open Xut_automata

(** Regular-tree-grammar schemas and their static product with a
    selecting NFA.

    A schema maps every element symbol to the regular language of its
    element-child sequence (a {!rx}).  For the static analysis the
    grammar is compiled to its {e reachability projection}: per parent
    symbol, the set of child symbols its language mentions — a
    symbol-reachability automaton over interned {!Xut_xml.Sym.t}.
    Document validation enforces the same projection (child-symbol
    membership; order and cardinality of the declared language are not
    checked), which is exactly the invariant the product below relies
    on, so a validated binding is sufficient for sound pruning.  Text,
    comment and PI children are always permitted: the grammar constrains
    element structure only.

    {!product} intersects a schema with a per-plan
    {!Xut_automata.Selecting_nfa}: a breadth-first exploration of
    configurations keyed by [(symbol, parent's DFA configuration)] — the
    configuration's id standing for the parent's NFA state set and
    candidate seeds ({!Xut_automata.Dfa}) — each entered through
    {!Xut_automata.Dfa.step}, the one
    {!Xut_automata.Annotator.annotate} takes at every element — but
    walking the schema graph instead of a concrete tree.  Because a
    conforming document only realizes parent/child edges the schema has,
    every configuration the runtime can reach at a node is an explored
    configuration of that node's symbol.  Hence:

    - if no explored configuration accepts (and the path does not select
      the context node), the query selects nothing in {e any} conforming
      document — the {e statically-empty} verdict;
    - if every explored configuration of a symbol neither accepts, nor
      demands qualifier seeds, nor has a descendant configuration that
      does, then subtrees rooted at that symbol can never contribute a
      match, a qualifier entry, or an output change — the symbol is in
      the {e skip-set}, and the engines may share such subtrees without
      descending.  Skipping changes neither the annotation table (no
      seeds anywhere below means the unpruned pass writes no entries
      there) nor the transform output (no acceptance below means the
      subtree is returned shared either way), which is what keeps
      incremental repair and the memoized tables exact. *)

type rx =
  | Empty          (** no element children (text-only or empty content) *)
  | Elem of string
  | Seq of rx list
  | Alt of rx list
  | Star of rx
  | Opt of rx
  | Plus of rx

type t

val define : name:string -> root:string -> (string * rx) list -> (t, string) result
(** [define ~name ~root decls] builds a schema.  Every symbol mentioned
    in a content expression must itself be declared (closed grammar),
    [root] included; duplicate declarations are rejected. *)

val name : t -> string

(** {2 Registry}

    A process-wide name -> schema table, so the service layer can
    resolve the [LOAD name file SCHEMA s] binding by name.  Built-ins
    (the XMark [site] schema) are registered by the CLI/tests at
    startup. *)

val register : t -> unit
(** Idempotent per name; re-registering replaces. *)

val find : string -> t option

(** {2 Validation} *)

val validate : t -> Node.element -> (unit, string) result
(** Conformance of a whole tree: the root's symbol is the schema root
    and every element's children are allowed under it (edges of the
    reachability projection). *)

val validate_commit :
  t -> spine:(int, Node.element) Hashtbl.t -> Node.element -> (unit, string) result
(** Incremental re-validation across a commit whose materialization
    produced [spine] (fresh spine id -> replaced old element, as in
    {!Xut_update.Apply}).  Shared subtrees kept their ids and were valid
    before, so only the child edges of rebuilt spine nodes and freshly
    inserted material are checked; nothing is copied.  [Error _] means
    the post-commit tree no longer conforms (the caller drops the schema
    binding; the commit itself stands). *)

(** {2 The product} *)

type product

val product : t -> Selecting_nfa.t -> product
(** Explore the configuration graph (capped — see {!capped}). *)

val statically_empty : product -> bool
(** No reachable configuration accepts and the path does not select the
    context node: the query selects nothing in any conforming
    document. *)

val skippable : product -> Sym.t -> bool
(** [true] iff subtrees rooted at this symbol can be shared without
    descending (see above).  Always [false] for symbols outside the
    explored region and for any symbol when the exploration was
    {!capped}. *)

val skip_count : product -> int
(** Number of skippable symbols (0 when {!capped}). *)

val capped : product -> bool
(** The exploration hit the configuration cap and the product degraded
    to the sound no-pruning answer ([statically_empty = false], empty
    skip-set). *)
