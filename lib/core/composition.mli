open Xut_xml
open Xut_xquery
open Xut_automata

(** Composing user and transform queries (Section 4).

    Given a transform query [Qt] and a user query [Q], the Compose Method
    produces one query [Qc] with [Qc(T) = Q(Qt(T))]: the selecting NFA of
    the embedded path is executed {e statically} over the steps of the
    user query's paths (treating them as words, via delta'), and only
    where a final state shows that the update can touch the data does the
    composed query invoke the runtime [topDown] helper
    ({!Top_down.transform_at}) on the — typically small — subtree at
    hand.  Everywhere else the user query's navigation runs untouched on
    the stored document: no copy, no full traversal.

    All update kinds compose.  Beyond the paper's detailed insert/delete
    cases, relabeling updates (replace, rename) are handled by widening
    the static simulation (a matched node can gain or lose a step's
    label, so label transitions become wildcards where a match is
    possible) and judging candidacy against the transformed view at run
    time; a '//' user step followed by further steps runs as a single
    product walk of the user-suffix NFA and the update NFA, preserving
    the set semantics and document order of path expressions.

    A composed plan is {e immutable and shareable}: the mutable runtime
    state its natives need (NFA state tables, transform memos) is
    instantiated afresh for every evaluation, so one cached plan can be
    evaluated concurrently on several domains. *)

type composed
(** A compiled composition: the rewritten expression plus a factory for
    its runtime natives. *)

val native_count : composed -> int
(** How many runtime helpers the composed expression references (0 when
    the update provably cannot touch the query's data). *)

val check_update : Transform_ast.update -> (Selecting_nfa.t, string) result
(** The update-side fragment check shared with view definition time:
    [Error reason] when the update path is empty, carries a context
    qualifier, or can only ever select the document element itself (a
    single child step, which no document makes legal to delete or
    replace); [Ok nfa] otherwise, with the update path's selecting
    NFA. *)

val compose : Transform_ast.update -> User_query.t -> (composed, string) result
(** [Error reason] when the pair falls outside the fragment (empty or
    context-qualified update paths, context-qualified user sources). *)

val compose_stack :
  Transform_ast.update list -> User_query.t -> (composed, string) result
(** Compose a {e chain} of updates (innermost — applied first — at the
    head) with a user query, so that the result over [T] equals the user
    query over [u_n(...(u_1(T)))].  An empty chain is the user query
    unchanged; a singleton delegates to {!compose}; longer chains run as
    one product walk maintaining every level's selecting-NFA state set
    simultaneously over the base tree. *)

val run_composed : ?oracle:Top_down.checkp -> composed -> doc:Node.element -> Xq_value.t
(** Evaluate with freshly instantiated natives.  [oracle], when given,
    answers qualifier checks for {e base-tree} nodes in O(1) (a memoized
    TD-BU annotation table for the innermost update's NFA); it is only
    ever consulted on nodes of [doc]. *)

val run : Transform_ast.update -> User_query.t -> doc:Node.element -> Xq_value.t
(** Compose if possible, otherwise fall back to {!naive}. *)

val naive : ?algo:Engine.algo -> Transform_ast.update -> User_query.t -> doc:Node.element -> Xq_value.t
(** The Naive Composition Method, {!naive_stack} of the one update:
    evaluate the transform query first (with GENTOP by default, as in
    Section 7.2), then the user query on the materialized result. *)

val naive_stack :
  ?algo:Engine.algo -> Transform_ast.update list -> User_query.t -> doc:Node.element -> Xq_value.t
(** Materialize the chain (innermost first), then run the user query. *)

val to_string : composed -> string
(** The composed query as XQuery text ([xut:nav<i>]/[xut:pipe<i>]/
    [xut:fin<i>]/[xut:stack<i>] name the runtime helpers). *)
