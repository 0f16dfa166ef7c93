open Xut_automata

(** LRU cache of compiled transform-query plans, keyed by query text,
    plus composed (view chain × user query) plans keyed by chain
    signature.

    A plan bundles everything the front end produces — parsed AST and
    selecting NFA — so a cache hit goes straight to engine execution.
    On XMark-scale documents the front end is microseconds while
    evaluation is milliseconds; the cache matters because a serving
    workload repeats a small set of queries (the Fig. 11 workloads,
    security views, canned what-ifs) over large documents, and because
    it also deduplicates the per-query allocation churn across millions
    of requests. *)

type plan = {
  source : string;                 (** the exact query text (cache key) *)
  query : Core.Transform_ast.t;
  nfa : Selecting_nfa.t;
      (** selecting NFA of the embedded path; every engine runs this
          one, the SAX passes included *)
  annotations : Annotation_memo.t;
      (** per-plan memo of TD-BU annotation tables, keyed by doc root *)
  products : Product_memo.t;
      (** per-plan memo of NFA x schema products, keyed by schema name *)
}

val compile : string -> plan
(** Run the whole front end: parse, normalize, build the NFA.
    @raise Core.Transform_parser.Parse_error on bad transform syntax. *)

val annotation :
  ?skip:(Xut_xml.Node.element -> bool) -> plan -> Xut_xml.Node.element -> Annotator.table
(** The memoized bottom-up annotation of this document for this plan's
    NFA ({!Annotation_memo.find}).  This is the big per-request saving
    for repeated TD-BU queries on a stored document: the whole first
    pass of twoPass is amortized away, leaving only the top-down
    rebuild.  [skip] prunes the build without changing the table (see
    {!Annotation_memo.find}). *)

val product : plan -> Xut_schema.Schema.t -> Xut_schema.Schema.product * bool
(** The product of this plan's NFA with [schema], memoized per plan
    ({!Product_memo.get}): the statically-empty verdict and subtree
    skip-set the admission check and the pruned engines consume. *)

val max_annotated_docs : int
(** {!Annotation_memo.capacity}: the per-plan bound on memoized tables. *)

type t

val create : capacity:int -> t
(** LRU cache holding at most [capacity] plans (and, separately, at most
    [capacity] composed plans).
    @raise Invalid_argument when [capacity < 1]. *)

type outcome = Hit | Miss

val find_or_compile : t -> string -> plan * outcome
(** Return the cached plan for this query text, or compile and remember
    it, evicting the least recently used entry when full.  Raises as
    {!compile} on bad input; failures are not cached. *)

val write_plan : t -> string -> Xut_update.Apply.plan
(** The compiled plan of an APPLY or COMMIT text
    ({!Core.Transform_parser.parse_updates}, then {!Xut_update.Apply.plan}),
    kept under the text in an LRU table of its own, of the same
    capacity: a repeated write parses nothing and steps on the DFAs its
    last run warmed.  Raises as the parser on bad input; failures are
    not cached.  Not counted in {!stats}. *)

val find_or_compose :
  t ->
  key:string ->
  deps:string list ->
  (unit -> (Core.Composition.composed, string) result) ->
  (Core.Composition.composed, string) result * outcome
(** Return the cached composed plan under [key], or run the thunk and
    remember its result.  [key] must capture everything the result
    depends on — the serving layer uses the view-chain signature (base
    document name plus every view's [name\@generation]) and the user
    query text.  [deps] names the base document and every view on the
    chain, for {!invalidate_composed}.  Compose {e failures} are cached
    too: a query stays outside the fragment until a view on its chain is
    redefined, and the fallback path should not pay a recompose per
    request. *)

val invalidate_composed : t -> dep:string -> int
(** Drop every composed plan depending on this name (a base document or
    a view) — the dependency-graph hook document lifecycle events and
    view redefinitions drive.  Returns the number of entries dropped. *)

val composed_entries : t -> int

val invalidate : t -> root_id:int -> int
(** Remove the annotation table keyed by this document root id from
    {e every} cached plan — the cross-layer hook the document store's
    unload/reload events drive.  Returns the number of tables dropped
    (one per plan that had annotated that tree).  Never touches the
    plans themselves or other documents' tables. *)

type repair_totals = {
  repaired : int;          (** plan tables carried to the new root *)
  fallbacks : int;         (** plan tables evicted (degenerate diff) *)
  recomputed_nodes : int;  (** entries a commit-time annotation wrote, summed *)
  reused_nodes : int;      (** entries a re-key carried over, summed *)
  rekeyed : int;           (** repairs the commit could not reach: re-keyed *)
}

val repair :
  ?footprint:Xut_automata.Annotator.commit_footprint Lazy.t ->
  t ->
  old_root_id:int ->
  spine:(int, Xut_xml.Node.element) Hashtbl.t ->
  Xut_xml.Node.element ->
  repair_totals
(** The commit-time counterpart of {!invalidate}: for every cached plan
    holding a table for the departing root, derive the new root's table
    with {!Xut_automata.Annotator.repair} and memoize it, falling back
    to eviction when the diff is degenerate.  The old root's entry is
    {e kept} — readers already holding the pre-commit snapshot must
    still resolve its table — and ages out of the per-plan LRU
    ({!max_annotated_docs}) like any other entry.  Plans with no table
    for the old root are untouched (nothing to keep warm).  The repair
    takes no skip-set: the table it derives is the one any skip-set
    would build.  [footprint] is the commit's label footprint; when absent it is
    computed once, on the first plan that needs it, and shared by the
    rest. *)

val annotation_entries : t -> int
(** Total memoized annotation tables across all cached plans — the
    quantity the per-doc invalidation and LRU bounds keep from growing
    with load/unload churn. *)

type stats = {
  evictions : int;
  entries : int;
  capacity : int;
  annotation_entries : int;
  composed_entries : int;
}

val stats : t -> stats
