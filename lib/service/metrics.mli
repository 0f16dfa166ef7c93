(** Service-level metrics, all domain-safe, and the [STATS] dump.

    Every metric is declared once, in a registry built at module
    initialisation, under its [STATS] name and one of three kinds:
    - a {e counter}: an atomic cell that {!reset} zeroes;
    - a {e gauge}: an atomic cell that {!reset} leaves alone, because it
      tracks live state ([queue_depth], [conns_active]);
    - a {e derived line}: rendered at dump time from one of the two
      power-of-two histograms (request latency, pending-list length), the
      queue high-water mark, the lazy-DFA step counters or the symbol
      table;
    - the process-wide counters ({!Xut_xml.Counter}), all in one
      declaration: they are shared by every service in the process and
      never reset.

    {!dump} prints one ["name value"] line per declaration (per counter
    for the process-wide one), in declaration order.  Recording is one atomic operation on a
    preallocated cell (a few for the compound events): no allocation, no
    lock, no lookup by name.  Quantiles come from the histogram buckets,
    so no per-request sample is kept.  Each reader is named after its
    [STATS] line; a line without a reader is read from {!dump}. *)

type t

val create : unit -> t

val reset : t -> unit
(** Zero every counter and clear both histograms.  The gauges survive
    (the queued requests and open connections do), and
    [queue_depth_max] restarts at the live queue depth.  The
    process-wide counters are not the service's and stay. *)

val dump : t -> string
(** The [STATS] payload: one line per declared metric, in declaration
    order, with no trailing newline. *)

(** {2 Requests, queue and latency}

    The worker pool calls {!queue_enter} on enqueue and {!queue_leave}
    on dequeue; [queue_depth] is the instantaneous depth. *)

val incr_requests : t -> unit
val incr_errors : t -> unit
val incr_cache_hits : t -> unit
val incr_cache_misses : t -> unit
val queue_enter : t -> unit
val queue_leave : t -> unit

val record_latency : t -> float -> unit
(** [record_latency m seconds] adds one observation. *)

val requests : t -> int
val errors : t -> int
val cache_hits : t -> int
val cache_misses : t -> int

val max_queue_depth : t -> int
(** The queue high-water mark ([queue_depth_max]). *)

(** {2 Transport}

    Maintained by the socket server ({!Xut_transport.Server}), so one
    [STATS] request reports the whole serving path.  A frame's size is
    header plus payload; a malformed frame failed header validation or
    payload decoding, or was truncated by a disconnect or timeout. *)

val conn_accepted : t -> unit
(** Bumps [conns_accepted] and the [conns_active] gauge. *)

val conn_closed : t -> unit
(** An accepted connection ended: drops the [conns_active] gauge. *)

val conn_rejected : t -> unit
(** A connection was turned away at the limit (BUSY). *)

val frame_in : t -> int -> unit
val frame_out : t -> int -> unit
val frame_malformed : t -> unit

(** {2 Streaming}

    Result streams started and the chunks and payload bytes handed to
    consumers; streaming-ingest requests that ran fused (one-pass SAX, no
    tree) and those a fallback path served with
    byte-identical output because the plan needs the bottom-up pass or a
    materialized tree. *)

val stream_started : t -> unit
val stream_chunk : t -> int -> unit
val incr_streams_fused : t -> unit
val incr_stream_fallbacks : t -> unit
val stream_bytes : t -> int
val streams_fused : t -> int
val stream_fallbacks : t -> int

(** {2 Document lifecycle and annotation repair}

    [schema_bindings_dropped]: COMMITs whose result no longer conforms
    to the bound schema ({!Doc_store.commit}).  [doc_invalidations]:
    annotation tables evicted from cached plans because their document
    was unloaded or replaced, or a repair fell back.  Per-plan tables
    carried across a commit by {!Plan_cache.repair}
    ([annotation_repairs]), evicted because the diff was degenerate
    ([repair_fallbacks]), and the summed entries the repairs recomputed
    versus carried over — the incrementality the repair buys over full
    re-annotation.  [repair_rekeyed] counts the repairs whose plan
    could not observe the commit, so the table was only re-keyed. *)

val incr_schema_bindings_dropped : t -> unit
val add_doc_invalidations : t -> int -> unit

val add_repairs :
  t -> repaired:int -> fallbacks:int -> recomputed:int -> reused:int -> rekeyed:int -> unit

val annotation_repairs : t -> int
val repair_fallbacks : t -> int
val repair_recomputed_nodes : t -> int
val repair_reused_nodes : t -> int

(** {2 Views}

    Views (re)defined; requests answered by a composed plan against a
    view; compositions performed rather than served from the
    composed-plan cache; composed plans and view memos dropped or
    repaired by the dependency-graph walk; and requests that fell back
    to naive materialization because the query or chain was outside the
    composable fragment. *)

val incr_view_defs : t -> unit
val incr_view_hits : t -> unit
val incr_composed_plans : t -> unit
val add_view_invalidations : t -> int -> unit
val incr_compose_fallbacks : t -> unit
val view_hits : t -> int
val composed_plans : t -> int
val compose_fallbacks : t -> int

(** {2 Schema pruning}

    Element subtrees the skip-set pruned without a visit and the exact
    number of elements inside them (the counts their roots store: work
    avoided, not done), in TD-BU's cold annotation pass and in
    twoPassSAX (the topDown walks prune by label summary instead and
    count those subtrees only as [nodes_shared]); requests rejected at
    admission because the NFA x schema product proved the query selects
    nothing; and products constructed rather than served from a
    per-plan memo. *)

val add_skipped : t -> subtrees:int -> nodes:int -> unit
val incr_statically_empty : t -> unit
val incr_schema_products : t -> unit
val skipped_subtrees : t -> int
val skipped_nodes : t -> int

(** {2 Commits}

    Effective commits (the generation advanced, so [commits] equals the
    write path's generation delta), rejected commits (pending-list
    conflicts) and no-op commits (nothing selected, nothing changed).
    Effective commits feed the histogram of surviving pending-list
    lengths ([pending_primitives_*]). *)

val commit_recorded : t -> primitives:int -> unit
val commit_conflict : t -> unit
val commit_noop : t -> unit
val commits : t -> int
val commit_noops : t -> int

(** {2 Process-wide counters} *)

val nfa_memo_stats : unit -> int * int
(** The lazy DFAs' [(hits, misses)]: steps found in a plan's DFA, and
    steps computed from its selecting NFA ({!Xut_automata.Dfa}). *)

val serialize_pool_stats : unit -> int * int
(** [(hits, misses)] of the serializer buffer pool
    ({!Xut_xml.Serialize.Pool}). *)
