(** The transform-query service: {!Doc_store} + {!Plan_cache} +
    {!View_store} + {!Worker_pool} + {!Metrics} behind one request type.

    Documents are parsed once, query front ends are compiled once and
    cached, evaluation fans out over OCaml 5 domains, and every request
    is isolated — a bad query is an [Error] response, never a dead
    worker.

    Every read — a [Transform] or [Count] of a document or view, a
    result stream, a streamed ingest of a document or file — runs one
    pipeline:
    - {b resolve}: the source (the document's snapshot, a view chain
      over its base document's snapshot, or the file), then the query
      (the cached plan, or the user query parsed and composed with the
      chain);
    - {b admit}: the NFA x schema product's pruning oracle, and the
      statically-empty check for a plan over a schema-bound document;
    - {b execute}: the engine and tier — topDown walk (GENTOP, TD-BU),
      the other engines' own result trees, twoPassSAX, a file's
      single-parse SAX events, the composed view query or its
      materializing fallback;
    - {b reply}: the result serialized whole ([Tree]), counted
      ([Element_count]; the walk engines count without building the
      result) or streamed in chunks ([Stream_done]).
    So an unknown document, view or file is reported before a bad
    query, and every reply kind of one read is byte-identical.

    The request/response types here are the service API proper;
    rendering them to bytes is a transport concern
    ({!Xut_transport.Wire} speaks both the [xut serve] stdin line
    protocol and the length-prefixed binary framing of the socket
    server). *)

type target =
  | Doc of string   (** a stored document, by name *)
  | View of string  (** a stored view ({!request.Defview}), by name *)
(** What a [Transform]/[Count] runs against.  Against a [Doc], [query]
    is a {e transform} query; against a [View], [query] is a {e user}
    query (the restricted FLWOR fragment of
    {!Core.User_query}, or arbitrary XQuery with a materializing
    fallback) answered over the view's virtual document via the Sec. 4
    Compose method — the view is never materialized on the composed
    path. *)

type request =
  | Load of { name : string; file : string; schema : string option }
      (** Parse [file] and store it under [name].  With [schema], the
          tree is validated against the registered
          {!Xut_schema.Schema} of that name before the binding is
          published — a nonconforming document (or unknown schema name)
          fails the load with [Bad_request] — and the binding then
          carries the schema: Doc-target queries are admission-checked
          and pruned against it until a commit breaks conformance. *)
  | Unload of { name : string }
  | Transform of { target : target; engine : Core.Engine.algo; query : string }
      (** Evaluate a query against a stored document or view; the
          payload is the serialized result (tree for documents, one
          serialized item per line for views). *)
  | Count of { target : target; engine : Core.Engine.algo; query : string }
      (** Like [Transform] but reply only the element count of the
          result — the lean reply for what-if analytics and validation
          traffic, where the client doesn't want the (possibly
          multi-MB) result document back. *)
  | Apply of { doc : string; query : string }
      (** Dry-run of the write path: evaluate the query's updates
          against the current snapshot of [doc] into a pending update
          list ({!Xut_update.Pending}) and reply with its report —
          surviving primitives, collapsed primitives, conflicts —
          without changing anything.  [query] may be a full transform
          query or a bare update / update sequence over [$a]
          ({!Core.Transform_parser.parse_updates}). *)
  | Commit of { doc : string; query : string }
      (** The write path proper: evaluate as [Apply], then — when the
          pending list is conflict-free — materialize a new tree
          (sharing untouched subtrees with the old snapshot) and swap it
          in atomically under a fresh generation.  In-flight readers
          keep the old snapshot; a conflicting list is rejected with
          [Conflict] and changes nothing. *)
  | Defview of { name : string; query : string }
      (** [DEFVIEW name := <transform query>]: define (or redefine) a
          stored view.  The definition is validated and compiled {e now}
          — parse, composable-fragment check, selecting NFA — and
          rejected with [View_compose_error] when out of fragment, so
          queries against the view never fall back for a reason known at
          definition time.  The base named by the definition's
          [doc("X")] may be a stored document or another view
          (views-on-views); it may also not exist yet (late binding) —
          queries then answer [Unknown_document] until it does. *)
  | Undefview of { name : string }
  | Listviews
  | Stats
      (** Metrics dump + cache stats + stored-document listing. *)
  | Batch of request list
      (** Execute the sub-requests in order on one worker and reply
          with one {!Batch_results} holding a response per item — one
          frame in, one frame out, amortizing queue hand-off (and wire)
          overhead for small-document traffic.  Batches must not nest:
          a [Batch] inside a [Batch] is answered with [Bad_request]. *)

(** Machine-readable failure classification, so transports and tests
    branch on codes instead of grepping message strings. *)
type err_code =
  | Unknown_document  (** the named document is not in the store *)
  | Query_parse_error (** the query text failed the front end (parse/normalize/NFA) *)
  | Eval_error        (** the engine failed while evaluating *)
  | Conflict          (** a [Commit]'s pending list has unresolvable
                          primitive pairs; nothing was changed *)
  | Overloaded        (** connection/queue limits hit, or shutting down *)
  | Bad_request       (** malformed request (bad file, nested batch, bad frame) *)
  | View_compose_error
      (** a [Defview] was rejected at definition time: the transform
          falls outside the composable fragment, or its base chain
          would form a cycle *)
  | Statically_empty
      (** a Doc-target [Transform]/[Count] was rejected at admission:
          the product of its selecting NFA with the document's schema is
          empty, so the query can never select anything in {e any}
          conforming document — the request would be a full-document
          no-op, and the schema proves it without touching the tree *)

type view_info = { v_name : string; v_base : string; v_depth : int; v_generation : int }

type payload =
  | Doc_loaded of
      { name : string;
        elements : int;
        reloaded : bool;
        generation : int;
        schema : string option
      }
      (** [reloaded] is [true] when the [LOAD] replaced an existing
          binding (the old tree's caches were invalidated);
          [generation] is the store's monotone load stamp; [schema] the
          validated binding, echoed back when the load named one. *)
  | Doc_unloaded of { name : string }
  | Tree of string
      (** serialized result document of a [Transform] (or a view read's
          items, one per line).  {!lend} hands it over as {!Tree_bytes}
          instead, still in the buffer it was serialized into. *)
  | Element_count of int   (** reply to a [Count] *)
  | Applied of { doc : string; primitives : int; collapsed : int; conflicts : string list }
      (** Reply to an [Apply]: the pending-list report.  [conflicts]
          holds one rendered line per unresolvable pair; the list is
          committable iff it is empty. *)
  | Committed of
      { doc : string; primitives : int; collapsed : int; elements : int; generation : int }
      (** Reply to a successful [Commit].  [generation] is the new
          binding's stamp — unchanged (and [primitives = 0]) when the
          query selected nothing, in which case no swap happened. *)
  | View_defined of
      { name : string; base : string; depth : int; generation : int; redefined : bool }
      (** Reply to a [Defview].  [base] is the definition's immediate
          base (document or view), [depth] the resolved chain length,
          [generation] the store-wide definition stamp (composed-plan
          cache keys embed it, so redefinition re-keys every dependent
          plan). *)
  | View_undefined of { name : string }
  | View_list of view_info list  (** reply to a [Listviews], sorted by name *)
  | Stats_dump of string
  | Batch_results of response list
      (** One response per [Batch] item, in request order. *)
  | Stream_done of { bytes : int; chunks : int }
      (** Completion of a streamed transform ({!submit_stream}):
          the payload bytes went to the consumer chunk by chunk, so the
          response carries only the totals. *)

and response =
  | Ok of payload
  | Error of { code : err_code; message : string }

val err_code_name : err_code -> string
(** Stable lower-kebab name ("unknown-document", "query-parse-error",
    "eval-error", "conflict", "overloaded", "bad-request",
    "view-compose-error", "statically-empty"), used by the line protocol
    and logs. *)

val render_value : Xut_xquery.Xq_value.t -> string
(** The payload of a view TRANSFORM: each result item serialized (an
    atomic one as its string value), items separated by newlines. *)

val render_response : response -> (string, string) Stdlib.result
(** Compatibility rendering to the flat [(payload, message) result]
    shape of the original stdin protocol: [Ok] payloads become the
    exact strings the pre-redesign service produced ("loaded d
    elements=18", the serialized tree, "elements=16", …); [Error]
    becomes ["<code-name>: <message>"]. *)

type t

val create : ?domains:int -> unit -> t
(** Start a service with [domains] workers (default 1, the CLI serve
    default).  Capacities are fixed: the plan cache holds 128 plans (and
    128 composed plans), and {!submit} blocks once 64 requests are
    waiting for a worker (backpressure).

    The service subscribes itself to the store's lifecycle events: an
    [UNLOAD], reload or [COMMIT] evicts exactly the departing tree's
    annotation tables from every cached plan and counts them in the
    [doc_invalidations] STATS line.  The same
    event walks the view-dependency graph (view → base document, view →
    parent view): dependent views' annotation memos are repaired (commit
    with a usable spine diff) or evicted, an [UNLOAD]/reload also drops
    composed plans addressed through the document, and the churn is
    counted in the [view_invalidations] STATS line.  A plain [COMMIT] keeps
    composed plans — they depend on the view {e definitions}, not on
    document content, so a re-query after commit reuses the cached
    composition over the new snapshot. *)

val submit : t -> request -> (response -> unit) -> unit
(** Asynchronous entry: [submit t req reply] enqueues [req], blocking
    while the queue is full, and returns.  [reply] runs once with the
    response, on the worker domain that served it (possibly before
    [submit] returns); keep it short, it holds that worker.  A handler
    can not kill its worker: any outcome, including an escaped
    exception, arrives as a [response], and an exception out of [reply]
    is dropped.  After {!shutdown}, [reply] receives an [Overloaded]
    error at once, before [submit] returns.  A [Tree] reply is copied
    out of its pooled buffer once, into the string [reply] gets; a
    caller that only writes the bytes out uses {!lend}. *)

val call : t -> request -> response
(** Synchronous round trip, with {!submit}'s one copy of a tree. *)

(** {2 Streamed transforms}

    One request shape for every streamed reply.  The serialized result
    is handed to a caller-supplied consumer in chunks as it is produced,
    instead of being returned as one [Tree] string; the byte
    concatenation of the chunks is exactly the [Tree] payload the plain
    [Transform] would have produced.

    - [engine = Some e] streams engine [e]'s result over a stored
      document ([From_doc]), with no monolithic string.  twoPassSAX
      emits events straight into the serializer sink; the others hand
      their result tree to it.  For the walk engines (GENTOP, TD-BU)
      that tree is topDown's shared output: only the spine above each
      change is built, and shared subtrees are serialized whole.  An
      update the document element cannot take fails before any chunk.
    - [engine = None] ([TRANSFORM-STREAM]) asks for a streaming tier
      only for a file, the input that is not in memory.  A [From_doc]
      stream is the [engine = Some Gentop] one exactly, label-summary
      pruning and reply image included, and counts as no tier.  A
      [From_file] one is the constant-memory {e input} path, classified by
      {!Core.Sax_transform.tier}: with a trivial context qualifier the
      file is driven through the single-parse SAX transform
      ({!Core.Sax_transform.run_buffered}) straight into the sink,
      never materialized as a tree — one read that re-reads the bytes of
      each subtree whose selection waits on a qualifier at its end-tag
      (none for a plan without qualifiers; {!Metrics.streams_fused}),
      or two reads for a path that tests the document node
      ({!Metrics.stream_fallbacks}).  A context qualifier, or
      qualifiers over a file that cannot be read twice (a FIFO), fall
      back with byte-identical output ({!Metrics.stream_fallbacks}) to a
      GENTOP walk of a one-off parse of the file.

    A [From_doc] stream is resolved and admitted as a Doc [Transform]
    is (snapshot, plan lookup, schema pruning, the statically-empty
    check); a [From_file] one checks the file exists, and is not a
    directory, before it looks at the query. *)

val default_chunk_size : int
(** {!Xut_xml.Serialize.Sink.default_chunk_size} (64 KiB). *)

(** Input of a streamed transform: a stored document, or a server-side
    file path. *)
type stream_source = From_doc of string | From_file of string

type stream_request = {
  source : stream_source;
  engine : Core.Engine.algo option;
      (** [Some e]: engine [e]'s result stream; needs a [From_doc]
          source (a [From_file] one is a [Bad_request]).  [None]: the
          automatic fused / buffered / materialized tiers. *)
  query : string;
  chunk_size : int;  (** target chunk size in bytes; values below 1 count as 1 *)
}

val submit_stream : t -> stream_request -> (string -> unit) -> (response -> unit) -> unit
(** [submit_stream t sr emit reply] enqueues a streamed transform.
    [emit] runs on the worker domain, once per chunk, strictly before
    [reply]; it must be quick or the worker stalls.  Each chunk is
    copied out of the sink's pooled buffer once, into the string [emit]
    gets ({!lend} hands the buffer itself).  [reply] then gets the
    completion as {!submit}'s does.  If [emit] raises, or the engine
    fails after chunks have gone out, [reply] gets an [Error] — the
    mid-stream error case. *)

val transform_stream :
  t ->
  doc:string ->
  engine:Core.Engine.algo ->
  query:string ->
  ?chunk_size:int ->
  (string -> unit) ->
  response
(** Synchronous result stream of a stored document ([engine = Some
    engine]): [Ok (Stream_done _)] after the last chunk, or an
    [Error]. *)

val transform_ingest :
  t ->
  source:stream_source ->
  query:string ->
  ?chunk_size:int ->
  (string -> unit) ->
  response
(** Synchronous streamed ingest ([engine = None]). *)

(** {2 Lent replies}

    The one path every reply takes, for a transport that writes the
    bytes out and keeps none of them.  A serialized tree and each chunk
    of a stream are handed over {e lent}: in the pooled buffer
    ({!Xut_xml.Serialize.Pool}) they were written into, valid only until
    the callback they are handed to returns; the buffer then goes back
    to the pool, so a reply costs no copy of its bytes.  {!submit},
    {!call}, {!submit_stream} and the synchronous stream calls are this
    path with one copy made at their edge. *)

type incoming = Plain of request | Stream of stream_request
(** A plain request, or a streamed transform. *)

type delivery =
  | Response of response  (** a reply whole *)
  | Tree_bytes of Buffer.t
      (** [Ok (Tree s)], [s] being the buffer's contents: a [Transform]
          reply outside a batch, lent *)
  | Chunk of Buffer.t  (** one chunk of a streamed reply, lent *)

val lend : t -> incoming -> (delivery -> unit) -> unit
(** [lend t work deliver] enqueues [work] as {!submit} does.  On the
    worker domain, a stream's chunks go to [deliver] one by one as
    [Chunk]s (one that raises fails the stream, as a raising [emit]
    does); then the reply — [Tree_bytes] for a tree, [Response] for
    anything else, a stream's completion included — goes to [deliver]
    exactly once, an exception out of that call being dropped.  After
    {!shutdown}, [deliver] gets an [Overloaded] [Response] at once. *)

val call_lent : t -> incoming -> (delivery -> unit) -> unit
(** Synchronous {!lend}: returns once the reply has been delivered. *)

val metrics : t -> Metrics.t
val cache_stats : t -> Plan_cache.stats
val store : t -> Doc_store.t

val on_invalidate : t -> (Doc_store.event -> unit) -> unit
(** Subscribe to document-lifecycle events (unload / reload / commit),
    after the service's own cache-invalidation hook — the transport
    layer uses this to push invalidation notices to connected clients.
    The callback runs synchronously on the worker thread performing the
    [LOAD]/[UNLOAD]/[COMMIT]; keep it quick. *)

val shutdown : t -> unit
(** Drain and join the worker domains.  Idempotent. *)
