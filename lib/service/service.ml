open Core

(* What a Transform/Count runs against: a stored document, or a stored
   view answered via Sec. 4 composition over its base document. *)
type target = Doc of string | View of string

type request =
  | Load of { name : string; file : string; schema : string option }
  | Unload of { name : string }
  | Transform of { target : target; engine : Engine.algo; query : string }
  | Count of { target : target; engine : Engine.algo; query : string }
  | Apply of { doc : string; query : string }
  | Commit of { doc : string; query : string }
  | Defview of { name : string; query : string }
  | Undefview of { name : string }
  | Listviews
  | Stats
  | Batch of request list

type err_code =
  | Unknown_document
  | Query_parse_error
  | Eval_error
  | Conflict
  | Overloaded
  | Bad_request
  | View_compose_error
  | Statically_empty

type view_info = { v_name : string; v_base : string; v_depth : int; v_generation : int }

type payload =
  | Doc_loaded of
      { name : string;
        elements : int;
        reloaded : bool;
        generation : int;
        schema : string option
      }
  | Doc_unloaded of { name : string }
  | Tree of string
  | Element_count of int
  | Applied of { doc : string; primitives : int; collapsed : int; conflicts : string list }
  | Committed of
      { doc : string; primitives : int; collapsed : int; elements : int; generation : int }
  | View_defined of
      { name : string; base : string; depth : int; generation : int; redefined : bool }
  | View_undefined of { name : string }
  | View_list of view_info list
  | Stats_dump of string
  | Batch_results of response list
  | Stream_done of { bytes : int; chunks : int }

and response =
  | Ok of payload
  | Error of { code : err_code; message : string }

let err_code_name = function
  | Unknown_document -> "unknown-document"
  | Query_parse_error -> "query-parse-error"
  | Eval_error -> "eval-error"
  | Conflict -> "conflict"
  | Overloaded -> "overloaded"
  | Bad_request -> "bad-request"
  | View_compose_error -> "view-compose-error"
  | Statically_empty -> "statically-empty"

let error code fmt = Printf.ksprintf (fun message -> Error { code; message }) fmt

(* One LISTVIEWS line; STATS lists the views with it too. *)
let view_line v =
  Printf.sprintf "view %s base=%s depth=%d generation=%d" v.v_name v.v_base v.v_depth
    v.v_generation

let rec render_response = function
  | Ok p -> Stdlib.Ok (render_payload p)
  | Error { code; message } ->
    Stdlib.Error (Printf.sprintf "%s: %s" (err_code_name code) message)

and render_payload = function
  | Doc_loaded { name; elements; reloaded; generation = _; schema } ->
    (* the fresh-load string is the pre-redesign protocol text; a reload
       is flagged so scripted clients can tell the tree was swapped, and
       a schema binding is echoed so they can tell validation took *)
    let base =
      if reloaded then Printf.sprintf "loaded %s elements=%d reloaded=true" name elements
      else Printf.sprintf "loaded %s elements=%d" name elements
    in
    (match schema with None -> base | Some s -> base ^ " schema=" ^ s)
  | Doc_unloaded { name } -> Printf.sprintf "unloaded %s" name
  | Tree s -> s
  | Element_count n -> Printf.sprintf "elements=%d" n
  | Applied { doc; primitives; collapsed; conflicts } ->
    let base =
      Printf.sprintf "apply %s primitives=%d collapsed=%d conflicts=%d" doc primitives
        collapsed (List.length conflicts)
    in
    if conflicts = [] then base else base ^ ": " ^ String.concat "; " conflicts
  | Committed { doc; primitives; collapsed; elements; generation } ->
    Printf.sprintf "committed %s primitives=%d collapsed=%d elements=%d generation=%d" doc
      primitives collapsed elements generation
  | View_defined { name; base; depth; generation; redefined } ->
    let base_s =
      Printf.sprintf "defview %s base=%s depth=%d generation=%d" name base depth generation
    in
    if redefined then base_s ^ " redefined=true" else base_s
  | View_undefined { name } -> Printf.sprintf "undefview %s" name
  | View_list views ->
    String.concat "\n" (Printf.sprintf "views %d" (List.length views) :: List.map view_line views)
  | Stats_dump s -> s
  | Stream_done { bytes; chunks } -> Printf.sprintf "streamed bytes=%d chunks=%d" bytes chunks
  | Batch_results rs ->
    String.concat "\n"
      (List.map
         (fun r ->
           match render_response r with
           | Stdlib.Ok s -> "OK " ^ s
           | Stdlib.Error e -> "ERR " ^ e)
         rs)

(* A streamed transform reads a stored document or a server-side file
   that is never materialized as a tree.  [engine = Some e] streams the
   result of engine [e] over a stored document; [None] walks a stored
   document with GENTOP and lets the service pick a file's tier
   (streamed or materialized). *)
type stream_source = From_doc of string | From_file of string

type stream_request = {
  source : stream_source;
  engine : Engine.algo option;
  query : string;
  chunk_size : int;
}

let default_chunk_size = Xut_xml.Serialize.Sink.default_chunk_size

type incoming = Plain of request | Stream of stream_request

(* A reply on its way out.  A serialized tree, and each chunk of a
   stream, is lent in the pooled buffer it was written into: whoever
   delivers it reads the bytes there, and the buffer goes back to the
   pool once the delivery returns. *)
type delivery = Response of response | Tree_bytes of Buffer.t | Chunk of Buffer.t

(* A delivery as a response a caller keeps: the one copy of a string
   API.  (A chunk only ever reaches a stream's consumer.) *)
let kept = function
  | Response r -> r
  | Tree_bytes b | Chunk b -> Ok (Tree (Buffer.contents b))

(* ---------------- the read pipeline ----------------

   Every TRANSFORM, COUNT, result stream and TRANSFORM-STREAM is one
   [read] and runs one staged function, [run_read]:

   - resolve: the source (a snapshot, by document name or through a view
     chain, or a file), then its query (the cached plan, or the user
     query parsed and composed with the chain);
   - admit: the schema's pruning oracle, and for a plan over a snapshot
     the statically-empty check;
   - execute: the engine and tier (walk, fused, two-parse, materialized
     or composed), as an [output];
   - reply: that output serialized whole, counted, or streamed in
     chunks.

   One rule picks the path: only a file is asked for a streaming tier.
   A stored document is in memory, so [engine = None] (TRANSFORM-STREAM)
   over it is the GENTOP result stream, skip-set and reply image
   included: topDown shares every subtree the update cannot reach, where
   a SAX replay of the tree would visit every element.  A file is not in
   memory, and {!Sax_transform.tier} picks its path: with a
   trivially-true context qualifier the single-parse driver runs, one
   read of the file that re-reads each undecided region's bytes
   ([streams_fused]; a plan without qualifiers opens none), or two
   reads for a path that tests the document node ([stream_fallbacks]).
   A context qualifier, or qualifiers over a file that cannot be read
   twice (a FIFO), fall back with byte-identical output
   ([stream_fallbacks]) to a GENTOP walk of a one-off parse of the
   file. *)

type source = Stored of target | File of string

type reply =
  | Serialized  (* one [Tree], lent *)
  | Counted  (* an [Element_count] *)
  | Chunked of { deliver : delivery -> unit; chunk_size : int }
      (* each chunk lent to [deliver] as it fills, then the totals *)

type read = { source : source; engine : Engine.algo option; query : string; reply : reply }

(* What resolve found: a snapshot and its binding's reply-image cell,
   or a file; and a transform plan, or a user query over a view chain's
   levels (innermost first), composed or left to materialize. *)
type input =
  | Snapshot of (Xut_xml.Node.element * Doc_store.info * Doc_store.image_cell)
  | File_input of string

type query =
  | Plan of Plan_cache.plan
  | Composed of View_store.view list * Composition.composed
  | Materialized of View_store.view list * Xut_xquery.Xq_ast.expr

(* Where a SAX run writes its result: into a chunked sink, which a
   steered parse of a file can also write into straight from its window,
   or to an event handler. *)
type events_sink = Serializer of Xut_xml.Serialize.Sink.t | Handler of (Xut_xml.Sax.event -> unit)

(* What execute hands reply: a result tree, built on demand (the walk
   engines count it without building it); a SAX run writing the result;
   or a view read's value. *)
type output =
  | Result_tree of { build : unit -> Xut_xml.Node.element; count : unit -> int }
  | Events of (events_sink -> Sax_transform.run_stats)
  | Answer of Xut_xquery.Xq_value.t

(* What a worker dequeues: the work, and who delivers its reply. *)
type job = { work : incoming; deliver : delivery -> unit }

type state = {
  store : Doc_store.t;
  cache : Plan_cache.t;
  views : View_store.t;
  metrics : Metrics.t;
}

type t = { st : state; pool : job Worker_pool.t }

let ( let* ) = Result.bind
let refuse code fmt = Printf.ksprintf (fun message -> Stdlib.Error (Error { code; message })) fmt

(* ---------------- schema-aware static pruning ----------------

   When the target document was loaded under a schema, the plan's NFA is
   multiplied with it ({!Xut_schema.Schema.product}, memoized per plan):
   a statically-empty product rejects the request before any document
   work, and otherwise the product's skip-set becomes a per-request
   oracle that TD-BU's cold annotation pass and twoPassSAX consult to
   share whole subtrees without visiting them (the topDown walks prune
   by label summary instead).  The oracle also does the accounting:
   each [true] answer is one pruned subtree, whose element count the
   subtree's root stores (work {e avoided}, measured in O(1)).  It sums
   into the request's own record, which [run_read] adds to the metrics
   once. *)

type pruning = {
  product : Xut_schema.Schema.product;
  skip : Xut_xml.Node.element -> bool;  (* counting oracle for the tree annotator *)
  mutable skipped_subtrees : int;
  mutable skipped_nodes : int;
}

(* The product of [nfa] with the schema named [schema] (memoized in
   [products]), or [None] when there is no (registered) schema. *)
let schema_product ~metrics schema products nfa =
  match Option.bind schema Xut_schema.Schema.find with
  | None -> None
  | Some schema ->
    let product, built = Product_memo.get products schema nfa in
    if built then Metrics.incr_schema_products metrics;
    Some product

(* The product of [nfa] with the binding's schema, or [None] when the
   document has no (live) schema or the product can prune nothing. *)
let pruning_for ~metrics (dinfo : Doc_store.info) products nfa =
  match schema_product ~metrics dinfo.Doc_store.schema products nfa with
  | Some product
    when Xut_schema.Schema.skip_count product > 0 || Xut_schema.Schema.statically_empty product
    ->
    let rec p =
      {
        product;
        skip =
          (fun e ->
            Xut_schema.Schema.skippable product (Xut_xml.Node.sym e)
            && begin
                 p.skipped_subtrees <- p.skipped_subtrees + 1;
                 p.skipped_nodes <- p.skipped_nodes + Xut_xml.Node.elements e;
                 true
               end);
        skipped_subtrees = 0;
        skipped_nodes = 0;
      }
    in
    Some p
  | _ -> None

(* The request's oracle skips, added to the metrics once. *)
let count_skips ~metrics = function
  | Some p when p.skipped_subtrees > 0 ->
    Metrics.add_skipped metrics ~subtrees:p.skipped_subtrees ~nodes:p.skipped_nodes
  | Some _ | None -> ()

(* twoPassSAX consumes the skip-set by symbol and reports exact skip
   counts in its run stats. *)
let sym_skip pruning =
  Option.map (fun p sym -> Xut_schema.Schema.skippable p.product sym) pruning

let count_sax_skips ~metrics (stats : Sax_transform.run_stats) =
  Metrics.add_skipped metrics ~subtrees:stats.Sax_transform.skipped_subtrees
    ~nodes:stats.Sax_transform.skipped_elements

(* The qualifier oracle of the two walk engines: TD-BU reuses the
   bottom-up annotation of the stored tree [root] for [nfa], memoized in
   [memo] (a plan's, or a view's for its innermost level); GENTOP
   ([None]) evaluates qualifiers directly. *)
let memo_checkp ?skip memo nfa (engine : Engine.algo) root =
  match engine with
  | Engine.Td_bu ->
    Some (Xut_automata.Annotator.checkp (Annotation_memo.find ?skip memo nfa root) nfa)
  | _ -> None

(* Engines that consume the selecting NFA take the precompiled [nfa]
   and the optional oracles.  The others (Naive, snapshot copy,
   reference, SAX) only need the parsed AST. *)
let transform_with ?checkp nfa update (engine : Engine.algo) root =
  match engine with
  | Engine.Gentop | Engine.Td_bu -> Top_down.run ?checkp nfa update root
  | other -> Engine.transform other update root

(* [parse query], a failure as the [Query_parse_error] reply. *)
let parsed parse query =
  match parse query with
  | v -> Stdlib.Ok v
  | exception (Transform_parser.Parse_error msg | Xut_xquery.Xq_parser.Parse_error msg) ->
    refuse Query_parse_error "%s" msg
  | exception e -> refuse Query_parse_error "%s" (Printexc.to_string e)

(* An exception out of a run, as the [Eval_error] reply. *)
let eval_error = function
  | Xut_xml.Sax.Parse_error { line; col; msg } ->
    error Eval_error "parse error at %d:%d: %s" line col msg
  | Failure msg | Sys_error msg | Transform_ast.Invalid_update msg -> error Eval_error "%s" msg
  | e -> error Eval_error "%s" (Printexc.to_string e)

(* A streamed reply: [body] writes the result into a fresh chunked sink
   whose chunks are lent to [deliver] as they fill; the reply carries
   only the totals.  A failure aborts the sink and propagates. *)
let stream_to ~metrics ~deliver ~chunk_size body =
  Metrics.stream_started metrics;
  let sink =
    Xut_xml.Serialize.Sink.lending ~chunk_size (fun chunk ->
        Metrics.stream_chunk metrics (Buffer.length chunk);
        deliver (Chunk chunk))
  in
  (match body sink with
  | () -> ()
  | exception e ->
    Xut_xml.Serialize.Sink.abort sink;
    raise e);
  let { Xut_xml.Serialize.Sink.bytes; chunks } = Xut_xml.Serialize.Sink.close sink in
  Stream_done { bytes; chunks }

(* A view read's value, one line per result item, serialized: the
   composed path and the materializing fallback both reply through
   this, so the two are byte-identical by construction. *)
let add_value buf (v : Xut_xquery.Xq_value.t) =
  let add_item = function
    | Xut_xquery.Xq_value.N n -> Xut_xml.Serialize.to_buffer buf n
    | Xut_xquery.Xq_value.D e -> Xut_xml.Serialize.to_buffer buf (Xut_xml.Node.Element e)
    | other -> Buffer.add_string buf (Xut_xquery.Xq_value.string_of_item other)
  in
  List.iteri
    (fun i item ->
      if i > 0 then Buffer.add_char buf '\n';
      add_item item)
    v

let render_value = function
  | [] -> ""
  | v -> Xut_xml.Serialize.Pool.contents_of (fun buf -> add_value buf v)

let count_value (v : Xut_xquery.Xq_value.t) =
  List.fold_left
    (fun n item ->
      match item with
      | Xut_xquery.Xq_value.N node -> n + Xut_xml.Node.element_count node
      | Xut_xquery.Xq_value.D e -> n + Xut_xml.Node.elements e
      | _ -> n + 1)
    0 v

(* The view fallback: materialize the chain level by level, then
   evaluate the user query over the result.  Level 0 with TD-BU gets
   the memoized annotation oracle; the outer levels run over freshly
   built trees where no memo can help. *)
let materialize_chain ~engine (levels : View_store.view list) root =
  let level checkp t (v : View_store.view) =
    transform_with ?checkp v.View_store.nfa v.View_store.update engine t
  in
  match levels with
  | [] -> root
  | inner :: outer ->
    let checkp = memo_checkp inner.View_store.memo inner.View_store.nfa engine root in
    List.fold_left (level None) (level checkp root inner) outer

(* The cached plan for [query], the lookup counted as a hit or a miss. *)
let lookup_plan st query =
  let* plan, outcome = parsed (Plan_cache.find_or_compile st.cache) query in
  (match outcome with
  | Plan_cache.Hit -> Metrics.incr_cache_hits st.metrics
  | Plan_cache.Miss -> Metrics.incr_cache_misses st.metrics);
  Stdlib.Ok plan

(* A user query over [chain]: composed with the chain's updates (cached
   under the chain's signature), or — outside the restricted user
   fragment, or when composition fails — left to materialize. *)
let view_query st (chain : View_store.chain) query expr =
  let levels = chain.View_store.levels in
  let composed =
    let* uq = User_query.of_expr expr in
    let key = View_store.signature chain ^ "||" ^ query in
    let deps =
      chain.View_store.base :: List.map (fun (v : View_store.view) -> v.View_store.name) levels
    in
    let composed, outcome =
      Plan_cache.find_or_compose st.cache ~key ~deps (fun () ->
          Composition.compose_stack
            (List.map (fun (v : View_store.view) -> v.View_store.update) levels)
            uq)
    in
    if outcome = Plan_cache.Miss && Result.is_ok composed then
      Metrics.incr_composed_plans st.metrics;
    composed
  in
  match composed with
  | Stdlib.Ok c -> Composed (levels, c)
  | Stdlib.Error _ -> Materialized (levels, expr)

(* Resolve: the source, then the query.  An unknown document, view or
   file is reported before a bad query. *)
let resolve st r =
  let* input, chain =
    match r.source with
    | File _ when Option.is_some r.engine ->
      refuse Bad_request "a result stream with an engine needs a stored document"
    | File path when not (Sys.file_exists path && not (Sys.is_directory path)) ->
      refuse Eval_error "no such file %S" path
    | File path -> Stdlib.Ok (File_input path, None)
    | Stored target -> (
      let* doc, view =
        match target with
        | Doc doc -> Stdlib.Ok (doc, None)
        | View name -> (
          match View_store.resolve st.views name with
          | None -> refuse Unknown_document "no view %S (DEFVIEW it first)" name
          | Some chain -> Stdlib.Ok (chain.View_store.base, Some (name, chain)))
      in
      match (Doc_store.snapshot st.store doc, view) with
      | Some snapshot, _ -> Stdlib.Ok (Snapshot snapshot, Option.map snd view)
      | None, None -> refuse Unknown_document "no document %S (LOAD it first)" doc
      | None, Some (name, _) ->
        refuse Unknown_document "no document %S (base of view %S; LOAD it first)" doc name)
  in
  match chain with
  | None -> Result.map (fun plan -> (input, Plan plan)) (lookup_plan st r.query)
  | Some chain ->
    Result.map
      (fun expr -> (input, view_query st chain r.query expr))
      (parsed Xut_xquery.Xq_parser.parse_expr r.query)

(* Admit: the pruning oracle of the read's NFA — the plan's, or for a
   composed TD-BU view read the innermost level's, whose memoized
   annotation table it prunes — and for a plan the statically-empty
   check: an empty product can never select anything in any document
   conforming to the schema, so the read is refused before touching the
   tree.  View reads are never refused. *)
let admit st r input query =
  match (input, query) with
  | Snapshot (_, info, _), Plan plan -> (
    match pruning_for ~metrics:st.metrics info plan.Plan_cache.products plan.Plan_cache.nfa with
    | Some p when Xut_schema.Schema.statically_empty p.product ->
      Metrics.incr_statically_empty st.metrics;
      refuse Statically_empty "query selects nothing under schema %S (NFA x schema product is empty)"
        (Option.value ~default:"?" info.Doc_store.schema)
    | pruning -> Stdlib.Ok pruning)
  | Snapshot (_, info, _), Composed ((inner : View_store.view) :: _, _)
    when r.engine = Some Engine.Td_bu ->
    Stdlib.Ok (pruning_for ~metrics:st.metrics info inner.View_store.products inner.View_store.nfa)
  | _ -> Stdlib.Ok None

(* The input as a tree: the snapshot, or a one-off parse of the file. *)
let root_of = function
  | Snapshot (root, _, _) -> root
  | File_input path -> Xut_xml.Dom.parse_file path

let handler_of = function
  | Serializer s -> Xut_xml.Serialize.Sink.event s
  | Handler h -> h

(* [plan]'s result over the input with [engine].  The walk engines run
   topDown with TD-BU's memoized oracle, whose cold annotation takes the
   skip-set, and count a snapshot's result with {!Top_down.count} (the
   element count plus the update's effect, each term a stored count)
   without building it.  The walks themselves take no skip-set: they
   prune by label summary, which rules out a subtree without the final
   label but, unlike the skip-set, not one that holds the label only
   where the path cannot reach it. *)
let result_tree ?skip (plan : Plan_cache.plan) engine input =
  let nfa = plan.Plan_cache.nfa and update = plan.Plan_cache.query.Transform_ast.update in
  let root = root_of input in
  let checkp = memo_checkp ?skip plan.Plan_cache.annotations nfa engine root in
  let build () = transform_with ?checkp nfa update engine root in
  let count () =
    match (engine, input) with
    | (Engine.Gentop | Engine.Td_bu), Snapshot _ -> Top_down.count ?checkp nfa update root
    | _ -> Xut_xml.Node.elements (build ())
  in
  Result_tree { build; count }

(* [plan]'s result over the file at [path] by the single-parse driver
   ({!Sax_transform.run_buffered}).  Its parses into a [Serializer] are
   steered: they skip what the run drops, and copy what the run only
   copies into the sink's writer.  The run counts as fused when it kept
   to one read of the file, as a fallback when it read it twice (a path
   that tests the document node); a run that fails counts as
   neither. *)
let streamed ~metrics (plan : Plan_cache.plan) path =
  let nfa = plan.Plan_cache.nfa and update = plan.Plan_cache.query.Transform_ast.update in
  Events
    (fun out ->
      let copy_to =
        match out with
        | Serializer s -> Some (Xut_xml.Serialize.Sink.writer s)
        | Handler _ -> None
      in
      let stats =
        Sax_transform.run_buffered ?copy_to nfa update
          ~input:(Xut_xml.Reader.file path) ~sink:(handler_of out)
      in
      if stats.Sax_transform.parses = 1 then Metrics.incr_streams_fused metrics
      else Metrics.incr_stream_fallbacks metrics;
      stats)

(* Execute: the engine and tier, as an [output].  twoPassSAX writes its
   result as events, the other engines build a result tree. *)
let execute st r ~pruning input query =
  let metrics = st.metrics and skip = Option.map (fun p -> p.skip) pruning in
  match query with
  | Composed (levels, c) ->
    Metrics.incr_view_hits metrics;
    let root = root_of input in
    let oracle =
      match (r.engine, levels) with
      | Some Engine.Td_bu, (inner : View_store.view) :: _ ->
        memo_checkp ?skip inner.View_store.memo inner.View_store.nfa Engine.Td_bu root
      | _ -> None
    in
    Answer (Composition.run_composed ?oracle c ~doc:root)
  | Materialized (levels, expr) ->
    Metrics.incr_compose_fallbacks metrics;
    let engine = Option.value ~default:Engine.Gentop r.engine in
    let context = materialize_chain ~engine levels (root_of input) in
    Answer (Xut_xquery.Xq_eval.eval_expr (Xut_xquery.Xq_eval.env ~context ()) expr)
  | Plan plan -> (
    let nfa = plan.Plan_cache.nfa in
    match (input, r.engine) with
    | File_input path, _ -> (
      (* resolve refuses a file with an engine *)
      match Sax_transform.tier nfa (Xut_xml.Reader.file path) with
      | Sax_transform.Streamed -> streamed ~metrics plan path
      | Sax_transform.Materialized ->
        Metrics.incr_stream_fallbacks metrics;
        result_tree plan Engine.Gentop input)
    | Snapshot (root, _, _), Some Engine.Two_pass_sax ->
      Events
        (fun out ->
          Sax_transform.run ?skip:(sym_skip pruning) nfa plan.Plan_cache.query.Transform_ast.update
            ~source:(Xut_xml.Sax.events_of_tree root) ~sink:(handler_of out))
    | Snapshot _, engine -> result_tree ?skip plan (Option.value engine ~default:Engine.Gentop) input)

(* [fill] writes a [Tree] reply into a pooled buffer, which is lent as
   the reply; the worker releases it once the reply is delivered, or
   here when [fill] fails. *)
let lent_tree fill =
  let buf = Xut_xml.Serialize.Pool.acquire () in
  match fill buf with
  | () -> Tree_bytes buf
  | exception e ->
    Xut_xml.Serialize.Pool.release buf;
    raise e

(* Reply: a serialized tree is written into a pooled buffer, copying the
   subtrees it shares with the stored document out of the binding's
   reply [image], and lent; a chunked reply runs [exec] inside a fresh
   sink, so a failure after chunks have gone out is an [Error] reply —
   transports turn that into a mid-stream error frame. *)
let respond ~metrics ~image reply exec =
  match reply with
  | Serialized -> (
    match exec () with
    | Result_tree t ->
      let result = Xut_xml.Node.Element (t.build ()) in
      lent_tree (fun buf -> Xut_xml.Serialize.to_buffer ?image:(image ()) buf result)
    | Events run ->
      lent_tree (fun buf ->
          count_sax_skips ~metrics (run (Handler (Xut_xml.Serialize.event_sink buf))))
    | Answer v -> lent_tree (fun buf -> add_value buf v))
  | Counted ->
    Response
      (Ok
         (Element_count
            (match exec () with
            | Result_tree t -> t.count ()
            | Events run ->
              let n = ref 0 in
              count_sax_skips ~metrics
                (run (Handler (function Xut_xml.Sax.Start_element _ -> incr n | _ -> ())));
              !n
            | Answer v -> count_value v)))
  | Chunked { deliver; chunk_size } ->
    Response
      (Ok
         (stream_to ~metrics ~deliver ~chunk_size (fun sink ->
              match exec () with
              | Result_tree t -> Xut_xml.Serialize.Sink.element ?image:(image ()) sink (t.build ())
              | Events run -> count_sax_skips ~metrics (run (Serializer sink))
              | Answer v -> Xut_xml.Serialize.Sink.markup sink (render_value v))))

let run_read st r =
  let outcome =
    let* input, query = resolve st r in
    let* pruning = admit st r input query in
    let image () =
      match input with
      | Snapshot (_, _, cell) -> Some (Doc_store.reply_image cell)
      | File_input _ -> None
    in
    let delivery =
      match
        respond ~metrics:st.metrics ~image r.reply (fun () -> execute st r ~pruning input query)
      with
      | d -> d
      | exception e -> Response (eval_error e)
    in
    count_skips ~metrics:st.metrics pruning;
    Stdlib.Ok delivery
  in
  match outcome with Stdlib.Ok d -> d | Stdlib.Error resp -> Response resp

(* ---------------- views, writes and the rest ---------------- *)

let handle_defview st ~name ~query =
  match View_store.define st.views ~name ~source:query with
  | Stdlib.Error (`Parse m) -> error Query_parse_error "%s" m
  | Stdlib.Error (`Compose m) -> error View_compose_error "%s" m
  | Stdlib.Error (`Cycle path) ->
    error View_compose_error "view cycle: %s" (String.concat " -> " path)
  | Stdlib.Ok (v, redefined) ->
    Metrics.incr_view_defs st.metrics;
    if redefined then
      (* the definition changed: every composed plan over a chain through
         this name is stale (the generation in the cache key already
         misses, this reclaims the entries and counts the churn) *)
      Metrics.add_view_invalidations st.metrics
        (Plan_cache.invalidate_composed st.cache ~dep:name);
    Ok
      (View_defined
         {
           name;
           base = v.View_store.base;
           depth = View_store.depth st.views name;
           generation = v.View_store.generation;
           redefined;
         })

let handle_undefview st ~name =
  if View_store.undefine st.views ~name then begin
    Metrics.add_view_invalidations st.metrics (Plan_cache.invalidate_composed st.cache ~dep:name);
    Ok (View_undefined { name })
  end
  else error Unknown_document "no view %S" name

let view_infos views =
  List.map
    (fun (i : View_store.info) ->
      {
        v_name = i.View_store.i_name;
        v_base = i.View_store.i_base;
        v_depth = i.View_store.i_depth;
        v_generation = i.View_store.i_generation;
      })
    (View_store.infos views)

(* The write path.  Both [APPLY] and [COMMIT] evaluate the query's
   updates into a pending list with snapshot semantics
   ({!Xut_update.Apply}); APPLY stops at the dry-run report, COMMIT
   materializes and swaps under {!Doc_store.commit}.  The parsed updates
   and their NFAs come from the plan cache ({!Plan_cache.write_plan}),
   so a repeated write compiles nothing. *)
let conflict_strings report =
  List.map Xut_update.Pending.render_conflict report.Xut_update.Apply.conflicts

let handle_apply st ~doc ~query =
  match parsed (Plan_cache.write_plan st.cache) query with
  | Stdlib.Error e -> e
  | Stdlib.Ok plan -> begin
    match Doc_store.find st.store doc with
    | None -> error Unknown_document "no document %S (LOAD it first)" doc
    | Some root -> begin
      match Xut_update.Apply.stage plan root with
      | report, _ ->
        Ok
          (Applied
             {
               doc;
               primitives = report.Xut_update.Apply.primitives;
               collapsed = report.Xut_update.Apply.collapsed;
               conflicts = conflict_strings report;
             })
      | exception Xut_update.Apply.Invalid msg -> error Eval_error "%s" msg
      | exception e -> error Eval_error "%s" (Printexc.to_string e)
    end
  end

let handle_commit st ~doc ~query =
  match parsed (Plan_cache.write_plan st.cache) query with
  | Stdlib.Error e -> e
  | Stdlib.Ok plan -> begin
    let result =
      Doc_store.commit st.store ~name:doc (fun _info root ->
          match Xut_update.Apply.run_plan plan root with
          | Stdlib.Ok (report, None) -> Stdlib.Ok (None, report)
          | Stdlib.Ok (report, Some (root', diff)) ->
            Stdlib.Ok (Some (root', Some diff.Xut_update.Apply.spine), report)
          | Stdlib.Error report -> Stdlib.Error (`Conflict report)
          | exception Xut_update.Apply.Invalid msg -> Stdlib.Error (`Invalid msg)
          | exception e -> Stdlib.Error (`Invalid (Printexc.to_string e)))
    in
    let committed (info : Doc_store.info) (report : Xut_update.Apply.report) =
      Ok
        (Committed
           {
             doc;
             primitives = report.Xut_update.Apply.primitives;
             collapsed = report.Xut_update.Apply.collapsed;
             elements = info.Doc_store.elements;
             generation = info.Doc_store.generation;
           })
    in
    match result with
    | Doc_store.Swapped (info, report) ->
      Metrics.commit_recorded st.metrics ~primitives:report.Xut_update.Apply.primitives;
      committed info report
    | Doc_store.Unchanged (info, report) ->
      Metrics.commit_noop st.metrics;
      committed info report
    | Doc_store.Rejected (`Conflict report) ->
      Metrics.commit_conflict st.metrics;
      error Conflict "%s" (String.concat "; " (conflict_strings report))
    | Doc_store.Rejected (`Invalid msg) -> error Eval_error "%s" msg
    | Doc_store.No_document -> error Unknown_document "no document %S (LOAD it first)" doc
  end

let tree_read target engine query =
  { source = Stored target; engine = Some engine; query; reply = Serialized }

(* A delivered reply's lent buffer goes back to the pool. *)
let release = function
  | Tree_bytes b | Chunk b -> Xut_xml.Serialize.Pool.release b
  | Response _ -> ()

(* A reply the caller keeps: a lent tree is copied out and its buffer
   released. *)
let kept_released d =
  let r = kept d in
  release d;
  r

(* [depth] guards against nested batches; every arm returns a
   [response], so a worker can only die to a runtime error (and even
   that becomes an [Error] reply).  A tree is copied out of its buffer
   here: inside a batch, the batch's reply keeps it. *)
let rec handle st ~depth = function
  | Load { name; file; schema } -> begin
    match Doc_store.load_file st.store ~name ?schema file with
    | Stdlib.Ok (info, reloaded) ->
      Ok
        (Doc_loaded
           {
             name = info.Doc_store.name;
             elements = info.Doc_store.elements;
             reloaded;
             generation = info.Doc_store.generation;
             schema = info.Doc_store.schema;
           })
    | Stdlib.Error msg -> error Bad_request "%s" msg
  end
  | Unload { name } ->
    if Doc_store.evict st.store name then Ok (Doc_unloaded { name })
    else error Unknown_document "no document %S" name
  | Transform { target; engine; query } ->
    kept_released (run_read st (tree_read target engine query))
  | Count { target; engine; query } ->
    kept_released
      (run_read st { source = Stored target; engine = Some engine; query; reply = Counted })
  | Apply { doc; query } -> handle_apply st ~doc ~query
  | Commit { doc; query } -> handle_commit st ~doc ~query
  | Defview { name; query } -> handle_defview st ~name ~query
  | Undefview { name } -> handle_undefview st ~name
  | Listviews -> Ok (View_list (view_infos st.views))
  | Stats ->
    let b = Buffer.create 512 in
    Buffer.add_string b (Metrics.dump st.metrics);
    let cs = Plan_cache.stats st.cache in
    Printf.bprintf b
      "\nplan_cache entries=%d capacity=%d evictions=%d annotation_entries=%d \
       composed_entries=%d"
      cs.Plan_cache.entries cs.Plan_cache.capacity cs.Plan_cache.evictions
      cs.Plan_cache.annotation_entries cs.Plan_cache.composed_entries;
    List.iter
      (fun name ->
        match Doc_store.info st.store name with
        | Some i ->
          Printf.bprintf b "\ndoc %s elements=%d generation=%d" i.Doc_store.name
            i.Doc_store.elements i.Doc_store.generation;
          (match i.Doc_store.schema with
          | Some s -> Printf.bprintf b " schema=%s" s
          | None -> ())
        | None -> ())
      (Doc_store.names st.store);
    List.iter (fun v -> Printf.bprintf b "\n%s" (view_line v)) (view_infos st.views);
    Ok (Stats_dump (Buffer.contents b))
  | Batch reqs ->
    if depth > 0 then error Bad_request "nested batch"
    else Ok (Batch_results (List.map (handle st ~depth:(depth + 1)) reqs))

(* A top-level TRANSFORM's tree is lent to the deliverer. *)
let serve st = function
  | Transform { target; engine; query } -> run_read st (tree_read target engine query)
  | req -> Response (handle st ~depth:0 req)

let rec count_errors = function
  | Error _ -> 1
  | Ok (Batch_results rs) -> List.fold_left (fun n r -> n + count_errors r) 0 rs
  | Ok _ -> 0

(* A stream request as a read whose chunks are lent to [deliver]. *)
let stream_read ({ source; engine; query; chunk_size } : stream_request) deliver =
  let source = match source with From_doc doc -> Stored (Doc doc) | From_file path -> File path in
  { source; engine; query; reply = Chunked { deliver; chunk_size } }

(* Cached plans (and, separately, composed plans) and requests waiting
   for a worker. *)
let plan_capacity = 128
let queue_capacity = 64

let create ?(domains = 1) () =
  let store = Doc_store.create () in
  let cache = Plan_cache.create ~capacity:plan_capacity in
  let views = View_store.create () in
  let metrics = Metrics.create () in
  (* The lifecycle hook: a document leaving the store (UNLOAD, or the
     old tree of a reload) takes exactly its annotation tables with it —
     per-doc eviction, never a whole-memo wipe.  A COMMIT that supplied
     its rebuilt-spine diff instead has every cached plan's table
     {e repaired} for the new root (the old root's table stays
     addressable for in-flight readers until the per-plan LRU drops it);
     a fallback eviction counts as an invalidation like any other.  The
     repair takes no skip-set: a skip-set changes what a build visits,
     never the table it writes.

     The same event walks the view-dependency graph: every view whose
     chain passes through the document has its annotation memo repaired
     (commit with a usable diff) or evicted, and an UNLOAD/reload also
     drops the composed plans addressed through the document — all
     counted as [view_invalidations].  A plain COMMIT keeps composed
     plans: they depend on the definitions, not on document content. *)
  Doc_store.subscribe store (fun ev ->
      if ev.Doc_store.schema_dropped then Metrics.incr_schema_bindings_dropped metrics;
      (* one label footprint per commit, for the plans' and the views'
         repairs alike, computed only if a repair needs it *)
      let footprint =
        Option.map
          (fun (hint : Doc_store.repair_hint) ->
            lazy
              (Xut_automata.Annotator.commit_footprint ~spine:hint.Doc_store.spine
                 hint.Doc_store.new_root))
          ev.Doc_store.repair
      in
      (match ev.Doc_store.repair with
      | Some hint ->
        let totals =
          Plan_cache.repair ?footprint cache ~old_root_id:ev.Doc_store.root_id
            ~spine:hint.Doc_store.spine hint.Doc_store.new_root
        in
        Metrics.add_repairs metrics ~repaired:totals.Plan_cache.repaired
          ~fallbacks:totals.Plan_cache.fallbacks
          ~recomputed:totals.Plan_cache.recomputed_nodes
          ~reused:totals.Plan_cache.reused_nodes ~rekeyed:totals.Plan_cache.rekeyed;
        Metrics.add_doc_invalidations metrics totals.Plan_cache.fallbacks
      | None ->
        Metrics.add_doc_invalidations metrics
          (Plan_cache.invalidate cache ~root_id:ev.Doc_store.root_id));
      let view_churn = ref 0 in
      List.iter
        (fun vn ->
          match View_store.find views vn with
          | None -> ()
          | Some v -> (
            (* only views based directly on this document hold memo
               tables keyed by its root; for the rest this is a no-op *)
            match ev.Doc_store.repair with
            | Some hint -> (
              match
                Annotation_memo.repair ?footprint v.View_store.memo v.View_store.nfa
                  ~old_root_id:ev.Doc_store.root_id ~spine:hint.Doc_store.spine
                  hint.Doc_store.new_root
              with
              | `Absent -> ()
              | `Fallback | `Repaired _ -> incr view_churn)
            | None ->
              if Annotation_memo.invalidate v.View_store.memo ~root_id:ev.Doc_store.root_id
              then incr view_churn))
        (View_store.dependents views ev.Doc_store.name);
      (match ev.Doc_store.reason with
      | Doc_store.Unloaded | Doc_store.Replaced ->
        view_churn := !view_churn + Plan_cache.invalidate_composed cache ~dep:ev.Doc_store.name
      | Doc_store.Committed -> ());
      Metrics.add_view_invalidations metrics !view_churn);
  let st = { store; cache; views; metrics } in
  (* Every outcome is delivered, an escaped exception as an [Error]; an
     exception out of the final delivery is dropped.  A lent buffer goes
     back to the pool once its delivery has returned. *)
  let handler { work; deliver } =
    Metrics.incr_requests metrics;
    let t0 = Unix.gettimeofday () in
    let d =
      try
        match work with
        | Plain req -> serve st req
        | Stream sr -> run_read st (stream_read sr deliver)
      with e -> Response (eval_error e)
    in
    Metrics.record_latency metrics (Unix.gettimeofday () -. t0);
    (match d with
    | Response r ->
      for _ = 1 to count_errors r do
        Metrics.incr_errors metrics
      done
    | Tree_bytes _ | Chunk _ -> ());
    (try deliver d with _ -> ());
    release d
  in
  let pool =
    Worker_pool.create
      ~on_enqueue:(fun () -> Metrics.queue_enter metrics)
      ~on_dequeue:(fun () -> Metrics.queue_leave metrics)
      ~domains ~queue_capacity handler
  in
  { st; pool }

let shut_down () = error Overloaded "service is shut down"

(* [work] as a job of the pool, by [enqueue] ({!Worker_pool.submit} or
   {!Worker_pool.call}); a shut-down pool's refusal is delivered too. *)
let enqueued enqueue t work deliver =
  match enqueue t.pool { work; deliver } with
  | () -> ()
  | exception Invalid_argument _ -> ( try deliver (Response (shut_down ())) with _ -> ())

let lend t work deliver = enqueued Worker_pool.submit t work deliver
let call_lent t work deliver = enqueued Worker_pool.call t work deliver

(* The string API: each lent tree or chunk is copied out once, here. *)
let copied emit reply = function
  | Chunk b -> emit (Buffer.contents b)
  | d -> reply (kept d)

let submit t req reply = lend t (Plain req) (copied ignore reply)
let submit_stream t sr emit reply = lend t (Stream sr) (copied emit reply)

let call_job t work emit =
  let got = ref None in
  call_lent t work (copied emit (fun r -> got := Some r));
  match !got with Some r -> r | None -> error Eval_error "no reply delivered"

let call t req = call_job t (Plain req) ignore

let transform_stream t ~doc ~engine ~query ?(chunk_size = default_chunk_size) emit =
  call_job t (Stream { source = From_doc doc; engine = Some engine; query; chunk_size }) emit

let transform_ingest t ~source ~query ?(chunk_size = default_chunk_size) emit =
  call_job t (Stream { source; engine = None; query; chunk_size }) emit

let metrics t = t.st.metrics
let cache_stats t = Plan_cache.stats t.st.cache
let store t = t.st.store

(* Subscribers added here run after the service's own plan-cache hook,
   so by the time a transport broadcasts a notice the stale tables are
   already gone — a client acting on the notice sees fresh state. *)
let on_invalidate t f = Doc_store.subscribe t.st.store f
let shutdown t = Worker_pool.shutdown t.pool
