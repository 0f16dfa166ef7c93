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
    String.concat "\n"
      (Printf.sprintf "views %d" (List.length views)
      :: List.map
           (fun v ->
             Printf.sprintf "view %s base=%s depth=%d generation=%d" v.v_name v.v_base
               v.v_depth v.v_generation)
           views)
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
   result of engine [e] over a stored document; [None] lets the service
   pick the cheapest tier (fused, two-parse, materialized). *)
type stream_source = From_doc of string | From_file of string

type stream_request = {
  source : stream_source;
  engine : Engine.algo option;
  query : string;
  chunk_size : int;
}

(* What a worker actually dequeues: a plain request, or a streamed one
   with the consumer its chunks go to.  [emit] never crosses the wire
   (transports decode their own stream framing and supply it). *)
type job = Plain_job of request | Stream_job of stream_request * (string -> unit)

type t = {
  store : Doc_store.t;
  cache : Plan_cache.t;
  views : View_store.t;
  metrics : Metrics.t;
  pool : (job, response) Worker_pool.t;
}

let default_chunk_size = Xut_xml.Serialize.Sink.default_chunk_size

(* ---------------- schema-aware static pruning ----------------

   When the target document was loaded under a schema, the plan's NFA is
   multiplied with it ({!Xut_schema.Schema.product}, memoized per plan):
   a statically-empty product rejects the request before any document
   work, and otherwise the product's skip-set becomes a per-request
   oracle the engines consult to share whole subtrees without visiting
   them.  The oracle also does the accounting: each [true] answer is one
   pruned subtree, whose exact element population comes from the
   binding's size table (work {e avoided}, measured in O(1)). *)

type pruning = {
  product : Xut_schema.Schema.product;
  skip : Xut_xml.Node.element -> bool;  (* counting oracle for DOM engines *)
}

(* The element count of the subtree at [e]: O(1) from the binding's size
   table when it has one, a walk of the subtree otherwise. *)
let size_of sizes e =
  let whole () = Xut_xml.Node.element_count (Xut_xml.Node.Element e) in
  match sizes with
  | Some tbl ->
    (match Hashtbl.find_opt tbl (Xut_xml.Node.id e) with
    | Some n -> n
    | None -> whole ())
  | None -> whole ()

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
let pruning_for ~metrics (dinfo : Doc_store.info) sizes products nfa =
  match schema_product ~metrics dinfo.Doc_store.schema products nfa with
  | Some product
    when Xut_schema.Schema.skip_count product > 0 || Xut_schema.Schema.statically_empty product
    ->
    let skip e =
      if Xut_schema.Schema.skippable product (Xut_xml.Node.sym e) then begin
        Metrics.add_skipped metrics ~subtrees:1 ~nodes:(size_of sizes e);
        true
      end
      else false
    in
    Some { product; skip }
  | _ -> None

(* The admission check: a Doc-target Transform/Count whose product is
   statically empty can never select anything in any document conforming
   to the schema — reject it before touching the tree. *)
let admit ~metrics (dinfo : Doc_store.info) pruning =
  match pruning with
  | Some p when Xut_schema.Schema.statically_empty p.product ->
    Metrics.incr_statically_empty metrics;
    Stdlib.Error
      (error Statically_empty
         "query selects nothing under schema %S (NFA x schema product is empty)"
         (Option.value ~default:"?" dinfo.Doc_store.schema))
  | _ -> Stdlib.Ok ()

let skip_of pruning = Option.map (fun p -> p.skip) pruning

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
let transform_with ?checkp ?skip nfa update (engine : Engine.algo) root =
  match engine with
  | Engine.Gentop | Engine.Td_bu -> Top_down.run ?checkp ?skip nfa update root
  | other -> Engine.transform other update root

let run_plan ?pruning (plan : Plan_cache.plan) engine root =
  let skip = skip_of pruning and nfa = plan.Plan_cache.nfa in
  let checkp = memo_checkp ?skip plan.Plan_cache.annotations nfa engine root in
  transform_with ?checkp ?skip nfa plan.Plan_cache.query.Transform_ast.update engine root

(* COUNT without materialization: the walk engines answer with
   {!Top_down.count} — the snapshot's element count plus the update's
   effect, deleted subtrees sized from the binding's table — under the
   same oracles as [run_plan]; the other engines count the tree they
   build. *)
let count_plan ?pruning ~elements ~sizes (plan : Plan_cache.plan) engine root =
  match (engine : Engine.algo) with
  | Engine.Gentop | Engine.Td_bu ->
    let skip = skip_of pruning and nfa = plan.Plan_cache.nfa in
    let checkp = memo_checkp ?skip plan.Plan_cache.annotations nfa engine root in
    Top_down.count ?checkp ?skip ~size:(size_of sizes) ~elements nfa
      plan.Plan_cache.query.Transform_ast.update root
  | _ -> Xut_xml.Node.element_count (Xut_xml.Node.Element (run_plan ?pruning plan engine root))

(* The SAX engine consumes the skip-set by symbol and reports exact skip
   counts in its run stats. *)
let sym_skip pruning =
  Option.map (fun p sym -> Xut_schema.Schema.skippable p.product sym) pruning

let count_sax_skips ~metrics (stats : Sax_transform.run_stats) =
  Metrics.add_skipped metrics ~subtrees:stats.Sax_transform.skipped_subtrees
    ~nodes:stats.Sax_transform.skipped_elements

(* [run_plan] into a serializer sink.  twoPassSAX emits its result as
   events.  Every other engine hands its result tree to the sink, which
   writes each subtree whole; for the walk engines that tree shares all
   but the rebuilt spine with the snapshot, which [image] (the stored
   document's reply image) holds already serialized. *)
let run_plan_stream ~metrics ?pruning ?image (plan : Plan_cache.plan) engine root sink =
  match (engine : Engine.algo) with
  | Engine.Two_pass_sax ->
    (* The skip-set comes from the plan's NFA, which the SAX passes
       run as well. *)
    count_sax_skips ~metrics
      (Sax_transform.run ?skip:(sym_skip pruning) plan.Plan_cache.nfa
         plan.Plan_cache.query.Transform_ast.update ~source:(Xut_xml.Sax.events_of_tree root)
         ~sink:(Xut_xml.Serialize.Sink.event sink))
  | _ -> Xut_xml.Serialize.Sink.element ?image sink (run_plan ?pruning plan engine root)

(* [parse query], a failure as the [Query_parse_error] reply. *)
let parsed parse query =
  match parse query with
  | v -> Stdlib.Ok v
  | exception (Transform_parser.Parse_error msg | Xut_xquery.Xq_parser.Parse_error msg) ->
    Stdlib.Error (error Query_parse_error "%s" msg)
  | exception e -> Stdlib.Error (error Query_parse_error "%s" (Printexc.to_string e))

(* The cached plan for [query], the lookup counted as a hit or a miss. *)
let lookup_plan ~cache ~metrics query =
  match parsed (Plan_cache.find_or_compile cache) query with
  | Stdlib.Error e -> Stdlib.Error e
  | Stdlib.Ok (plan, outcome) ->
    (match outcome with
    | Plan_cache.Hit -> Metrics.incr_cache_hits metrics
    | Plan_cache.Miss -> Metrics.incr_cache_misses metrics);
    Stdlib.Ok plan

(* An exception out of a run, as the [Eval_error] reply. *)
let eval_error = function
  | Xut_xml.Sax.Parse_error { line; col; msg } ->
    error Eval_error "parse error at %d:%d: %s" line col msg
  | Failure msg | Sys_error msg -> error Eval_error "%s" msg
  | e -> error Eval_error "%s" (Printexc.to_string e)

(* [f ()], an exception as the [Eval_error] reply: as a result, and as
   the response of a payload. *)
let evaluated f = match f () with v -> Stdlib.Ok v | exception e -> Stdlib.Error (eval_error e)
let reply f = match f () with payload -> Ok payload | exception e -> eval_error e

(* The head every Doc-target TRANSFORM, COUNT, result stream and ingest
   shares: snapshot, plan lookup, schema pruning and the admission
   check, then [exec] over the snapshot. *)
let evaluate ~store ~cache ~metrics ~doc ~query exec =
  match Doc_store.snapshot store doc with
  | None -> error Unknown_document "no document %S (LOAD it first)" doc
  | Some (root, dinfo, sizes) -> begin
    match lookup_plan ~cache ~metrics query with
    | Stdlib.Error e -> e
    | Stdlib.Ok plan -> begin
      let pruning =
        pruning_for ~metrics dinfo sizes plan.Plan_cache.products plan.Plan_cache.nfa
      in
      match admit ~metrics dinfo pruning with
      | Stdlib.Error e -> e
      | Stdlib.Ok () -> reply (fun () -> exec ~pruning ~dinfo ~sizes plan root)
    end
  end

(* A streamed reply: [body] writes the result into a fresh chunked sink
   whose chunks go to [emit] as they fill; the reply carries only the
   totals.  A failure aborts the sink and propagates. *)
let stream_to ~metrics ~emit ~chunk_size body =
  Metrics.stream_started metrics;
  let sink =
    Xut_xml.Serialize.Sink.create ~chunk_size (fun chunk ->
        Metrics.stream_chunk metrics (String.length chunk);
        emit chunk)
  in
  (match body sink with
  | () -> ()
  | exception e ->
    Xut_xml.Serialize.Sink.abort sink;
    raise e);
  let totals = Xut_xml.Serialize.Sink.close sink in
  Stream_done
    {
      bytes = totals.Xut_xml.Serialize.Sink.bytes;
      chunks = totals.Xut_xml.Serialize.Sink.chunks;
    }

(* ---------------- stored-view serving ---------------- *)

(* Both the composed path and the materializing fallback render their
   answer through this, so the two are byte-identical by construction:
   one line per result item, serialized, all into one pooled buffer. *)
let render_value (v : Xut_xquery.Xq_value.t) =
  let add_item buf = function
    | Xut_xquery.Xq_value.N n -> Xut_xml.Serialize.to_buffer buf n
    | Xut_xquery.Xq_value.D e -> Xut_xml.Serialize.to_buffer buf (Xut_xml.Node.Element e)
    | other -> Buffer.add_string buf (Xut_xquery.Xq_value.string_of_item other)
  in
  let rec add_rest buf = function
    | [] -> ()
    | item :: rest ->
      Buffer.add_char buf '\n';
      add_item buf item;
      add_rest buf rest
  in
  match v with
  | [] -> ""
  | item :: rest ->
    Xut_xml.Serialize.Pool.contents_of (fun buf ->
        add_item buf item;
        add_rest buf rest)

let count_value (v : Xut_xquery.Xq_value.t) =
  List.fold_left
    (fun n item ->
      match item with
      | Xut_xquery.Xq_value.N node -> n + Xut_xml.Node.element_count node
      | Xut_xquery.Xq_value.D e -> n + Xut_xml.Node.element_count (Xut_xml.Node.Element e)
      | _ -> n + 1)
    0 v

(* The fallback: materialize the chain level by level, then evaluate the
   user query over the result.  Level 0 with TD-BU gets the memoized
   annotation oracle; the outer levels run over freshly built trees
   where no memo can help. *)
let materialize_chain ~engine (levels : View_store.view list) root =
  let level checkp t (v : View_store.view) =
    transform_with ?checkp v.View_store.nfa v.View_store.update engine t
  in
  match levels with
  | [] -> root
  | inner :: outer ->
    let checkp = memo_checkp inner.View_store.memo inner.View_store.nfa engine root in
    List.fold_left (level None) (level checkp root inner) outer

let evaluate_view ~store ~cache ~views ~metrics ~name ~engine ~query =
  match View_store.resolve views name with
  | None -> Stdlib.Error (error Unknown_document "no view %S (DEFVIEW it first)" name)
  | Some chain -> begin
    match Doc_store.snapshot store chain.View_store.base with
    | None ->
      Stdlib.Error
        (error Unknown_document "no document %S (base of view %S; LOAD it first)"
           chain.View_store.base name)
    | Some (root, base_info, base_sizes) -> begin
      match parsed Xut_xquery.Xq_parser.parse_expr query with
      | Stdlib.Error e -> Stdlib.Error e
      | Stdlib.Ok expr -> begin
        let levels = chain.View_store.levels in
        let updates = List.map (fun (v : View_store.view) -> v.View_store.update) levels in
        let fallback () =
          Metrics.incr_compose_fallbacks metrics;
          evaluated (fun () ->
              let materialized = materialize_chain ~engine levels root in
              Xut_xquery.Xq_eval.eval_expr (Xut_xquery.Xq_eval.env ~context:materialized ()) expr)
        in
        match User_query.of_expr expr with
        | Stdlib.Error _ ->
          (* not in the restricted user fragment: the Compose method
             does not apply, materialize instead *)
          fallback ()
        | Stdlib.Ok uq -> begin
          let key = View_store.signature chain ^ "||" ^ query in
          let deps =
            chain.View_store.base
            :: List.map (fun (v : View_store.view) -> v.View_store.name) levels
          in
          let composed, outcome =
            Plan_cache.find_or_compose cache ~key ~deps (fun () ->
                Composition.compose_stack updates uq)
          in
          match composed with
          | Stdlib.Error _ -> fallback ()
          | Stdlib.Ok c -> begin
            if outcome = Plan_cache.Miss then Metrics.incr_composed_plans metrics;
            Metrics.incr_view_hits metrics;
            (* the oracle answers level-0 qualifier checks over the base
               tree from the view's memoized annotation table; when the
               base document is schema-bound, the innermost update's own
               NFA x schema product prunes the table build (the table is
               identical either way — views are never rejected) *)
            let oracle =
              match (engine : Engine.algo), levels with
              | Engine.Td_bu, (inner : View_store.view) :: _ ->
                let pruning =
                  pruning_for ~metrics base_info base_sizes inner.View_store.products
                    inner.View_store.nfa
                in
                memo_checkp ?skip:(skip_of pruning) inner.View_store.memo inner.View_store.nfa
                  engine root
              | _ -> None
            in
            evaluated (fun () -> Composition.run_composed ?oracle c ~doc:root)
          end
        end
      end
    end
  end

let handle_defview ~cache ~views ~metrics ~name ~query =
  match View_store.define views ~name ~source:query with
  | Stdlib.Error (`Parse m) -> error Query_parse_error "%s" m
  | Stdlib.Error (`Compose m) -> error View_compose_error "%s" m
  | Stdlib.Error (`Cycle path) ->
    error View_compose_error "view cycle: %s" (String.concat " -> " path)
  | Stdlib.Ok (v, redefined) ->
    Metrics.incr_view_defs metrics;
    if redefined then
      (* the definition changed: every composed plan over a chain through
         this name is stale (the generation in the cache key already
         misses, this reclaims the entries and counts the churn) *)
      Metrics.add_view_invalidations metrics (Plan_cache.invalidate_composed cache ~dep:name);
    Ok
      (View_defined
         {
           name;
           base = v.View_store.base;
           depth = View_store.depth views name;
           generation = v.View_store.generation;
           redefined;
         })

let handle_undefview ~cache ~views ~metrics ~name =
  if View_store.undefine views ~name then begin
    Metrics.add_view_invalidations metrics (Plan_cache.invalidate_composed cache ~dep:name);
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
   materializes and swaps under {!Doc_store.commit}. *)
let conflict_strings report =
  List.map Xut_update.Pending.render_conflict report.Xut_update.Apply.conflicts

let handle_apply ~store ~doc ~query =
  match parsed Transform_parser.parse_updates query with
  | Stdlib.Error e -> e
  | Stdlib.Ok updates -> begin
    match Doc_store.find store doc with
    | None -> error Unknown_document "no document %S (LOAD it first)" doc
    | Some root -> begin
      match Xut_update.Apply.stage updates root with
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

let handle_commit ~store ~metrics ~doc ~query =
  match parsed Transform_parser.parse_updates query with
  | Stdlib.Error e -> e
  | Stdlib.Ok updates -> begin
    let result =
      Doc_store.commit ~delta:snd store ~name:doc (fun _info root ->
          match Xut_update.Apply.run updates root with
          | Stdlib.Ok (report, None) -> Stdlib.Ok (None, (report, 0))
          | Stdlib.Ok (report, Some (root', diff)) ->
            Stdlib.Ok
              ( Some (root', Some diff.Xut_update.Apply.spine),
                (report, diff.Xut_update.Apply.element_delta) )
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
    | Doc_store.Swapped (info, (report, _)) ->
      Metrics.commit_recorded metrics ~primitives:report.Xut_update.Apply.primitives;
      committed info report
    | Doc_store.Unchanged (info, (report, _)) ->
      Metrics.commit_noop metrics;
      committed info report
    | Doc_store.Rejected (`Conflict report) ->
      Metrics.commit_conflict metrics;
      error Conflict "%s" (String.concat "; " (conflict_strings report))
    | Doc_store.Rejected (`Invalid msg) -> error Eval_error "%s" msg
    | Doc_store.No_document -> error Unknown_document "no document %S (LOAD it first)" doc
  end

(* [depth] guards against nested batches; every arm returns a
   [response], so a worker can only die to a runtime error (and even
   that the pool turns into an [Error] reply). *)
let rec handle ~store ~cache ~views ~metrics ~depth = function
  | Load { name; file; schema } -> begin
    match Doc_store.load_file store ~name ?schema file with
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
    if Doc_store.evict store name then Ok (Doc_unloaded { name })
    else error Unknown_document "no document %S" name
  | Transform { target = Doc doc; engine; query } -> begin
    let run ~pruning ~dinfo:_ ~sizes:_ plan root =
      let image = Doc_store.image store doc in
      Tree (Xut_xml.Serialize.element_to_string ?image (run_plan ?pruning plan engine root))
    in
    evaluate ~store ~cache ~metrics ~doc ~query run
  end
  | Transform { target = View name; engine; query } -> begin
    match evaluate_view ~store ~cache ~views ~metrics ~name ~engine ~query with
    | Stdlib.Ok v -> Ok (Tree (render_value v))
    | Stdlib.Error e -> e
  end
  | Count { target = Doc doc; engine; query } -> begin
    let count ~pruning ~(dinfo : Doc_store.info) ~sizes plan root =
      Element_count
        (count_plan ?pruning ~elements:dinfo.Doc_store.elements ~sizes plan engine root)
    in
    evaluate ~store ~cache ~metrics ~doc ~query count
  end
  | Count { target = View name; engine; query } -> begin
    match evaluate_view ~store ~cache ~views ~metrics ~name ~engine ~query with
    | Stdlib.Ok v -> Ok (Element_count (count_value v))
    | Stdlib.Error e -> e
  end
  | Apply { doc; query } -> handle_apply ~store ~doc ~query
  | Commit { doc; query } -> handle_commit ~store ~metrics ~doc ~query
  | Defview { name; query } -> handle_defview ~cache ~views ~metrics ~name ~query
  | Undefview { name } -> handle_undefview ~cache ~views ~metrics ~name
  | Listviews -> Ok (View_list (view_infos views))
  | Stats ->
    let b = Buffer.create 512 in
    Buffer.add_string b (Metrics.dump metrics);
    let cs = Plan_cache.stats cache in
    Printf.bprintf b
      "\nplan_cache entries=%d capacity=%d evictions=%d annotation_entries=%d \
       composed_entries=%d"
      cs.Plan_cache.entries cs.Plan_cache.capacity cs.Plan_cache.evictions
      cs.Plan_cache.annotation_entries cs.Plan_cache.composed_entries;
    List.iter
      (fun name ->
        match Doc_store.info store name with
        | Some i ->
          Printf.bprintf b "\ndoc %s elements=%d generation=%d" i.Doc_store.name
            i.Doc_store.elements i.Doc_store.generation;
          (match i.Doc_store.schema with
          | Some s -> Printf.bprintf b " schema=%s" s
          | None -> ())
        | None -> ())
      (Doc_store.names store);
    List.iter
      (fun (i : View_store.info) ->
        Printf.bprintf b "\nview %s base=%s depth=%d generation=%d" i.View_store.i_name
          i.View_store.i_base i.View_store.i_depth i.View_store.i_generation)
      (View_store.infos views);
    Ok (Stats_dump (Buffer.contents b))
  | Batch reqs ->
    if depth > 0 then error Bad_request "nested batch"
    else
      Ok
        (Batch_results
           (List.map (handle ~store ~cache ~views ~metrics ~depth:(depth + 1)) reqs))

(* ---------------- streamed transforms ----------------

   One path for every streamed reply: chunks go to [emit] as they fill,
   the response carries only the totals.  A failure after chunks have
   gone out is an [Error] response — transports turn that into a
   mid-stream error frame, in-process callers see partial output
   followed by the error.

   [engine = Some e] is the result stream of a stored document: engine
   [e] writes into the sink ([run_plan_stream]).  [engine = None]
   (TRANSFORM-STREAM) transforms the source without materializing the
   input as a tree, when the plan admits it.  The classifier is
   {!Sax_transform.one_pass}: a plan with no qualifiers anywhere (no
   context qualifier, no qualifier-bearing NFA state) never consults the
   bottom-up truth table, so the top-down pass alone over a single
   forward read of the input is the whole transform — O(depth) memory,
   end to end ([streams_fused]).

   Shapes outside that fragment fall back automatically, with
   byte-identical output (same serializer sink, same transform
   semantics), counted in [stream_fallbacks]:

   - a FILE source with a trivially-true context qualifier runs the full
     two-pass SAX algorithm, reading the file twice (the paper's Fig. 14
     configuration) — a truth table but still no tree;
   - everything else (context qualifiers; qualifier-bearing plans over a
     stored document, whose tree already exists) uses the tree and
     streams only the output via [run_plan_stream]. *)
let handle_stream ~store ~cache ~metrics emit { source; engine; query; chunk_size } =
  let stream body = stream_to ~metrics ~emit ~chunk_size body in
  let fused ?skip nfa (plan : Plan_cache.plan) events =
    Metrics.incr_streams_fused metrics;
    stream (fun sink ->
        count_sax_skips ~metrics
          (Sax_transform.run_once ?skip nfa plan.Plan_cache.query.Transform_ast.update
             ~source:events ~sink:(Xut_xml.Serialize.Sink.event sink)))
  in
  match (source, engine) with
  | From_doc doc, _ ->
    let run ~pruning ~dinfo:_ ~sizes:_ plan root =
      let tree_stream engine =
        let image = Doc_store.image store doc in
        stream (run_plan_stream ~metrics ?pruning ?image plan engine root)
      in
      match engine with
      | Some engine -> tree_stream engine
      | None ->
        let nfa = plan.Plan_cache.nfa in
        if Sax_transform.one_pass nfa then
          fused ?skip:(sym_skip pruning) nfa plan (Xut_xml.Sax.events_of_tree root)
        else begin
          Metrics.incr_stream_fallbacks metrics;
          tree_stream Engine.Gentop
        end
    in
    evaluate ~store ~cache ~metrics ~doc ~query run
  | From_file _, Some _ ->
    error Bad_request "a result stream with an engine needs a stored document"
  | From_file path, None -> begin
    match lookup_plan ~cache ~metrics query with
    | Stdlib.Error e -> e
    | Stdlib.Ok _ when not (Sys.file_exists path) -> error Eval_error "no such file %S" path
    | Stdlib.Ok plan ->
      let nfa = plan.Plan_cache.nfa in
      let source h = Xut_xml.Sax.parse_file path h in
      reply (fun () ->
          if Sax_transform.one_pass nfa then fused nfa plan source
          else begin
            Metrics.incr_stream_fallbacks metrics;
            match Xut_automata.Selecting_nfa.ctx_qual nfa with
            | Xut_xpath.Ast.Q_true ->
              stream (fun sink ->
                  count_sax_skips ~metrics
                    (Sax_transform.run nfa plan.Plan_cache.query.Transform_ast.update ~source
                       ~sink:(Xut_xml.Serialize.Sink.event sink)))
            | _ ->
              stream (fun sink ->
                  run_plan_stream ~metrics plan Engine.Gentop (Xut_xml.Dom.parse_file path) sink)
          end)
  end

let rec count_errors = function
  | Error _ -> 1
  | Ok (Batch_results rs) -> List.fold_left (fun n r -> n + count_errors r) 0 rs
  | Ok _ -> 0

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
     a fallback eviction counts as an invalidation like any other.

     The same event walks the view-dependency graph: every view whose
     chain passes through the document has its annotation memo repaired
     (commit with a usable diff) or evicted, and an UNLOAD/reload also
     drops the composed plans addressed through the document — all
     counted as [view_invalidations].  A plain COMMIT keeps composed
     plans: they depend on the definitions, not on document content. *)
  Doc_store.subscribe store (fun ev ->
      if ev.Doc_store.schema_dropped then Metrics.incr_schema_bindings_dropped metrics;
      (* The schema captured at the swap (if the new tree still
         conforms): each repaired table's fresh-subtree annotation runs
         under the owning plan's skip-set, exactly as a from-scratch
         build would.  The oracle changes cost, never content, so the
         repaired table equals the unpruned one — repair_fallbacks stays
         0 with pruning on. *)
      let skip_against nfa products =
        match schema_product ~metrics ev.Doc_store.schema products nfa with
        | Some product when Xut_schema.Schema.skip_count product > 0 ->
          Some (fun e -> Xut_schema.Schema.skippable product (Xut_xml.Node.sym e))
        | _ -> None
      in
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
        let plan_skip (plan : Plan_cache.plan) =
          skip_against plan.Plan_cache.nfa plan.Plan_cache.products
        in
        let totals =
          Plan_cache.repair ~plan_skip ?footprint cache ~old_root_id:ev.Doc_store.root_id
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
                Annotation_memo.repair
                  ?skip:(skip_against v.View_store.nfa v.View_store.products)
                  ?footprint v.View_store.memo v.View_store.nfa
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
  let handler job =
    Metrics.incr_requests metrics;
    let t0 = Unix.gettimeofday () in
    let resp =
      match job with
      | Plain_job req -> handle ~store ~cache ~views ~metrics ~depth:0 req
      | Stream_job (sr, emit) -> handle_stream ~store ~cache ~metrics emit sr
    in
    Metrics.record_latency metrics (Unix.gettimeofday () -. t0);
    for _ = 1 to count_errors resp do
      Metrics.incr_errors metrics
    done;
    resp
  in
  let pool =
    Worker_pool.create
      ~on_enqueue:(fun () -> Metrics.queue_enter metrics)
      ~on_dequeue:(fun () -> Metrics.queue_leave metrics)
      ~domains ~queue_capacity handler
  in
  { store; cache; views; metrics; pool }

(* The pool's own error channel ([('b, string) result]) only fires when
   an exception escapes the handler — the handler catches everything it
   expects, so this is the backstop mapping. *)
let flatten = function
  | Stdlib.Ok r -> r
  | Stdlib.Error msg -> error Eval_error "%s" msg

let shut_down () = error Overloaded "service is shut down"

let submit_job t job reply =
  match Worker_pool.submit t.pool job (fun r -> reply (flatten r)) with
  | () -> ()
  | exception Invalid_argument _ -> reply (shut_down ())

let call_job t job =
  match Worker_pool.call t.pool job with
  | r -> flatten r
  | exception Invalid_argument _ -> shut_down ()

let submit t req reply = submit_job t (Plain_job req) reply
let submit_stream t sr emit reply = submit_job t (Stream_job (sr, emit)) reply
let call t req = call_job t (Plain_job req)
let call_stream t sr emit = call_job t (Stream_job (sr, emit))

let transform_stream t ~doc ~engine ~query ?(chunk_size = default_chunk_size) emit =
  call_stream t { source = From_doc doc; engine = Some engine; query; chunk_size } emit

let transform_ingest t ~source ~query ?(chunk_size = default_chunk_size) emit =
  call_stream t { source; engine = None; query; chunk_size } emit

let metrics t = t.metrics
let cache_stats t = Plan_cache.stats t.cache
let store t = t.store

(* Subscribers added here run after the service's own plan-cache hook,
   so by the time a transport broadcasts a notice the stale tables are
   already gone — a client acting on the notice sees fresh state. *)
let on_invalidate t f = Doc_store.subscribe t.store f
let shutdown t = Worker_pool.shutdown t.pool
