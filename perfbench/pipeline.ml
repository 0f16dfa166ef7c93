(* The traced run's replay: each request served by calling the layers'
   public functions directly, in the order [Service] calls them, against
   the benchmark's own Doc_store / Plan_cache / View_store.  Every call
   is wrapped in a span (see [Spans]); the reply is the same
   [Service.response] the service would give, so it is checked the same
   way. *)

open Xut_xml
open Xut_service
module Schema = Xut_schema.Schema

let s_encode = Spans.name "transport.encode"
let s_decode = Spans.name "transport.decode"
let s_snapshot = Spans.name "doc_store.snapshot"
let s_lookup = Spans.name "plan_cache.find_or_compile"
let s_product = Spans.name "plan_cache.product"
let s_annotation = Spans.name "plan_cache.annotation"
let s_run = Spans.name "top_down.run"
let s_stream = Spans.name "top_down.stream"
let s_serialize = Spans.name "serialize.element_to_string"
let s_render = Spans.name "serialize.view_render"
let s_resolve = Spans.name "view_store.resolve"
let s_xq_parse = Spans.name "xquery.parse"
let s_compose_lookup = Spans.name "plan_cache.find_or_compose"
let s_compose = Spans.name "composition.compose_stack"
let s_view_annotation = Spans.name "annotation_memo.find"
let s_run_composed = Spans.name "composition.run_composed"
let s_parse_updates = Spans.name "update.parse"
let s_commit = Spans.name "doc_store.commit"
let s_apply = Spans.name "update.apply"
let s_repair = Spans.name "plan_cache.repair"
let s_view_repair = Spans.name "annotation_memo.repair"
let s_nfa = Spans.name "nfa.of_path"
let s_fused = Spans.name "sax.run_once"
let s_two_pass = Spans.name "sax.run"
let s_sink_close = Spans.name "serialize.sink_close"

type ctx = {
  store : Doc_store.t;
  cache : Plan_cache.t;
  views : View_store.t;
  file : string;
  file_bytes : float;
  mutable spines : int list;  (** rebuilt-spine size of every commit *)
}

(* The commit hook, as the service's: repair every cached plan's and
   every dependent view's annotation table for the new root, or evict
   on a degenerate diff.  (The benchmark never commits to a
   schema-bound document, so the repairs run without a skip-set.) *)
let on_event ctx (ev : Doc_store.event) =
  let dependents () =
    List.filter_map (View_store.find ctx.views) (View_store.dependents ctx.views ev.Doc_store.name)
  in
  match ev.Doc_store.repair with
  | Some hint ->
    ignore
      (Spans.span s_repair (fun () ->
           Plan_cache.repair ctx.cache ~old_root_id:ev.Doc_store.root_id
             ~spine:hint.Doc_store.spine hint.Doc_store.new_root));
    List.iter
      (fun (v : View_store.view) ->
        ignore
          (Spans.span s_view_repair (fun () ->
               Annotation_memo.repair v.View_store.memo v.View_store.nfa
                 ~old_root_id:ev.Doc_store.root_id ~spine:hint.Doc_store.spine
                 hint.Doc_store.new_root)))
      (dependents ())
  | None ->
    ignore (Plan_cache.invalidate ctx.cache ~root_id:ev.Doc_store.root_id);
    List.iter
      (fun (v : View_store.view) ->
        ignore (Annotation_memo.invalidate v.View_store.memo ~root_id:ev.Doc_store.root_id))
      (dependents ());
    (match ev.Doc_store.reason with
    | Doc_store.Unloaded | Doc_store.Replaced ->
      ignore (Plan_cache.invalidate_composed ctx.cache ~dep:ev.Doc_store.name)
    | Doc_store.Committed -> ())

let create ~file ~schema ~views root =
  let ctx =
    { store = Doc_store.create ();
      cache = Plan_cache.create ~capacity:128;
      views = View_store.create ();
      file;
      file_bytes = float_of_int (Unix.stat file).Unix.st_size;
      spines = [] }
  in
  Doc_store.subscribe ctx.store (on_event ctx);
  (match Doc_store.register ctx.store ~name:Workload.doc ~file ?schema root with
  | Ok _ -> ()
  | Error msg -> failwith ("register: " ^ msg));
  if views then
    List.iter
      (fun (name, source) ->
        match View_store.define ctx.views ~name ~source with
        | Ok _ -> ()
        | Error _ -> failwith ("cannot define view " ^ name))
      Workload.view_defs;
  ctx

let error code message = Service.Error { code; message }

exception Refused of Service.response

(* Snapshot, plan lookup, schema admission: the head every Doc-target
   request shares. *)
let resolve ctx query =
  match Spans.span s_snapshot (fun () -> Doc_store.snapshot ctx.store Workload.doc) with
  | None -> raise (Refused (error Service.Unknown_document "no document"))
  | Some (root, dinfo, _) ->
    let plan, _ = Spans.span s_lookup (fun () -> Plan_cache.find_or_compile ctx.cache query) in
    let skip =
      match Option.bind dinfo.Doc_store.schema Schema.find with
      | None -> None
      | Some schema ->
        let product, _ = Spans.span s_product (fun () -> Plan_cache.product plan schema) in
        if Schema.statically_empty product then
          raise (Refused (error Service.Statically_empty "statically empty"))
        else if Schema.skip_count product = 0 then None
        else Some (fun e -> Schema.skippable product (Node.sym e))
    in
    (root, dinfo, plan, skip)

let td_bu ctx query =
  let root, dinfo, plan, skip = resolve ctx query in
  let table = Spans.span s_annotation (fun () -> Plan_cache.annotation ?skip plan root) in
  let checkp = Xut_automata.Annotator.checkp table plan.Plan_cache.nfa in
  (root, dinfo, plan, skip, checkp)

let serialize nm f = Spans.span nm ~work:(fun s -> float_of_int (String.length s)) f

let doc_read ctx query ~count =
  let root, dinfo, plan, skip, checkp = td_bu ctx query in
  let out =
    Spans.span s_run
      ~work:(fun _ -> float_of_int dinfo.Doc_store.elements)
      (fun () ->
        Core.Top_down.run ~checkp ?skip plan.Plan_cache.nfa
          plan.Plan_cache.query.Core.Transform_ast.update root)
  in
  if count then Service.Ok (Service.Element_count (Node.element_count (Node.Element out)))
  else Service.Ok (Service.Tree (serialize s_serialize (fun () -> Serialize.element_to_string out)))

let view_read ctx name query =
  match Spans.span s_resolve (fun () -> View_store.resolve ctx.views name) with
  | None -> error Service.Unknown_document "no view"
  | Some chain -> begin
    match Spans.span s_snapshot (fun () -> Doc_store.snapshot ctx.store chain.View_store.base) with
    | None -> error Service.Unknown_document "no base document"
    | Some (root, _, _) -> begin
      let expr = Spans.span s_xq_parse (fun () -> Xut_xquery.Xq_parser.parse_expr query) in
      match Core.User_query.of_expr expr with
      | Error msg -> error Service.Eval_error ("outside the composable fragment: " ^ msg)
      | Ok uq -> begin
        let levels = chain.View_store.levels in
        let updates = List.map (fun (v : View_store.view) -> v.View_store.update) levels in
        let key = View_store.signature chain ^ "||" ^ query in
        let deps =
          chain.View_store.base :: List.map (fun (v : View_store.view) -> v.View_store.name) levels
        in
        let composed, _ =
          Spans.span s_compose_lookup (fun () ->
              Plan_cache.find_or_compose ctx.cache ~key ~deps (fun () ->
                  Spans.span s_compose (fun () -> Core.Composition.compose_stack updates uq)))
        in
        match composed with
        | Error msg -> error Service.Eval_error ("compose failed: " ^ msg)
        | Ok c ->
          let oracle =
            match levels with
            | inner :: _ ->
              let table =
                Spans.span s_view_annotation (fun () ->
                    Annotation_memo.find inner.View_store.memo inner.View_store.nfa root)
              in
              Some (Xut_automata.Annotator.checkp table inner.View_store.nfa)
            | [] -> None
          in
          let v =
            Spans.span s_run_composed (fun () -> Core.Composition.run_composed ?oracle c ~doc:root)
          in
          Service.Ok (Service.Tree (serialize s_render (fun () -> Reference.render_value v)))
      end
    end
  end

let commit ctx query =
  let updates = Spans.span s_parse_updates (fun () -> Core.Transform_parser.parse_updates query) in
  let result =
    Spans.span s_commit (fun () ->
        Doc_store.commit ctx.store ~name:Workload.doc (fun _ root ->
            match Spans.span s_apply (fun () -> Xut_update.Apply.run updates root) with
            | Ok (report, materialized) ->
              let swap =
                Option.map
                  (fun (root', (diff : Xut_update.Apply.diff)) ->
                    ctx.spines <- Hashtbl.length diff.Xut_update.Apply.spine :: ctx.spines;
                    (root', Some diff.Xut_update.Apply.spine))
                  materialized
              in
              Ok (swap, report)
            | Error report -> Error report))
  in
  let committed (info : Doc_store.info) (report : Xut_update.Apply.report) =
    Service.Ok
      (Service.Committed
         { doc = Workload.doc;
           primitives = report.Xut_update.Apply.primitives;
           collapsed = report.Xut_update.Apply.collapsed;
           elements = info.Doc_store.elements;
           generation = info.Doc_store.generation })
  in
  match result with
  | Doc_store.Swapped (info, report) | Doc_store.Unchanged (info, report) -> committed info report
  | Doc_store.Rejected _ -> error Service.Conflict "conflict"
  | Doc_store.No_document -> error Service.Unknown_document "no document"

let streamed emit body =
  let sink = Serialize.Sink.create ~chunk_size:Service.default_chunk_size emit in
  body sink;
  let totals = Spans.span s_sink_close (fun () -> Serialize.Sink.close sink) in
  Service.Ok
    (Service.Stream_done
       { bytes = totals.Serialize.Sink.bytes; chunks = totals.Serialize.Sink.chunks })

let ingest ctx query emit =
  let plan, _ = Spans.span s_lookup (fun () -> Plan_cache.find_or_compile ctx.cache query) in
  let update = plan.Plan_cache.query.Core.Transform_ast.update in
  let nfa =
    Spans.span s_nfa (fun () ->
        Xut_automata.Selecting_nfa.of_path (Core.Transform_ast.path update))
  in
  let source h = Sax.parse_file ctx.file h in
  let work _ = ctx.file_bytes in
  streamed emit (fun sink ->
      let sink = Serialize.Sink.event sink in
      if Core.Sax_transform.one_pass nfa then
        ignore
          (Spans.span s_fused ~work (fun () ->
               Core.Sax_transform.run_once nfa update ~source ~sink))
      else
        ignore
          (Spans.span s_two_pass ~work (fun () -> Core.Sax_transform.run nfa update ~source ~sink)))

let doc_stream ctx query emit =
  let root, dinfo, plan, skip, checkp = td_bu ctx query in
  streamed emit (fun sink ->
      Spans.span s_stream
        ~work:(fun () -> float_of_int dinfo.Doc_store.elements)
        (fun () ->
          Core.Top_down.stream ~checkp ?skip plan.Plan_cache.nfa
            plan.Plan_cache.query.Core.Transform_ast.update root (Serialize.Sink.event sink)))

let exec ctx (op : Workload.op) emit =
  match op with
  | Count i -> doc_read ctx Workload.queries.(i) ~count:true
  | Transform i -> doc_read ctx Workload.queries.(i) ~count:false
  | View k -> view_read ctx (Workload.view_name k) Workload.user_query
  | Commit insert -> commit ctx (Workload.commit_query insert)
  | Ingest i -> ingest ctx Workload.queries.(i) emit
  | Stream i -> doc_stream ctx Workload.queries.(i) emit

(* One request as the transport sees it: the request frame is encoded
   and decoded, the request served, and every reply frame encoded and
   decoded.  The chunks of a stream go to [collected]. *)
let serve ctx ~rid (op : Workload.op) collected =
  Spans.request := rid;
  let id = Int64.of_int rid in
  let frame = Spans.span s_encode (fun () -> Api.request_frame ~file:ctx.file ~id op) in
  Spans.span s_decode (fun () -> Api.decode_request frame);
  let emit chunk =
    let f = Spans.span s_encode (fun () -> Api.chunk_frame ~id chunk) in
    Spans.span s_decode (fun () -> Api.decode_chunk f);
    Reference.add collected chunk
  in
  let resp = try exec ctx op emit with Refused r -> r in
  (match resp with
  | Service.Ok (Service.Stream_done { bytes; chunks }) ->
    let f = Spans.span s_encode (fun () -> Api.stream_end_frame ~id ~bytes ~chunks) in
    Spans.span s_decode (fun () -> Api.decode_stream_end f)
  | resp ->
    let f = Spans.span s_encode (fun () -> Api.response_frame ~id resp) in
    Spans.span s_decode (fun () -> Api.decode_response f));
  resp
