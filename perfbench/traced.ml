(* The traced run: the per-layer numbers.

   A fixed-length prefix of the workload's request sequence is
   - replayed through [Pipeline] (the layers called directly, one span
     per call), with spans off, on, and off again: the difference is the
     tracing overhead;
   - sent through [Service] in-process, then through the client over the
     socket, one request at a time: subtracting the layer spans and the
     service time gives the two residuals;
   - sent through the client with 2 in flight, as in the timed run, for
     the queue depth and the GC counters;
   - sent through a second, freshly set-up service, whose counters must
     equal the first's exactly.
   Layers the sequence does not reach are timed by a fixed set of probe
   calls on the same document, so every metric exists on every
   workload. *)

open Xut_xml
open Xut_service

let blocks : Workload.name -> int = function
  | Read_count -> 40
  | Mixed_rw -> 12
  | Stream_ingest -> 12

(* Probe spans carry request ids from here up. *)
let probe_base = 1_000_000

let s_compile = Spans.name "plan_cache.compile"
let s_product_first = Spans.name "schema.product"
let s_annotate = Spans.name "annotator.annotate"
let s_parse = Spans.name "sax.parse_file"

(* The service counters that must repeat exactly at a given seed. *)
let counts m =
  [ ("requests", Metrics.requests m);
    ("errors", Metrics.errors m);
    ("plan_hits", Metrics.cache_hits m);
    ("plan_misses", Metrics.cache_misses m);
    ("commits", Metrics.commits m);
    ("commit_noops", Metrics.commit_noops m);
    ("repairs", Metrics.annotation_repairs m);
    ("repair_fallbacks", Metrics.repair_fallbacks m);
    ("repair_recomputed", Metrics.repair_recomputed_nodes m);
    ("repair_reused", Metrics.repair_reused_nodes m);
    ("streams_fused", Metrics.streams_fused m);
    ("stream_fallbacks", Metrics.stream_fallbacks m);
    ("stream_bytes", Metrics.stream_bytes m);
    ("skipped_subtrees", Metrics.skipped_subtrees m);
    ("skipped_nodes", Metrics.skipped_nodes m);
    ("composed_plans", Metrics.composed_plans m);
    ("view_hits", Metrics.view_hits m);
    ("compose_fallbacks", Metrics.compose_fallbacks m) ]

let frac a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

(* The counts of an earlier run of the same build at the same seed,
   kept in the work directory, must equal these. *)
let cross_run_check (env : Setup.env) counts =
  let path =
    Filename.concat Setup.work_dir
      (Printf.sprintf "counts-%s-%d.txt" (Workload.to_string env.Setup.workload) env.Setup.seed)
  in
  let build = Digest.to_hex (Digest.file Sys.executable_name) in
  let lines =
    Printf.sprintf "build %s" build
    :: List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) counts
  in
  let previous =
    if Sys.file_exists path then Some (In_channel.with_open_text path In_channel.input_all)
    else None
  in
  let mine = String.concat "\n" lines ^ "\n" in
  let differs =
    match previous with
    | Some p when String.starts_with ~prefix:(List.hd lines ^ "\n") p ->
      let old = List.tl (String.split_on_char '\n' p) in
      List.filter (fun l -> l <> "" && not (List.mem l lines)) old
    | _ -> []
  in
  Out_channel.with_open_text path (fun oc -> output_string oc mine);
  differs

let run (env : Setup.env) conn reference root =
  let w = env.Setup.workload in
  let s = Workload.setup w in
  let file = env.Setup.file in
  let ops = Workload.take w ~seed:env.Setup.seed ~blocks:(blocks w) in
  let n = Array.length ops in
  let failures = ref 0 in
  let collected = Reference.collector () in
  let check ~state op resp =
    if Reference.check reference ~state op ~collected resp <> Reference.Good then incr failures
  in
  let on_chunk chunk = Reference.add collected chunk in
  (* Each pass runs the sequence from the initial document state and
     leaves it there (commits come in insert/delete pairs). *)
  let pass f =
    let state = ref 0 in
    Array.mapi
      (fun i op ->
        collected.Reference.len <- 0;
        let t0 = Spans.now_ns () in
        let resp = f i op in
        let dt = Spans.now_ns () - t0 in
        check ~state:!state op resp;
        state := Reference.next_state !state op;
        dt)
      ops
  in
  (* -- the replay through the layers -- *)
  let ctx = Pipeline.create ~file ~schema:s.Workload.schema ~views:s.Workload.views root in
  let replay () = pass (fun i op -> Pipeline.serve ctx ~rid:(i + 1) op collected) in
  Spans.on := false;
  List.iter
    (fun op -> ignore (Pipeline.serve ctx ~rid:0 op collected))
    (Workload.distinct w);
  let total a = float_of_int (Array.fold_left ( + ) 0 a) in
  let off1 = total (replay ()) in
  Spans.on := true;
  let on_ = total (replay ()) in
  Spans.on := false;
  let off2 = total (replay ()) in
  let overhead = (on_ /. ((off1 +. off2) /. 2.)) -. 1. in
  (* -- each request through the layers, the service in-process, then
     the client over the socket to a second service set up the same way,
     back to back, so each difference is taken under the same heap and
     cache conditions.  The two services' counters must then agree. -- *)
  let conn2 = Setup.bring_up ~socket_suffix:"2" env in
  let m = Api.metrics conn and m2 = Api.metrics conn2 in
  Metrics.reset m;
  Metrics.reset m2;
  Spans.clear ();
  ctx.Pipeline.spines <- [];
  let nfa0 = Metrics.nfa_memo_stats () and pool0 = Metrics.serialize_pool_stats () in
  let svc_ns = Array.make n 0 and cli_ns = Array.make n 0 in
  let timed f =
    let t0 = Spans.now_ns () in
    let resp = f () in
    (resp, Spans.now_ns () - t0)
  in
  let state = ref 0 in
  Array.iteri
    (fun i op ->
      let run f =
        collected.Reference.len <- 0;
        let resp, dt = timed f in
        check ~state:!state op resp;
        dt
      in
      Spans.on := true;
      ignore (run (fun () -> Pipeline.serve ctx ~rid:(i + 1) op collected));
      Spans.on := false;
      svc_ns.(i) <- run (fun () -> Api.service_call conn.Api.svc ~file op on_chunk);
      cli_ns.(i) <- run (fun () -> Api.client_call conn2 ~file op on_chunk);
      state := Reference.next_state !state op)
    ops;
  let seq_spines = ctx.Pipeline.spines in
  let nfa1 = Metrics.nfa_memo_stats () and pool1 = Metrics.serialize_pool_stats () in
  let counts1 = counts m and counts2 = counts m2 in
  Api.stop conn2;
  let reads = Array.fold_left (fun k op -> if Workload.is_write op then k else k + 1) 0 ops in
  (* -- 2 in flight, as timed -- *)
  Metrics.reset m;
  let gc0 = Gc.quick_stat () in
  let streams = List.exists Workload.is_stream (Workload.distinct w) in
  (if streams then ignore (pass (fun _ op -> Api.client_call conn ~file op on_chunk))
   else begin
     let state = ref 0 and in_flight = Hashtbl.create 4 and next = ref 0 in
     let fill () =
       while Hashtbl.length in_flight < 2 && !next < n do
         let op = ops.(!next) in
         incr next;
         let st = !state in
         state := Reference.next_state st op;
         Hashtbl.replace in_flight (Api.send conn op) (op, st)
       done
     in
     fill ();
     while Hashtbl.length in_flight > 0 do
       let id, resp = Api.recv conn in
       (match Hashtbl.find_opt in_flight id with
       | Some (op, st) ->
         Hashtbl.remove in_flight id;
         check ~state:st op resp
       | None -> failwith "unexpected server notice");
       fill ()
     done
   end);
  let gc1 = Gc.quick_stat () in
  let queue_max = Metrics.max_queue_depth m in
  let mismatches =
    List.filter_map
      (fun ((k, a), (_, b)) ->
        if a = b then None else Some (Printf.sprintf "%s %d in-process, %d over the socket" k a b))
      (List.combine counts1 counts2)
    @ List.map (fun l -> "earlier run: " ^ l) (cross_run_check env counts1)
  in
  (* -- probes for the layers the sequence does not reach -- *)
  let rid = ref probe_base in
  let probe nm ?work f =
    incr rid;
    Spans.request := !rid;
    ignore (Spans.span nm ?work f)
  in
  let pctx = Pipeline.create ~file ~schema:None ~views:true root in
  let probe_ops =
    List.concat
      [ List.init 10 (fun i -> Workload.Count i);
        List.init 10 (fun i -> Workload.Transform i);
        List.init 6 (fun k -> Workload.View (k land 1));
        List.init 6 (fun k -> Workload.Commit (k land 1 = 0));
        List.init 4 (fun k ->
            Workload.Ingest (if k land 1 = 0 then Workload.fused_query else Workload.two_pass_query));
        List.init 10 (fun i -> Workload.Stream i) ]
  in
  let probe_pass () =
    List.iter
      (fun op ->
        incr rid;
        collected.Reference.len <- 0;
        match Pipeline.serve pctx ~rid:!rid op collected with
        | Service.Ok _ -> ()
        | Service.Error _ -> incr failures)
      probe_ops
  in
  Spans.on := false;
  probe_pass ();
  Spans.on := true;
  pctx.Pipeline.spines <- [];
  probe_pass ();
  let probe_spines = pctx.Pipeline.spines in
  let elements = float_of_int (Node.element_count (Node.Element root)) in
  let schema = Lazy.force Xut_xmark.Site_schema.schema in
  Array.iter
    (fun q ->
      for _ = 1 to 3 do
        probe s_compile (fun () -> Plan_cache.compile q)
      done;
      let plan = Plan_cache.compile q in
      probe s_product_first (fun () -> Plan_cache.product plan schema);
      probe s_annotate
        ~work:(fun _ -> elements)
        (fun () -> Xut_automata.Annotator.annotate plan.Plan_cache.nfa root))
    Workload.queries;
  for _ = 1 to 3 do
    probe s_parse ~work:(fun () -> pctx.Pipeline.file_bytes) (fun () -> Sax.parse_file file ignore)
  done;
  let uq = Core.User_query.parse Workload.user_query in
  for k = 0 to Array.length Workload.view_levels - 1 do
    let updates = List.map Reference.update_of (Workload.chain_defs k) in
    for _ = 1 to 5 do
      probe Pipeline.s_compose (fun () -> Core.Composition.compose_stack updates uq)
    done
  done;
  Spans.on := false;
  (* -- per-layer metrics -- *)
  let self = Spans.self_times () in
  let in_seq r = r >= 1 && r <= n and in_probe r = r > probe_base in
  let span_counts = ref [] in
  let from_spans nm conv =
    let tbl =
      let t = Spans.per_request ~keep:in_seq self nm in
      if Hashtbl.length t > 0 then t else Spans.per_request ~keep:in_probe self nm
    in
    let vals = Hashtbl.fold (fun _ (ns, w) acc -> conv (float_of_int ns) w :: acc) tbl [] in
    span_counts := (Spans.name_of nm, List.length vals) :: !span_counts;
    Report.median_list vals
  in
  let us nm = from_spans nm (fun ns _ -> ns /. 1e3) in
  let per_work nm = from_spans nm (fun ns w -> ns /. w) in
  let mb_s nm = from_spans nm (fun ns w -> w /. 1e6 /. (ns /. 1e9)) in
  let layer_ns =
    Spans.request_totals ~keep:in_seq self (fun nm ->
        not (nm = Pipeline.s_encode || nm = Pipeline.s_decode))
  in
  let residual a b =
    Report.median_list
      (List.init n (fun i -> float_of_int (a.(i) - b i) /. 1e3))
  in
  let transport_residual = residual cli_ns (fun i -> svc_ns.(i)) in
  let service_residual =
    residual svc_ns (fun i -> Option.value ~default:0 (Hashtbl.find_opt layer_ns (i + 1)))
  in
  let c k = List.assoc k counts1 in
  let spines = if seq_spines <> [] then seq_spines else probe_spines in
  let hits_delta (h1, m1) (h0, m0) = frac (h1 - h0) (m1 - m0) in
  let gc_delta f = f gc1 -. f gc0 in
  let m name unit_ value = { Report.name; unit_; value } in
  let metrics =
    [ m "transport.encode_us" "us" (us Pipeline.s_encode);
      m "transport.decode_us" "us" (us Pipeline.s_decode);
      m "transport.residual_us" "us" transport_residual;
      m "service.residual_us" "us" service_residual;
      m "service.queue_depth_max" "count" (float_of_int queue_max);
      m "doc_store.snapshot_us" "us" (us Pipeline.s_snapshot);
      m "doc_store.commit_us" "us" (us Pipeline.s_commit);
      m "plan_cache.lookup_us" "us" (us Pipeline.s_lookup);
      m "plan_cache.annotation_us" "us" (us Pipeline.s_annotation);
      m "plan_cache.hit_frac" "ratio" (frac (c "plan_hits") (c "plan_misses"));
      m "plan_cache.compile_us" "us" (us s_compile);
      m "schema.product_us" "us" (us s_product_first);
      m "schema.skipped_nodes_per_req" "nodes/req"
        (float_of_int (c "skipped_nodes") /. float_of_int (max 1 reads));
      m "nfa.memo_hit_frac" "ratio" (hits_delta nfa1 nfa0);
      m "annotator.annotate_ns_per_node" "ns/node" (per_work s_annotate);
      m "annotator.repair_us" "us" (us Pipeline.s_repair);
      m "annotator.repair_reused_frac" "ratio" (frac (c "repair_reused") (c "repair_recomputed"));
      m "annotator.repair_fallbacks" "count" (float_of_int (c "repair_fallbacks"));
      m "top_down.run_ns_per_node" "ns/node" (per_work Pipeline.s_run);
      m "top_down.stream_ns_per_node" "ns/node" (per_work Pipeline.s_stream);
      m "composition.compose_us" "us" (us Pipeline.s_compose);
      m "composition.run_us" "us" (us Pipeline.s_run_composed);
      m "composition.fallbacks" "count" (float_of_int (c "compose_fallbacks"));
      m "update.apply_us" "us" (us Pipeline.s_apply);
      m "update.spine_nodes" "nodes" (Report.median_list (List.map float_of_int spines));
      m "sax.parse_ns_per_byte" "ns/byte" (per_work s_parse);
      m "sax.fused_ns_per_byte" "ns/byte" (per_work Pipeline.s_fused);
      m "sax.two_pass_ns_per_byte" "ns/byte" (per_work Pipeline.s_two_pass);
      m "sax.fused_frac" "ratio" (frac (c "streams_fused") (c "stream_fallbacks"));
      m "serialize.mb_s" "MB/s" (mb_s Pipeline.s_serialize);
      m "serialize.pool_hit_frac" "ratio" (hits_delta pool1 pool0);
      m "gc.minor_per_kreq" "count"
        (gc_delta (fun g -> float_of_int g.Gc.minor_collections) *. 1e3 /. float_of_int n);
      m "gc.major_per_kreq" "count"
        (gc_delta (fun g -> float_of_int g.Gc.major_collections) *. 1e3 /. float_of_int n);
      m "gc.top_heap_mb" "MB" (float_of_int gc1.Gc.top_heap_words *. 8. /. 1048576.);
      m "trace.overhead_frac" "ratio" overhead ]
  in
  let spans_file =
    Filename.concat Setup.work_dir
      (Printf.sprintf "spans-%s-%d.tsv" (Workload.to_string w) env.Setup.seed)
  in
  Spans.write spans_file;
  (metrics, List.rev !span_counts, counts1, mismatches, !failures, n)
