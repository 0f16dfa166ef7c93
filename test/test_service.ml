(* The xut_service serving layer: plan cache, document store, worker
   pool, metrics, and the line protocol. *)

open Xut_service

let doc_xml =
  {|<site><people>
      <person id="p1"><name>Alice</name><age>30</age></person>
      <person id="p2"><name>Bob</name><age>17</age></person>
      <person id="p3"><name>Carol</name><age>45</age></person>
    </people><items>
      <item><name>kettle</name><price>12</price></item>
      <item><name>lamp</name><price>40</price></item>
    </items></site>|}

let q_del_adult_names =
  {|transform copy $a := doc("d") modify do delete $a/site/people/person[age > 20]/name return $a|}

let q_del_prices =
  {|transform copy $a := doc("d") modify do delete $a//price return $a|}

let q_rename_items =
  {|transform copy $a := doc("d") modify do rename $a/site/items/item as product return $a|}

let queries = [ q_del_adult_names; q_del_prices; q_rename_items ]

let with_doc_file f =
  let path = Filename.temp_file "xut_service_test" ".xml" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc doc_xml);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let reference_answer engine q =
  let root = Xut_xml.Dom.parse_string doc_xml in
  let query = Core.Transform_parser.parse q in
  Xut_xml.Serialize.element_to_string (Core.Engine.run engine query ~doc:root)

(* ---- plan cache ---- *)

let test_cache_hit_miss () =
  let c = Plan_cache.create ~capacity:4 in
  let p1, o1 = Plan_cache.find_or_compile c q_del_prices in
  Alcotest.(check bool) "first lookup misses" true (o1 = Plan_cache.Miss);
  let p2, o2 = Plan_cache.find_or_compile c q_del_prices in
  Alcotest.(check bool) "second lookup hits" true (o2 = Plan_cache.Hit);
  Alcotest.(check bool) "hit returns the same plan" true (p1 == p2);
  let s = Plan_cache.stats c in
  Alcotest.(check int) "hits" 1 s.Plan_cache.hits;
  Alcotest.(check int) "misses" 1 s.Plan_cache.misses;
  Alcotest.(check int) "entries" 1 s.Plan_cache.entries

let test_cache_lru_eviction () =
  let c = Plan_cache.create ~capacity:2 in
  ignore (Plan_cache.find_or_compile c q_del_adult_names);
  ignore (Plan_cache.find_or_compile c q_del_prices);
  (* touch the older entry, making q_del_prices the LRU one *)
  ignore (Plan_cache.find_or_compile c q_del_adult_names);
  ignore (Plan_cache.find_or_compile c q_rename_items);
  let s = Plan_cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Plan_cache.evictions;
  Alcotest.(check int) "still full" 2 s.Plan_cache.entries;
  let _, o = Plan_cache.find_or_compile c q_del_adult_names in
  Alcotest.(check bool) "recently-used entry survived" true (o = Plan_cache.Hit);
  let _, o = Plan_cache.find_or_compile c q_del_prices in
  Alcotest.(check bool) "LRU entry was evicted" true (o = Plan_cache.Miss)

let test_cache_disabled () =
  let c = Plan_cache.create ~capacity:0 in
  ignore (Plan_cache.find_or_compile c q_del_prices);
  let _, o = Plan_cache.find_or_compile c q_del_prices in
  Alcotest.(check bool) "capacity 0 never hits" true (o = Plan_cache.Miss);
  Alcotest.(check int) "capacity 0 stores nothing" 0 (Plan_cache.stats c).Plan_cache.entries

let test_cache_bad_query () =
  let c = Plan_cache.create ~capacity:4 in
  (match Plan_cache.find_or_compile c "not a transform query" with
  | _ -> Alcotest.fail "expected a parse error"
  | exception _ -> ());
  Alcotest.(check int) "failures are not cached" 0 (Plan_cache.stats c).Plan_cache.entries

(* The per-plan annotation memo bounds itself per document: overflow
   evicts only the least-recently-used document's table, never the
   whole memo. *)
let test_annotation_lru_per_doc () =
  let plan = Plan_cache.compile q_del_prices in
  let n = Plan_cache.max_annotated_docs in
  let docs = Array.init (n + 1) (fun _ -> Xut_xml.Dom.parse_string doc_xml) in
  let tables = Array.init n (fun i -> Plan_cache.annotation plan docs.(i)) in
  (* touch doc 0 so doc 1 becomes the LRU entry, then overflow *)
  ignore (Plan_cache.annotation plan docs.(0));
  ignore (Plan_cache.annotation plan docs.(n));
  Alcotest.(check bool) "hot doc 0 kept its table" true
    (Plan_cache.annotation plan docs.(0) == tables.(0));
  Alcotest.(check bool) "doc 2 kept its table" true
    (Plan_cache.annotation plan docs.(2) == tables.(2));
  Alcotest.(check bool) "only the LRU doc (1) was evicted" true
    (Plan_cache.annotation plan docs.(1) != tables.(1))

let test_cache_invalidate_per_doc () =
  let c = Plan_cache.create ~capacity:4 in
  let p1, _ = Plan_cache.find_or_compile c q_del_prices in
  let p2, _ = Plan_cache.find_or_compile c q_del_adult_names in
  let d1 = Xut_xml.Dom.parse_string doc_xml in
  let d2 = Xut_xml.Dom.parse_string doc_xml in
  let t_d2 = Plan_cache.annotation p1 d2 in
  ignore (Plan_cache.annotation p1 d1);
  ignore (Plan_cache.annotation p2 d1);
  Alcotest.(check int) "three tables memoized" 3 (Plan_cache.annotation_entries c);
  Alcotest.(check int) "d1 dropped from both plans" 2
    (Plan_cache.invalidate c ~root_id:(Xut_xml.Node.id d1));
  Alcotest.(check int) "d2's table untouched" 1 (Plan_cache.annotation_entries c);
  Alcotest.(check bool) "d2 still hits its memo" true
    (Plan_cache.annotation p1 d2 == t_d2);
  Alcotest.(check int) "invalidating again drops nothing" 0
    (Plan_cache.invalidate c ~root_id:(Xut_xml.Node.id d1))

(* ---- document store ---- *)

let test_store_load_evict () =
  with_doc_file (fun path ->
      let store = Doc_store.create () in
      (match Doc_store.load_file store ~name:"d" path with
      | Ok (info, reloaded) ->
        Alcotest.(check int) "element count" 18 info.Doc_store.elements;
        Alcotest.(check bool) "file recorded" true (info.Doc_store.file = Some path);
        Alcotest.(check bool) "fresh load is not a reload" false reloaded
      | Error e -> Alcotest.fail e);
      Alcotest.(check bool) "find after load" true (Doc_store.find store "d" <> None);
      Alcotest.(check (list string)) "names" [ "d" ] (Doc_store.names store);
      Alcotest.(check bool) "evict" true (Doc_store.evict store "d");
      Alcotest.(check bool) "gone" true (Doc_store.find store "d" = None);
      Alcotest.(check bool) "evicting again is false" false (Doc_store.evict store "d"))

let test_store_reload_generations () =
  let store = Doc_store.create ~shards:4 () in
  let events = ref [] in
  Doc_store.subscribe store (fun ev ->
      events := (ev.Doc_store.name, ev.Doc_store.reason, ev.Doc_store.generation) :: !events);
  let tree () = Xut_xml.Node.element "r" [ Xut_xml.Node.elem "c" [] ] in
  let t1 = tree () in
  let i1, r1 = Result.get_ok (Doc_store.register store ~name:"d" t1) in
  Alcotest.(check bool) "first register is fresh" false r1;
  Alcotest.(check bool) "no event on a fresh load" true (!events = []);
  let i2, r2 = Result.get_ok (Doc_store.register store ~name:"d" (tree ())) in
  Alcotest.(check bool) "second register reloads" true r2;
  Alcotest.(check bool) "generation is monotone" true
    (i2.Doc_store.generation > i1.Doc_store.generation);
  (match !events with
  | [ ev ] ->
    let name, reason, generation = ev in
    Alcotest.(check string) "event names the doc" "d" name;
    Alcotest.(check bool) "reload publishes Replaced" true (reason = Doc_store.Replaced);
    Alcotest.(check int) "Replaced carries the new generation" i2.Doc_store.generation generation
  | _ -> Alcotest.fail "exactly one event for the reload");
  events := [];
  Alcotest.(check bool) "evict" true (Doc_store.evict store "d");
  (match !events with
  | [ (name, reason, generation) ] ->
    Alcotest.(check string) "unload event names the doc" "d" name;
    Alcotest.(check bool) "evict publishes Unloaded" true (reason = Doc_store.Unloaded);
    Alcotest.(check int) "Unloaded carries the removed generation" i2.Doc_store.generation
      generation
  | _ -> Alcotest.fail "exactly one event for the evict");
  events := [];
  ignore (Doc_store.evict store "d");
  Alcotest.(check bool) "no event for a missed evict" true (!events = [])

(* The sharded store must be observably identical to the single-shard
   one: same generations, same reload flags, same listings, same event
   stream, for any interleaving of load/evict/find. *)
let test_store_shard_equivalence =
  let names = [| "alpha"; "beta"; "gamma"; "delta"; "epsilon" |] in
  let gen_op =
    QCheck.Gen.(
      oneof
        [
          map (fun i -> `Load (i mod Array.length names)) (int_bound 100);
          map (fun i -> `Evict (i mod Array.length names)) (int_bound 100);
          map (fun i -> `Find (i mod Array.length names)) (int_bound 100);
        ])
  in
  let print_op = function
    | `Load i -> "load " ^ names.(i)
    | `Evict i -> "evict " ^ names.(i)
    | `Find i -> "find " ^ names.(i)
  in
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map print_op ops))
      QCheck.Gen.(list_size (int_bound 40) gen_op)
  in
  let prop ops =
    let s1 = Doc_store.create ~shards:1 () in
    let s4 = Doc_store.create ~shards:4 () in
    let ev1 = ref [] and ev4 = ref [] in
    let log evs ev =
      evs := (ev.Doc_store.name, ev.Doc_store.reason, ev.Doc_store.generation) :: !evs
    in
    Doc_store.subscribe s1 (log ev1);
    Doc_store.subscribe s4 (log ev4);
    let obs_info =
      Option.map (fun (i : Doc_store.info) ->
          (i.Doc_store.name, i.Doc_store.elements, i.Doc_store.generation))
    in
    let step acc op =
      acc
      &&
      match op with
      | `Load i ->
        let tree () = Xut_xml.Node.element names.(i) [ Xut_xml.Node.elem "c" [] ] in
        let i1, r1 = Result.get_ok (Doc_store.register s1 ~name:names.(i) (tree ())) in
        let i4, r4 = Result.get_ok (Doc_store.register s4 ~name:names.(i) (tree ())) in
        r1 = r4
        && i1.Doc_store.generation = i4.Doc_store.generation
        && i1.Doc_store.elements = i4.Doc_store.elements
      | `Evict i -> Doc_store.evict s1 names.(i) = Doc_store.evict s4 names.(i)
      | `Find i ->
        (Doc_store.find s1 names.(i) = None) = (Doc_store.find s4 names.(i) = None)
        && obs_info (Doc_store.info s1 names.(i)) = obs_info (Doc_store.info s4 names.(i))
    in
    List.fold_left step true ops
    && Doc_store.names s1 = Doc_store.names s4
    && !ev1 = !ev4
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"sharded store = single-shard store" ~count:200 arb prop)

let test_store_bad_input () =
  let store = Doc_store.create () in
  (match Doc_store.load_file store ~name:"x" "/nonexistent/file.xml" with
  | Ok _ -> Alcotest.fail "expected an error for a missing file"
  | Error _ -> ());
  let path = Filename.temp_file "xut_service_test" ".xml" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "<open><unclosed></open>");
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match Doc_store.load_file store ~name:"x" path with
      | Ok _ -> Alcotest.fail "expected a parse error"
      | Error _ -> ())

(* ---- service ---- *)

let with_service ?(domains = 1) ?(cache_capacity = 128) f =
  let svc = Service.create ~domains ~cache_capacity () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) (fun () -> f svc)

let load_doc svc path =
  match Service.call svc (Service.Load { name = "d"; file = path; schema = None }) with
  | Service.Ok (Service.Doc_loaded { name = "d"; elements = 18; reloaded = false; _ })
    -> ()
  | Service.Ok _ -> Alcotest.fail "LOAD answered with the wrong payload"
  | Service.Error { message; _ } -> Alcotest.fail message

let test_service_matches_engine_run () =
  with_doc_file (fun path ->
      with_service (fun svc ->
          load_doc svc path;
          List.iter
            (fun engine ->
              List.iter
                (fun q ->
                  match Service.call svc (Service.Transform { target = Service.Doc "d"; engine; query = q }) with
                  | Service.Ok (Service.Tree payload) ->
                    Alcotest.(check string)
                      (Core.Engine.name engine ^ " matches Engine.run")
                      (reference_answer engine q) payload
                  | Service.Ok _ -> Alcotest.fail "TRANSFORM must answer with a Tree"
                  | Service.Error { message; _ } -> Alcotest.fail message)
                queries)
            [ Core.Engine.Td_bu; Core.Engine.Gentop; Core.Engine.Naive ];
          match
            Service.call svc
              (Service.Count { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = q_del_prices })
          with
          | Service.Ok (Service.Element_count n) ->
            (* 18 elements minus the two deleted price elements *)
            Alcotest.(check int) "COUNT reply" 16 n
          | Service.Ok _ -> Alcotest.fail "COUNT must answer with an Element_count"
          | Service.Error { message; _ } -> Alcotest.fail message))

let test_service_batch () =
  with_doc_file (fun path ->
      with_service (fun svc ->
          load_doc svc path;
          let count = Service.Count { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = q_del_prices } in
          let bad = Service.Count { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = "nonsense" } in
          (match Service.call svc (Service.Batch [ count; bad; count; Service.Stats ]) with
          | Service.Ok (Service.Batch_results
              [ Service.Ok (Service.Element_count 16);
                Service.Error { code = Service.Query_parse_error; _ };
                Service.Ok (Service.Element_count 16);
                Service.Ok (Service.Stats_dump _)
              ]) -> ()
          | _ -> Alcotest.fail "batch must answer item-by-item, in order");
          (* a failing item inside a batch counts as an error *)
          Alcotest.(check int) "batch errors counted" 1 (Metrics.errors (Service.metrics svc));
          (* batches must not nest *)
          match Service.call svc (Service.Batch [ Service.Batch [ count ] ]) with
          | Service.Ok (Service.Batch_results
              [ Service.Error { code = Service.Bad_request; _ } ]) -> ()
          | _ -> Alcotest.fail "nested batch must be rejected with bad-request"))

let test_render_response_compat () =
  (* the flat stdin-protocol strings of the pre-redesign service *)
  let check name expect resp =
    match Service.render_response resp with
    | Stdlib.Ok s -> Alcotest.(check string) name expect s
    | Stdlib.Error e -> Alcotest.fail e
  in
  check "loaded" "loaded d elements=18"
    (Service.Ok
       (Service.Doc_loaded
          { name = "d"; elements = 18; reloaded = false; generation = 1; schema = None }));
  check "reloaded" "loaded d elements=18 reloaded=true"
    (Service.Ok
       (Service.Doc_loaded
          { name = "d"; elements = 18; reloaded = true; generation = 2; schema = None }));
  check "unloaded" "unloaded d" (Service.Ok (Service.Doc_unloaded { name = "d" }));
  check "tree" "<a/>" (Service.Ok (Service.Tree "<a/>"));
  check "count" "elements=16" (Service.Ok (Service.Element_count 16));
  match
    Service.render_response
      (Service.Error { code = Service.Unknown_document; message = "no document \"x\"" })
  with
  | Stdlib.Error s ->
    Alcotest.(check string) "error keeps its code" "unknown-document: no document \"x\"" s
  | Stdlib.Ok _ -> Alcotest.fail "Error must render to Error"

let test_service_concurrent_4_domains () =
  with_doc_file (fun path ->
      with_service ~domains:4 (fun svc ->
          load_doc svc path;
          let expected =
            List.map (fun q -> reference_answer Core.Engine.Td_bu q) queries
          in
          let futures =
            List.init 60 (fun i ->
                let q = List.nth queries (i mod 3) in
                ( i mod 3,
                  Service.submit svc
                    (Service.Transform { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = q }) ))
          in
          List.iter
            (fun (which, fut) ->
              match Service.await fut with
              | Service.Ok (Service.Tree payload) ->
                Alcotest.(check string)
                  "parallel output byte-identical to single-threaded run"
                  (List.nth expected which) payload
              | Service.Ok _ -> Alcotest.fail "TRANSFORM must answer with a Tree"
              | Service.Error { message; _ } -> Alcotest.fail message)
            futures;
          let m = Service.metrics svc in
          Alcotest.(check int) "no errors" 0 (Metrics.errors m);
          Alcotest.(check bool) "cache hit on repeats" true (Metrics.cache_hits m >= 57)))

let test_service_error_isolation () =
  with_doc_file (fun path ->
      with_service (fun svc ->
          load_doc svc path;
          (* malformed query: classified as a parse error *)
          (match
             Service.call svc
               (Service.Transform
                  { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = "delete everything please" })
           with
          | Service.Error { code = Service.Query_parse_error; _ } -> ()
          | Service.Error { code; _ } ->
            Alcotest.fail ("wrong error code: " ^ Service.err_code_name code)
          | Service.Ok _ -> Alcotest.fail "expected an error response");
          (* unknown document: its own code *)
          (match
             Service.call svc
               (Service.Transform
                  { target = Service.Doc "nope"; engine = Core.Engine.Td_bu; query = q_del_prices })
           with
          | Service.Error { code = Service.Unknown_document; _ } -> ()
          | Service.Error { code; _ } ->
            Alcotest.fail ("wrong error code: " ^ Service.err_code_name code)
          | Service.Ok _ -> Alcotest.fail "expected an error response");
          (* the single worker survived both and still serves *)
          (match
             Service.call svc
               (Service.Transform { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = q_del_prices })
           with
          | Service.Ok (Service.Tree payload) ->
            Alcotest.(check string) "pool keeps serving after errors"
              (reference_answer Core.Engine.Td_bu q_del_prices)
              payload
          | Service.Ok _ -> Alcotest.fail "TRANSFORM must answer with a Tree"
          | Service.Error { message; _ } -> Alcotest.fail message);
          Alcotest.(check int) "errors counted" 2 (Metrics.errors (Service.metrics svc))))

let test_service_stats_and_unload () =
  with_doc_file (fun path ->
      with_service (fun svc ->
          load_doc svc path;
          (match Service.call svc Service.Stats with
          | Service.Ok (Service.Stats_dump payload) ->
            Alcotest.(check bool) "stats mentions the doc with its generation" true
              (String.length payload > 0
              && String.split_on_char '\n' payload
                 |> List.exists (fun l ->
                        String.starts_with ~prefix:"doc d elements=18 generation=" l))
          | Service.Ok _ -> Alcotest.fail "STATS must answer with a Stats_dump"
          | Service.Error { message; _ } -> Alcotest.fail message);
          (match Service.call svc (Service.Unload { name = "d" }) with
          | Service.Ok (Service.Doc_unloaded { name = "d" }) -> ()
          | Service.Ok _ -> Alcotest.fail "UNLOAD must answer with a Doc_unloaded"
          | Service.Error { message; _ } -> Alcotest.fail message);
          match Service.call svc (Service.Unload { name = "d" }) with
          | Service.Ok _ -> Alcotest.fail "expected an error for a double unload"
          | Service.Error { code = Service.Unknown_document; _ } -> ()
          | Service.Error { code; _ } ->
            Alcotest.fail ("wrong error code: " ^ Service.err_code_name code)))

(* The lifecycle guarantee of the sharded store: UNLOAD (or a reload)
   takes exactly the departing document's annotation tables with it —
   counted in the metrics, visible in STATS, never a whole-memo wipe —
   and a reload of identical content transforms byte-identically. *)
let test_service_lifecycle_invalidation () =
  with_doc_file (fun path ->
      with_service (fun svc ->
          load_doc svc path;
          let transform () =
            match
              Service.call svc
                (Service.Transform
                   { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = q_del_prices })
            with
            | Service.Ok (Service.Tree payload) -> payload
            | Service.Ok _ -> Alcotest.fail "TRANSFORM must answer with a Tree"
            | Service.Error { message; _ } -> Alcotest.fail message
          in
          let before = transform () in
          Alcotest.(check int) "TD-BU memoized one annotation table" 1
            (Service.cache_stats svc).Plan_cache.annotation_entries;
          (match Service.call svc (Service.Unload { name = "d" }) with
          | Service.Ok (Service.Doc_unloaded _) -> ()
          | _ -> Alcotest.fail "UNLOAD");
          Alcotest.(check int) "unload evicted exactly the doc's table" 0
            (Service.cache_stats svc).Plan_cache.annotation_entries;
          Alcotest.(check int) "invalidation counted in the metrics" 1
            (Metrics.invalidations (Service.metrics svc));
          Alcotest.(check int) "the compiled plan itself survived" 1
            (Service.cache_stats svc).Plan_cache.entries;
          (match Service.call svc Service.Stats with
          | Service.Ok (Service.Stats_dump dump) ->
            Alcotest.(check bool) "STATS reports the invalidation" true
              (String.split_on_char '\n' dump
              |> List.exists (fun l -> l = "doc_invalidations 1"))
          | _ -> Alcotest.fail "STATS");
          load_doc svc path;
          let after = transform () in
          Alcotest.(check string) "byte-identical output after reload" before after))

let test_service_reload_replaces () =
  with_doc_file (fun path ->
      with_service (fun svc ->
          load_doc svc path;
          let transform () =
            match
              Service.call svc
                (Service.Transform
                   { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = q_del_prices })
            with
            | Service.Ok (Service.Tree payload) -> payload
            | _ -> Alcotest.fail "TRANSFORM"
          in
          let before = transform () in
          (* LOAD over a live name: reported as a reload, and the old
             tree's annotation table goes with it *)
          (match Service.call svc (Service.Load { name = "d"; file = path; schema = None }) with
          | Service.Ok (Service.Doc_loaded { reloaded = true; generation; _ }) ->
            Alcotest.(check bool) "reload advances the generation" true (generation >= 2)
          | Service.Ok _ -> Alcotest.fail "LOAD over a live name must report reloaded=true"
          | Service.Error { message; _ } -> Alcotest.fail message);
          Alcotest.(check int) "old tree's table invalidated" 1
            (Metrics.invalidations (Service.metrics svc));
          Alcotest.(check string) "reloaded content transforms byte-identically" before
            (transform ())))

(* ---- worker pool and metrics ---- *)

let test_pool_parallel_sum () =
  let pool = Worker_pool.create ~domains:4 ~queue_capacity:8 (fun n -> n * n) in
  let futures = List.init 100 (fun i -> Worker_pool.submit pool i) in
  let total =
    List.fold_left
      (fun acc fut ->
        match Worker_pool.await fut with
        | Ok v -> acc + v
        | Error e -> Alcotest.fail e)
      0 futures
  in
  Worker_pool.shutdown pool;
  Alcotest.(check int) "all 100 squares served" 328350 total

let test_pool_failure_isolation () =
  let pool =
    Worker_pool.create ~domains:2 ~queue_capacity:4 (fun n ->
        if n < 0 then failwith "negative" else n + 1)
  in
  (match Worker_pool.call pool (-1) with
  | Error msg -> Alcotest.(check string) "error message" "negative" msg
  | Ok _ -> Alcotest.fail "expected an error");
  (match Worker_pool.call pool 41 with
  | Ok v -> Alcotest.(check int) "workers survive a raise" 42 v
  | Error e -> Alcotest.fail e);
  Worker_pool.shutdown pool;
  Worker_pool.shutdown pool (* idempotent *)

(* ---- streaming result path ---- *)

let test_transform_stream () =
  with_doc_file (fun path ->
      with_service (fun svc ->
          load_doc svc path;
          (* every engine, streamed with a tiny chunk size, must
             reassemble to the materialized Tree payload byte for byte *)
          List.iter
            (fun engine ->
              List.iter
                (fun q ->
                  let buf = Buffer.create 256 in
                  let n = ref 0 in
                  match
                    Service.transform_stream svc ~doc:"d" ~engine ~query:q ~chunk_size:32
                      (fun chunk ->
                        incr n;
                        Buffer.add_string buf chunk)
                  with
                  | Service.Ok (Service.Stream_done { bytes; chunks }) ->
                    Alcotest.(check string) "streamed = materialized"
                      (reference_answer engine q) (Buffer.contents buf);
                    Alcotest.(check int) "byte total" (Buffer.length buf) bytes;
                    Alcotest.(check int) "chunk total" !n chunks;
                    Alcotest.(check bool) "multiple chunks at size 32" true (chunks > 1)
                  | Service.Ok _ -> Alcotest.fail "expected Stream_done"
                  | Service.Error { message; _ } -> Alcotest.fail message)
                queries)
            Core.Engine.[ Gentop; Td_bu; Two_pass_sax; Naive ];
          (* errors: unknown doc and non-TRANSFORM carry their codes *)
          (match
             Service.transform_stream svc ~doc:"nope" ~engine:Core.Engine.Td_bu
               ~query:q_del_prices
               (fun _ -> Alcotest.fail "no chunks for an unknown document")
           with
          | Service.Error { code = Service.Unknown_document; _ } -> ()
          | _ -> Alcotest.fail "unknown-document code");
          (* counters: streams/chunks/bytes flowed into the metrics and
             surface in the STATS dump *)
          let m = Service.metrics svc in
          Alcotest.(check int) "streams counted" (4 * List.length queries) (Metrics.streams m);
          Alcotest.(check bool) "stream chunks counted" true
            (Metrics.stream_chunks m >= Metrics.streams m);
          Alcotest.(check bool) "stream bytes counted" true
            (Metrics.stream_bytes m > Metrics.stream_chunks m);
          match Service.call svc Service.Stats with
          | Service.Ok (Service.Stats_dump dump) ->
            let has prefix =
              String.split_on_char '\n' dump
              |> List.exists (fun l ->
                     String.length l >= String.length prefix
                     && String.sub l 0 (String.length prefix) = prefix)
            in
            Alcotest.(check bool) "STATS reports streams" true (has "streams ");
            Alcotest.(check bool) "STATS reports stream_bytes" true (has "stream_bytes ");
            Alcotest.(check bool) "STATS reports the serializer pool" true
              (has "serialize_pool_hits ")
          | _ -> Alcotest.fail "STATS"))

(* ---- streamed ingest ---- *)

let test_transform_ingest () =
  with_doc_file (fun path ->
      with_service (fun svc ->
          load_doc svc path;
          let ingest source q =
            let buf = Buffer.create 256 in
            match
              Service.transform_ingest svc ~source ~query:q ~chunk_size:32
                (Buffer.add_string buf)
            with
            | Service.Ok (Service.Stream_done { bytes; _ }) ->
              Alcotest.(check int) "byte total" (Buffer.length buf) bytes;
              Buffer.contents buf
            | Service.Ok _ -> Alcotest.fail "expected Stream_done"
            | Service.Error { message; _ } -> Alcotest.fail message
          in
          (* all test queries, both source shapes, byte-identical to the
             materialized answer: qualifier-free shapes run fused, the
             qualifier-carrying one exercises both fallback tiers (tree
             walk for the stored doc, two-parse SAX for the file) *)
          List.iter
            (fun q ->
              let expected = reference_answer Core.Engine.Gentop q in
              Alcotest.(check string) "doc ingest = materialized" expected
                (ingest (Service.From_doc "d") q);
              Alcotest.(check string) "file ingest = materialized" expected
                (ingest (Service.From_file path) q))
            queries;
          let m = Service.metrics svc in
          Alcotest.(check int) "fused runs counted" 4 (Metrics.streams_fused m);
          Alcotest.(check int) "fallbacks counted" 2 (Metrics.stream_fallbacks m);
          (* every ingest is exactly one of fused/fallback *)
          Alcotest.(check int) "fused + fallback = ingests" (2 * List.length queries)
            (Metrics.streams_fused m + Metrics.stream_fallbacks m);
          (* error paths: no chunks may precede a typed rejection *)
          (match
             Service.transform_ingest svc ~source:(Service.From_doc "nope")
               ~query:q_del_prices
               (fun _ -> Alcotest.fail "no chunks for an unknown document")
           with
          | Service.Error { code = Service.Unknown_document; _ } -> ()
          | _ -> Alcotest.fail "unknown-document code");
          (match
             Service.transform_ingest svc ~source:(Service.From_file "/nonexistent/x.xml")
               ~query:q_del_prices
               (fun _ -> Alcotest.fail "no chunks for a missing file")
           with
          | Service.Error { code = Service.Eval_error; _ } -> ()
          | _ -> Alcotest.fail "missing-file code");
          (match
             Service.transform_ingest svc ~source:(Service.From_doc "d") ~query:"nonsense"
               (fun _ -> Alcotest.fail "no chunks for a bad query")
           with
          | Service.Error { code = Service.Query_parse_error; _ } -> ()
          | _ -> Alcotest.fail "query-parse-error code");
          (* malformed input failing mid-parse: the fused pipeline has
             already emitted chunks when the parser trips *)
          let bad = Filename.temp_file "xut_service_bad" ".xml" in
          Out_channel.with_open_bin bad (fun oc ->
              Out_channel.output_string oc "<site><open>";
              for _ = 1 to 2000 do
                Out_channel.output_string oc "<b>x</b>"
              done;
              Out_channel.output_string oc "</mismatch></site>");
          Fun.protect
            ~finally:(fun () -> Sys.remove bad)
            (fun () ->
              let got = ref 0 in
              match
                Service.transform_ingest svc ~source:(Service.From_file bad)
                  ~query:q_del_prices ~chunk_size:64
                  (fun chunk -> got := !got + String.length chunk)
              with
              | Service.Error { code = Service.Eval_error; _ } ->
                Alcotest.(check bool) "chunks flowed before the parse error" true (!got > 0)
              | _ -> Alcotest.fail "mid-parse failure must end in an error")))

(* ---- stored views ---- *)

(* Mirror of the service's result rendering, so expectations are
   computed independently through the naive materialize-then-query
   path. *)
let view_render (v : Xut_xquery.Xq_value.t) =
  String.concat "\n"
    (List.map
       (fun item ->
         match item with
         | Xut_xquery.Xq_value.N n -> Xut_xml.Serialize.to_string n
         | Xut_xquery.Xq_value.D e -> Xut_xml.Serialize.element_to_string e
         | other -> Xut_xquery.Xq_value.string_of_item other)
       v)

(* [defs] are transform-query texts, innermost (applied first) at the
   head; the answer is Q over the naively materialized chain. *)
let naive_view_value ~base defs user_q =
  let updates =
    List.map (fun s -> (Core.Transform_parser.parse s).Core.Transform_ast.update) defs
  in
  Core.Composition.naive_stack updates (Core.User_query.parse user_q) ~doc:base

let v1_def = {|transform copy $a := doc("d") modify do delete $a//price return $a|}
let v2_def = {|transform copy $a := doc("v1") modify do rename $a/site/items/item as product return $a|}
let v2_query = "for $x in site/items/product return $x"

let defview svc name query =
  match Service.call svc (Service.Defview { name; query }) with
  | Service.Ok (Service.View_defined { base; depth; redefined; _ }) -> (base, depth, redefined)
  | Service.Ok _ -> Alcotest.fail "DEFVIEW must answer with a View_defined"
  | Service.Error { message; _ } -> Alcotest.fail message

let transform_view svc name query =
  match
    Service.call svc
      (Service.Transform { target = Service.View name; engine = Core.Engine.Td_bu; query })
  with
  | Service.Ok (Service.Tree payload) -> payload
  | Service.Ok _ -> Alcotest.fail "TRANSFORM VIEW must answer with a Tree"
  | Service.Error { message; _ } -> Alcotest.fail message

let test_view_define_and_query () =
  with_doc_file (fun path ->
      with_service (fun svc ->
          load_doc svc path;
          let b1, dep1, re1 = defview svc "v1" v1_def in
          Alcotest.(check bool) "v1: base d, depth 1, fresh" true
            (b1 = "d" && dep1 = 1 && not re1);
          let b2, dep2, _ = defview svc "v2" v2_def in
          Alcotest.(check bool) "v2: base v1, depth 2" true (b2 = "v1" && dep2 = 2);
          let m = Service.metrics svc in
          Alcotest.(check int) "view_defs counted" 2 (Metrics.view_defs m);
          (* 2-deep chain, composed path, byte-identical to naive *)
          let base = Xut_xml.Dom.parse_string doc_xml in
          let expected = view_render (naive_view_value ~base [ v1_def; v2_def ] v2_query) in
          Alcotest.(check string) "composed = naive materialization" expected
            (transform_view svc "v2" v2_query);
          Alcotest.(check int) "served by composition" 1 (Metrics.view_hits m);
          Alcotest.(check int) "one composition performed" 1 (Metrics.composed_plans m);
          Alcotest.(check int) "no fallback for an in-fragment query" 0
            (Metrics.compose_fallbacks m);
          (* the composed plan is cached: a repeat is a hit, not a recompose *)
          Alcotest.(check string) "repeat answer identical" expected
            (transform_view svc "v2" v2_query);
          Alcotest.(check int) "plan reused" 1 (Metrics.composed_plans m);
          Alcotest.(check int) "second hit counted" 2 (Metrics.view_hits m);
          (* COUNT against the view agrees with the naive value *)
          let naive_count =
            List.fold_left
              (fun n item ->
                match item with
                | Xut_xquery.Xq_value.N node -> n + Xut_xml.Node.element_count node
                | Xut_xquery.Xq_value.D e ->
                  n + Xut_xml.Node.element_count (Xut_xml.Node.Element e)
                | _ -> n + 1)
              0
              (naive_view_value ~base [ v1_def; v2_def ] v2_query)
          in
          (match
             Service.call svc
               (Service.Count
                  { target = Service.View "v2"; engine = Core.Engine.Td_bu; query = v2_query })
           with
          | Service.Ok (Service.Element_count n) ->
            Alcotest.(check int) "COUNT VIEW = naive count" naive_count n
          | _ -> Alcotest.fail "COUNT VIEW");
          (* LISTVIEWS, sorted by name *)
          (match Service.call svc Service.Listviews with
          | Service.Ok (Service.View_list [ a; b ]) ->
            Alcotest.(check string) "first view" "v1" a.Service.v_name;
            Alcotest.(check bool) "second view v2 depth 2" true
              (b.Service.v_name = "v2" && b.Service.v_depth = 2)
          | _ -> Alcotest.fail "LISTVIEWS must list both views");
          (* STATS carries per-view lines *)
          (match Service.call svc Service.Stats with
          | Service.Ok (Service.Stats_dump dump) ->
            Alcotest.(check bool) "STATS lists the views" true
              (String.split_on_char '\n' dump
              |> List.exists (fun l -> String.starts_with ~prefix:"view v2 base=v1 depth=2" l))
          | _ -> Alcotest.fail "STATS");
          (* UNDEFVIEW, then the name is gone *)
          (match Service.call svc (Service.Undefview { name = "v2" }) with
          | Service.Ok (Service.View_undefined { name = "v2" }) -> ()
          | _ -> Alcotest.fail "UNDEFVIEW");
          match
            Service.call svc
              (Service.Transform
                 { target = Service.View "v2"; engine = Core.Engine.Td_bu; query = v2_query })
          with
          | Service.Error { code = Service.Unknown_document; _ } -> ()
          | _ -> Alcotest.fail "an undefined view must answer unknown-document"))

let test_view_definition_errors () =
  with_doc_file (fun path ->
      with_service (fun svc ->
          load_doc svc path;
          (* rejected at definition time, with the structured code *)
          (match
             Service.call svc
               (Service.Defview
                  {
                    name = "bad";
                    query =
                      {|transform copy $a := doc("d") modify do delete $a/site return $a|};
                  })
           with
          | Service.Error { code = Service.View_compose_error; _ } -> ()
          | Service.Error { code; _ } ->
            Alcotest.fail ("wrong error code: " ^ Service.err_code_name code)
          | Service.Ok _ -> Alcotest.fail "document-element deletion must be rejected");
          (* unparseable definition *)
          (match
             Service.call svc (Service.Defview { name = "bad"; query = "not a transform" })
           with
          | Service.Error { code = Service.Query_parse_error; _ } -> ()
          | _ -> Alcotest.fail "expected a parse error");
          Alcotest.(check int) "rejected definitions not counted" 0
            (Metrics.view_defs (Service.metrics svc));
          (* cycles: c1 late-binds to c2, then c2 over c1 closes the loop *)
          ignore
            (defview svc "c1"
               {|transform copy $a := doc("c2") modify do delete $a//price return $a|});
          (match
             Service.call svc
               (Service.Defview
                  {
                    name = "c2";
                    query =
                      {|transform copy $a := doc("c1") modify do delete $a//age return $a|};
                  })
           with
          | Service.Error { code = Service.View_compose_error; message } ->
            Alcotest.(check bool) "cycle named in the message" true
              (String.length message > 0)
          | _ -> Alcotest.fail "a view cycle must be rejected");
          (* c1's base "c2" stayed a (nonexistent) document: late binding *)
          (match
             Service.call svc
               (Service.Transform
                  { target = Service.View "c1"; engine = Core.Engine.Td_bu; query = v2_query })
           with
          | Service.Error { code = Service.Unknown_document; _ } -> ()
          | _ -> Alcotest.fail "unloaded base must answer unknown-document");
          (* unknown view name *)
          match
            Service.call svc
              (Service.Transform
                 { target = Service.View "nope"; engine = Core.Engine.Td_bu; query = v2_query })
          with
          | Service.Error { code = Service.Unknown_document; _ } -> ()
          | _ -> Alcotest.fail "unknown view must answer unknown-document"))

(* The dependency graph: COMMIT on the base repairs/invalidates exactly
   the dependent views' memos (composed plans survive — they depend on
   definitions, not content); redefinition and UNLOAD evict exactly the
   affected composed plans, and unrelated views ride through. *)
let test_view_invalidation_graph () =
  with_doc_file (fun path ->
      with_service (fun svc ->
          load_doc svc path;
          (match Service.call svc (Service.Load { name = "e"; file = path; schema = None }) with
          | Service.Ok (Service.Doc_loaded _) -> ()
          | _ -> Alcotest.fail "LOAD e");
          ignore (defview svc "v1" v1_def);
          ignore (defview svc "v2" v2_def);
          let w_def = {|transform copy $a := doc("e") modify do delete $a/site/people return $a|} in
          let w_query = "for $x in site/items/item return $x/name" in
          ignore (defview svc "w" w_def);
          let base = Xut_xml.Dom.parse_string doc_xml in
          let expected_before = view_render (naive_view_value ~base [ v1_def; v2_def ] v2_query) in
          Alcotest.(check string) "v2 before commit" expected_before
            (transform_view svc "v2" v2_query);
          let w_expected = view_render (naive_view_value ~base [ w_def ] w_query) in
          Alcotest.(check string) "w answers" w_expected (transform_view svc "w" w_query);
          Alcotest.(check int) "two composed plans cached" 2
            (Service.cache_stats svc).Plan_cache.composed_entries;
          let m = Service.metrics svc in
          Alcotest.(check int) "no view churn yet" 0 (Metrics.view_invalidations m);
          (* COMMIT the base of the chain *)
          let commit_q = {|delete $a/site/items/item[name = "lamp"]|} in
          (match Service.call svc (Service.Commit { doc = "d"; query = commit_q }) with
          | Service.Ok (Service.Committed { primitives = 1; _ }) -> ()
          | _ -> Alcotest.fail "COMMIT d");
          Alcotest.(check bool) "commit churned the dependent views' memos" true
            (Metrics.view_invalidations m > 0);
          Alcotest.(check int) "composed plans survive a plain commit" 2
            (Service.cache_stats svc).Plan_cache.composed_entries;
          (* the re-query reflects the new base, no restart, still composed *)
          let committed =
            Core.Engine.transform Core.Engine.Reference
              (List.hd (Core.Transform_parser.parse_updates commit_q))
              base
          in
          let expected_after =
            view_render (naive_view_value ~base:committed [ v1_def; v2_def ] v2_query)
          in
          Alcotest.(check bool) "commit changed the view answer" true
            (expected_before <> expected_after);
          Alcotest.(check string) "v2 after commit = naive over new base" expected_after
            (transform_view svc "v2" v2_query);
          Alcotest.(check int) "served from the cached composition" 2
            (Metrics.composed_plans m);
          Alcotest.(check int) "never fell back" 0 (Metrics.compose_fallbacks m);
          (* redefining v1 evicts exactly the plans through v1 *)
          let churn0 = Metrics.view_invalidations m in
          let _, _, redefined =
            defview svc "v1"
              {|transform copy $a := doc("d") modify do delete $a//age return $a|}
          in
          Alcotest.(check bool) "redefinition reported" true redefined;
          Alcotest.(check int) "only w's plan survives the redefinition" 1
            (Service.cache_stats svc).Plan_cache.composed_entries;
          Alcotest.(check bool) "redefinition churn counted" true
            (Metrics.view_invalidations m > churn0);
          (* and the chain recomposes against the new definition *)
          let v1_def' = {|transform copy $a := doc("d") modify do delete $a//age return $a|} in
          let expected_redef =
            view_render (naive_view_value ~base:committed [ v1_def'; v2_def ] v2_query)
          in
          Alcotest.(check string) "v2 after redefinition" expected_redef
            (transform_view svc "v2" v2_query);
          Alcotest.(check int) "recomposed once" 3 (Metrics.composed_plans m);
          (* w was untouched throughout: still a cache hit *)
          Alcotest.(check string) "w unaffected" w_expected (transform_view svc "w" w_query);
          Alcotest.(check int) "w's plan was never recomposed" 3 (Metrics.composed_plans m);
          (* UNLOAD w's base drops w's plan, keeps v2's *)
          (match Service.call svc (Service.Unload { name = "e" }) with
          | Service.Ok (Service.Doc_unloaded _) -> ()
          | _ -> Alcotest.fail "UNLOAD e");
          Alcotest.(check int) "only the unloaded base's plan evicted" 1
            (Service.cache_stats svc).Plan_cache.composed_entries;
          match
            Service.call svc
              (Service.Transform
                 { target = Service.View "w"; engine = Core.Engine.Td_bu; query = w_query })
          with
          | Service.Error { code = Service.Unknown_document; _ } -> ()
          | _ -> Alcotest.fail "w without its base must answer unknown-document"))

(* ---- COUNT without materialization ---- *)

(* TD-BU and GENTOP answer a Doc COUNT from the snapshot's stored
   element count plus the update's effect, so that stored count must
   follow every COMMIT — including one that drops the schema binding and
   with it the size table.  Each COUNT must equal the element count of
   the same engine's TRANSFORM reply and move the skip counters by
   exactly as much; a materializing engine must agree too. *)
let test_count_tracks_commits () =
  Xut_xmark.Site_schema.register ();
  let path = Filename.temp_file "xut_service_test" ".xml" in
  Xut_xmark.Generator.to_file ~factor:0.001 path;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      with_service (fun svc ->
          (match
             Service.call svc
               (Service.Load
                  { name = "d"; file = path;
                    schema = Some Xut_xmark.Site_schema.bench_schema_name })
           with
          | Service.Ok (Service.Doc_loaded { schema = Some _; _ }) -> ()
          | _ -> Alcotest.fail "LOAD ... SCHEMA");
          let transform u = {|transform copy $a := doc("d") modify do |} ^ u ^ {| return $a|} in
          let queries =
            List.map transform
              [ "delete $a/site/regions//item/mailbox";
                "delete $a//xut_bench_promo";
                "delete $a/site/open_auctions/open_auction[bidder/increase > 5]/annotation";
                "insert <n><m/></n> into $a/site/people/person";
                "insert <n/> as first into $a/site/open_auctions/open_auction";
                "replace $a/site/catgraph/edge with <e><f/><g/></e>";
                "rename $a//keyword as kw" ]
          in
          let m = Service.metrics svc in
          let skipped () = (Metrics.skipped_subtrees m, Metrics.skipped_nodes m) in
          let moved f =
            let s0, n0 = skipped () in
            let r = f () in
            let s1, n1 = skipped () in
            (r, (s1 - s0, n1 - n0))
          in
          let call_tree engine query =
            match Service.call svc (Service.Transform { target = Service.Doc "d"; engine; query }) with
            | Service.Ok (Service.Tree s) ->
              Xut_xml.Node.element_count (Xut_xml.Node.Element (Xut_xml.Dom.parse_string s))
            | _ -> Alcotest.fail ("TRANSFORM " ^ query)
          in
          let call_count engine query =
            match Service.call svc (Service.Count { target = Service.Doc "d"; engine; query }) with
            | Service.Ok (Service.Element_count n) -> n
            | _ -> Alcotest.fail ("COUNT " ^ query)
          in
          let check_counts stage =
            List.iter
              (fun query ->
                let label what = Printf.sprintf "%s, %s: %s" stage what query in
                List.iter
                  (fun engine ->
                    let name = Core.Engine.name engine in
                    (* warm the plan and TD-BU's annotation memo, whose
                       first build also consults the skip oracle *)
                    ignore (call_tree engine query);
                    let expected, t_moved = moved (fun () -> call_tree engine query) in
                    let n, c_moved = moved (fun () -> call_count engine query) in
                    Alcotest.(check int) (label (name ^ " COUNT = TRANSFORM count")) expected n;
                    Alcotest.(check (pair int int))
                      (label (name ^ " skip counters move alike"))
                      t_moved c_moved)
                  [ Core.Engine.Td_bu; Core.Engine.Gentop; Core.Engine.Naive ])
              queries
          in
          let commit u =
            match Service.call svc (Service.Commit { doc = "d"; query = u }) with
            | Service.Ok (Service.Committed _) -> ()
            | _ -> Alcotest.fail ("COMMIT " ^ u)
          in
          let bound () =
            match Doc_store.info (Service.store svc) "d" with
            | Some info -> info.Doc_store.schema
            | None -> Alcotest.fail "document vanished"
          in
          let marker = "<xut_bench_promo>p</xut_bench_promo>" in
          check_counts "loaded";
          commit ("insert " ^ marker ^ " into $a/site/open_auctions/open_auction");
          check_counts "marker in";
          commit "delete $a//xut_bench_promo";
          check_counts "marker out";
          commit ("insert " ^ marker ^ " as first into $a/site/open_auctions/open_auction");
          check_counts "marker in again";
          Alcotest.(check bool) "conforming commits keep the binding" true (bound () <> None);
          Alcotest.(check bool) "pruning took part" true (Metrics.skipped_subtrees m > 0);
          commit "insert <bogus>1</bogus> into $a/site";
          Alcotest.(check bool) "nonconforming commit drops the binding" true
            (bound () = None);
          check_counts "schema dropped";
          commit "delete $a//bogus";
          check_counts "schemaless commit"))

let test_metrics_histogram () =
  let m = Metrics.create () in
  (* 90 fast requests, 10 slow ones *)
  for _ = 1 to 90 do
    Metrics.record_latency m 0.001
  done;
  for _ = 1 to 10 do
    Metrics.record_latency m 0.1
  done;
  Alcotest.(check int) "count" 100 (Metrics.latency_count m);
  let p50 = Metrics.quantile m 0.50 in
  Alcotest.(check bool) "p50 in the fast bucket" true (p50 > 0.0005 && p50 < 0.002);
  let p95 = Metrics.quantile m 0.95 in
  Alcotest.(check bool) "p95 in the slow bucket" true (p95 > 0.05 && p95 < 0.2);
  Alcotest.(check bool) "max is exact" true (abs_float (Metrics.max_latency m -. 0.1) < 1e-6);
  Metrics.queue_enter m;
  Metrics.queue_enter m;
  Metrics.queue_leave m;
  Alcotest.(check int) "queue depth" 1 (Metrics.queue_depth m);
  Alcotest.(check int) "high-water mark" 2 (Metrics.max_queue_depth m)

let suite =
  [
    Alcotest.test_case "plan cache: miss then hit" `Quick test_cache_hit_miss;
    Alcotest.test_case "plan cache: LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "plan cache: capacity 0 disables" `Quick test_cache_disabled;
    Alcotest.test_case "plan cache: failures not cached" `Quick test_cache_bad_query;
    Alcotest.test_case "plan cache: per-doc annotation LRU" `Quick test_annotation_lru_per_doc;
    Alcotest.test_case "plan cache: per-doc invalidation" `Quick test_cache_invalidate_per_doc;
    Alcotest.test_case "doc store: load, find, evict" `Quick test_store_load_evict;
    Alcotest.test_case "doc store: reload flag, generations, events" `Quick
      test_store_reload_generations;
    test_store_shard_equivalence;
    Alcotest.test_case "doc store: bad input" `Quick test_store_bad_input;
    Alcotest.test_case "service: output matches Engine.run" `Quick test_service_matches_engine_run;
    Alcotest.test_case "service: 4-domain output byte-identical" `Quick
      test_service_concurrent_4_domains;
    Alcotest.test_case "service: error isolation and codes" `Quick test_service_error_isolation;
    Alcotest.test_case "service: stats and unload" `Quick test_service_stats_and_unload;
    Alcotest.test_case "service: lifecycle invalidation" `Quick
      test_service_lifecycle_invalidation;
    Alcotest.test_case "service: reload replaces and invalidates" `Quick
      test_service_reload_replaces;
    Alcotest.test_case "service: batch requests" `Quick test_service_batch;
    Alcotest.test_case "service: COUNT tracks commits" `Quick test_count_tracks_commits;
    Alcotest.test_case "service: render_response compatibility" `Quick
      test_render_response_compat;
    Alcotest.test_case "service: streamed transform" `Quick test_transform_stream;
    Alcotest.test_case "service: streamed ingest = materialized" `Quick
      test_transform_ingest;
    Alcotest.test_case "pool: parallel fan-out" `Quick test_pool_parallel_sum;
    Alcotest.test_case "pool: failure isolation" `Quick test_pool_failure_isolation;
    Alcotest.test_case "metrics: histogram and queue depth" `Quick test_metrics_histogram;
    Alcotest.test_case "views: define, query, list, undefine" `Quick test_view_define_and_query;
    Alcotest.test_case "views: definition-time rejection" `Quick test_view_definition_errors;
    Alcotest.test_case "views: dependency-graph invalidation" `Quick
      test_view_invalidation_graph;
  ]
