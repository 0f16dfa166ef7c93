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
  (* composed plans live in their own table under the same discipline *)
  let compose () = Stdlib.Error "outside the fragment" in
  let _, o3 = Plan_cache.find_or_compose c ~key:q_del_prices ~deps:[ "d" ] compose in
  Alcotest.(check bool) "first composed lookup misses" true (o3 = Plan_cache.Miss);
  let _, o4 = Plan_cache.find_or_compose c ~key:q_del_prices ~deps:[ "d" ] compose in
  Alcotest.(check bool) "second composed lookup hits" true (o4 = Plan_cache.Hit);
  let s = Plan_cache.stats c in
  Alcotest.(check int) "entries" 1 s.Plan_cache.entries;
  Alcotest.(check int) "composed entries" 1 s.Plan_cache.composed_entries

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
  let store = Doc_store.create () in
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

module Smap = Map.Make (String)

(* The store against a model that maps each bound name to its
   generation: reload flags, strictly increasing generations, find/info,
   the sorted listing and the exact event stream, for any interleaving
   of load/evict/find.  (The name is the one the property had when it
   compared a lock-striped store with a single-table one.) *)
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
    let store = Doc_store.create () in
    let events = ref [] in
    Doc_store.subscribe store (fun ev ->
        events := (ev.Doc_store.name, ev.Doc_store.reason, ev.Doc_store.generation) :: !events);
    (* model: bound name -> generation; the last generation issued; the
       events the store must have published, newest first *)
    let model = ref Smap.empty and last = ref 0 and expected = ref [] in
    let step ok op =
      ok
      &&
      let agrees =
        match op with
        | `Load i ->
          let name = names.(i) in
          let tree = Xut_xml.Node.element name [ Xut_xml.Node.elem "c" [] ] in
          let info, reloaded = Result.get_ok (Doc_store.register store ~name tree) in
          let g = info.Doc_store.generation in
          let fresh = g > !last in
          last := g;
          if reloaded then expected := (name, Doc_store.Replaced, g) :: !expected;
          let was_bound = Smap.mem name !model in
          model := Smap.add name g !model;
          fresh && reloaded = was_bound && info.Doc_store.name = name
          && info.Doc_store.elements = 2
        | `Evict i ->
          let name = names.(i) in
          let bound = Smap.find_opt name !model in
          Option.iter (fun g -> expected := (name, Doc_store.Unloaded, g) :: !expected) bound;
          model := Smap.remove name !model;
          Doc_store.evict store name = (bound <> None)
        | `Find i ->
          let name = names.(i) in
          let bound = Smap.find_opt name !model in
          (Doc_store.find store name <> None) = (bound <> None)
          && Option.map
               (fun (i : Doc_store.info) ->
                 (i.Doc_store.name, i.Doc_store.elements, i.Doc_store.generation))
               (Doc_store.info store name)
             = Option.map (fun g -> (name, 2, g)) bound
      in
      agrees && !events = !expected
    in
    List.fold_left step true ops
    && Doc_store.names store = List.map fst (Smap.bindings !model)
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

let with_service ?(domains = 1) f =
  let svc = Service.create ~domains () in
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
          let expect, all = Fixtures.replies () in
          let which =
            List.init 60 (fun i ->
                let q = List.nth queries (i mod 3) in
                Service.submit svc
                  (Service.Transform { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = q })
                  (expect ());
                i mod 3)
          in
          List.iter2
            (fun which resp ->
              match resp with
              | Service.Ok (Service.Tree payload) ->
                Alcotest.(check string)
                  "parallel output byte-identical to single-threaded run"
                  (List.nth expected which) payload
              | Service.Ok _ -> Alcotest.fail "TRANSFORM must answer with a Tree"
              | Service.Error { message; _ } -> Alcotest.fail message)
            which (all ());
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

(* The lifecycle guarantee of the store: UNLOAD (or a reload)
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
            (Fixtures.stat (Service.metrics svc) "doc_invalidations");
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
            (Fixtures.stat (Service.metrics svc) "doc_invalidations");
          Alcotest.(check string) "reloaded content transforms byte-identically" before
            (transform ())))

(* ---- worker pool and metrics ---- *)

(* A job is an argument and where its result goes: the pool carries no
   reply of its own. *)
let test_pool_parallel_sum () =
  let pool =
    Worker_pool.create ~domains:4 ~queue_capacity:8 (fun (n, deliver) -> deliver (n * n))
  in
  let expect, all = Fixtures.replies () in
  List.iter (fun i -> Worker_pool.submit pool (i, expect ())) (List.init 100 Fun.id);
  let total = List.fold_left ( + ) 0 (all ()) in
  Worker_pool.shutdown pool;
  Alcotest.(check int) "all 100 squares served" 328350 total

let test_pool_failure_isolation () =
  let pool =
    Worker_pool.create ~domains:2 ~queue_capacity:4 (fun (n, deliver) ->
        if n < 0 then failwith "negative" else deliver (n + 1))
  in
  let got = ref None in
  Worker_pool.call pool (-1, fun v -> got := Some v);
  Alcotest.(check (option int)) "call returns once a raising job is done" None !got;
  Worker_pool.call pool (41, fun v -> got := Some v);
  Alcotest.(check (option int)) "workers survive a raise" (Some 42) !got;
  (* A raising job is dropped.  One per worker: if a raise killed its
     worker, each of the two workers would take one and die, and the
     jobs after them would never be served. *)
  let raised = Atomic.make 0 in
  for i = 1 to 2 do
    Worker_pool.submit pool
      ( i,
        fun _ ->
          Atomic.incr raised;
          failwith "delivery raised" )
  done;
  let expect, all = Fixtures.replies () in
  List.iter (fun i -> Worker_pool.submit pool (i, expect ())) [ 10; 20; 30 ];
  (match all ~timeout:10. () with
  | [ 11; 21; 31 ] -> ()
  | _ -> Alcotest.fail "workers survive a raising job");
  Worker_pool.shutdown pool;
  Alcotest.(check int) "both raising jobs ran" 2 (Atomic.get raised);
  Worker_pool.shutdown pool (* idempotent *);
  match Worker_pool.submit pool (1, ignore) with
  | () -> Alcotest.fail "submit after shutdown must raise"
  | exception Invalid_argument _ -> ()

(* After shutdown every entry answers Overloaded, and the callback ones
   do so before they return. *)
let test_submit_after_shutdown () =
  let svc = Service.create () in
  Service.shutdown svc;
  let overloaded label = function
    | Some (Service.Error { code = Service.Overloaded; _ }) -> ()
    | _ -> Alcotest.fail (label ^ ": no Overloaded reply")
  in
  let got = ref None in
  Service.submit svc Service.Stats (fun r -> got := Some r);
  overloaded "submit replied before returning" !got;
  let got = ref None in
  Service.submit_stream svc
    { Service.source = Service.From_doc "d"; engine = None; query = q_del_prices; chunk_size = 64 }
    (fun _ -> Alcotest.fail "a refused stream emits no chunk")
    (fun r -> got := Some r);
  overloaded "submit_stream replied before returning" !got;
  overloaded "call" (Some (Service.call svc Service.Stats))

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
          Alcotest.(check int) "streams counted" (4 * List.length queries)
            (Fixtures.stat m "streams");
          Alcotest.(check bool) "stream chunks counted" true
            (Fixtures.stat m "stream_chunks" >= Fixtures.stat m "streams");
          Alcotest.(check bool) "stream bytes counted" true
            (Metrics.stream_bytes m > Fixtures.stat m "stream_chunks");
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
             materialized answer: the stored doc is walked with GENTOP
             and counts as no tier; over the file the qualifier-free
             shapes run fused and the qualifier-carrying one runs the
             buffered pass, within its budget (so counted fused) *)
          List.iter
            (fun q ->
              let expected = reference_answer Core.Engine.Gentop q in
              Alcotest.(check string) "doc ingest = materialized" expected
                (ingest (Service.From_doc "d") q);
              Alcotest.(check string) "file ingest = materialized" expected
                (ingest (Service.From_file path) q))
            queries;
          let m = Service.metrics svc in
          Alcotest.(check int) "fused runs counted" 3 (Metrics.streams_fused m);
          Alcotest.(check int) "fallbacks counted" 0 (Metrics.stream_fallbacks m);
          (* every file ingest is exactly one of fused/fallback *)
          Alcotest.(check int) "fused + fallback = file ingests" (List.length queries)
            (Metrics.streams_fused m + Metrics.stream_fallbacks m);
          (* a qualifier on the document element makes the whole file one
             undecided region, larger than the 512 KiB a region could
             once hold: the buffered pass re-reads it and counts fused,
             with the same bytes; over a FIFO, which cannot be read
             twice, the same plan falls back to a walk of the parsed
             tree *)
          let big = Filename.temp_file "xut_service_big" ".xml" in
          Fun.protect
            ~finally:(fun () -> Sys.remove big)
            (fun () ->
              Xut_xmark.Generator.to_file ~factor:0.015 big;
              Alcotest.(check bool) "the file is past 512 KiB" true
                (In_channel.with_open_bin big In_channel.length > 524288L);
              let q =
                {|transform copy $a := doc("d") modify do delete $a/site[people]/regions return $a|}
              in
              let expected =
                Xut_xml.Serialize.element_to_string
                  (Core.Engine.run Core.Engine.Gentop (Core.Transform_parser.parse q)
                     ~doc:(Xut_xml.Dom.parse_file big))
              in
              let fused = Metrics.streams_fused m and fallbacks = Metrics.stream_fallbacks m in
              Alcotest.(check string) "large-region file ingest = materialized" expected
                (ingest (Service.From_file big) q);
              Alcotest.(check (pair int int)) "the re-read counts as fused" (fused + 1, fallbacks)
                (Metrics.streams_fused m, Metrics.stream_fallbacks m);
              let out, readers =
                Fixtures.with_fifo (In_channel.with_open_bin big In_channel.input_all) (fun fifo ->
                    ingest (Service.From_file fifo) q)
              in
              Alcotest.(check string) "FIFO ingest = materialized" expected out;
              Alcotest.(check int) "the FIFO is read once" 1 readers;
              Alcotest.(check (pair int int)) "the FIFO counts as a fallback"
                (fused + 1, fallbacks + 1)
                (Metrics.streams_fused m, Metrics.stream_fallbacks m));
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
          (* a stored-document ingest resolves the document first, as a
             Doc TRANSFORM does *)
          (match
             Service.transform_ingest svc ~source:(Service.From_doc "nope") ~query:"nonsense"
               (fun _ -> Alcotest.fail "no chunks for an unknown document")
           with
          | Service.Error { code = Service.Unknown_document; _ } -> ()
          | _ -> Alcotest.fail "unknown-document before query-parse-error");
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

(* A file with two top-level elements: LOAD and a file ingest both
   answer the parser's positioned error, and neither keeps a document. *)
let test_second_document_element () =
  let path = Filename.temp_file "xut_service_two" ".xml" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "<a><x/></a><b><x/></b>");
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      with_service (fun svc ->
          let positioned what = function
            | Service.Error { message; _ } ->
              let expected = "at 1:12: a second document element" in
              if not (String.ends_with ~suffix:expected message) then Alcotest.failf "%s: %s" what message
            | Service.Ok _ -> Alcotest.failf "%s accepted two document elements" what
          in
          positioned "LOAD" (Service.call svc (Service.Load { name = "d"; file = path; schema = None }));
          positioned "TRANSFORM-STREAM FILE"
            (Service.transform_ingest svc ~source:(Service.From_file path)
               ~query:{|transform copy $a := doc("d") modify do delete $a/a/zz return $a|}
               ignore);
          match
            Service.call svc
              (Service.Transform { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = q_del_prices })
          with
          | Service.Error { code = Service.Unknown_document; _ } -> ()
          | _ -> Alcotest.fail "the failed LOAD stored a document"))

(* ---- a consumer failing mid-stream ---- *)

(* [emit] raises on its second chunk.  Each streamed path — the td-bu
   result stream, the stored-document ingest and the fused file ingest —
   must answer [Eval_error], count exactly one error, and leave the
   service serving plain requests byte-identically.  A failed run counts
   as no tier. *)
let test_stream_consumer_failure () =
  with_doc_file (fun path ->
      with_service (fun svc ->
          load_doc svc path;
          let m = Service.metrics svc in
          let fail_on_second () =
            let n = ref 0 in
            fun _ ->
              incr n;
              if !n = 2 then failwith "consumer gone"
          in
          List.iter
            (fun (what, run) ->
              let errors = Metrics.errors m in
              (match run (fail_on_second ()) with
              | Service.Error { code = Service.Eval_error; _ } -> ()
              | _ -> Alcotest.fail (what ^ ": a failing consumer must end in eval-error"));
              Alcotest.(check int) (what ^ ": one error counted") (errors + 1) (Metrics.errors m);
              match
                Service.call svc
                  (Service.Transform
                     { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = q_del_prices })
              with
              | Service.Ok (Service.Tree s) ->
                Alcotest.(check string) (what ^ ": served afterwards")
                  (reference_answer Core.Engine.Td_bu q_del_prices) s
              | _ -> Alcotest.fail (what ^ ": the next TRANSFORM must be served"))
            [ ( "td-bu result stream",
                Service.transform_stream svc ~doc:"d" ~engine:Core.Engine.Td_bu
                  ~query:q_del_prices ~chunk_size:32 );
              ( "doc ingest",
                Service.transform_ingest svc ~source:(Service.From_doc "d") ~query:q_del_prices
                  ~chunk_size:32 );
              ( "fused file ingest",
                Service.transform_ingest svc ~source:(Service.From_file path)
                  ~query:q_del_prices ~chunk_size:32 ) ];
          Alcotest.(check int) "no failed ingest ran fused" 0 (Metrics.streams_fused m)))

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
          Alcotest.(check int) "view_defs counted" 2 (Fixtures.stat m "view_defs");
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

(* [defs] applied level by level with the reference engine, then
   [query] evaluated as plain XQuery over the result. *)
let reference_view_value ~base defs query =
  let materialized =
    List.fold_left
      (fun t d ->
        Core.Engine.transform Core.Engine.Reference
          (Core.Transform_parser.parse d).Core.Transform_ast.update t)
      base defs
  in
  Xut_xquery.Xq_eval.eval_expr
    (Xut_xquery.Xq_eval.env ~context:materialized ())
    (Xut_xquery.Xq_parser.parse_expr query)

(* Reads outside the composable user fragment take the materializing
   fallback.  Each reply equals the reference chain, counts one
   fallback, and a COMMIT on the base shows up in the next read. *)
let test_view_fallback () =
  with_doc_file (fun path ->
      with_service (fun svc ->
          load_doc svc path;
          ignore (defview svc "v1" v1_def);
          ignore (defview svc "v2" v2_def);
          let m = Service.metrics svc in
          let count_q = "count(site/items/product)" in
          let if_q =
            "if (count(site/items/product) > 1) then site/items/product/name \
             else site/people/person/name"
          in
          let read ~base engine query =
            let label = Core.Engine.name engine ^ " " ^ query in
            let fallbacks = Metrics.compose_fallbacks m in
            let reply =
              match
                Service.call svc
                  (Service.Transform { target = Service.View "v2"; engine; query })
              with
              | Service.Ok (Service.Tree payload) -> payload
              | Service.Ok _ -> Alcotest.fail "TRANSFORM VIEW must answer with a Tree"
              | Service.Error { message; _ } -> Alcotest.fail message
            in
            Alcotest.(check string) (label ^ " = reference chain")
              (view_render (reference_view_value ~base [ v1_def; v2_def ] query))
              reply;
            Alcotest.(check int) (label ^ ": one fallback") (fallbacks + 1)
              (Metrics.compose_fallbacks m);
            reply
          in
          let read_all base =
            List.concat_map
              (fun engine -> List.map (read ~base engine) [ count_q; if_q ])
              [ Core.Engine.Td_bu; Core.Engine.Gentop ]
          in
          let before = read_all (Xut_xml.Dom.parse_string doc_xml) in
          Alcotest.(check (list string)) "two products, their names"
            [ "2"; "<name>kettle</name>\n<name>lamp</name>" ]
            (List.filteri (fun i _ -> i < 2) before);
          let commit_q = {|delete $a/site/items/item[name = "lamp"]|} in
          (match Service.call svc (Service.Commit { doc = "d"; query = commit_q }) with
          | Service.Ok (Service.Committed { primitives = 1; _ }) -> ()
          | _ -> Alcotest.fail "COMMIT on the base");
          let committed =
            Core.Engine.transform Core.Engine.Reference
              (Core.Transform_parser.parse
                 ({|transform copy $a := doc("d") modify do |} ^ commit_q ^ " return $a"))
                .Core.Transform_ast.update
              (Xut_xml.Dom.parse_string doc_xml)
          in
          let after = read_all committed in
          Alcotest.(check (list string)) "the commit shows: one product, people's names"
            [ "1"; "<name>Alice</name>\n<name>Bob</name>\n<name>Carol</name>" ]
            (List.filteri (fun i _ -> i < 2) after);
          Alcotest.(check int) "no read was composed" 0 (Metrics.view_hits m)))

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
            (Fixtures.stat (Service.metrics svc) "view_defs");
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
          Alcotest.(check int) "no view churn yet" 0 (Fixtures.stat m "view_invalidations");
          (* COMMIT the base of the chain *)
          let commit_q = {|delete $a/site/items/item[name = "lamp"]|} in
          (match Service.call svc (Service.Commit { doc = "d"; query = commit_q }) with
          | Service.Ok (Service.Committed { primitives = 1; _ }) -> ()
          | _ -> Alcotest.fail "COMMIT d");
          Alcotest.(check bool) "commit churned the dependent views' memos" true
            (Fixtures.stat m "view_invalidations" > 0);
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
          let churn0 = Fixtures.stat m "view_invalidations" in
          let _, _, redefined =
            defview svc "v1"
              {|transform copy $a := doc("d") modify do delete $a//age return $a|}
          in
          Alcotest.(check bool) "redefinition reported" true redefined;
          Alcotest.(check int) "only w's plan survives the redefinition" 1
            (Service.cache_stats svc).Plan_cache.composed_entries;
          Alcotest.(check bool) "redefinition churn counted" true
            (Fixtures.stat m "view_invalidations" > churn0);
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
          Alcotest.(check bool) "marker commits repaired the pruned tables" true
            (Metrics.annotation_repairs m > 0);
          Alcotest.(check int) "no repair fell back to eviction" 0 (Metrics.repair_fallbacks m);
          commit "insert <bogus>1</bogus> into $a/site";
          Alcotest.(check bool) "nonconforming commit drops the binding" true
            (bound () = None);
          check_counts "schema dropped";
          commit "delete $a//bogus";
          check_counts "schemaless commit"))

(* ---- reply image ---- *)

(* Doc TRANSFORM replies and td-bu result streams copy shared subtrees
   out of the binding's reply image.  Across LOAD, two COMMITs (the
   image built at the first read is carried to each new root) and a
   reload of different content under the same name (a fresh image),
   every reply must equal the reference engine's tree serialized
   without an image, and the blits must have happened. *)
let test_reply_image_lifecycle () =
  let file seed =
    let path = Filename.temp_file "xut_service_image" ".xml" in
    Xut_xmark.Generator.to_file ~seed ~factor:0.002 path;
    path
  in
  let first = file 1L and second = file 2L in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ first; second ])
    (fun () ->
      with_service (fun svc ->
          let transform u = {|transform copy $a := doc("d") modify do |} ^ u ^ {| return $a|} in
          let queries =
            List.map transform
              [ "delete $a//price"; "rename $a/site/people/person as p";
                "insert <n/> into $a/site/open_auctions/open_auction[bidder]" ]
          in
          let state = ref (Xut_xml.Dom.parse_file first) in
          let load path =
            match Service.call svc (Service.Load { name = "d"; file = path; schema = None }) with
            | Service.Ok (Service.Doc_loaded _) -> state := Xut_xml.Dom.parse_file path
            | _ -> Alcotest.fail ("LOAD " ^ path)
          in
          let commit u =
            (match Service.call svc (Service.Commit { doc = "d"; query = u }) with
            | Service.Ok (Service.Committed { primitives; _ }) when primitives > 0 -> ()
            | _ -> Alcotest.fail ("COMMIT " ^ u));
            let q = Core.Transform_parser.parse (transform u) in
            state := Core.Engine.run Core.Engine.Reference q ~doc:!state
          in
          let read stage =
            List.iter
              (fun q ->
                let expected =
                  Xut_xml.Serialize.element_to_string
                    (Core.Engine.run Core.Engine.Reference (Core.Transform_parser.parse q)
                       ~doc:!state)
                in
                (match
                   Service.call svc
                     (Service.Transform { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = q })
                 with
                | Service.Ok (Service.Tree s) ->
                  Alcotest.(check string) (stage ^ ": TRANSFORM " ^ q) expected s
                | _ -> Alcotest.fail ("TRANSFORM " ^ q));
                let buf = Buffer.create 4096 in
                match
                  Service.transform_stream svc ~doc:"d" ~engine:Core.Engine.Td_bu ~query:q
                    ~chunk_size:4096 (Buffer.add_string buf)
                with
                | Service.Ok (Service.Stream_done _) ->
                  Alcotest.(check string) (stage ^ ": stream " ^ q) expected (Buffer.contents buf)
                | _ -> Alcotest.fail ("stream " ^ q))
              queries
          in
          let image () =
            (Fixtures.counter "serialize_image_builds", Fixtures.counter "serialize_image_blit_bytes")
          in
          let builds0, blits0 = image () in
          load first;
          read "loaded";
          commit "insert <m>p</m> into $a/site/open_auctions/open_auction";
          read "after insert";
          let _, blits1 = image () in
          commit "delete $a/site/open_auctions/open_auction/m";
          read "after delete";
          load second;
          read "reloaded";
          let builds2, blits2 = image () in
          Alcotest.(check int) "one image per LOAD" 2 (builds2 - builds0);
          Alcotest.(check bool) "replies blit after a commit" true (blits1 > blits0);
          Alcotest.(check bool) "replies blit after a reload" true (blits2 > blits1)))

(* After two COMMITs (the mixed read/write workload's marker pair) the
   image built at the first read still serves a Doc TRANSFORM of the
   twice-committed root: every element the commits kept is copied out
   of it, each run of kept siblings as one blit, so at least 90% of the
   reply's bytes are blits; the rest is the rebuilt spine's tags. *)
let test_reply_image_blit_share () =
  let path = Filename.temp_file "xut_service_share" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Xut_xmark.Generator.to_file ~seed:1L ~factor:0.01 path;
      with_service (fun svc ->
          let transform u = {|transform copy $a := doc("d") modify do |} ^ u ^ {| return $a|} in
          (match Service.call svc (Service.Load { name = "d"; file = path; schema = None }) with
          | Service.Ok (Service.Doc_loaded _) -> ()
          | _ -> Alcotest.fail "LOAD");
          let q = transform {|delete $a/site/people/person[@id = "person0"]/name|} in
          let read () =
            match
              Service.call svc
                (Service.Transform { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = q })
            with
            | Service.Ok (Service.Tree s) -> s
            | _ -> Alcotest.fail "TRANSFORM"
          in
          ignore (read () : string) (* builds the image *);
          let state = ref (Xut_xml.Dom.parse_file path) in
          List.iter
            (fun u ->
              (match Service.call svc (Service.Commit { doc = "d"; query = u }) with
              | Service.Ok (Service.Committed { primitives; _ }) when primitives > 0 -> ()
              | _ -> Alcotest.fail ("COMMIT " ^ u));
              state :=
                Core.Engine.run Core.Engine.Reference (Core.Transform_parser.parse (transform u))
                  ~doc:!state)
            [ "insert <xut_bench_promo>p</xut_bench_promo> into $a/site/open_auctions/open_auction";
              "delete $a//xut_bench_promo" ];
          let before = Fixtures.counter "serialize_image_blit_bytes" in
          let reply = read () in
          let blitted = Fixtures.counter "serialize_image_blit_bytes" - before in
          Alcotest.(check string) "reply = reference"
            (Xut_xml.Serialize.element_to_string
               (Core.Engine.run Core.Engine.Reference (Core.Transform_parser.parse q) ~doc:!state))
            reply;
          Alcotest.(check bool)
            (Printf.sprintf "%d of %d reply bytes blitted" blitted (String.length reply))
            true
            (10 * blitted >= 9 * String.length reply)))

(* ---- the read matrix ----

   Every read reply (Tree, Count, result stream, TRANSFORM-STREAM) over
   every source (a schema-bound document, a schemaless one, the same
   bytes as a file, depth-1 and depth-2 view chains) and every engine,
   checked against each other and against the reference engine. *)

let matrix_transform ?(doc = "d") u =
  Printf.sprintf {|transform copy $a := doc("%s") modify do %s return $a|} doc u

(* qualifier-free (a fused file ingest), qualifier-bearing (a buffered
   one) and a rename *)
let matrix_queries =
  List.map matrix_transform
    [ "delete $a/site/regions//item/mailbox";
      "delete $a/site/people/person[phone]/address";
      "rename $a/site/people/person as human" ]

let matrix_empty = matrix_transform "delete $a/site/people//bidder"

(* (view, definition, reads); each base document gets a depth-1 view
   and a depth-2 view over it.  The [count] reads are outside the
   composable user fragment and take the materializing fallback. *)
let matrix_views base =
  let v1 = base ^ "1" and v2 = base ^ "2" in
  [ ( v1,
      [ matrix_transform ~doc:base "delete $a//emailaddress" ],
      [ "for $x in site/people/person return $x"; "count(site/people/person)" ] );
    ( v2,
      [ matrix_transform ~doc:base "delete $a//emailaddress";
        matrix_transform ~doc:v1 "rename $a/site/people/person as human" ],
      [ "for $x in site/people/human return $x"; "count(site/people/human)" ] ) ]

(* The service's COUNT of a view value, computed independently. *)
let view_count (v : Xut_xquery.Xq_value.t) =
  List.fold_left
    (fun n item ->
      match item with
      | Xut_xquery.Xq_value.N node -> n + Xut_xml.Node.element_count node
      | Xut_xquery.Xq_value.D e -> n + Xut_xml.Node.element_count (Xut_xml.Node.Element e)
      | _ -> n + 1)
    0 v

let test_read_matrix () =
  Xut_xmark.Site_schema.register ();
  let path = Filename.temp_file "xut_service_matrix" ".xml" in
  Xut_xmark.Generator.to_file ~factor:0.0005 path;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      with_service (fun svc ->
          let base = Xut_xml.Dom.parse_file path in
          let fail label = function
            | Service.Error { message; _ } -> Alcotest.fail (label ^ ": " ^ message)
            | Service.Ok _ -> Alcotest.fail (label ^ ": wrong payload")
          in
          let tree label = function Service.Ok (Service.Tree s) -> s | r -> fail label r in
          let count label = function
            | Service.Ok (Service.Element_count n) -> n
            | r -> fail label r
          in
          let streamed label run =
            let buf = Buffer.create 4096 in
            match run (Buffer.add_string buf) with
            | Service.Ok (Service.Stream_done { bytes; _ }) ->
              Alcotest.(check int) (label ^ ": byte total") (Buffer.length buf) bytes;
              Buffer.contents buf
            | r -> fail label r
          in
          let refused ?message label code run =
            match run (fun _ -> Alcotest.fail (label ^ ": a refused read emits no chunk")) with
            | Service.Error { code = c; message = m } when c = code ->
              Option.iter (fun e -> Alcotest.(check string) (label ^ ": message") e m) message
            | Service.Error { code = c; message } ->
              Alcotest.fail
                (Printf.sprintf "%s: expected %s, got %s: %s" label (Service.err_code_name code)
                   (Service.err_code_name c) message)
            | Service.Ok _ -> Alcotest.fail (label ^ ": expected an error")
          in
          let read target engine query = Service.Transform { target; engine; query } in
          let count_req target engine query = Service.Count { target; engine; query } in
          List.iter
            (fun (name, schema) ->
              match Service.call svc (Service.Load { name; file = path; schema }) with
              | Service.Ok (Service.Doc_loaded _) -> ()
              | r -> fail ("LOAD " ^ name) r)
            [ ("d", Some Xut_xmark.Site_schema.schema_name); ("p", None) ];
          List.iter
            (fun doc ->
              List.iter
                (fun (name, defs, _) ->
                  match
                    Service.call svc
                      (Service.Defview { name; query = List.nth defs (List.length defs - 1) })
                  with
                  | Service.Ok (Service.View_defined _) -> ()
                  | r -> fail ("DEFVIEW " ^ name) r)
                (matrix_views doc))
            [ "d"; "p" ];
          (* Doc reads: every engine, both bindings *)
          List.iter
            (fun q ->
              let expected =
                Xut_xml.Serialize.element_to_string
                  (Core.Engine.run Core.Engine.Reference (Core.Transform_parser.parse q) ~doc:base)
              in
              List.iter
                (fun doc ->
                  let target = Service.Doc doc in
                  List.iter
                    (fun engine ->
                      let label = Printf.sprintf "%s %s %s" doc (Core.Engine.name engine) q in
                      let payload = tree label (Service.call svc (read target engine q)) in
                      Alcotest.(check string) (label ^ ": Tree = reference") expected payload;
                      Alcotest.(check string) (label ^ ": result stream = Tree") payload
                        (streamed label
                           (Service.transform_stream svc ~doc ~engine ~query:q ~chunk_size:97));
                      Alcotest.(check int) (label ^ ": COUNT = elements of the Tree")
                        (Xut_xml.Node.element_count
                           (Xut_xml.Node.Element (Xut_xml.Dom.parse_string payload)))
                        (count label (Service.call svc (count_req target engine q))))
                    Core.Engine.all;
                  Alcotest.(check string) (doc ^ " TRANSFORM-STREAM = materialized") expected
                    (streamed doc
                       (Service.transform_ingest svc ~source:(Service.From_doc doc) ~query:q
                          ~chunk_size:97)))
                [ "d"; "p" ];
              Alcotest.(check string) "TRANSFORM-STREAM FILE = materialized" expected
                (streamed "file"
                   (Service.transform_ingest svc ~source:(Service.From_file path) ~query:q
                      ~chunk_size:97)))
            matrix_queries;
          (* View reads: TRANSFORM = the reference chain, COUNT = its
             count *)
          List.iter
            (fun doc ->
              List.iter
                (fun (name, defs, reads) ->
                  List.iter
                    (fun q ->
                      let value = reference_view_value ~base defs q in
                      List.iter
                        (fun engine ->
                          let label = Printf.sprintf "%s %s %s" name (Core.Engine.name engine) q in
                          let target = Service.View name in
                          Alcotest.(check string) (label ^ ": Tree = reference chain")
                            (view_render value)
                            (tree label (Service.call svc (read target engine q)));
                          Alcotest.(check int) (label ^ ": COUNT = count of the value")
                            (view_count value)
                            (count label (Service.call svc (count_req target engine q))))
                        Core.Engine.all)
                    reads)
                (matrix_views doc))
            [ "d"; "p" ];
          (* the schema refuses a statically-empty query on every Doc
             reply kind; the schemaless binding runs it *)
          List.iter
            (fun engine ->
              let label what = Printf.sprintf "%s %s" what (Core.Engine.name engine) in
              let target = Service.Doc "d" in
              refused (label "TRANSFORM") Service.Statically_empty (fun _ ->
                  Service.call svc (read target engine matrix_empty));
              refused (label "COUNT") Service.Statically_empty (fun _ ->
                  Service.call svc (count_req target engine matrix_empty));
              refused (label "result stream") Service.Statically_empty
                (Service.transform_stream svc ~doc:"d" ~engine ~query:matrix_empty);
              ignore
                (count (label "schemaless COUNT")
                   (Service.call svc (count_req (Service.Doc "p") engine matrix_empty))))
            Core.Engine.all;
          refused "TRANSFORM-STREAM" Service.Statically_empty
            (Service.transform_ingest svc ~source:(Service.From_doc "d") ~query:matrix_empty);
          (* an unknown source is reported before a bad query *)
          let bad = "nonsense" in
          List.iter
            (fun engine ->
              let label what = Printf.sprintf "%s %s" what (Core.Engine.name engine) in
              List.iter
                (fun target ->
                  refused (label "TRANSFORM") Service.Unknown_document (fun _ ->
                      Service.call svc (read target engine bad));
                  refused (label "COUNT") Service.Unknown_document (fun _ ->
                      Service.call svc (count_req target engine bad)))
                [ Service.Doc "nope"; Service.View "nope" ];
              refused (label "result stream") Service.Unknown_document
                (Service.transform_stream svc ~doc:"nope" ~engine ~query:bad))
            Core.Engine.all;
          refused "TRANSFORM-STREAM" Service.Unknown_document
            (Service.transform_ingest svc ~source:(Service.From_doc "nope") ~query:bad);
          (* a missing file is an unknown source too, and so is a
             directory: both replies name the path *)
          List.iter
            (fun file ->
              refused ~message:(Printf.sprintf "no such file %S" file) "TRANSFORM-STREAM FILE"
                Service.Eval_error
                (Service.transform_ingest svc ~source:(Service.From_file file) ~query:bad))
            [ "/nonexistent/x.xml"; Filename.get_temp_dir_name () ];
          (* an update the document element cannot take is an eval error
             with APPLY's message on every reply kind, engine and tier:
             the bare delete streams fused from the file, the qualified
             one through the buffered pass *)
          let message = "update deletes the document element" in
          List.iter
            (fun u ->
              let q = matrix_transform u in
              List.iter
                (fun engine ->
                  List.iter
                    (fun doc ->
                      let label what =
                        Printf.sprintf "%s %s %s %s" what doc (Core.Engine.name engine) u
                      in
                      let target = Service.Doc doc in
                      refused ~message (label "TRANSFORM") Service.Eval_error (fun _ ->
                          Service.call svc (read target engine q));
                      refused ~message (label "COUNT") Service.Eval_error (fun _ ->
                          Service.call svc (count_req target engine q));
                      refused ~message (label "result stream") Service.Eval_error
                        (Service.transform_stream svc ~doc ~engine ~query:q))
                    [ "d"; "p" ])
                Core.Engine.all;
              refused ~message ("TRANSFORM-STREAM FILE " ^ u) Service.Eval_error
                (Service.transform_ingest svc ~source:(Service.From_file path) ~query:q))
            [ "delete $a/site"; "delete $a/site[people]" ]))

(* ---- golden STATS ---- *)

(* The STATS keys, in order, up to the plan-cache line: CI greps them and
   operators read them, so a metrics refactor must keep them
   byte-for-byte. *)
let stats_keys =
  [ "requests"; "errors"; "cache_hits"; "cache_misses"; "queue_depth"; "queue_depth_max";
    "latency_count"; "latency_p50_ms"; "latency_p95_ms"; "latency_max_ms"; "conns_accepted";
    "conns_active"; "conns_rejected"; "frames_in"; "frames_out"; "frames_malformed";
    "bytes_in"; "bytes_out"; "streams"; "stream_chunks"; "stream_bytes"; "streams_fused";
    "stream_fallbacks"; "schema_bindings_dropped"; "doc_invalidations";
    "annotation_repairs"; "repair_fallbacks"; "repair_recomputed_nodes";
    "repair_reused_nodes"; "repair_rekeyed"; "view_defs"; "view_hits"; "composed_plans";
    "view_invalidations"; "compose_fallbacks"; "skipped_subtrees"; "skipped_nodes";
    "statically_empty_rejections"; "schema_products"; "commits"; "commit_conflicts";
    "commit_noops"; "pending_primitives_count"; "pending_primitives_p50";
    "pending_primitives_p95"; "pending_primitives_max"; "sym_interns"; "reader_pool_hits";
    "reader_pool_misses"; "sax_copy_blit_bytes"; "serialize_pool_hits"; "serialize_pool_misses";
    "serialize_image_builds"; "serialize_image_blit_bytes"; "nfa_memo_hits"; "nfa_memo_misses";
    "nodes_visited"; "nodes_copied"; "nodes_shared"; "nfa_memo_hit_rate"; "sym_symbols" ]

(* [(key, value)] of every metric line, stopping after [sym_symbols]. *)
let stats_lines dump =
  let rec take = function
    | [] -> []
    | l :: rest ->
      let kv =
        match String.index_opt l ' ' with
        | Some i -> (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
        | None -> (l, "")
      in
      if fst kv = "sym_symbols" then [ kv ] else kv :: take rest
  in
  take (String.split_on_char '\n' dump)

(* Check every per-service key against [expected] (keys it omits must be
   0), skipping the [varying] keys and the process-wide lines. *)
let check_stats label ?(varying = []) lines expected =
  let process_wide =
    [ "serialize_pool_"; "serialize_image_"; "nfa_memo_"; "sym_"; "reader_pool_"; "sax_copy_";
      "nodes_" ]
  in
  List.iter
    (fun key ->
      if not (List.mem key varying || List.exists (fun prefix -> String.starts_with ~prefix key) process_wide)
      then
        Alcotest.(check (option string)) (label ^ ": " ^ key)
          (Some (Option.value ~default:"0" (List.assoc_opt key expected)))
          (List.assoc_opt key lines))
    stats_keys

(* A fixed script on a fresh service: LOAD under SCHEMA xmark, a td-bu
   TRANSFORM, a statically-empty COUNT, an effective and a no-op COMMIT,
   DEFVIEW, one view read, a result stream and one ingest per tier plus a
   statically-empty one.  The key list is asserted exactly, the
   deterministic per-service counters by value (latencies and the
   process-wide memo/pool/symbol lines vary run to run).  Then
   [Metrics.reset]: counters and histograms go to 0, the gauges survive
   and the high-water mark restarts at the live depth. *)
let test_golden_stats () =
  Xut_xmark.Site_schema.register ();
  let path = Filename.temp_file "xut_service_test" ".xml" in
  Xut_xmark.Generator.to_file ~factor:0.001 path;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      with_service (fun svc ->
          let call what req =
            match Service.call svc req with
            | Service.Ok r -> r
            | Service.Error { message; _ } -> Alcotest.fail (what ^ ": " ^ message)
          in
          let transform u = {|transform copy $a := doc("d") modify do |} ^ u ^ {| return $a|} in
          ignore
            (call "LOAD"
               (Service.Load
                  { name = "d"; file = path; schema = Some Xut_xmark.Site_schema.schema_name }));
          ignore
            (call "TRANSFORM"
               (Service.Transform
                  { target = Service.Doc "d"; engine = Core.Engine.Td_bu;
                    query =
                      transform
                        "delete $a/site/open_auctions/open_auction[bidder/increase > 5]/annotation"
                  }));
          (match
             Service.call svc
               (Service.Count
                  { target = Service.Doc "d"; engine = Core.Engine.Td_bu;
                    query = transform "delete $a/site/people//bidder" })
           with
          | Service.Error { code = Service.Statically_empty; _ } -> ()
          | _ -> Alcotest.fail "COUNT of a statically-empty query must be rejected");
          ignore (call "COMMIT" (Service.Commit { doc = "d"; query = "delete $a//mailbox" }));
          ignore (call "no-op COMMIT" (Service.Commit { doc = "d"; query = "delete $a//mailbox" }));
          ignore
            (call "DEFVIEW"
               (Service.Defview { name = "v"; query = transform "delete $a//description" }));
          ignore
            (call "TRANSFORM VIEW"
               (Service.Transform
                  { target = Service.View "v"; engine = Core.Engine.Td_bu;
                    query = "for $x in site/people/person return $x/name" }));
          (* the streamed paths: a td-bu result stream, then ingests —
             two of the stored doc (qualifier-free and qualified, both
             the GENTOP walk, counted as no tier), a buffered one of the
             file (U7, counted fused) — and one the schema rejects at
             admission *)
          let stream what run =
            match run ignore with
            | Service.Ok (Service.Stream_done _) -> ()
            | Service.Ok _ -> Alcotest.fail (what ^ ": expected Stream_done")
            | Service.Error { message; _ } -> Alcotest.fail (what ^ ": " ^ message)
          in
          let u4 = transform "delete $a/site/regions//item" in
          stream "td-bu result stream"
            (Service.transform_stream svc ~doc:"d" ~engine:Core.Engine.Td_bu ~query:u4);
          stream "qualifier-free doc ingest"
            (Service.transform_ingest svc ~source:(Service.From_doc "d") ~query:u4);
          stream "qualified doc ingest"
            (Service.transform_ingest svc ~source:(Service.From_doc "d")
               ~query:(transform "delete $a/site/people/person[profile/age > 20]"));
          stream "buffered file ingest"
            (Service.transform_ingest svc ~source:(Service.From_file path)
               ~query:
                 (transform
                    "delete $a/site/open_auctions/open_auction[bidder/increase > 5]/annotation[happiness < 20]/description//text"));
          (match
             Service.transform_ingest svc ~source:(Service.From_doc "d")
               ~query:(transform "delete $a/site/people//bidder")
               (fun _ -> Alcotest.fail "no chunks for a statically-empty ingest")
           with
          | Service.Error { code = Service.Statically_empty; _ } -> ()
          | _ -> Alcotest.fail "a statically-empty ingest must be rejected");
          let dump =
            match call "STATS" Service.Stats with
            | Service.Stats_dump d -> d
            | _ -> Alcotest.fail "STATS must answer with a Stats_dump"
          in
          let lines = stats_lines dump in
          Alcotest.(check (list string)) "STATS keys, in order" stats_keys (List.map fst lines);
          check_stats "after the script" lines
            ~varying:[ "latency_p50_ms"; "latency_p95_ms"; "latency_max_ms" ]
            [ ("requests", "13"); ("errors", "2"); ("cache_hits", "2"); ("cache_misses", "5");
              ("queue_depth_max", "1"); ("latency_count", "12"); ("streams", "4");
              ("stream_chunks", "4"); ("stream_bytes", "163240"); ("streams_fused", "1");
              ("stream_fallbacks", "0"); ("annotation_repairs", "1"); ("repair_reused_nodes", "94");
              ("repair_rekeyed", "1");
              ("view_defs", "1"); ("view_hits", "1"); ("composed_plans", "1");
              ("skipped_subtrees", "256"); ("skipped_nodes", "1448");
              ("statically_empty_rejections", "2"); ("schema_products", "5"); ("commits", "1");
              ("commit_noops", "1"); ("pending_primitives_count", "1");
              ("pending_primitives_p50", "4"); ("pending_primitives_p95", "4");
              ("pending_primitives_max", "7") ];
          (* one open connection and a queue at depth 1 after a high-water
             mark of 2, then reset *)
          let m = Service.metrics svc in
          Metrics.conn_accepted m;
          Metrics.queue_enter m;
          Metrics.queue_enter m;
          Metrics.queue_leave m;
          Metrics.reset m;
          let lines = stats_lines (Metrics.dump m) in
          Alcotest.(check (list string)) "reset keeps the keys" stats_keys (List.map fst lines);
          check_stats "after reset" lines
            [ ("conns_active", "1"); ("queue_depth", "1"); ("queue_depth_max", "1");
              ("latency_p50_ms", "0.000"); ("latency_p95_ms", "0.000"); ("latency_max_ms", "0.000") ];
          Metrics.queue_leave m;
          Metrics.conn_closed m))

(* A fixed script piped into a fresh [xut serve] on one domain, so the
   process-wide counters start at zero: every reply line must equal the
   checked-in [stats.golden], a document body as its digest and length,
   and the latencies by name only. *)
let test_golden_stats_fresh_process () =
  let xut = Filename.concat (Filename.dirname Sys.executable_name) "../bin/xut.exe" in
  let doc = Filename.temp_file "xut_golden" ".xml" and script = Filename.temp_file "xut_golden" ".in"
  and out = Filename.temp_file "xut_golden" ".out" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ doc; script; out ])
    (fun () ->
      Xut_xmark.Generator.to_file ~factor:0.002 doc;
      let transform u = {|transform copy $a := doc("d") modify do |} ^ u ^ {| return $a|} in
      let q1 = transform "delete $a/site/open_auctions/open_auction[bidder/increase > 5]/annotation" in
      Out_channel.with_open_bin script (fun oc ->
          List.iter (Printf.fprintf oc "%s\n")
            [ "LOAD d " ^ doc ^ " SCHEMA xmark"; "TRANSFORM d td-bu " ^ q1;
              "COUNT d gentop " ^ transform "delete $a/site/regions//item/mailbox";
              "TRANSFORM-STREAM FILE " ^ doc ^ " " ^ transform "delete $a/site/people/person[address]/name";
              "COMMIT d insert <m>p</m> into $a/site/open_auctions/open_auction";
              "TRANSFORM d td-bu " ^ q1; "STATS" ]);
      let code =
        Sys.command
          (Filename.quote_command xut [ "serve"; "--domains"; "1" ] ~stdin:script ~stdout:out
             ~stderr:Filename.null)
      in
      Alcotest.(check int) "exit" 0 code;
      let latencies = [ "latency_p50_ms"; "latency_p95_ms"; "latency_max_ms" ] in
      let normalize l =
        if String.length l > 200 then
          Printf.sprintf "md5=%s bytes=%d" (Digest.to_hex (Digest.string l)) (String.length l)
        else
          match String.index_opt l ' ' with
          | Some i when List.mem (String.sub l 0 i) latencies -> String.sub l 0 i
          | _ -> l
      in
      let lines file = String.split_on_char '\n' (In_channel.with_open_bin file In_channel.input_all) in
      Alcotest.(check (list string)) "replies" (lines "stats.golden") (List.map normalize (lines out)))

let test_metrics_histogram () =
  let m = Metrics.create () in
  (* 90 fast requests, 10 slow ones *)
  for _ = 1 to 90 do
    Metrics.record_latency m 0.001
  done;
  for _ = 1 to 10 do
    Metrics.record_latency m 0.1
  done;
  Alcotest.(check int) "count" 100 (Fixtures.stat m "latency_count");
  let line key = List.assoc key (stats_lines (Metrics.dump m)) in
  let ms key = float_of_string (line key) in
  let p50 = ms "latency_p50_ms" in
  Alcotest.(check bool) "p50 in the fast bucket" true (p50 > 0.5 && p50 < 2.);
  let p95 = ms "latency_p95_ms" in
  Alcotest.(check bool) "p95 in the slow bucket" true (p95 > 50. && p95 < 200.);
  Alcotest.(check string) "max is exact" "100.000" (line "latency_max_ms");
  Metrics.queue_enter m;
  Metrics.queue_enter m;
  Metrics.queue_leave m;
  Alcotest.(check int) "queue depth" 1 (Fixtures.stat m "queue_depth");
  Alcotest.(check int) "high-water mark" 2 (Metrics.max_queue_depth m)

(* A view reply renders every item into one pooled buffer; the bytes
   must be those of rendering each item on its own and joining the
   strings with newlines. *)
let joined_render v =
  String.concat "\n"
    (List.map
       (function
         | Xut_xquery.Xq_value.N n -> Xut_xml.Serialize.to_string n
         | Xut_xquery.Xq_value.D e -> Xut_xml.Serialize.element_to_string e
         | other -> Xut_xquery.Xq_value.string_of_item other)
       v)

let gen_item =
  let open QCheck2.Gen in
  let atomic = oneofa [| "x"; "a<b&c"; ""; "12" |] in
  frequency
    [ (3, map (fun t -> Xut_xquery.Xq_value.N t) Test_properties.gen_tree);
      (2, map (fun e -> Xut_xquery.Xq_value.D e) Test_properties.gen_root);
      (1, map (fun s -> Xut_xquery.Xq_value.S s) atomic);
      (1, map2 (fun k v -> Xut_xquery.Xq_value.A (k, v)) (oneofa [| "id"; "k" |]) atomic);
      (1, map (fun f -> Xut_xquery.Xq_value.F f) (oneofa [| 0.; 1.5; 42.; -3. |]));
      (1, map (fun b -> Xut_xquery.Xq_value.B b) bool) ]

let prop_render_value =
  QCheck2.Test.make ~name:"render_value = items rendered one by one, joined by newlines"
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 6) gen_item)
    (fun v -> Service.render_value v = joined_render v)

let test_render_value_edges () =
  Alcotest.(check string) "empty sequence" "" (Service.render_value []);
  let e = Xut_xml.Dom.parse_string "<a x=\"1\"><b>t</b><c/></a>" in
  List.iter
    (fun v -> Alcotest.(check string) "single item" (joined_render v) (Service.render_value v))
    [ [ Xut_xquery.Xq_value.D e ]; [ Xut_xquery.Xq_value.N (Xut_xml.Node.Element e) ];
      [ Xut_xquery.Xq_value.N (Xut_xml.Node.text "a&b") ]; [ Xut_xquery.Xq_value.S "" ];
      [ Xut_xquery.Xq_value.F 2. ] ];
  Alcotest.(check string) "empty strings keep their separators" "\n\n"
    (Service.render_value Xut_xquery.Xq_value.[ S ""; S ""; S "" ])

(* A write query may only return $a, in the bare form as in the full
   one: APPLY and COMMIT reject [return $zz] as a parse error and leave
   the document and its generation alone. *)
let test_write_query_returns_a () =
  with_doc_file (fun path ->
      with_service (fun svc ->
          let generation, elements =
            match Service.call svc (Service.Load { name = "d"; file = path; schema = None }) with
            | Service.Ok (Service.Doc_loaded { generation; elements; _ }) -> (generation, elements)
            | _ -> Alcotest.fail "LOAD"
          in
          List.iter
            (fun query ->
              List.iter
                (fun (verb, req) ->
                  match Service.call svc req with
                  | Service.Error { code = Service.Query_parse_error; _ } -> ()
                  | _ -> Alcotest.fail (verb ^ " must reject: " ^ query))
                [ ("APPLY", Service.Apply { doc = "d"; query });
                  ("COMMIT", Service.Commit { doc = "d"; query }) ])
            [ "delete $a//price return $zz"; "(delete $a//price, delete $a//age) return $zz" ];
          match Service.call svc (Service.Commit { doc = "d"; query = "delete $a//nothing" }) with
          | Service.Ok (Service.Committed { primitives = 0; generation = g; elements = n; _ }) ->
            Alcotest.(check int) "generation unchanged" generation g;
            Alcotest.(check int) "elements unchanged" elements n
          | _ -> Alcotest.fail "no-op COMMIT"))

(* A dry run that reports no conflicts is one a commit accepts: APPLY
   and COMMIT of a list deleting the document element both answer
   eval-error with the same message, and the document keeps its
   generation. *)
let test_root_delete_rejected_by_apply () =
  with_doc_file (fun path ->
      with_service (fun svc ->
          let generation, elements =
            match Service.call svc (Service.Load { name = "d"; file = path; schema = None }) with
            | Service.Ok (Service.Doc_loaded { generation; elements; _ }) -> (generation, elements)
            | _ -> Alcotest.fail "LOAD"
          in
          List.iter
            (fun query ->
              List.iter
                (fun (verb, req) ->
                  match Service.call svc req with
                  | Service.Error { code = Service.Eval_error; message } ->
                    Alcotest.(check string) (verb ^ " " ^ query)
                      "update deletes the document element" message
                  | _ -> Alcotest.fail (verb ^ " must answer eval-error: " ^ query))
                [ ("APPLY", Service.Apply { doc = "d"; query });
                  ("COMMIT", Service.Commit { doc = "d"; query }) ])
            [ "delete $a/site"; "delete $a" ];
          match Service.call svc (Service.Commit { doc = "d"; query = "delete $a//nothing" }) with
          | Service.Ok (Service.Committed { primitives = 0; generation = g; elements = n; _ }) ->
            Alcotest.(check int) "generation unchanged" generation g;
            Alcotest.(check int) "elements unchanged" elements n
          | _ -> Alcotest.fail "no-op COMMIT"))

(* ---- security views (Example 1.1) served as DEFVIEW chains ---- *)

(* An access-control policy is a chain of stored views over the parts
   catalog, one view per rule: each rule is an update over the view
   before it, so later rules see the earlier rules' output. *)
let with_parts_service f =
  let path = Filename.temp_file "xut_service_test" ".xml" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc Fixtures.parts_doc_text);
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      with_service (fun svc ->
          (match Service.call svc (Service.Load { name = "parts"; file = path; schema = None }) with
          | Service.Ok _ -> ()
          | Service.Error { message; _ } -> Alcotest.fail message);
          f svc))

(* [(name, definition)] of one view per [(name, rule)]: the first over
   the stored "parts", each later one over the view before it. *)
let policy_defs rules =
  let def base rule =
    Printf.sprintf {|transform copy $a := doc("%s") modify do %s return $a|} base rule
  in
  List.fold_left
    (fun (base, defs) (name, rule) -> (name, (name, def base rule) :: defs))
    ("parts", []) rules
  |> snd |> List.rev

(* DEFVIEW the policy's chain; its view is the last one. *)
let define_policy svc rules =
  List.fold_left
    (fun _ (name, def) ->
      ignore (defview svc name def);
      name)
    "parts" (policy_defs rules)

let group_b_policy =
  [ ("no_a_prices", "delete $a//supplier[country = 'A']/price");
    ("c_redacted",
     "replace $a//supplier[country = 'C'] with <supplier><sname>hidden</sname></supplier>");
    ("components", "rename $a//part/part as component") ]

(* The naive answer of [query] over the policy's materialized chain. *)
let naive_policy_value rules query =
  naive_view_value ~base:(Fixtures.parts_doc ()) (List.map snd (policy_defs rules)) query

let count_in tree path =
  List.length (Xut_xpath.Eval.select_doc tree (Xut_xpath.Parser.parse path))

let test_policy_materialization () =
  with_parts_service (fun svc ->
      let view = define_policy svc group_b_policy in
      let v = Xut_xml.Dom.parse_string (transform_view svc view "for $x in db return $x") in
      (* country-A prices hidden, others kept *)
      Alcotest.(check int) "A prices gone" 0 (count_in v "//supplier[country = 'A']/price");
      Alcotest.(check bool) "other prices kept" true (count_in v "//price" > 0);
      (* country-C suppliers redacted *)
      Alcotest.(check int) "C suppliers redacted" 0 (count_in v "//supplier[country = 'C']");
      Alcotest.(check int) "placeholder present" 1 (count_in v "//supplier[sname = 'hidden']");
      (* nested parts relabeled *)
      Alcotest.(check int) "components" 3 (count_in v "//component");
      (* the stored document is untouched *)
      match
        Service.call svc
          (Service.Transform
             { target = Service.Doc "parts"; engine = Core.Engine.Td_bu;
               query =
                 {|transform copy $a := doc("parts") modify do delete $a//nothing return $a|} })
      with
      | Service.Ok (Service.Tree t) ->
        Alcotest.(check string) "store intact"
          (Xut_xml.Serialize.element_to_string (Fixtures.parts_doc ())) t
      | _ -> Alcotest.fail "TRANSFORM parts")

let test_policy_rule_order () =
  with_parts_service (fun svc ->
      let view =
        define_policy svc
          [ ("vendors", "rename $a//supplier as vendor"); ("no_prices", "delete $a//vendor/price") ]
      in
      let v = Xut_xml.Dom.parse_string (transform_view svc view "for $x in db return $x") in
      Alcotest.(check int) "renamed first" 6 (count_in v "//vendor");
      Alcotest.(check int) "then their prices deleted" 0 (count_in v "//vendor/price"))

let test_policy_answer () =
  with_parts_service (fun svc ->
      let view = define_policy svc group_b_policy in
      let q = "for $x in db/part/supplier return $x" in
      Alcotest.(check string) "answer = query over view"
        (view_render (naive_policy_value group_b_policy q))
        (transform_view svc view q))

let test_policy_single_rule_composes () =
  with_parts_service (fun svc ->
      let rules = [ ("no_a", "delete $a//supplier[country = 'A']") ] in
      let view = define_policy svc rules in
      let q = {|for $x in db/part[pname = "keyboard"]/supplier return $x/sname|} in
      let expected = naive_policy_value rules q in
      Alcotest.(check int) "only non-A suppliers" 1 (List.length expected);
      Alcotest.(check string) "composed = naive" (view_render expected) (transform_view svc view q);
      let m = Service.metrics svc in
      Alcotest.(check int) "served by composition" 1 (Metrics.view_hits m);
      Alcotest.(check int) "no fallback" 0 (Metrics.compose_fallbacks m))

(* Does the view still expose any price?  A COUNT over the view. *)
let test_policy_permitted () =
  with_parts_service (fun svc ->
      let exposed view =
        match
          Service.call svc
            (Service.Count
               { target = Service.View view; engine = Core.Engine.Td_bu;
                 query = "for $x in db//price return $x" })
        with
        | Service.Ok (Service.Element_count n) -> n > 0
        | _ -> Alcotest.fail "COUNT VIEW"
      in
      Alcotest.(check bool) "non-A prices visible" true
        (exposed (define_policy svc group_b_policy));
      Alcotest.(check bool) "no price visible" false
        (exposed (define_policy svc [ ("strict", "delete $a//price") ])))

(* Registered as the "security-view" suite. *)
let security_view_suite =
  [ Alcotest.test_case "view materialization" `Quick test_policy_materialization;
    Alcotest.test_case "rules apply in order" `Quick test_policy_rule_order;
    Alcotest.test_case "answer = query over view" `Quick test_policy_answer;
    Alcotest.test_case "single rule composes" `Quick test_policy_single_rule_composes;
    Alcotest.test_case "permitted audit" `Quick test_policy_permitted ]

(* Doc TRANSFORM replies through the lending path make no copy of the
   reply: twenty replies of U1 over XMark f=0.01 allocate, on the worker
   domain that serializes them, fewer words directly in the major heap
   (major words less promoted ones, between the first delivery and the
   last) than one reply holds.  A copy of each reply, such as
   [Buffer.contents] of the lent buffer, is twenty of them. *)
let test_lent_reply_allocates_no_copy () =
  let path = Filename.temp_file "xut_service_lent" ".xml" in
  Xut_xmark.Generator.to_file ~factor:0.01 path;
  let svc = Service.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () ->
      Service.shutdown svc;
      Sys.remove path)
    (fun () ->
      (match Service.call svc (Service.Load { name = "x"; file = path; schema = None }) with
      | Service.Ok _ -> ()
      | _ -> Alcotest.fail "LOAD");
      let req =
        Service.Transform
          {
            target = Service.Doc "x";
            engine = Core.Engine.Td_bu;
            query =
              {|transform copy $a := doc("x") modify do delete $a/site/people/person return $a|};
          }
      in
      let mu = Mutex.create () and delivered = Condition.create () in
      (* the reply's length, and the worker's direct major words, read
         as it delivers the reply *)
      let lent () =
        let got = ref None in
        Service.lend svc (Service.Plain req) (fun d ->
            let sample =
              match d with
              | Service.Tree_bytes b ->
                let _, promoted, major = Gc.counters () in
                Some (Buffer.length b, major -. promoted)
              | _ -> Some (-1, 0.)
            in
            Mutex.protect mu (fun () ->
                got := sample;
                Condition.signal delivered));
        Mutex.protect mu (fun () ->
            while Option.is_none !got do
              Condition.wait delivered mu
            done;
            Option.get !got)
      in
      let bytes, first = lent () in
      if bytes < 0 then Alcotest.fail "the TRANSFORM reply was not lent";
      let last = ref first in
      for _ = 1 to 20 do
        last := snd (lent ())
      done;
      let reply_words = float_of_int (bytes / (Sys.word_size / 8)) in
      let direct = !last -. first in
      if direct >= reply_words then
        Alcotest.failf "20 lent replies allocated %.0f major words directly (one reply: %.0f)"
          direct reply_words)

(* A COMMIT text is compiled once: the plan cache keeps its parsed
   updates and their NFAs, so a repeated marker pair (the write pair of
   perfbench's mixed_rw workload) steps on the DFAs the first pair warmed
   and computes no step. *)
let test_repeated_commit_compiles_nothing () =
  let path = Filename.temp_file "xut_service_commit" ".xml" in
  Xut_xmark.Generator.to_file ~seed:1L ~factor:0.002 path;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      with_service (fun svc ->
          (match Service.call svc (Service.Load { name = "d"; file = path; schema = None }) with
          | Service.Ok (Service.Doc_loaded _) -> ()
          | _ -> Alcotest.fail "LOAD");
          let commit u =
            match Service.call svc (Service.Commit { doc = "d"; query = u }) with
            | Service.Ok (Service.Committed { primitives; _ }) when primitives > 0 -> ()
            | _ -> Alcotest.fail ("COMMIT " ^ u)
          in
          let pair () =
            let misses = Fixtures.counter "nfa_memo_misses" in
            commit "insert <xut_bench_promo>p</xut_bench_promo> into $a/site/open_auctions/open_auction";
            commit "delete $a//xut_bench_promo";
            Fixtures.counter "nfa_memo_misses" - misses
          in
          Alcotest.(check bool) "the first pair computes steps" true (pair () > 0);
          Alcotest.(check int) "a repeated pair computes none" 0 (pair ());
          Alcotest.(check int) "and a third" 0 (pair ())))

let suite =
  [
    Alcotest.test_case "plan cache: miss then hit" `Quick test_cache_hit_miss;
    Alcotest.test_case "plan cache: LRU eviction" `Quick test_cache_lru_eviction;
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
    Alcotest.test_case "service: reply image across commits and reload" `Quick
      test_reply_image_lifecycle;
    Alcotest.test_case "service: render_response compatibility" `Quick
      test_render_response_compat;
    Alcotest.test_case "service: streamed transform" `Quick test_transform_stream;
    Alcotest.test_case "service: streamed ingest = materialized" `Quick
      test_transform_ingest;
    Alcotest.test_case "pool: parallel fan-out" `Quick test_pool_parallel_sum;
    Alcotest.test_case "pool: failure isolation" `Quick test_pool_failure_isolation;
    Alcotest.test_case "service: submit after shutdown" `Quick test_submit_after_shutdown;
    Alcotest.test_case "metrics: histogram and queue depth" `Quick test_metrics_histogram;
    Alcotest.test_case "views: define, query, list, undefine" `Quick test_view_define_and_query;
    Alcotest.test_case "views: definition-time rejection" `Quick test_view_definition_errors;
    Alcotest.test_case "views: materializing fallback" `Quick test_view_fallback;
    Alcotest.test_case "views: dependency-graph invalidation" `Quick
      test_view_invalidation_graph;
    Alcotest.test_case "metrics: golden STATS and reset" `Quick test_golden_stats;
    Alcotest.test_case "metrics: golden STATS from a fresh process" `Quick
      test_golden_stats_fresh_process;
    Alcotest.test_case "service: read matrix (source x reply x engine)" `Quick test_read_matrix;
    Alcotest.test_case "service: stream consumer fails mid-stream" `Quick
      test_stream_consumer_failure;
    QCheck_alcotest.to_alcotest prop_render_value;
    Alcotest.test_case "service: render_value edge sequences" `Quick test_render_value_edges;
    Alcotest.test_case "service: write query must return $a" `Quick test_write_query_returns_a;
    Alcotest.test_case "service: APPLY rejects a root delete as COMMIT does" `Quick
      test_root_delete_rejected_by_apply;
    Alcotest.test_case "service: a second document element is a parse error" `Quick
      test_second_document_element;
    Alcotest.test_case "service: lent TRANSFORM replies make no copy" `Quick
      test_lent_reply_allocates_no_copy;
    Alcotest.test_case "service: a repeated COMMIT compiles nothing" `Quick
      test_repeated_commit_compiles_nothing;
    Alcotest.test_case "service: replies after two COMMITs are mostly blits" `Quick
      test_reply_image_blit_share;
  ]
