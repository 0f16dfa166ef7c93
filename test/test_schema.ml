(* Schema-aware static pruning: grammar validation, the NFA x schema
   product (statically-empty verdict, skip-sets), pruned == unpruned
   equivalence over random XMark documents and queries, and the
   statically-empty admission check end to end — in-process and over
   the socket transport. *)

open Xut_service
module Schema = Xut_schema.Schema
module Nfa = Xut_automata.Selecting_nfa
module Annotator = Xut_automata.Annotator

let () = Xut_xmark.Site_schema.register ()

let site () = Lazy.force Xut_xmark.Site_schema.schema

let nfa_of path_s = Nfa.of_path (Xut_xpath.Parser.parse path_s)

let delete_q ?(doc = "d") path =
  Printf.sprintf {|transform copy $a := doc("%s") modify do delete $a%s return $a|} doc path

let u7_path =
  "/site/open_auctions/open_auction[bidder/increase > 5]/annotation[happiness < 20]\
   /description//text"

(* Fig. 11, U1-U10. *)
let fig11 =
  [ "/site/people/person";
    "/site/people/person[@id = \"person10\"]";
    "/site/people/person[profile/age > 20]";
    "/site/regions//item";
    "/site//description";
    "/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist\
     /listitem/text/emph/keyword";
    u7_path;
    "/site/open_auctions/open_auction[initial > 10 and reserve > 50]/bidder";
    "/site/regions//item[location = \"United States\"]";
    "/site//open_auctions/open_auction[not(@id = \"open_auction2\")]/bidder[increase > 10]" ]

(* A path long enough to overflow the 62-state bitset representation,
   staying inside the schema (description -> parlist <-> listitem). *)
let long_path =
  "/site/open_auctions/open_auction/annotation/description"
  ^ String.concat "" (List.init 30 (fun _ -> "/parlist/listitem"))
  ^ "//text"

(* ---- validation ---- *)

let test_validate_generated () =
  let root = Xut_xmark.Generator.generate ~factor:0.002 () in
  match Schema.validate (site ()) root with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("generated XMark must conform: " ^ msg)

let test_validate_reject () =
  let bad = Xut_xml.Node.element "site" [ Xut_xml.Node.elem "bogus" [] ] in
  (match Schema.validate (site ()) bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "undeclared child must be rejected");
  let wrong_root = Xut_xml.Node.element "person" [] in
  match Schema.validate (site ()) wrong_root with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong document element must be rejected"

(* Re-validation after a commit checks fresh material and the child
   edges of the rebuilt spine only: a shared subtree is taken as valid,
   even one after a deleted sibling.  Here the shared [b] breaks the
   schema, which a full validation reports and [validate_commit] must
   not look at. *)
let test_validate_commit_skips_shared () =
  let schema =
    match
      Schema.define ~name:"rab" ~root:"r"
        [ ("r", Schema.Seq [ Schema.Elem "a"; Schema.Elem "b" ]); ("a", Schema.Empty);
          ("b", Schema.Empty); ("c", Schema.Empty) ]
    with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  let root = Xut_xml.Dom.parse_string "<r><a/><b><c/></b></r>" in
  match Xut_update.Apply.run (Core.Transform_parser.parse_updates "delete $a/r/a") root with
  | Ok (_, Some (root', diff)) ->
    Alcotest.(check bool) "validate: the shared b is nonconforming" true
      (Result.is_error (Schema.validate schema root'));
    Alcotest.(check bool) "validate_commit: shared subtrees are not re-checked" true
      (Schema.validate_commit schema ~spine:diff.Xut_update.Apply.spine root' = Ok ())
  | _ -> Alcotest.fail "delete did not materialize"

(* ---- the product ---- *)

let test_statically_empty_verdict () =
  let empty = Schema.product (site ()) (nfa_of "/site/people//bidder") in
  Alcotest.(check bool) "people//bidder is statically empty" true
    (Schema.statically_empty empty);
  let nonempty = Schema.product (site ()) (nfa_of "/site//bidder") in
  Alcotest.(check bool) "//bidder is not statically empty" false
    (Schema.statically_empty nonempty);
  let root = Schema.product (site ()) (nfa_of "/site") in
  Alcotest.(check bool) "selecting the document element is never statically empty" false
    (Schema.statically_empty root)

let test_skip_set_contents () =
  let p = Schema.product (site ()) (nfa_of u7_path) in
  Alcotest.(check bool) "product not capped" false (Schema.capped p);
  Alcotest.(check bool) "U7 has a non-trivial skip-set" true (Schema.skip_count p > 0);
  let skippable name = Schema.skippable p (Xut_xml.Sym.intern (Xut_xml.Counter.local ()) name) in
  List.iter
    (fun arm ->
      Alcotest.(check bool) (arm ^ " is skippable under U7") true (skippable arm))
    [ "regions"; "people"; "categories"; "catgraph"; "closed_auctions" ];
  Alcotest.(check bool) "open_auctions is not skippable under U7" false
    (skippable "open_auctions");
  Alcotest.(check bool) "site itself is never skippable here" false (skippable "site");
  (* the whole skip-set's size for each of U1-U10: the exploration
     neither misses a configuration nor runs into [config_cap] *)
  List.iteri
    (fun i (path, skips) ->
      let p = Schema.product (site ()) (nfa_of path) in
      let label = Printf.sprintf "U%d" (i + 1) in
      Alcotest.(check int) (label ^ " skip count") skips (Schema.skip_count p);
      Alcotest.(check bool) (label ^ " not capped") false (Schema.capped p);
      Alcotest.(check bool) (label ^ " not statically empty") false (Schema.statically_empty p))
    (List.combine fig11 [ 13; 13; 16; 23; 55; 15; 21; 17; 22; 67 ])

let test_long_path_exceeds_bitset () =
  let nfa = nfa_of long_path in
  Alcotest.(check bool) "the long path needs > 62 NFA states" true (Nfa.size nfa > 62)

(* ---- pruned == unpruned ---- *)

(* The soundness claim, checked both on the TD-BU oracle path (skip
   threaded through the annotator AND the top-down walk) and on the
   GENTOP direct path: with the skip oracle the output tree serializes
   identically.  The counting walk takes no skip-set, as the service
   runs it: over the oracle of an annotation built under the skip-set
   and over the direct one, it gives the same count as over the
   unpruned annotation and as the materialized result. *)
let equivalent path_s root =
  let q = Core.Transform_parser.parse (delete_q path_s) in
  let upd = q.Core.Transform_ast.update in
  let nfa = nfa_of path_s in
  let product = Schema.product (site ()) nfa in
  let skip e = Schema.skippable product (Xut_xml.Node.sym e) in
  let s = Xut_xml.Serialize.element_to_string in
  let t0 = Annotator.annotate nfa root in
  let out0 = Core.Top_down.run ~checkp:(Annotator.checkp t0 nfa) nfa upd root in
  let t1 = Annotator.annotate ~skip nfa root in
  let out1 = Core.Top_down.run ~checkp:(Annotator.checkp t1 nfa) ~skip nfa upd root in
  let g0 = Core.Top_down.run ~checkp:(Core.Top_down.direct_checkp nfa) nfa upd root in
  let g1 = Core.Top_down.run ~checkp:(Core.Top_down.direct_checkp nfa) ~skip nfa upd root in
  let n0 = Core.Top_down.count ~checkp:(Annotator.checkp t0 nfa) nfa upd root in
  let n1 = Core.Top_down.count ~checkp:(Annotator.checkp t1 nfa) nfa upd root in
  let ng = Core.Top_down.count nfa upd root in
  let out_count = Xut_xml.Node.element_count (Xut_xml.Node.Element out0) in
  s out0 = s out1 && s g0 = s g1 && s out0 = s g0
  && out_count = Xut_xml.Node.element_count (Xut_xml.Node.Element out1)
  && n0 = out_count && n1 = out_count && ng = out_count

let equivalence_paths =
  [ u7_path;
    "/site//increase";
    "/site/people/person/name";
    "/site//date";
    "/site/regions//item/mailbox";
    "/site/closed_auctions/closed_auction/annotation";
    "/site/people//bidder" (* statically empty: everything skips *);
    "/site//keyword";
    long_path ]

let test_pruned_equals_unpruned () =
  let root = Xut_xmark.Generator.generate ~factor:0.002 () in
  List.iter
    (fun p ->
      Alcotest.(check bool) ("pruned == unpruned for " ^ p) true (equivalent p root))
    equivalence_paths

let prop_pruned_equals_unpruned =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"pruned == unpruned (random doc x query)" ~count:30
       QCheck.(
         make
           Gen.(
             pair (int_bound (List.length equivalence_paths - 1)) (int_bound 10_000)))
       (fun (pi, seed) ->
         let root =
           Xut_xmark.Generator.generate ~seed:(Int64.of_int (seed + 1)) ~factor:0.0008 ()
         in
         equivalent (List.nth equivalence_paths pi) root))

(* ---- service level ---- *)

let with_xmark_file ?(factor = 0.001) f =
  let path = Filename.temp_file "xut_schema_test" ".xml" in
  Xut_xmark.Generator.to_file ~factor path;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let with_service f =
  let svc = Service.create ~domains:1 () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) (fun () -> f svc)

(* returns the schema name echoed in Doc_loaded *)
let load svc ?schema name file =
  match Service.call svc (Service.Load { name; file; schema }) with
  | Service.Ok (Service.Doc_loaded { schema; _ }) -> schema
  | Service.Ok _ -> Alcotest.fail "LOAD: wrong payload"
  | Service.Error { message; _ } -> Alcotest.fail ("LOAD: " ^ message)

let test_load_with_schema () =
  with_xmark_file (fun path ->
      with_service (fun svc ->
          (match load svc ~schema:"xmark" "d" path with
          | Some "xmark" -> ()
          | _ -> Alcotest.fail "Doc_loaded must echo the schema binding");
          (* unknown schema name: rejected before anything is stored *)
          (match Service.call svc
                   (Service.Load { name = "e"; file = path; schema = Some "nope" })
           with
          | Service.Error { code = Service.Bad_request; _ } -> ()
          | _ -> Alcotest.fail "unknown schema must be Bad_request");
          (* nonconforming document: rejected, store untouched *)
          let bad = Filename.temp_file "xut_schema_bad" ".xml" in
          Out_channel.with_open_bin bad (fun oc ->
              Out_channel.output_string oc "<site><bogus/></site>");
          Fun.protect
            ~finally:(fun () -> Sys.remove bad)
            (fun () ->
              match
                Service.call svc
                  (Service.Load { name = "b"; file = bad; schema = Some "xmark" })
              with
              | Service.Error { code = Service.Bad_request; _ } ->
                Alcotest.(check bool) "nothing stored" true
                  (Doc_store.find (Service.store svc) "b" = None)
              | _ -> Alcotest.fail "nonconforming LOAD must be Bad_request")))

let test_statically_empty_rejection () =
  with_xmark_file (fun path ->
      with_service (fun svc ->
          ignore (load svc ~schema:"xmark" "d" path);
          let q = delete_q "/site/people//bidder" in
          let target = Service.Doc "d" in
          (match
             Service.call svc
               (Service.Count { target; engine = Core.Engine.Td_bu; query = q })
           with
          | Service.Error { code = Service.Statically_empty; _ } -> ()
          | _ -> Alcotest.fail "COUNT of a statically-empty query must be rejected");
          (match
             Service.call svc
               (Service.Transform { target; engine = Core.Engine.Gentop; query = q })
           with
          | Service.Error { code = Service.Statically_empty; _ } -> ()
          | _ -> Alcotest.fail "TRANSFORM of a statically-empty query must be rejected");
          let m = Service.metrics svc in
          Alcotest.(check bool) "rejections counted" true
            (Fixtures.stat m "statically_empty_rejections" >= 2);
          (* the same query against a schemaless binding runs fine *)
          ignore (load svc "plain" path);
          match
            Service.call svc
              (Service.Count
                 { target = Service.Doc "plain"; engine = Core.Engine.Td_bu;
                   query = delete_q ~doc:"plain" "/site/people//bidder" })
          with
          | Service.Ok (Service.Element_count _) -> ()
          | _ -> Alcotest.fail "no schema binding, no admission check"))

let test_skip_metrics_and_answers () =
  with_xmark_file (fun path ->
      with_service (fun svc ->
          ignore (load svc ~schema:"xmark" "d" path);
          ignore (load svc "plain" path);
          let q doc = delete_q ~doc u7_path in
          let count doc engine =
            match
              Service.call svc
                (Service.Count { target = Service.Doc doc; engine; query = q doc })
            with
            | Service.Ok (Service.Element_count n) -> n
            | _ -> Alcotest.fail "COUNT"
          in
          let n_schema = count "d" Core.Engine.Td_bu in
          let n_plain = count "plain" Core.Engine.Td_bu in
          Alcotest.(check int) "pruned COUNT agrees with unpruned" n_plain n_schema;
          Alcotest.(check int) "gentop agrees too" n_plain (count "d" Core.Engine.Gentop);
          let m = Service.metrics svc in
          Alcotest.(check bool) "subtrees were skipped" true
            (Metrics.skipped_subtrees m > 0);
          Alcotest.(check bool) "skipped nodes counted via size table" true
            (Metrics.skipped_nodes m > Metrics.skipped_subtrees m);
          Alcotest.(check bool) "a product was built" true (Fixtures.stat m "schema_products" > 0)))

(* Result streams under pruning: each streamed engine over the
   schema-bound doc prunes something (the walks by label summary or
   empty state set, twoPassSAX by the skip-set) and sends the same bytes
   as a TRANSFORM of the schemaless binding of the same file. *)
let test_result_streams_pruned () =
  with_xmark_file (fun path ->
      with_service (fun svc ->
          ignore (load svc ~schema:"xmark" "d" path);
          ignore (load svc "plain" path);
          let m = Service.metrics svc
          and elements =
            match Doc_store.find (Service.store svc) "d" with
            | Some root -> Xut_xml.Node.elements root
            | None -> Alcotest.fail "no binding d"
          in
          List.iteri
            (fun i p ->
              List.iter
                (fun engine ->
                  let label = Printf.sprintf "U%d %s" (i + 1) (Core.Engine.name engine) in
                  let expected =
                    match
                      Service.call svc
                        (Service.Transform
                           { target = Service.Doc "plain"; engine; query = delete_q ~doc:"plain" p })
                    with
                    | Service.Ok (Service.Tree s) -> s
                    | _ -> Alcotest.fail (label ^ ": TRANSFORM")
                  in
                  let skipped = Metrics.skipped_subtrees m
                  and shared = Fixtures.counter "nodes_shared"
                  and visited = Fixtures.counter "nodes_visited" in
                  let buf = Buffer.create (String.length expected) in
                  (match
                     Service.transform_stream svc ~doc:"d" ~engine ~query:(delete_q p)
                       ~chunk_size:512 (Buffer.add_string buf)
                   with
                  | Service.Ok (Service.Stream_done _) -> ()
                  | Service.Ok _ -> Alcotest.fail (label ^ ": expected Stream_done")
                  | Service.Error { message; _ } -> Alcotest.fail (label ^ ": " ^ message));
                  Alcotest.(check string) (label ^ ": stream = schemaless TRANSFORM") expected
                    (Buffer.contents buf);
                  Alcotest.(check bool) (label ^ ": the stream pruned") true
                    (match engine with
                    | Core.Engine.Two_pass_sax -> Metrics.skipped_subtrees m > skipped
                    | _ ->
                      Fixtures.counter "nodes_shared" > shared
                      || Fixtures.counter "nodes_visited" - visited < elements))
                Core.Engine.[ Gentop; Td_bu; Two_pass_sax ])
            fig11))

(* A stored-document TRANSFORM-STREAM is the GENTOP result stream.  Over
   the schema-bound and the schemaless binding of one file, U1-U10 at
   every chunk size, and four failing requests, answer with the same
   chunks and the same reply, and move the visit and skip counters by
   the same amounts: a SAX replay of the stored tree would visit every
   element. *)
let test_doc_stream_is_gentop () =
  with_xmark_file ~factor:0.01 (fun path ->
      with_service (fun svc ->
          ignore (load svc ~schema:"xmark" "d" path);
          ignore (load svc "plain" path);
          let m = Service.metrics svc in
          let moved () =
            (Fixtures.counter "nodes_visited", Metrics.skipped_subtrees m, Metrics.skipped_nodes m)
          in
          (* a run's reply, its chunks (their bytes, and their lengths as
             32-bit words) and the counters it moved *)
          let outcome run =
            let bytes = Buffer.create 4096 and lengths = Buffer.create 256 in
            let v, s, n = moved () in
            let reply =
              run (fun chunk ->
                  Buffer.add_string bytes chunk;
                  Buffer.add_int32_le lengths (Int32.of_int (String.length chunk)))
            in
            let v', s', n' = moved () in
            (reply, Buffer.contents bytes, Buffer.contents lengths, (v' - v, s' - s, n' - n))
          in
          let agree label doc query chunk_size =
            let ingest, ibytes, ilengths, imoved =
              outcome
                (Service.transform_ingest svc ~source:(Service.From_doc doc) ~query ~chunk_size)
            in
            let gentop, gbytes, glengths, gmoved =
              outcome
                (Service.transform_stream svc ~doc ~engine:Core.Engine.Gentop ~query ~chunk_size)
            in
            Alcotest.(check (triple int int int))
              (label ^ ": same visits and skips") gmoved imoved;
            Alcotest.(check bool) (label ^ ": same reply") true (ingest = gentop);
            Alcotest.(check bool) (label ^ ": same chunks") true
              (ibytes = gbytes && ilengths = glengths);
            ingest
          in
          List.iter
            (fun doc ->
              List.iteri
                (fun i p ->
                  List.iter
                    (fun chunk_size ->
                      let label = Printf.sprintf "%s U%d chunk %d" doc (i + 1) chunk_size in
                      match agree label doc (delete_q ~doc p) chunk_size with
                      | Service.Ok (Service.Stream_done _) -> ()
                      | _ -> Alcotest.fail (label ^ ": expected Stream_done"))
                    [ 1; 61; 65536 ])
                fig11)
            [ "d"; "plain" ];
          List.iter
            (fun (label, doc, query, code) ->
              match agree label doc query 61 with
              | Service.Error { code = c; _ } when c = code -> ()
              | _ -> Alcotest.fail (label ^ ": expected " ^ Service.err_code_name code))
            [ ("unknown document", "nope", delete_q "/site/people", Service.Unknown_document);
              ("query parse error", "d", "nonsense", Service.Query_parse_error);
              ("statically empty", "d", delete_q "/site/people//bidder", Service.Statically_empty);
              ("root-deleting update", "plain", delete_q ~doc:"plain" "/site", Service.Eval_error) ]))

let test_view_chain_equivalence () =
  with_xmark_file (fun path ->
      with_service (fun svc ->
          ignore (load svc ~schema:"xmark" "ds" path);
          ignore (load svc "dn" path);
          let defview name base =
            let q =
              Printf.sprintf
                {|transform copy $a := doc("%s") modify do delete $a/site/regions//item/mailbox return $a|}
                base
            in
            match Service.call svc (Service.Defview { name; query = q }) with
            | Service.Ok _ -> ()
            | Service.Error { message; _ } -> Alcotest.fail ("DEFVIEW: " ^ message)
          in
          let defview2 name base =
            let q =
              Printf.sprintf
                {|transform copy $a := doc("%s") modify do delete $a/site/open_auctions/open_auction/bidder return $a|}
                base
            in
            match Service.call svc (Service.Defview { name; query = q }) with
            | Service.Ok _ -> ()
            | Service.Error { message; _ } -> Alcotest.fail ("DEFVIEW: " ^ message)
          in
          (* two parallel 2-deep chains, one rooted at the schema-bound
             document, one at the plain one *)
          defview "vs1" "ds";
          defview2 "vs2" "vs1";
          defview "vn1" "dn";
          defview2 "vn2" "vn1";
          List.iter
            (fun uq ->
              let answer top =
                match
                  Service.call svc
                    (Service.Transform
                       { target = Service.View top; engine = Core.Engine.Td_bu; query = uq })
                with
                | Service.Ok (Service.Tree s) -> s
                | Service.Error { message; _ } -> Alcotest.fail ("VIEW answer: " ^ message)
                | _ -> Alcotest.fail "VIEW answer payload"
              in
              Alcotest.(check string)
                ("composed answers agree with and without schema: " ^ uq)
                (answer "vn2") (answer "vs2"))
            [ "for $x in site/people/person return $x/name";
              "for $x in site/open_auctions/open_auction return $x/seller";
              "for $x in site/regions//item return $x/name" ]))

(* ---- socket end to end ---- *)

let test_socket_statically_empty () =
  with_xmark_file (fun path ->
      with_service (fun svc ->
          let sock = Filename.temp_file "xut_schema_test" ".sock" in
          Sys.remove sock;
          let server =
            Xut_transport.Server.start ~service:svc (Xut_transport.Addr.Unix_socket sock)
          in
          Fun.protect
            ~finally:(fun () -> Xut_transport.Server.stop server)
            (fun () ->
              let cli =
                Xut_transport.Client.connect (Xut_transport.Addr.Unix_socket sock)
              in
              Fun.protect
                ~finally:(fun () -> Xut_transport.Client.close cli)
                (fun () ->
                  (match
                     Xut_transport.Client.call cli
                       (Service.Load { name = "d"; file = path; schema = Some "xmark" })
                   with
                  | Service.Ok (Service.Doc_loaded { schema = Some "xmark"; _ }) -> ()
                  | _ -> Alcotest.fail "LOAD ... SCHEMA over the socket");
                  match
                    Xut_transport.Client.call cli
                      (Service.Count
                         { target = Service.Doc "d"; engine = Core.Engine.Td_bu;
                           query = delete_q "/site/people//bidder" })
                  with
                  | Service.Error { code = Service.Statically_empty; message } ->
                    Alcotest.(check string) "stable error-code name" "statically-empty"
                      (Service.err_code_name Service.Statically_empty);
                    Alcotest.(check bool) "message names the schema" true
                      (String.length message > 0)
                  | _ ->
                    Alcotest.fail
                      "statically-empty rejection must survive the binary round trip"))))

(* The commit lifecycle of a schema binding: conforming commits keep it
   (incremental revalidation), a nonconforming one drops it — and the
   drop is loud: a flagged store event and a metrics counter, not a
   silent None. *)
let test_commit_schema_drop () =
  with_xmark_file (fun path ->
      with_service (fun svc ->
          ignore (load svc ~schema:Xut_xmark.Site_schema.bench_schema_name "d" path);
          let drops = ref [] in
          Doc_store.subscribe (Service.store svc) (fun ev ->
              if ev.Doc_store.schema_dropped then drops := ev.Doc_store.name :: !drops);
          let commit q =
            match Service.call svc (Service.Commit { doc = "d"; query = q }) with
            | Service.Ok (Service.Committed _) -> ()
            | _ -> Alcotest.fail ("COMMIT: " ^ q)
          in
          let bound () =
            match Doc_store.info (Service.store svc) "d" with
            | Some { Doc_store.schema; _ } -> schema
            | None -> Alcotest.fail "document vanished"
          in
          (* the bench schema permits the marker element: conforming *)
          commit "insert <xut_bench_promo>p</xut_bench_promo> into $a";
          Alcotest.(check bool) "conforming commit keeps the binding" true (bound () <> None);
          Alcotest.(check int) "no drop counted" 0
            (Fixtures.stat (Service.metrics svc) "schema_bindings_dropped");
          (* an element no schema rule permits: the commit itself
             succeeds, the binding goes away observably *)
          commit "insert <bogus>1</bogus> into $a/site";
          Alcotest.(check bool) "nonconforming commit drops the binding" true
            (bound () = None);
          Alcotest.(check (list string)) "flagged event fired once" [ "d" ] !drops;
          Alcotest.(check int) "drop counted" 1
            (Fixtures.stat (Service.metrics svc) "schema_bindings_dropped");
          (* once dropped there is nothing left to drop: further commits
             are schemaless and fire no more flags *)
          commit "delete $a//bogus";
          Alcotest.(check (list string)) "no second event" [ "d" ] !drops;
          Alcotest.(check int) "counter unchanged" 1
            (Fixtures.stat (Service.metrics svc) "schema_bindings_dropped")))

(* After each schema-bound COMMIT (revalidated incrementally by
   {!Schema.validate_commit}), every element of the new root stores the
   count a recount gives, the binding's [elements] is the root's, and
   the binding keeps its schema, which a fresh validation confirms. *)
let test_commit_counts_exact () =
  with_xmark_file (fun path ->
      with_service (fun svc ->
          ignore (load svc ~schema:Xut_xmark.Site_schema.bench_schema_name "d" path);
          let schema = Option.get (Schema.find Xut_xmark.Site_schema.bench_schema_name) in
          List.iter
            (fun q ->
              (match Service.call svc (Service.Commit { doc = "d"; query = q }) with
              | Service.Ok (Service.Committed { primitives; _ }) when primitives > 0 -> ()
              | _ -> Alcotest.fail ("COMMIT: " ^ q));
              match Doc_store.snapshot (Service.store svc) "d" with
              | Some (root, info, _) when info.Doc_store.schema <> None ->
                Alcotest.(check bool) ("counts after " ^ q) true (Fixtures.counts_exact root);
                Alcotest.(check int) ("binding elements after " ^ q)
                  (Fixtures.recount root) info.Doc_store.elements;
                Alcotest.(check bool) ("fresh validation after " ^ q) true
                  (Schema.validate schema root = Ok ())
              | _ -> Alcotest.fail ("binding lost its schema after " ^ q))
            [ "insert <xut_bench_promo>p</xut_bench_promo> into $a/site/open_auctions/open_auction";
              "delete $a//xut_bench_promo";
              "insert <xut_bench_promo>p</xut_bench_promo> as first into $a";
              "delete $a/site/regions//item/mailbox" ]))

(* ---- schema-bound COUNT against the reference ---- *)

(* The COMMITs a sequence draws from: the benchmark's marker insert and
   delete, a delete the schema allows, and an insert that breaks the
   schema, after which the binding drops it and pruning turns off. *)
let differential_commits =
  [| "insert <xut_bench_promo>p</xut_bench_promo> into $a/site/open_auctions/open_auction";
     "delete $a//xut_bench_promo";
     "delete $a/site/regions//item/mailbox";
     "insert <bogus/> into $a/site/people" |]

let gen_differential =
  QCheck2.Gen.(
    pair bool
      (list_size (int_range 1 10)
         (oneof
            [ map (fun i -> `Count i) (int_bound (List.length fig11 - 1));
              map (fun i -> `Commit i) (int_bound (Array.length differential_commits - 1)) ])))

let print_differential (schema, ops) =
  String.concat "; "
    ((if schema then "LOAD SCHEMA" else "LOAD")
    :: List.map
         (function
           | `Count i -> Printf.sprintf "COUNT U%d" (i + 1)
           | `Commit i -> "COMMIT " ^ differential_commits.(i))
         ops)

(* Random LOAD (with and without the schema), COMMIT and COUNT
   sequences: every td-bu and gentop COUNT answers the element count of
   the reference engine's result over a model tree the commits are
   replayed on with the reference engine. *)
let prop_schema_count_differential =
  QCheck2.Test.make ~name:"schema-bound COUNT = reference count across commits" ~count:12
    ~print:print_differential gen_differential (fun (schema, ops) ->
      with_xmark_file (fun path ->
          with_service (fun svc ->
              let schema = if schema then Some Xut_xmark.Site_schema.bench_schema_name else None in
              ignore (load svc ?schema "d" path);
              let model = ref (Xut_xml.Dom.parse_file path) in
              let reference update =
                Core.Engine.transform Core.Engine.Reference update !model
              in
              List.for_all
                (function
                  | `Commit i ->
                    let q = differential_commits.(i) in
                    (match Service.call svc (Service.Commit { doc = "d"; query = q }) with
                    | Service.Ok (Service.Committed _) -> ()
                    | _ -> Alcotest.fail ("COMMIT: " ^ q));
                    model := reference (Core.Transform_parser.parse_update q);
                    true
                  | `Count i ->
                    let query = delete_q (List.nth fig11 i) in
                    let expected =
                      Fixtures.recount
                        (reference (Core.Transform_parser.parse query).Core.Transform_ast.update)
                    in
                    List.for_all
                      (fun engine ->
                        match
                          Service.call svc (Service.Count { target = Service.Doc "d"; engine; query })
                        with
                        | Service.Ok (Service.Element_count n) -> n = expected
                        | Service.Error { code = Service.Statically_empty; _ } ->
                          expected = Fixtures.recount !model
                        | _ -> false)
                      Core.Engine.[ Td_bu; Gentop ])
                ops)))

(* A schema whose root declares more children than the product explores
   configurations: the product gives up ([capped], nothing skipped, not
   statically empty), and a schema-bound COUNT and TRANSFORM of a
   qualified plan under it still equal the reference engine's. *)
let test_product_cap () =
  let kids = List.init 4200 (Printf.sprintf "w%d") in
  let schema =
    match
      Schema.define ~name:"wide-root" ~root:"wide"
        (("wide", Schema.Star (Schema.Alt (List.map (fun k -> Schema.Elem k) kids)))
        :: List.map (fun k -> (k, Schema.Empty)) kids)
    with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  Schema.register schema;
  let path = "/wide/w7[@a = \"1\"]" in
  let p = Schema.product schema (nfa_of path) in
  Alcotest.(check bool) "capped" true (Schema.capped p);
  Alcotest.(check int) "nothing skipped" 0 (Schema.skip_count p);
  Alcotest.(check bool) "not statically empty" false (Schema.statically_empty p);
  let file = Filename.temp_file "xut_wide" ".xml" in
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc {|<wide><w7 a="1"/><w7/><w3><!-- c --></w3><w7 a="1">t</w7></wide>|});
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      with_service (fun svc ->
          ignore (load svc ~schema:"wide-root" "d" file);
          let root = Xut_xml.Dom.parse_file file in
          let update = Core.Transform_ast.Delete (Xut_xpath.Parser.parse path) in
          let expected = Core.Engine.transform Core.Engine.Reference update root in
          (match
             Service.call svc
               (Service.Count { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = delete_q path })
           with
          | Service.Ok (Service.Element_count n) ->
            Alcotest.(check int) "COUNT" (Xut_xml.Node.elements expected) n
          | _ -> Alcotest.fail "COUNT");
          List.iter
            (fun engine ->
              match
                Service.call svc
                  (Service.Transform { target = Service.Doc "d"; engine; query = delete_q path })
              with
              | Service.Ok (Service.Tree s) ->
                Alcotest.(check string) ("TRANSFORM " ^ Core.Engine.name engine)
                  (Xut_xml.Serialize.element_to_string expected) s
              | _ -> Alcotest.fail "TRANSFORM")
            Core.Engine.[ Td_bu; Gentop; Two_pass_sax ]))

(* The counting walk allocates a small fixed number of words per call,
   whatever it visits: U1-U10 over the schema-bound XMark f=0.01
   document, as the service counts them (TD-BU's annotation oracle,
   built under the skip-set, and no skip-set in the walk), all under one
   bound (U5 visits 1121 elements, U1 257).  Each call measured 25 words
   when the walk also took the skip-set, 23 without it (its closures and
   the reading's own float); the bound is 25 plus a tenth. *)
let count_words_bound = 28.

let test_count_allocation () =
  let root = Xut_xmark.Generator.generate ~factor:0.01 () in
  Alcotest.(check bool) "conforms" true (Schema.validate (site ()) root = Ok ());
  List.iteri
    (fun i p ->
      let nfa = nfa_of p in
      let product = Schema.product (site ()) nfa in
      let skip e = Schema.skippable product (Xut_xml.Node.sym e) in
      let checkp = Annotator.checkp (Annotator.annotate ~skip nfa root) nfa in
      let update = Core.Transform_ast.Delete (Xut_xpath.Parser.parse p) in
      let count () = Core.Top_down.count ~checkp nfa update root in
      ignore (count ());
      let calls = 20 in
      let before = Gc.minor_words () in
      for _ = 1 to calls do
        ignore (Sys.opaque_identity (count ()))
      done;
      let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
      Alcotest.(check bool)
        (Printf.sprintf "U%d: %.1f words per call, at most %.0f" (i + 1) per_call
           count_words_bound)
        true
        (per_call <= count_words_bound))
    fig11

let suite =
  [ Alcotest.test_case "validate: generated XMark conforms" `Quick test_validate_generated;
    Alcotest.test_case "validate: nonconforming trees rejected" `Quick test_validate_reject;
    Alcotest.test_case "validate_commit: shared subtrees unchecked" `Quick
      test_validate_commit_skips_shared;
    Alcotest.test_case "product: statically-empty verdict" `Quick
      test_statically_empty_verdict;
    Alcotest.test_case "product: skip-set contents (U7)" `Quick test_skip_set_contents;
    Alcotest.test_case "product: > 62-state NFA" `Quick test_long_path_exceeds_bitset;
    Alcotest.test_case "pruned == unpruned (fixed paths)" `Quick test_pruned_equals_unpruned;
    prop_pruned_equals_unpruned;
    Alcotest.test_case "product: past the configuration cap" `Quick test_product_cap;
    Alcotest.test_case "service: LOAD ... SCHEMA" `Quick test_load_with_schema;
    Alcotest.test_case "service: statically-empty admission" `Quick
      test_statically_empty_rejection;
    Alcotest.test_case "service: skip metrics + pruned answers" `Quick
      test_skip_metrics_and_answers;
    Alcotest.test_case "service: result streams under pruning (U1-U10)" `Quick
      test_result_streams_pruned;
    Alcotest.test_case "service: a stored-document stream is the GENTOP stream (U1-U10)" `Quick
      test_doc_stream_is_gentop;
    Alcotest.test_case "service: composed views agree under pruning" `Quick
      test_view_chain_equivalence;
    Alcotest.test_case "socket: statically-empty over the wire" `Quick
      test_socket_statically_empty;
    Alcotest.test_case "service: COMMIT counts = recount" `Quick test_commit_counts_exact;
    Alcotest.test_case "service: nonconforming COMMIT drops the binding loudly" `Quick
      test_commit_schema_drop;
    QCheck_alcotest.to_alcotest prop_schema_count_differential;
    Alcotest.test_case "Top_down.count allocates a fixed amount per call" `Quick
      test_count_allocation ]
