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
  | Ok sizes ->
    let total = Xut_xml.Node.element_count (Xut_xml.Node.Element root) in
    Alcotest.(check int) "root subtree size is the element count" total
      (Hashtbl.find sizes (Xut_xml.Node.id root))
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
  let skippable name = Schema.skippable p (Xut_xml.Sym.intern name) in
  List.iter
    (fun arm ->
      Alcotest.(check bool) (arm ^ " is skippable under U7") true (skippable arm))
    [ "regions"; "people"; "categories"; "catgraph"; "closed_auctions" ];
  Alcotest.(check bool) "open_auctions is not skippable under U7" false
    (skippable "open_auctions");
  Alcotest.(check bool) "site itself is never skippable here" false (skippable "site")

let test_long_path_exceeds_bitset () =
  let nfa = nfa_of long_path in
  Alcotest.(check bool) "the long path needs > 62 NFA states" true (Nfa.size nfa > 62)

(* ---- pruned == unpruned ---- *)

(* The soundness claim, checked both on the TD-BU oracle path (skip
   threaded through the annotator AND the top-down walk) and on the
   GENTOP direct path: with the skip oracle the output tree serializes
   identically, so COUNT agrees too — and the counting walk, pruned and
   sizing deleted subtrees from the validation's size table, gives the
   same count as the unpruned walk and as the materialized result. *)
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
  let sizes = Result.get_ok (Schema.validate (site ()) root) in
  let size e = Hashtbl.find sizes (Xut_xml.Node.id e) in
  let elements = Xut_xml.Node.element_count (Xut_xml.Node.Element root) in
  let n0 = Core.Top_down.count ~checkp:(Annotator.checkp t0 nfa) ~elements nfa upd root in
  let n1 =
    Core.Top_down.count ~checkp:(Annotator.checkp t1 nfa) ~skip ~size ~elements nfa upd root
  in
  let ng = Core.Top_down.count ~skip ~size ~elements nfa upd root in
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
            (Metrics.statically_empty_rejections m >= 2);
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
          Alcotest.(check bool) "a product was built" true (Metrics.schema_products m > 0)))

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
            (Metrics.schema_bindings_dropped (Service.metrics svc));
          (* an element no schema rule permits: the commit itself
             succeeds, the binding goes away observably *)
          commit "insert <bogus>1</bogus> into $a/site";
          Alcotest.(check bool) "nonconforming commit drops the binding" true
            (bound () = None);
          Alcotest.(check (list string)) "flagged event fired once" [ "d" ] !drops;
          Alcotest.(check int) "drop counted" 1
            (Metrics.schema_bindings_dropped (Service.metrics svc));
          (* once dropped there is nothing left to drop: further commits
             are schemaless and fire no more flags *)
          commit "delete $a//bogus";
          Alcotest.(check (list string)) "no second event" [ "d" ] !drops;
          Alcotest.(check int) "counter unchanged" 1
            (Metrics.schema_bindings_dropped (Service.metrics svc))))

let suite =
  [ Alcotest.test_case "validate: generated XMark conforms" `Quick test_validate_generated;
    Alcotest.test_case "validate: nonconforming trees rejected" `Quick test_validate_reject;
    Alcotest.test_case "product: statically-empty verdict" `Quick
      test_statically_empty_verdict;
    Alcotest.test_case "product: skip-set contents (U7)" `Quick test_skip_set_contents;
    Alcotest.test_case "product: > 62-state NFA" `Quick test_long_path_exceeds_bitset;
    Alcotest.test_case "pruned == unpruned (fixed paths)" `Quick test_pruned_equals_unpruned;
    prop_pruned_equals_unpruned;
    Alcotest.test_case "service: LOAD ... SCHEMA" `Quick test_load_with_schema;
    Alcotest.test_case "service: statically-empty admission" `Quick
      test_statically_empty_rejection;
    Alcotest.test_case "service: skip metrics + pruned answers" `Quick
      test_skip_metrics_and_answers;
    Alcotest.test_case "service: composed views agree under pruning" `Quick
      test_view_chain_equivalence;
    Alcotest.test_case "socket: statically-empty over the wire" `Quick
      test_socket_statically_empty;
    Alcotest.test_case "service: nonconforming COMMIT drops the binding loudly" `Quick
      test_commit_schema_drop ]
