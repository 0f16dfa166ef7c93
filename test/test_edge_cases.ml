(* Edge cases across the engines: nested matches, updates interacting
   with their own targets, qualifier corner cases, failure injection. *)
open Xut_xml
open Core

let parse_path = Xut_xpath.Parser.parse

let engines = Engine.[ Naive; Gentop; Td_bu; Two_pass_sax; Galax_update ]

let check_all ?doc name update =
  let root = match doc with Some d -> d | None -> Fixtures.parts_doc () in
  let expected = Engine.transform Engine.Reference update root in
  List.iter
    (fun algo ->
      Alcotest.(check bool)
        (Printf.sprintf "%s / %s" name (Engine.name algo))
        true
        (Node.equal_element expected (Engine.transform algo update root)))
    engines;
  expected

let test_nested_delete () =
  (* //part matches parts nested inside parts: deleting the outer one
     removes the inner match too *)
  let out = check_all "nested delete" (Transform_ast.Delete (parse_path "//part")) in
  Alcotest.(check int) "all parts gone" 0
    (List.length (Xut_xpath.Eval.select_doc out (parse_path "//part")))

let test_nested_rename () =
  let out = check_all "nested rename" (Transform_ast.Rename (parse_path "//part", "component")) in
  Alcotest.(check int) "all 5 renamed, nesting kept" 5
    (List.length (Xut_xpath.Eval.select_doc out (parse_path "//component")));
  Alcotest.(check int) "nested components remain nested" 3
    (List.length (Xut_xpath.Eval.select_doc out (parse_path "//component/component")))

let test_insert_does_not_match_itself () =
  (* inserting a <supplier> under //part must not recurse into the new
     element (the update runs against T, not against its own output) *)
  let supplier = Node.elem "part" [ Node.elem "pname" [ Node.text "new!" ] ] in
  let out =
    check_all "insert self-similar" (Transform_ast.Insert (parse_path "//part", supplier))
  in
  (* 5 original parts each got exactly one new part child *)
  Alcotest.(check int) "5 inserted" (5 + 5)
    (List.length (Xut_xpath.Eval.select_doc out (parse_path "//part[pname = \"new!\"]"))
     + List.length (Xut_xpath.Eval.select_doc out (parse_path "//part[not(pname = \"new!\")]")))

let test_replace_with_matching_element () =
  let repl = Node.elem "price" [ Node.text "0" ] in
  let out = check_all "replace with same label" (Transform_ast.Replace (parse_path "//price", repl)) in
  let prices = Xut_xpath.Eval.select_doc out (parse_path "//price") in
  Alcotest.(check int) "six zeroed prices" 6 (List.length prices);
  List.iter (fun p -> Alcotest.(check string) "zeroed" "0" (Node.text_content p)) prices

let test_wildcard_and_label_qual () =
  ignore
    (check_all "wildcard with label() qual"
       (Transform_ast.Delete (parse_path "db/*[label() = \"part\"]/supplier")))

let test_deep_qualifier_negation () =
  ignore
    (check_all "double negation"
       (Transform_ast.Delete (parse_path "//part[not(not(supplier/country = \"A\"))]")));
  ignore
    (check_all "qualifier on qualifier path"
       (Transform_ast.Delete (parse_path "//part[supplier[country = \"A\"]/price < 15]")))

let test_mixed_content_preserved () =
  let doc = Dom.parse_string "<m><p>one <em>two</em> three</p><x/></m>" in
  let out = check_all ~doc "mixed content" (Transform_ast.Delete (parse_path "m/x")) in
  match Xut_xpath.Eval.select_doc out (parse_path "m/p") with
  | [ p ] ->
    Alcotest.(check int) "3 children kept" 3 (List.length (Node.children p));
    Alcotest.(check string) "text intact" "one  three" (Node.text_content p)
  | _ -> Alcotest.fail "p lost"

let test_comments_pis_preserved () =
  let doc = Dom.parse_string "<m><!-- note --><?tgt data?><x/><y/></m>" in
  let out = check_all ~doc "comments and PIs" (Transform_ast.Delete (parse_path "m/y")) in
  match Node.children out with
  | [ Node.Comment c; Node.Pi (t, _); Node.Element _ ] ->
    Alcotest.(check string) "comment" " note " c;
    Alcotest.(check string) "pi" "tgt" t
  | _ -> Alcotest.fail "children shape changed"

let test_attributes_preserved () =
  let doc = Dom.parse_string "<m><x id=\"1\" k=\"v\"><y/></x></m>" in
  let out = check_all ~doc "attrs kept through rebuild" (Transform_ast.Delete (parse_path "m/x/y")) in
  match Xut_xpath.Eval.select_doc out (parse_path "m/x") with
  | [ x ] ->
    Alcotest.(check (option string)) "id" (Some "1") (Node.attr x "id");
    Alcotest.(check (option string)) "k" (Some "v") (Node.attr x "k")
  | _ -> Alcotest.fail "x lost"

let test_update_matching_everything () =
  (* '//' + wildcard: every element below the root is selected *)
  ignore (check_all "rename everything" (Transform_ast.Rename (parse_path "//*", "n")));
  ignore (check_all "delete everything" (Transform_ast.Delete (parse_path "db/*")))

let test_empty_document_element () =
  let doc = Dom.parse_string "<empty/>" in
  ignore (check_all ~doc "empty root, no match" (Transform_ast.Delete (parse_path "empty/x")));
  let out =
    check_all ~doc "insert into empty root"
      (Transform_ast.Insert (parse_path "empty", Node.elem "child" []))
  in
  Alcotest.(check int) "child added" 1 (List.length (Node.children out))

let test_deep_nesting_stack_safety () =
  (* 2000-deep chain: engines must not be limited by tiny stacks *)
  let rec deep n = if n = 0 then Node.text "x" else Node.elem "d" [ deep (n - 1) ] in
  let doc = Node.element "root" [ deep 2000 ] in
  let u = Transform_ast.Insert (parse_path "root//d[not(d)]", Node.elem "leaf" []) in
  let expected = Engine.transform Engine.Reference u doc in
  List.iter
    (fun algo ->
      Alcotest.(check bool)
        ("deep nesting / " ^ Engine.name algo)
        true
        (Node.equal_element expected (Engine.transform algo u doc)))
    engines

(* Both SAX passes track their stack depth with a counter (a list length
   per start-tag made them quadratic in depth).  A 20 000-deep chain
   through the two-pass [run] (a qualifier plan), the buffered
   [run_buffered] (the same plan: [//d\[x\]] makes the whole chain one
   undecided region) and the fused [run_once] (a qualifier-free one):
   the peak is the chain's depth, and the streamed bytes equal the
   materialized td-bu result.  [run] and [run_once] run over the tree's
   events and over a parse of its serialization, [run_buffered] over the
   serialization, so the parser's tag stack and both passes' frame
   arrays grow far past their initial size; a mismatched and an
   unclosed tag at that depth are reported as at any other. *)
let test_sax_deep_chain () =
  let depth = 20_000 in
  (* root, then d elements, then the x leaf: [depth] elements deep *)
  let rec chain n acc = if n = 0 then acc else chain (n - 1) (Node.elem "d" [ acc ]) in
  let doc = Node.element "root" [ chain (depth - 2) (Node.elem "x" [ Node.text "t" ]) ] in
  let text = Serialize.element_to_string doc in
  let check name runner update =
    let nfa = Xut_automata.Selecting_nfa.of_path (Transform_ast.path update) in
    let expected = Serialize.element_to_string (Engine.transform Engine.Td_bu update doc) in
    List.map
      (fun (source_name, run) ->
        let name = name ^ " over " ^ source_name in
        let out = Buffer.create (16 * depth) in
        let stats = run nfa update (Serialize.event_sink out) in
        Alcotest.(check int) (name ^ ": max_stack_depth") depth
          stats.Sax_transform.max_stack_depth;
        Alcotest.(check bool) (name ^ ": streamed = materialized") true
          (Buffer.contents out = expected);
        stats)
      (match runner with
      | `Source run ->
        [ ("tree events", fun nfa u sink -> run nfa u ~source:(Sax.events_of_tree doc) ~sink);
          ("a parse", fun nfa u sink -> run nfa u ~source:(Sax.parse_string text) ~sink) ]
      | `Input run -> [ ("a parse", fun nfa u sink -> run nfa u ~input:(Reader.string text) ~sink) ])
  in
  let qualified = Transform_ast.Rename (parse_path "//d[x]", "e") in
  ignore
    (check "run" (`Source (fun nfa u ~source ~sink -> Sax_transform.run nfa u ~source ~sink)) qualified);
  List.iter
    (fun stats ->
      Alcotest.(check (pair int int)) "run_buffered: one region, one read" (1, 1)
        (stats.Sax_transform.regions, stats.Sax_transform.parses))
    (check "run_buffered"
       (`Input (fun nfa u ~input ~sink -> Sax_transform.run_buffered nfa u ~input ~sink))
       qualified);
  ignore
    (check "run_once"
       (`Source (fun nfa u ~source ~sink -> Sax_transform.run_once nfa u ~source ~sink))
       (Transform_ast.Rename (parse_path "//x", "y")));
  (* Steered into a chunked sink: the chain below [root] copied whole by
     the parse (nothing below [root] can match), then skipped whole (its
     top deleted).  Copy and skip mode walk the parser's tag stack in a
     loop, not a recursion per level; the bytes and the stats are the
     event path's, the copied chain's depth included. *)
  List.iter
    (fun (name, update, depth_seen) ->
      let nfa = Xut_automata.Selecting_nfa.of_path (Transform_ast.path update) in
      let plain = Buffer.create (16 * depth) in
      let expected_stats =
        Sax_transform.run_once nfa update ~source:(Sax.parse_string text)
          ~sink:(Serialize.event_sink plain)
      in
      let out = Buffer.create (16 * depth) in
      let sink = Serialize.Sink.create (Buffer.add_string out) in
      let stats =
        Sax_transform.run_buffered ~copy_to:(Serialize.Sink.writer sink) nfa update
          ~input:(Reader.string text) ~sink:(Serialize.Sink.event sink)
      in
      ignore (Serialize.Sink.close sink);
      Alcotest.(check string) (name ^ ": streamed = materialized")
        (Serialize.element_to_string (Engine.transform Engine.Td_bu update doc))
        (Buffer.contents out);
      Alcotest.(check string) (name ^ ": = unsteered") (Buffer.contents plain) (Buffer.contents out);
      Alcotest.(check bool) (name ^ ": stats") true (stats = expected_stats);
      Alcotest.(check int) (name ^ ": max_stack_depth") depth_seen
        stats.Sax_transform.max_stack_depth)
    [ ("steered copy", Transform_ast.Rename (parse_path "root/none", "y"), depth);
      ("steered skip", Transform_ast.Delete (parse_path "root/d"), 1) ];
  let error text =
    match Sax.parse_string text ignore with
    | () -> Alcotest.fail "a malformed chain parsed"
    | exception Sax.Parse_error { line; col; msg } -> (line, col, msg)
  in
  let innermost = String.length "<root>" + ((depth - 2) * String.length "<d>") + String.length "<x>t" in
  Alcotest.(check (triple int int string)) "mismatched tag at depth"
    (1, innermost + String.length "</y>" + 1, "mismatched tags: <x> closed by </y>")
    (error (String.sub text 0 innermost ^ "</y>" ^ String.sub text (innermost + 4) (String.length text - innermost - 4)));
  Alcotest.(check (triple int int string)) "unclosed tag at depth"
    (1, innermost + 1, "unclosed element <x>")
    (error (String.sub text 0 innermost))

let test_two_pass_sax_rejects_ctx_quals () =
  let u = Transform_ast.Delete (parse_path ".[db]/db/part") in
  match Engine.transform Engine.Two_pass_sax u (Fixtures.parts_doc ()) with
  | exception Sax_transform.Unsupported_streaming _ -> ()
  | _ -> Alcotest.fail "streaming should reject context qualifiers"

let test_invalid_queries_rejected () =
  let fails s =
    match Transform_parser.parse s with
    | exception Transform_parser.Parse_error _ -> ()
    | _ -> Alcotest.fail ("should fail: " ^ s)
  in
  fails "transform copy $a := doc(\"f\") modify do insert <a/> into $a/p";
  fails "transform copy := doc(\"f\") modify do delete $a/p return $a"

let test_truncated_file_rejected () =
  let tmp = Filename.temp_file "xut" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Out_channel.with_open_bin tmp (fun oc -> output_string oc "<site><people><person id=");
      (match Dom.parse_file tmp with
      | exception Sax.Parse_error _ -> ()
      | _ -> Alcotest.fail "DOM parse should fail");
      let u = Transform_ast.Delete (parse_path "site/people") in
      match Sax_transform.transform_file u ~src:tmp ~out:(Buffer.create 16) with
      | exception Sax.Parse_error _ -> ()
      | _ -> Alcotest.fail "streaming parse should fail")

let suite =
  [ Alcotest.test_case "nested delete" `Quick test_nested_delete;
    Alcotest.test_case "nested rename" `Quick test_nested_rename;
    Alcotest.test_case "insert does not match itself" `Quick test_insert_does_not_match_itself;
    Alcotest.test_case "replace with matching label" `Quick test_replace_with_matching_element;
    Alcotest.test_case "wildcard + label() qual" `Quick test_wildcard_and_label_qual;
    Alcotest.test_case "deep qualifier nesting" `Quick test_deep_qualifier_negation;
    Alcotest.test_case "mixed content preserved" `Quick test_mixed_content_preserved;
    Alcotest.test_case "comments/PIs preserved" `Quick test_comments_pis_preserved;
    Alcotest.test_case "attributes preserved" `Quick test_attributes_preserved;
    Alcotest.test_case "update matching everything" `Quick test_update_matching_everything;
    Alcotest.test_case "empty document element" `Quick test_empty_document_element;
    Alcotest.test_case "2000-deep nesting" `Quick test_deep_nesting_stack_safety;
    Alcotest.test_case "streaming rejects ctx quals" `Quick test_two_pass_sax_rejects_ctx_quals;
    Alcotest.test_case "invalid queries rejected" `Quick test_invalid_queries_rejected;
    Alcotest.test_case "truncated file rejected" `Quick test_truncated_file_rejected;
    Alcotest.test_case "20000-deep SAX passes" `Quick test_sax_deep_chain ]
