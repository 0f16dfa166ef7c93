open Xut_xml
open Core

let doc () = Fixtures.parts_doc ()

let new_supplier =
  Node.elem "supplier"
    [ Node.elem "sname" [ Node.text "HP" ]; Node.elem "price" [ Node.text "99" ] ]

let parse_path = Xut_xpath.Parser.parse

let engines = Engine.[ Naive; Gentop; Td_bu; Two_pass_sax; Galax_update ]

let updates_under_test =
  [ Transform_ast.Delete (parse_path "//price");
    Transform_ast.Delete (parse_path "//supplier[country = \"A\"]/price");
    Transform_ast.Delete (parse_path "db/part[pname = \"mouse\"]");
    Transform_ast.Insert (parse_path "//part[pname = \"keyboard\"]", new_supplier);
    Transform_ast.Insert (parse_path Fixtures.p1_text, new_supplier);
    Transform_ast.Insert (parse_path "db/part", new_supplier);
    Transform_ast.Insert_first (parse_path "//part[pname = \"keyboard\"]", new_supplier);
    Transform_ast.Insert_first (parse_path "db/part", new_supplier);
    Transform_ast.Replace (parse_path "//supplier[sname = \"HP\"]", new_supplier);
    Transform_ast.Replace (parse_path "//pname", Node.elem "pname" [ Node.text "x" ]);
    Transform_ast.Rename (parse_path "//supplier", "vendor");
    Transform_ast.Rename (parse_path "db/part[pname = \"keyboard\"]", "product");
    Transform_ast.Delete (parse_path "db/nothing");
    Transform_ast.Insert (parse_path "//part[supplier/price < 5]", new_supplier) ]

let test_engines_agree () =
  List.iter
    (fun u ->
      let root = doc () in
      let expected = Engine.transform Engine.Reference u root in
      List.iter
        (fun algo ->
          let got = Engine.transform algo u root in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s" (Engine.name algo) (Transform_ast.update_to_string u))
            true
            (Node.equal_element expected got))
        engines)
    updates_under_test

let test_source_untouched () =
  let root = doc () in
  let before = Serialize.element_to_string root in
  List.iter
    (fun algo ->
      ignore (Engine.transform algo (Transform_ast.Delete (parse_path "//price")) root);
      Alcotest.(check string)
        (Engine.name algo ^ " leaves the store intact")
        before (Serialize.element_to_string root))
    engines

let test_delete_prices () =
  (* Example 1.1: delete $a//price removes every price, keeps the rest. *)
  let root = doc () in
  let out = Top_down.transform (Transform_ast.Delete (parse_path "//price")) root in
  Alcotest.(check int) "no prices left" 0
    (List.length (Xut_xpath.Eval.select_doc out (parse_path "//price")));
  Alcotest.(check int) "suppliers kept" 6
    (List.length (Xut_xpath.Eval.select_doc out (parse_path "//supplier")));
  Alcotest.(check int) "element count drops by 6"
    (Node.element_count (Node.Element root) - 6)
    (Node.element_count (Node.Element out))

let test_security_view () =
  (* Example 1.1 security view: hide prices of suppliers from countries A, B. *)
  let root = doc () in
  let u =
    Transform_ast.Delete (parse_path "//supplier[country = \"A\" or country = \"B\"]/price")
  in
  let out = Engine.transform Engine.Td_bu u root in
  let remaining = Xut_xpath.Eval.select_doc out (parse_path "//supplier[price]/country") in
  List.iter
    (fun c ->
      Alcotest.(check bool) "only safe countries keep prices" true
        (Node.text_content c = "C"))
    remaining;
  Alcotest.(check int) "one price left" 1
    (List.length (Xut_xpath.Eval.select_doc out (parse_path "//price")))

let test_insert_first_position () =
  let root = doc () in
  let u = Transform_ast.Insert_first (parse_path "db/part[pname = \"keyboard\"]", new_supplier) in
  List.iter
    (fun algo ->
      let out = Engine.transform algo u root in
      match Xut_xpath.Eval.select_doc out (parse_path "db/part[pname = \"keyboard\"]") with
      | [ kb ] -> (
        match Node.child_elements kb with
        | first :: _ ->
          Alcotest.(check string) (Engine.name algo ^ ": first child") "supplier" (Node.name first);
          Alcotest.(check string) "the new one" "99"
            (Node.text_content (List.nth (Node.child_elements first) 1))
        | [] -> Alcotest.fail "no children")
      | _ -> Alcotest.fail "keyboard part lost")
    engines

let test_insert_first_parses () =
  match Transform_parser.parse_update "insert <v/> as first into $a//part" with
  | Transform_ast.Insert_first (_, Node.Element e) ->
    Alcotest.(check string) "elem" "v" (Node.name e)
  | _ -> Alcotest.fail "expected insert-as-first";;

let test_insert_position () =
  let root = doc () in
  let u = Transform_ast.Insert (parse_path "db/part[pname = \"keyboard\"]", new_supplier) in
  let out = Engine.transform Engine.Gentop u root in
  match Xut_xpath.Eval.select_doc out (parse_path "db/part[pname = \"keyboard\"]") with
  | [ kb ] -> (
    match List.rev (Node.child_elements kb) with
    | last :: _ ->
      Alcotest.(check string) "inserted as last child" "supplier" (Node.name last);
      Alcotest.(check string) "it is the new one" "99"
        (Node.text_content (List.nth (Node.child_elements last) 1))
    | [] -> Alcotest.fail "no children")
  | _ -> Alcotest.fail "keyboard part lost"

let test_rename_keeps_content () =
  let root = doc () in
  let u = Transform_ast.Rename (parse_path "//supplier", "vendor") in
  let out = Engine.transform Engine.Two_pass_sax u root in
  Alcotest.(check int) "all renamed" 6
    (List.length (Xut_xpath.Eval.select_doc out (parse_path "//vendor")));
  Alcotest.(check int) "snames kept" 6
    (List.length (Xut_xpath.Eval.select_doc out (parse_path "//vendor/sname")))

let test_replace_root () =
  let root = doc () in
  let u = Transform_ast.Replace (parse_path ".", Node.elem "empty" []) in
  let out = Engine.transform Engine.Reference u root in
  Alcotest.(check string) "root replaced" "empty" (Node.name out);
  let out2 = Engine.transform Engine.Gentop u root in
  Alcotest.(check string) "topDown agrees" "empty" (Node.name out2)

let test_delete_root_raises () =
  let root = doc () in
  let u = Transform_ast.Delete (parse_path ".") in
  List.iter
    (fun algo ->
      match Engine.transform algo u root with
      | exception Transform_ast.Invalid_update _ -> ()
      | _ -> Alcotest.fail (Engine.name algo ^ " must reject deleting the document element"))
    (Engine.Reference :: engines)

let test_insert_at_root () =
  let root = doc () in
  let u = Transform_ast.Insert (parse_path ".", new_supplier) in
  List.iter
    (fun algo ->
      let out = Engine.transform algo u root in
      match List.rev (Node.child_elements out) with
      | last :: _ ->
        Alcotest.(check string) (Engine.name algo ^ " appends to root") "supplier" (Node.name last)
      | [] -> Alcotest.fail "no children")
    (Engine.Reference :: engines)

let test_no_match_is_identity () =
  let root = doc () in
  List.iter
    (fun algo ->
      let out = Engine.transform algo (Transform_ast.Delete (parse_path "db/widget")) root in
      Alcotest.(check bool) (Engine.name algo ^ " identity") true (Node.equal_element root out))
    (Engine.Reference :: engines)

let test_topdown_shares_subtrees () =
  let root = doc () in
  let v0 = Counter.value Stats.nodes_visited and s0 = Counter.value Stats.nodes_shared in
  let _ = Top_down.transform (Transform_ast.Delete (parse_path "db/part[pname = \"mouse\"]")) root in
  Alcotest.(check bool) "some sharing happened" true (Counter.value Stats.nodes_shared > s0);
  Alcotest.(check bool) "visited less than everything" true
    (Counter.value Stats.nodes_visited - v0 < Node.element_count (Node.Element root))

let test_naive_copies_everything () =
  let root = doc () in
  let v0 = Counter.value Stats.nodes_visited in
  let _ = Naive.transform (Transform_ast.Delete (parse_path "db/part[pname = \"mouse\"]")) root in
  Alcotest.(check bool) "naive touches every element" true
    (Counter.value Stats.nodes_visited - v0 >= Node.element_count (Node.Element root) - 1)

(* twoPassSAX counts pass 2's elements as visited, once per run: an
   unsteered run over the whole document visits every element. *)
let test_sax_counts_visits () =
  let root = doc () in
  let v0 = Counter.value Stats.nodes_visited in
  let update = Transform_ast.Delete (parse_path "db/part[pname = \"mouse\"]") in
  let _ = Engine.transform Engine.Two_pass_sax update root in
  Alcotest.(check int) "visited" (Node.element_count (Node.Element root))
    (Counter.value Stats.nodes_visited - v0)

let test_parser_full_query () =
  let q =
    Transform_parser.parse
      "transform copy $a := doc(\"foo\") modify do delete $a//supplier[country = 'A']/price return $a"
  in
  Alcotest.(check string) "doc" "foo" q.Transform_ast.doc;
  (match q.Transform_ast.update with
  | Transform_ast.Delete p ->
    Alcotest.(check string) "path" "//supplier[country = \"A\"]/price" (Xut_xpath.Ast.path_to_string p)
  | _ -> Alcotest.fail "expected delete");
  let q2 =
    Transform_parser.parse
      "transform copy $a := doc(\"d\") modify do insert <supplier><sname>HP</sname></supplier> into $a//part[pname = 'keyboard'] return $a"
  in
  match q2.Transform_ast.update with
  | Transform_ast.Insert (_, Node.Element e) ->
    Alcotest.(check string) "element name" "supplier" (Node.name e)
  | _ -> Alcotest.fail "expected insert of an element"

let test_parser_replace_rename () =
  (match Transform_parser.parse_update "replace $a/db/part with <part/>" with
  | Transform_ast.Replace (_, Node.Element e) ->
    Alcotest.(check string) "replace elem" "part" (Node.name e)
  | _ -> Alcotest.fail "replace");
  match Transform_parser.parse_update "rename $a//supplier as vendor" with
  | Transform_ast.Rename (_, "vendor") -> ()
  | _ -> Alcotest.fail "rename"

let test_parser_errors () =
  let fails_in parse s =
    match parse s with
    | exception Transform_parser.Parse_error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ s)
  in
  let fails = fails_in Transform_parser.parse in
  fails "transform copy $a := doc(\"f\") modify do obliterate $a/x return $a";
  fails "transform copy $a := doc(\"f\") modify do delete $b/x return $a";
  fails "transform copy $a := doc(\"f\") modify do delete $a/x return $b";
  fails "transform copy $a := doc(f) modify do delete $a/x return $a";
  fails "transform copy $a := doc(\"f\") modify do insert <a> into $a/x return $a";
  (* the bare write-query forms may only return $a, like the full form *)
  fails_in Transform_parser.parse_update "delete $a//x return $b";
  fails_in Transform_parser.parse_updates "delete $a//x return $zz";
  fails_in Transform_parser.parse_updates "(delete $a//x, delete $a//y) return $zz";
  fails_in Transform_parser.parse_updates "delete $a//x return $a junk"

let test_query_roundtrip_print () =
  let src =
    "transform copy $a := doc(\"foo\") modify do delete $a//price return $a"
  in
  let q = Transform_parser.parse src in
  let printed = Transform_ast.to_string q in
  let q2 = Transform_parser.parse printed in
  Alcotest.(check string) "stable print" printed (Transform_ast.to_string q2)

let test_sax_file_roundtrip () =
  (* transform_file must agree with the in-memory engines, byte for
     byte: empty elements self-close as in every other engine's output *)
  let check name root u =
    let tmp = Filename.temp_file "xut" ".xml" in
    Out_channel.with_open_bin tmp (fun oc -> Serialize.to_channel oc root);
    Fun.protect
      ~finally:(fun () -> Sys.remove tmp)
      (fun () ->
        let buf = Buffer.create 1024 in
        let stats = Sax_transform.transform_file u ~src:tmp ~out:buf in
        let expected = Engine.transform Engine.Reference u root in
        Alcotest.(check bool) (name ^ ": file = reference") true
          (Node.equal_element expected (Dom.parse_string (Buffer.contents buf)));
        Alcotest.(check string) (name ^ ": bytes = reference bytes")
          (Serialize.element_to_string expected) (Buffer.contents buf);
        Alcotest.(check bool) (name ^ ": stack bounded by depth") true
          (stats.Sax_transform.max_stack_depth <= Node.depth (Node.Element root)))
  in
  check "parts" (doc ()) (Transform_ast.Delete (parse_path "//supplier[country = \"A\"]/price"));
  check "empty elements"
    (Dom.parse_string "<r><e/><p><k>1</k></p><p><k>2</k><e/></p><q></q></r>")
    (Transform_ast.Delete (parse_path "//p[k = \"1\"]/k"))

let suite =
  [ Alcotest.test_case "all engines agree with reference" `Quick test_engines_agree;
    Alcotest.test_case "no destructive impact" `Quick test_source_untouched;
    Alcotest.test_case "delete //price (Ex 1.1)" `Quick test_delete_prices;
    Alcotest.test_case "security view (Ex 1.1)" `Quick test_security_view;
    Alcotest.test_case "insert as last child" `Quick test_insert_position;
    Alcotest.test_case "insert as first child" `Quick test_insert_first_position;
    Alcotest.test_case "parse insert as first" `Quick test_insert_first_parses;
    Alcotest.test_case "rename keeps content" `Quick test_rename_keeps_content;
    Alcotest.test_case "replace the root" `Quick test_replace_root;
    Alcotest.test_case "delete root raises" `Quick test_delete_root_raises;
    Alcotest.test_case "insert at root" `Quick test_insert_at_root;
    Alcotest.test_case "no match is identity" `Quick test_no_match_is_identity;
    Alcotest.test_case "topDown shares subtrees" `Quick test_topdown_shares_subtrees;
    Alcotest.test_case "naive touches everything" `Quick test_naive_copies_everything;
    Alcotest.test_case "twoPassSAX counts its visits" `Quick test_sax_counts_visits;
    Alcotest.test_case "parse full transform query" `Quick test_parser_full_query;
    Alcotest.test_case "parse replace/rename" `Quick test_parser_replace_rename;
    Alcotest.test_case "parser errors" `Quick test_parser_errors;
    Alcotest.test_case "print/parse roundtrip" `Quick test_query_roundtrip_print;
    Alcotest.test_case "SAX file roundtrip" `Quick test_sax_file_roundtrip ]

(* A compound transform query applies its updates left to right: the
   fold of single-update transforms over the parsed sequence. *)
let run_sequence algo src ~doc =
  List.fold_left (fun acc u -> Engine.transform algo u acc) doc (Transform_parser.parse_updates src)

let test_update_sequence () =
  (* the message-transformation pipeline as ONE compound transform query *)
  let q =
    {|transform copy $a := doc("m") modify do (
        delete $a/order/customer/creditcard,
        rename $a/order/items as lines,
        insert <stamp kind="routing"/> into $a/order
      ) return $a|}
  in
  Alcotest.(check int) "three updates" 3 (List.length (Transform_parser.parse_updates q));
  let doc =
    Dom.parse_string
      "<order><customer><name>Ada</name><creditcard>4000</creditcard></customer><items><item/></items></order>"
  in
  let out = run_sequence Engine.Gentop q ~doc in
  let count p = List.length (Xut_xpath.Eval.select_doc out (parse_path p)) in
  Alcotest.(check int) "creditcard gone" 0 (count "order/customer/creditcard");
  Alcotest.(check int) "items renamed" 1 (count "order/lines");
  Alcotest.(check int) "stamp added" 1 (count "order/stamp");
  (* the same fold on another engine agrees *)
  let nested = run_sequence Engine.Two_pass_sax q ~doc in
  Alcotest.(check bool) "sequence = nested transforms" true (Node.equal_element out nested)

let test_sequence_single_update () =
  let us =
    Transform_parser.parse_updates
      "transform copy $a := doc(\"f\") modify do delete $a//price return $a"
  in
  Alcotest.(check int) "one update" 1 (List.length us)

let test_sequence_with_quals_and_parens () =
  (* commas and parens inside qualifiers must not split the sequence *)
  let us =
    Transform_parser.parse_updates
      {|transform copy $a := doc("f") modify do (
          delete $a//part[not(supplier/country = "A") and pname = "x"],
          insert <v/> into $a//part[supplier/price < 5]
        ) return $a|}
  in
  Alcotest.(check int) "two updates" 2 (List.length us)

let suite =
  suite
  @ [ Alcotest.test_case "update sequences" `Quick test_update_sequence;
      Alcotest.test_case "sequence of one" `Quick test_sequence_single_update;
      Alcotest.test_case "sequence with qualifiers" `Quick test_sequence_with_quals_and_parens ]
