open Xut_xpath

let check_strs = Alcotest.(check (list string))
let check_str = Alcotest.(check string)

let doc () = Fixtures.parts_doc ()

let select path =
  Eval.select_doc (doc ()) (Parser.parse path) |> List.map Xut_xml.Node.name

let texts path =
  Eval.select_doc (doc ()) (Parser.parse path) |> List.map Xut_xml.Node.text_content

(* --- parser ------------------------------------------------------------ *)

let test_parse_print_roundtrip () =
  let cases =
    [ "db/part/pname"; "//part"; "/site/people/person"; "db//part[pname = \"keyboard\"]";
      "*/supplier"; "//part[not(supplier/sname = \"HP\") and not(supplier/price < 15)]";
      "site/open_auctions/open_auction[initial > 10 and reserve > 50]/bidder";
      "site//open_auctions/open_auction[not(@id = \"open_auction2\")]/bidder[increase > 10]";
      "a/b[q]/c[x or y][z]"; "a[label() = \"b\"]"; "a[. = \"text\"]"; "a[@id]";
      "a[b/@kind = \"k\"]" ]
  in
  List.iter
    (fun src ->
      let p = Parser.parse src in
      let printed = Ast.path_to_string p in
      let reparsed = Parser.parse printed in
      Alcotest.(check bool) (src ^ " roundtrips") true (Ast.equal_path p reparsed))
    cases

let test_parse_errors () =
  let fails s =
    match Parser.parse s with
    | exception (Parser.Parse_error _ | Lexer.Lex_error _) -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ s)
  in
  fails "a/[q]";
  fails "a[";
  fails "a]";
  fails "a[b=]";
  fails "a b";
  fails "a/";
  fails "#"

let test_parse_shapes () =
  (match Parser.parse "//a" with
  | [ { Ast.nav = Ast.Descendant; _ }; { Ast.nav = Ast.Label "a"; _ } ] -> ()
  | _ -> Alcotest.fail "//a shape");
  (match Parser.parse "a//b" with
  | [ { Ast.nav = Ast.Label "a"; _ }; { Ast.nav = Ast.Descendant; _ }; { Ast.nav = Ast.Label "b"; _ } ]
    -> ()
  | _ -> Alcotest.fail "a//b shape");
  match Parser.parse "a[b = 10]" with
  | [ { Ast.nav = Ast.Label "a"; quals = [ Ast.Q_cmp (_, Ast.Eq, Ast.V_num 10.) ] } ] -> ()
  | _ -> Alcotest.fail "numeric comparison shape"

(* --- evaluation -------------------------------------------------------- *)

let test_child_axis () =
  check_strs "db/part" [ "part"; "part" ] (select "db/part");
  check_strs "absolute" [ "part"; "part" ] (select "/db/part");
  check_strs "no match" [] (select "db/nothing")

let test_descendant () =
  Alcotest.(check int) "all parts" 5 (List.length (select "//part"));
  Alcotest.(check int) "suppliers anywhere" 6 (List.length (select "//supplier"));
  Alcotest.(check int) "desc under db" 5 (List.length (select "db//part"));
  Alcotest.(check int) "dedup via double desc" 6 (List.length (select "//part//supplier"))

let test_wildcard () =
  check_strs "db/*" [ "part"; "part" ] (select "db/*");
  Alcotest.(check int) "db/*/*" 7 (List.length (select "db/*/*"))

let test_doc_order () =
  check_strs "pnames in doc order"
    [ "keyboard"; "key"; "mouse"; "wheel"; "axle" ]
    (texts "//part/pname")

let test_qualifiers () =
  check_strs "by pname" [ "keyboard" ]
    (Fixtures.pnames (doc ()) "db/part[pname = \"keyboard\"]");
  check_strs "numeric lt" [ "wheel"; "axle" ]
    (Fixtures.pnames (doc ()) "//part[supplier/price < 5]");
  check_strs "negation" [ "mouse"; "wheel" ]
    (Fixtures.pnames (doc ()) "//part[not(supplier/country = \"A\")]" |> List.sort compare);
  check_strs "disjunction" [ "key"; "keyboard"; "wheel" ]
    (Fixtures.pnames (doc ()) "//part[supplier/sname = \"HP\" or supplier/sname = \"Acme\"]"
     |> List.sort compare)

let test_paper_p1 () =
  (* Example 3.1: parts under the keyboard part with no HP supplier and no
     supplier cheaper than 15. *)
  check_strs "p1 of Example 3.1" [ "key" ]
    (Fixtures.pnames (doc ()) Fixtures.p1_text |> List.sort compare)

let test_label_qual () =
  check_strs "label() =" [ "part"; "part" ] (select "db/*[label() = \"part\"]");
  check_strs "label() mismatch" [] (select "db/*[label() = \"supplier\"]")

let test_self_step () =
  check_strs "a/. = a" [ "part"; "part" ] (select "db/part/.");
  check_strs "self qual" [ "part"; "part" ] (select "db/part[.//sname = \"Acme\"]" )

let test_attr () =
  let d = Xut_xml.Dom.parse_string "<r><x id=\"1\"/><x id=\"2\"/><x/></r>" in
  Alcotest.(check int) "attr exists" 2 (List.length (Eval.select_doc d (Parser.parse "r/x[@id]")));
  Alcotest.(check int) "attr eq" 1
    (List.length (Eval.select_doc d (Parser.parse "r/x[@id = \"2\"]")))

let test_text_comparison_kinds () =
  let d = Xut_xml.Dom.parse_string "<r><v>10</v><v>9</v><v>abc</v></r>" in
  let count p = List.length (Eval.select_doc d (Parser.parse p)) in
  Alcotest.(check int) "numeric gt (9 < 10 numerically)" 1 (count "r/v[. > 9.5]");
  Alcotest.(check int) "string eq" 1 (count "r/v[. = \"abc\"]");
  Alcotest.(check int) "non-numeric excluded" 2 (count "r/v[. >= 9]")

let test_empty_path_is_root () =
  let d = doc () in
  (match Eval.select_doc d [] with
  | [ r ] -> check_str "root" "db" (Xut_xml.Node.name r)
  | _ -> Alcotest.fail "empty path");
  match Eval.select_doc d (Parser.parse ".") with
  | [ r ] -> check_str "dot is root" "db" (Xut_xml.Node.name r)
  | _ -> Alcotest.fail "dot path"

(* --- normalization ----------------------------------------------------- *)

let test_norm () =
  let n = Norm.steps (Parser.parse "a/./b[q]//c") in
  Alcotest.(check int) "steps" 4 (List.length n.Norm.steps);
  (match n.Norm.steps with
  | [ { nav = Norm.N_label "a"; _ }; { nav = Norm.N_label "b"; _ }; { nav = Norm.N_desc; _ };
      { nav = Norm.N_label "c"; _ } ] -> ()
  | _ -> Alcotest.fail "norm shape");
  let n2 = Norm.steps (Parser.parse ".[x]/a") in
  Alcotest.(check int) "ctx quals" 1 (List.length n2.Norm.ctx_quals)

let test_lq_topological () =
  let b = Lq.create_builder () in
  let idx = Lq.add_qual b (Parser.parse_qual "not(supplier/sname = \"HP\") and supplier/price < 15") in
  let lq = Lq.freeze b in
  Alcotest.(check bool) "top expression is last-ish" true (idx < Lq.length lq);
  (* sub-expressions strictly precede containing ones *)
  for i = 0 to Lq.length lq - 1 do
    match Lq.expr lq i with
    | Lq.Seq (a, b) | Lq.And_ (a, b) | Lq.Or_ (a, b) ->
      Alcotest.(check bool) "subexpr before" true (a < i && b < i)
    | Lq.Child p | Lq.Desc p | Lq.Not_ p -> Alcotest.(check bool) "subexpr before" true (p < i)
    | _ -> ()
  done

let test_qualdp_matches_direct () =
  (* QualDP through the annotator-style evaluation must agree with the
     direct evaluator on every element for several qualifiers. *)
  let quals =
    [ "supplier/price < 15"; "not(supplier/sname = \"HP\")"; "pname = \"keyboard\"";
      "//sname = \"Tiny\""; "supplier/sname = \"HP\" or pname = \"wheel\"";
      "label() = \"part\" and supplier"; "part/part"; ". = \"keyboard\"" ]
  in
  let d = doc () in
  List.iter
    (fun qs ->
      let q = Parser.parse_qual qs in
      let b = Lq.create_builder () in
      let idx = Lq.add_qual b q in
      let lq = Lq.freeze b in
      (* bottom-up over the whole tree, no pruning: csat from children *)
      let tbl = Hashtbl.create 64 in
      let sc = Lq.scratch lq and wanted = Lq.set_of_list lq (List.init (Lq.length lq) Fun.id) in
      let rec go e =
        List.iter go (Xut_xml.Node.child_elements e);
        let csat i =
          List.exists
            (fun c -> match Hashtbl.find_opt tbl (Xut_xml.Node.id c) with
              | Some arr -> arr.(i)
              | None -> false)
            (Xut_xml.Node.child_elements e)
        in
        Lq.eval lq sc ~name:(Xut_xml.Node.name e) ~attrs:(Xut_xml.Node.attrs e)
          ~text:(Xut_xml.Node.text_content e) ~csat ~wanted;
        Hashtbl.replace tbl (Xut_xml.Node.id e) (Array.init (Lq.length lq) (Lq.holds sc))
      in
      go d;
      Xut_xml.Node.iter_elements
        (fun e ->
          let expected = Eval.check_qual e q in
          let got = (Hashtbl.find tbl (Xut_xml.Node.id e)).(idx) in
          Alcotest.(check bool)
            (Printf.sprintf "QualDP(%s) at %s#%d" qs (Xut_xml.Node.name e) (Xut_xml.Node.id e))
            expected got)
        d)
    quals

let suite =
  [ Alcotest.test_case "parse/print roundtrip" `Quick test_parse_print_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse shapes" `Quick test_parse_shapes;
    Alcotest.test_case "child axis" `Quick test_child_axis;
    Alcotest.test_case "descendant axis" `Quick test_descendant;
    Alcotest.test_case "wildcard" `Quick test_wildcard;
    Alcotest.test_case "document order" `Quick test_doc_order;
    Alcotest.test_case "qualifiers" `Quick test_qualifiers;
    Alcotest.test_case "paper p1 (Ex 3.1)" `Quick test_paper_p1;
    Alcotest.test_case "label() qualifier" `Quick test_label_qual;
    Alcotest.test_case "self steps" `Quick test_self_step;
    Alcotest.test_case "attributes" `Quick test_attr;
    Alcotest.test_case "comparison kinds" `Quick test_text_comparison_kinds;
    Alcotest.test_case "empty path selects root" `Quick test_empty_path_is_root;
    Alcotest.test_case "normalization" `Quick test_norm;
    Alcotest.test_case "LQ topological order" `Quick test_lq_topological;
    Alcotest.test_case "QualDP = direct eval" `Quick test_qualdp_matches_direct ]
