open Xut_xquery

let doc () = Fixtures.parts_doc ()

let run ?docs src =
  let root = doc () in
  let docs = match docs with Some d -> d | None -> [ ("foo", root) ] in
  Xq_eval.run_query (Xq_eval.env ~docs ~context:root ()) src

let run_strings src =
  run src |> List.map Xq_value.string_of_item

let check_strs = Alcotest.(check (list string))
let check_int = Alcotest.(check int)

let test_literals () =
  check_strs "string" [ "hi" ] (run_strings "\"hi\"");
  check_strs "number" [ "42" ] (run_strings "42");
  check_strs "seq" [ "1"; "2"; "3" ] (run_strings "(1, 2, 3)");
  check_strs "empty" [] (run_strings "()")

let test_paths () =
  check_int "doc path" 5 (List.length (run "doc(\"foo\")//part"));
  check_int "context path" 5 (List.length (run "//part"));
  check_int "relative" 2 (List.length (run "db/part"));
  check_strs "text values" [ "keyboard"; "mouse" ] (run_strings "db/part/pname")

let test_flwor () =
  check_strs "for-return" [ "keyboard"; "mouse" ]
    (run_strings "for $x in db/part return $x/pname");
  check_strs "where" [ "mouse" ]
    (run_strings "for $x in db/part where $x/pname = \"mouse\" return $x/pname");
  check_strs "let" [ "2" ] (run_strings "let $n := count(db/part) return $n");
  check_strs "nested for" [ "HP"; "Logi"; "Logi" ]
    (run_strings "for $p in db/part, $s in $p/supplier return $s/sname")

let test_conditionals () =
  check_strs "if-then-else" [ "yes" ]
    (run_strings "if (empty(db/widget)) then \"yes\" else \"no\"");
  check_strs "quantifier some" [ "true" ]
    (run_strings "some $s in //supplier satisfies $s/price > 20");
  check_strs "quantifier every" [ "false" ]
    (run_strings "every $s in //supplier satisfies $s/price > 20")

let test_comparisons () =
  check_strs "numeric existential" [ "true" ] (run_strings "//price > 24");
  check_strs "string eq" [ "true" ] (run_strings "//sname = \"Tiny\"");
  check_strs "neq" [ "true" ] (run_strings "1 != 2");
  check_strs "node identity" [ "true" ]
    (run_strings "let $x := db/part return ($x[pname = \"mouse\"] is $x[pname = \"mouse\"])")

let test_constructors () =
  (match run "<result><count>{count(//part)}</count></result>" with
  | [ Xq_value.N (Xut_xml.Node.Element e) ] ->
    Alcotest.(check string) "name" "result" (Xut_xml.Node.name e);
    Alcotest.(check string) "content" "<result><count>5</count></result>"
      (Xut_xml.Serialize.element_to_string e)
  | _ -> Alcotest.fail "constructor");
  (match run "element {\"a\"} {\"x\", \"y\"}" with
  | [ Xq_value.N (Xut_xml.Node.Element e) ] ->
    Alcotest.(check string) "dyn elem" "<a>x y</a>" (Xut_xml.Serialize.element_to_string e)
  | _ -> Alcotest.fail "element{}");
  match run "element {local-name(db/part[pname = \"mouse\"])} { db/part[pname = \"mouse\"]/pname }" with
  | [ Xq_value.N (Xut_xml.Node.Element e) ] ->
    Alcotest.(check string) "computed" "<part><pname>mouse</pname></part>"
      (Xut_xml.Serialize.element_to_string e)
  | _ -> Alcotest.fail "computed constructor"

let test_attributes () =
  let d = Xut_xml.Dom.parse_string "<r><x id=\"1\" k=\"a\"/><x id=\"2\"/></r>" in
  let go src = Xq_eval.run_query (Xq_eval.env ~context:d ()) src in
  check_int "attr path" 2 (List.length (go "r/x/@id"));
  (match go "for $x in r/x where $x/@id = \"2\" return $x" with
  | [ Xq_value.N _ ] -> ()
  | _ -> Alcotest.fail "attr in where");
  (* attributes copied through element reconstruction *)
  match go "for $x in r/x where $x/@id = \"1\" return element {local-name($x)} { $x/@*, \"body\" }" with
  | [ Xq_value.N (Xut_xml.Node.Element e) ] ->
    Alcotest.(check (option string)) "id kept" (Some "1") (Xut_xml.Node.attr e "id");
    Alcotest.(check (option string)) "k kept" (Some "a") (Xut_xml.Node.attr e "k")
  | _ -> Alcotest.fail "attr reconstruction"

let test_functions () =
  let src =
    {|declare function local:depth($n as node()) as node()* {
        if (xut:is-element($n))
        then (1, for $c in xut:children($n) return local:depth($c))
        else ()
      };
      count(local:depth(doc("foo")/*))|}
  in
  check_strs "recursive function" [ "35" ] (run_strings src)

let test_fig2_style_rewrite () =
  (* the hand-written Fig. 2 insert template, on the mini engine *)
  let src =
    {|declare function local:ins($n, $xp) {
        if (xut:is-element($n))
        then element {fn:local-name($n)} {
          $n/@*,
          (for $c in xut:children($n) return local:ins($c, $xp)),
          (if (some $x in $xp satisfies ($n is $x)) then <flag/> else ())
        }
        else $n
      };
      let $xp := doc("foo")//part[pname = "keyboard"]
      return document { for $n in doc("foo")/* return local:ins($n, $xp) }|}
  in
  let out = Xq_eval.value_to_element (run src) in
  let flags = Xut_xpath.Eval.select_doc out (Xut_xpath.Parser.parse "//flag") in
  check_int "one flag" 1 (List.length flags);
  (* and it matches the native engine on the same update *)
  let u =
    Core.Transform_ast.Insert
      (Xut_xpath.Parser.parse "//part[pname = \"keyboard\"]", Xut_xml.Node.elem "flag" [])
  in
  let expected = Core.Engine.transform Core.Engine.Reference u (doc ()) in
  Alcotest.(check bool) "equals native" true (Xut_xml.Node.equal_element expected out)

let test_parse_errors () =
  let fails src =
    match Xq_parser.parse src with
    | exception Xq_parser.Parse_error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ src)
  in
  fails "for $x in";
  fails "if (1) then 2";
  fails "<a><b></a></b>";
  fails "let $x = 1 return $x";
  fails "1 +"

let test_print_parse_roundtrip () =
  let cases =
    [ "for $x in db/part where $x/pname = \"mouse\" return $x/pname";
      "if (empty(db/widget)) then \"yes\" else \"no\"";
      "some $s in //supplier satisfies $s/price > 20";
      "let $n := count(db/part) return $n";
      "<result><count>{count(//part)}</count></result>";
      "element {\"a\"} {\"x\"}";
      "for $p in db/part, $s in $p/supplier return $s/sname" ]
  in
  let root = doc () in
  let env = Xq_eval.env ~docs:[ ("foo", root) ] ~context:root () in
  List.iter
    (fun src ->
      let e1 = Xq_parser.parse_expr src in
      let printed = Xq_ast.to_string e1 in
      let e2 =
        try Xq_parser.parse_expr printed
        with Xq_parser.Parse_error m -> Alcotest.fail (Printf.sprintf "reparse %S: %s" printed m)
      in
      let v1 = Xq_eval.eval_expr env e1 |> List.map Xq_value.string_of_item in
      let v2 = Xq_eval.eval_expr env e2 |> List.map Xq_value.string_of_item in
      check_strs ("roundtrip " ^ src) v1 v2)
    cases

let test_arithmetic () =
  check_strs "add" [ "3" ] (run_strings "1 + 2");
  check_strs "precedence" [ "7" ] (run_strings "1 + 2 * 3");
  check_strs "parens" [ "9" ] (run_strings "(1 + 2) * 3");
  check_strs "div" [ "2.5" ] (run_strings "5 div 2");
  check_strs "mod" [ "1" ] (run_strings "7 mod 3");
  check_strs "left assoc" [ "2" ] (run_strings "5 - 2 - 1");
  check_strs "over node values" [ "32" ]
    (run_strings "let $p := db/part[pname = \"keyboard\"] return sum($p/supplier/price)");
  check_strs "path plus const" [ "13" ]
    (run_strings "db/part[pname = \"keyboard\"]/supplier[sname = \"HP\"]/price + 1");
  check_strs "empty propagates" [] (run_strings "() + 1")

let test_numeric_builtins () =
  check_strs "count" [ "2" ] (run_strings "count(db/part)");
  check_strs "sum" [ "81" ] (run_strings "sum(//price)");
  check_strs "avg" [ "19" ] (run_strings "avg((12, 20, 25))");
  check_strs "max" [ "25" ] (run_strings "max(//price)");
  check_strs "min" [ "1" ] (run_strings "min((3, 1, 2))");
  check_strs "round" [ "3" ] (run_strings "round(2.5)");
  check_strs "floor/ceiling" [ "2"; "3" ] (run_strings "(floor(2.9), ceiling(2.1))");
  check_strs "number of junk is nan" [ "nan" ] (run_strings "string(number(\"abc\"))")

let test_string_builtins () =
  check_strs "string-length" [ "5" ] (run_strings "string-length(\"hello\")");
  check_strs "contains" [ "true" ] (run_strings "contains(\"keyboard\", \"boa\")");
  check_strs "starts-with" [ "true" ] (run_strings "starts-with(\"keyboard\", \"key\")");
  check_strs "ends-with" [ "false" ] (run_strings "ends-with(\"keyboard\", \"key\")");
  check_strs "case" [ "ABC"; "abc" ] (run_strings "(upper-case(\"aBc\"), lower-case(\"aBc\"))");
  check_strs "normalize-space" [ "a b c" ] (run_strings "normalize-space(\"  a\tb  c \")");
  check_strs "string-join" [ "HP,Logi,Acme,Logi,Acme,Tiny" ]
    (run_strings "string-join(//sname, \",\")");
  check_strs "distinct-values" [ "HP"; "Logi"; "Acme"; "Tiny" ]
    (run_strings "distinct-values(//sname)");
  check_strs "contains over nodes" [ "keyboard" ]
    (run_strings "for $p in db/part where contains($p/pname, \"board\") return $p/pname")

let test_comments () =
  check_strs "xquery comments" [ "2" ]
    (run_strings "(: a comment (: nested :) :) count(db/part)")

(* An XML literal cut off after "<!" used to read past the end of the
   source ([String.sub] raised [Invalid_argument]); it is a parse error. *)
let test_truncated_markup () =
  List.iter
    (fun src ->
      match Xq_parser.parse_expr src with
      | exception Xq_parser.Parse_error _ -> ()
      | exception e -> Alcotest.failf "%S raised %s" src (Printexc.to_string e)
      | _ -> Alcotest.failf "should not parse: %S" src)
    [ "<a><!"; "<a><!-"; "<a><!--"; "<a><!x"; "<a>&#x;</a>"; "<a>&#;</a>"; "<a>&#zz;</a>" ]

(* Character references in XML literals name Unicode scalar values and
   are written as UTF-8, as the document parser reads them; U+0000,
   surrogates, values past U+10FFFF and malformed digits are parse
   errors. *)
let test_char_refs () =
  check_strs "text" [ "\xc3\xa9\xe4\xb8\xad\xf0\x9f\x98\x80AA" ]
    (run_strings "<a>&#233;&#x4E2D;&#x1F600;&#65;&#x41;</a>");
  check_strs "attribute" [ "\xc3\xa9" ] (run_strings "<a b=\"&#233;\">x</a>/@b");
  List.iter
    (fun src ->
      match Xq_parser.parse_expr src with
      | exception Xq_parser.Parse_error _ -> ()
      | _ -> Alcotest.failf "should not parse: %S" src)
    [ "<a>&#0;</a>"; "<a>&#xD800;</a>"; "<a>&#xDFFF;</a>"; "<a>&#x110000;</a>"; "<a>&#-5;</a>";
      "<a>&#1_0;</a>"; "<a>&#+5;</a>"; "<a>&#x99999999999999999999;</a>" ]

(* Random token soup, half the time behind an opening that reaches an
   XML literal: the parsers either parse or raise their own
   [Parse_error], never another exception. *)
let gen_token_soup =
  QCheck.Gen.(
    map2 ( ^ )
      (oneofl
         [ ""; ""; ""; "<a>"; "for $x in site return <a>";
           "transform copy $a := doc(\"d\") modify do insert <a>";
           "insert <a>" ])
      (map (String.concat "")
         (list_size (int_range 0 24)
            (oneof
               [ oneofl
                   [ "transform"; "copy"; "$a"; ":="; "doc(\"d\")"; "modify"; "do"; "delete";
                     "insert"; "into"; "replace"; "with"; "rename"; "as"; "return"; "for";
                     "$x"; "in"; "where"; "let"; "if"; "then"; "else"; "count("; "site"; "a";
                     "1"; "<a>"; "</a>"; "<a/>"; "<!"; "<!-"; "<!--"; "-->"; "/"; "//"; "[";
                     "]"; "("; ")"; ","; "="; "\""; "'"; "&"; "&#"; "x"; ";"; "{"; "}"; "@";
                     "*"; "."; ".."; "text()"; "<"; ">"; "-"; "+" ];
                 oneofl [ " "; ""; "\n" ];
                 map (String.make 1) printable ]))))

let prop_parsers_raise_only_parse_error =
  let only_parse_error name parse src =
    match parse src with
    | _ -> true
    | exception (Xq_parser.Parse_error _ | Core.Transform_parser.Parse_error _) -> true
    | exception e -> QCheck.Test.fail_reportf "%s raised %s on %S" name (Printexc.to_string e) src
  in
  QCheck.Test.make ~count:3000 ~name:"parsers raise only Parse_error on token soup"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_token_soup)
    (fun src ->
      only_parse_error "Xq_parser.parse_expr" (fun s -> ignore (Xq_parser.parse_expr s)) src
      && only_parse_error "Transform_parser.parse"
           (fun s -> ignore (Core.Transform_parser.parse s)) src
      && only_parse_error "Transform_parser.parse_updates"
           (fun s -> ignore (Core.Transform_parser.parse_updates s)) src)

(* Well-formed element literals: nested elements holding comments and
   PIs with '>' inside, CDATA with '<' and '&', quoted attribute values
   with '>' and references, and whitespace runs; some led by whitespace,
   a comment or a PI. *)
let gen_literal =
  QCheck.Gen.(
    let concat_of pieces = map (String.concat "") (list_size (int_range 1 4) (oneofl pieces)) in
    let text = concat_of [ "w"; "two words"; "&amp;"; "&lt;"; "&gt;"; "&#65;"; "&#x1F600;"; "'"; "\""; " " ] in
    let ws = oneofl [ " "; "\n"; "  \t"; "\r\n " ] in
    let comment = oneofl [ "<!-- a > b -->"; "<!---->"; "<!-- <x> -> -->" ] in
    let pi = oneofl [ "<?p a>b?>"; "<?q?>"; "<?r <x/> ??>" ] in
    let cdata = oneofl [ "<![CDATA[<x>&amp;]]>"; "<![CDATA[]]>"; "<![CDATA[a]b>]]]>" ] in
    let attr =
      let* quote = oneofl [ "\""; "'" ] in
      let* value = list_size (int_range 0 3) (oneofl [ ">"; "v"; "&amp;"; "&#x41;"; " "; "/>"; "<" ]) in
      let+ name = oneofl [ "k"; "id"; "x-y" ] in
      Printf.sprintf " %s=%s%s%s" name quote (String.concat "" value) quote
    in
    let element =
      fix (fun self depth ->
          let* name = oneofl [ "a"; "item"; "x.y" ] in
          let* attrs = list_size (int_range 0 2) attr in
          let attrs = String.concat "" (List.sort_uniq compare attrs) in
          let child = if depth = 0 then oneof [ text; ws ] else oneof [ self (depth - 1); text; ws; comment; pi; cdata ] in
          let* children = list_size (int_range 0 4) child in
          let+ pad = oneofl [ ""; " "; "\n" ] in
          if children = [] && pad = "" then Printf.sprintf "<%s%s/>" name attrs
          else Printf.sprintf "<%s%s%s>%s</%s%s>" name attrs pad (String.concat "" children) name pad)
    in
    let* lead = oneofl [ ""; " "; "\n "; "<!-- lead > -->"; "<?p lead?> " ] in
    let+ root = int_range 0 3 >>= element in
    lead ^ root)

(* A transform query's literal is the element the document parser reads
   from the same text. *)
let prop_literals_parse_as_documents =
  QCheck.Test.make ~count:300 ~name:"transform literals parse as documents do"
    (QCheck.make ~print:(fun s -> s) gen_literal)
    (fun l ->
      match Core.Transform_parser.parse_update ("insert " ^ l ^ " into $a/x") with
      | Core.Transform_ast.Insert (_, Xut_xml.Node.Element e) ->
        Xut_xml.Node.equal_element e (Xut_xml.Dom.parse_string l)
      | _ -> false)

(* Text with well-formed and malformed references, never whitespace only
   (a constructor keeps whitespace-only text the document parser
   drops). *)
let gen_reference_text =
  QCheck.Gen.(
    map
      (fun parts -> "x" ^ String.concat "" parts)
      (list_size (int_range 0 8)
         (oneofl
            [ "w"; " "; "\n"; ">"; "&amp;"; "&lt;"; "&gt;"; "&quot;"; "&apos;"; "&#65;"; "&#x41;";
              "&#x1F600;"; "&#0065;"; "&#0;"; "&#xD800;"; "&#x110000;"; "&#;"; "&#x;"; "&#X41;";
              "&bogus;"; "&amp"; "&"; ";"; "#"; "&#1_0;"; "&#x99999999999999999999;"; "&a-b;"; "&#65 ;" ])))

(* An XQuery literal's text and attribute value decode as the document
   parser decodes them, and both reject the same references. *)
let prop_literal_references =
  let xquery src =
    match Xq_parser.parse_expr src with
    | Xq_ast.ElemLit (_, [], [ Xq_ast.TextCtor (Xq_ast.Str s) ]) | Xq_ast.ElemLit (_, [ (_, s) ], []) ->
      Some s
    | _ -> Some "unexpected AST"
    | exception Xq_parser.Parse_error _ -> None
  in
  let document src =
    match Xut_xml.Dom.parse_string src with
    | e -> ( match Xut_xml.Node.attrs e with [ (_, v) ] -> Some v | _ -> Some (Xut_xml.Node.text_content e))
    | exception Xut_xml.Sax.Parse_error _ -> None
  in
  QCheck.Test.make ~count:500 ~name:"XQuery literal references = document parser's"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_reference_text)
    (fun t ->
      let text = "<a>" ^ t ^ "</a>" and attr = "<a b=\"" ^ t ^ "\"/>" in
      xquery text = document text && xquery attr = document attr)

let suite =
  [ Alcotest.test_case "literals" `Quick test_literals;
    Alcotest.test_case "paths" `Quick test_paths;
    Alcotest.test_case "flwor" `Quick test_flwor;
    Alcotest.test_case "conditionals" `Quick test_conditionals;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "constructors" `Quick test_constructors;
    Alcotest.test_case "attributes" `Quick test_attributes;
    Alcotest.test_case "recursive functions" `Quick test_functions;
    Alcotest.test_case "Fig. 2 rewriting by hand" `Quick test_fig2_style_rewrite;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "print/parse roundtrip" `Quick test_print_parse_roundtrip;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "numeric builtins" `Quick test_numeric_builtins;
    Alcotest.test_case "string builtins" `Quick test_string_builtins;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "markup cut off after <!" `Quick test_truncated_markup;
    Alcotest.test_case "character references as UTF-8" `Quick test_char_refs;
    QCheck_alcotest.to_alcotest prop_parsers_raise_only_parse_error;
    QCheck_alcotest.to_alcotest prop_literals_parse_as_documents;
    QCheck_alcotest.to_alcotest prop_literal_references ]
