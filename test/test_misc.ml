(* Coverage for the smaller surfaces: lexers, normal forms, printers,
   escaping, dispatch. *)
open Xut_xpath
open Core

let check_strs = Alcotest.(check (list string))

(* --- xpath lexer -------------------------------------------------------- *)

let test_xpath_lexer () =
  let toks = Lexer.tokenize "a//b[c >= 10.5 and @id != 'x']" in
  let strs = List.map Lexer.token_to_string toks in
  check_strs "tokens"
    [ "a"; "//"; "b"; "["; "c"; ">="; "10.5"; "and"; "@"; "id"; "!="; "\"x\""; "]"; "<eof>" ]
    strs;
  (match Lexer.tokenize "!x" with
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "lone ! must fail");
  match Lexer.tokenize "'unterminated" with
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "unterminated string must fail"

(* --- xquery scanner ----------------------------------------------------- *)

let test_xq_scanner () =
  let s = Xut_xquery.Xq_scanner.of_string "let $x := 1 + 2 (: c :) return $x" in
  let rec drain acc =
    match Xut_xquery.Xq_scanner.next s with
    | Xut_xquery.Xq_scanner.EOF -> List.rev acc
    | tok -> drain (Xut_xquery.Xq_scanner.token_to_string tok :: acc)
  in
  check_strs "tokens" [ "let"; "$x"; ":="; "1."; "+"; "2."; "return"; "$x" ] (drain [])

(* --- normal forms ------------------------------------------------------- *)

let test_norm_to_string () =
  let n = Norm.steps (Parser.parse "a/./b[c]//d") in
  Alcotest.(check string) "printed" "a/b[c]//d" (Norm.to_string n)

let test_norm_roundtrip () =
  List.iter
    (fun src ->
      let p = Parser.parse src in
      let n = Norm.steps p in
      let back = Norm.to_path n in
      (* normalized path selects the same nodes *)
      let doc = Fixtures.parts_doc () in
      let ids l = List.map Xut_xml.Node.id l in
      Alcotest.(check (list int)) (src ^ " same selection")
        (ids (Eval.select_doc doc p))
        (ids (Eval.select_doc doc back)))
    [ "db/./part"; "//part[pname = 'keyboard']/."; "db//part//supplier"; "./db/part" ]

let test_label_blocked () =
  let b = Lq.create_builder () in
  let idx = Lq.add_qual b (Parser.parse_qual "supplier/sname = 'HP'") in
  let lq = Lq.freeze b in
  (* the first Child sub-expression is guarded by label 'supplier' *)
  let child_expr =
    match Lq.expr lq idx with Lq.Child p -> p | _ -> Alcotest.fail "expected Child"
  in
  Alcotest.(check bool) "blocked at part" true (Lq.label_blocked lq child_expr "part");
  Alcotest.(check bool) "open at supplier" false (Lq.label_blocked lq child_expr "supplier");
  Alcotest.(check bool) "printable" true (String.length (Lq.expr_to_string lq idx) > 0)

(* --- selecting NFA misc ------------------------------------------------- *)

let test_nfa_misc () =
  let nfa = Xut_automata.Selecting_nfa.of_path (Parser.parse "a//b[c]") in
  Alcotest.(check bool) "to_string mentions final" true
    (String.length (Xut_automata.Selecting_nfa.to_string nfa) > 0);
  Alcotest.(check bool) "label state consistent" true
    (Xut_automata.Selecting_nfa.consistent_at nfa 1 "a");
  Alcotest.(check bool) "label state inconsistent" false
    (Xut_automata.Selecting_nfa.consistent_at nfa 1 "b");
  Alcotest.(check bool) "desc state fits anything" true
    (Xut_automata.Selecting_nfa.consistent_at nfa 2 "zzz")

(* --- engine dispatch ----------------------------------------------------- *)

let test_engine_names () =
  List.iter
    (fun algo ->
      match Engine.of_string (Engine.name algo) with
      | Some a -> Alcotest.(check string) "roundtrip" (Engine.name algo) (Engine.name a)
      | None -> Alcotest.fail ("of_string failed for " ^ Engine.name algo))
    Engine.all;
  Alcotest.(check bool) "unknown rejected" true (Engine.of_string "quantum" = None)

(* --- escaping ------------------------------------------------------------ *)

let gen_wild_string =
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 30))

let prop_escape_roundtrip =
  QCheck2.Test.make ~name:"wild text and attributes survive serialize/parse" ~count:500
    QCheck2.Gen.(pair gen_wild_string gen_wild_string)
    (fun (text, attr) ->
      let e =
        Xut_xml.Node.element ~attrs:[ ("a", attr) ] "r"
          (if text = "" then [] else [ Xut_xml.Node.Text text ])
      in
      let back = Xut_xml.Dom.parse_string ~keep_ws:true (Xut_xml.Serialize.element_to_string e) in
      Xut_xml.Node.attr back "a" = Some attr
      && Xut_xml.Node.text_content back = text)

let test_update_kind_helpers () =
  let p = Parser.parse "a/b" in
  let e = Xut_xml.Node.elem "x" [] in
  Alcotest.(check string) "insert" "insert" (Transform_ast.update_kind (Transform_ast.Insert (p, e)));
  Alcotest.(check string) "insert first" "insert"
    (Transform_ast.update_kind (Transform_ast.Insert_first (p, e)));
  Alcotest.(check string) "delete" "delete" (Transform_ast.update_kind (Transform_ast.Delete p));
  let q = Parser.parse "c/d" in
  List.iter
    (fun u ->
      Alcotest.(check bool) "with_path changes the path" true
        (Ast.equal_path q (Transform_ast.path (Transform_ast.with_path u q))))
    [ Transform_ast.Insert (p, e); Transform_ast.Insert_first (p, e); Transform_ast.Delete p;
      Transform_ast.Replace (p, e); Transform_ast.Rename (p, "z") ]

(* --- Fig. 2 rewriting text for every op ---------------------------------- *)

let test_rewrite_text_all_ops () =
  let doc = Fixtures.parts_doc () in
  List.iter
    (fun u ->
      let q = Transform_ast.make ~doc:"foo" u in
      let text = Xquery_rewrite.rewrite_to_string q in
      let prog = Xut_xquery.Xq_parser.parse text in
      let env = Xut_xquery.Xq_eval.env ~docs:[ ("foo", doc) ] ~context:doc () in
      let out = Xut_xquery.Xq_eval.value_to_element (Xut_xquery.Xq_eval.eval_program env prog) in
      let expected = Engine.transform Engine.Reference u doc in
      Alcotest.(check bool)
        ("rewritten text runs: " ^ Transform_ast.update_kind u)
        true
        (Xut_xml.Node.equal_element expected out))
    [ Transform_ast.Insert (Parser.parse "//part", Xut_xml.Node.elem "v" []);
      Transform_ast.Insert_first (Parser.parse "//part", Xut_xml.Node.elem "v" []);
      Transform_ast.Delete (Parser.parse "//price");
      Transform_ast.Replace (Parser.parse "//pname", Xut_xml.Node.elem "pname" [ Xut_xml.Node.text "x" ]);
      Transform_ast.Rename (Parser.parse "//supplier", "vendor") ]

(* --- the CLI's exit on malformed input --------------------------------- *)

(* A query or document the CLI cannot parse is reported with its
   message and exit code 2, never as an uncaught exception (exit 125). *)
let test_cli_parse_errors () =
  let xut = Filename.concat (Filename.dirname Sys.executable_name) "../bin/xut.exe" in
  let doc = Filename.temp_file "xut_cli" ".xml" and err = Filename.temp_file "xut_cli" ".err" in
  let bad = Filename.temp_file "xut_cli" ".xml" and two = Filename.temp_file "xut_cli" ".xml" in
  let delete = "transform copy $a := doc(\"d\") modify do delete $a/a/zz return $a" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ doc; err; bad; two ])
    (fun () ->
      Out_channel.with_open_bin doc (fun oc -> output_string oc "<a><b/></a>");
      Out_channel.with_open_bin bad (fun oc -> output_string oc "<a>\n<b></a>");
      Out_channel.with_open_bin two (fun oc -> output_string oc "<a><x/></a><b><x/></b>");
      List.iter
        (fun (args, message) ->
          let code =
            Sys.command
              (Filename.quote_command xut args ~stdout:Filename.null ~stderr:err)
          in
          let stderr = In_channel.with_open_bin err In_channel.input_all in
          let label = String.concat " " args in
          Alcotest.(check int) (label ^ ": exit") 2 code;
          if not (String.starts_with ~prefix:message stderr) then
            Alcotest.failf "%s: stderr %S" label stderr)
        [ ([ "query"; "for $x in"; "-d"; doc ], "xut: query parse error: ");
          ([ "transform"; "transform copy"; "-d"; doc ], "xut: query parse error: ");
          ([ "query"; "<a>&#0;</a>"; "-d"; doc ], "xut: query parse error: ");
          ( [ "transform"; "transform copy $a := doc(\"d\") modify do delete $a/b return $a"; "-d";
              bad; "--stream" ],
            "xut: parse error at 2:8: mismatched tags: <b> closed by </a>" );
          (* a second document element, materialized and streamed *)
          ([ "transform"; delete; "-d"; two ], "xut: parse error at 1:12: a second document element");
          ( [ "transform"; delete; "-d"; two; "--stream" ],
            "xut: parse error at 1:12: a second document element" ) ])

let suite =
  [ Alcotest.test_case "xpath lexer" `Quick test_xpath_lexer;
    Alcotest.test_case "xquery scanner" `Quick test_xq_scanner;
    Alcotest.test_case "norm to_string" `Quick test_norm_to_string;
    Alcotest.test_case "norm roundtrip" `Quick test_norm_roundtrip;
    Alcotest.test_case "label_blocked" `Quick test_label_blocked;
    Alcotest.test_case "nfa misc" `Quick test_nfa_misc;
    Alcotest.test_case "engine names" `Quick test_engine_names;
    Alcotest.test_case "update kind helpers" `Quick test_update_kind_helpers;
    Alcotest.test_case "Fig. 2 text, all ops" `Quick test_rewrite_text_all_ops;
    QCheck_alcotest.to_alcotest prop_escape_roundtrip;
    Alcotest.test_case "CLI parse errors exit 2" `Quick test_cli_parse_errors ]
