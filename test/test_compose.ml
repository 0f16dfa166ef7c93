open Xut_xml
open Core
open Xut_xquery

let parse_path = Xut_xpath.Parser.parse

(* Results compared after serialization: constructed elements get fresh
   ids, so structural comparison is what matters. *)
let value_repr (v : Xq_value.t) : string list =
  List.map
    (fun item ->
      match item with
      | Xq_value.N n -> Serialize.to_string n
      | Xq_value.D e -> Serialize.element_to_string e
      | other -> Xq_value.string_of_item other)
    v

let check_equiv ?(doc = Fixtures.parts_doc ()) name update uq =
  (* the specification: evaluate Q on reference-Qt(T) *)
  let expected =
    let t' = Engine.transform Engine.Reference update doc in
    value_repr (User_query.run uq ~doc:t')
  in
  let composed =
    match Composition.compose update uq with
    | Ok c -> c
    | Error m -> Alcotest.fail (name ^ ": did not compose: " ^ m)
  in
  let got = value_repr (Composition.run_composed composed ~doc) in
  Alcotest.(check (list string)) (name ^ " compose = spec") expected got;
  let naive = value_repr (Composition.naive update uq ~doc) in
  Alcotest.(check (list string)) (name ^ " naive = spec") expected naive

let supplier_e =
  Node.elem "supplier" [ Node.elem "sname" [ Node.text "HP" ] ]

(* Example 4.1 / 4.2: security view deleting suppliers from country A,
   user asks for the keyboard part's suppliers. *)
let test_example_4_2 () =
  let update = Transform_ast.Delete (parse_path "//supplier[country = \"A\"]") in
  let uq = User_query.parse "for $x in db/part[pname = \"keyboard\"]/supplier return $x" in
  check_equiv "Ex 4.2" update uq;
  (* the deleted supplier (HP, country A) must be gone from the answer *)
  let out = Composition.run update uq ~doc:(Fixtures.parts_doc ()) in
  Alcotest.(check int) "one supplier left" 1 (List.length out)

(* Example 4.3, pair (Q1, Q'1): delete a/b[q]; user a/b/c. *)
let test_example_4_3_q1 () =
  let doc =
    Dom.parse_string
      "<a><b><q/><c>one</c></b><b><c>two</c></b><b><q/><c>three</c></b></a>"
  in
  let update = Transform_ast.Delete (parse_path "a/b[q]") in
  let uq = User_query.parse "for $x in a/b/c return $x" in
  check_equiv ~doc "Ex 4.3 Q1" update uq;
  let got = value_repr (Composition.run update uq ~doc) in
  Alcotest.(check (list string)) "only unguarded b survives" [ "<c>two</c>" ] got

(* Example 4.3, pair (Q2, Q'2): delete a/b/c; user a/b[not(./c = 'A')]. *)
let test_example_4_3_q2 () =
  let doc = Dom.parse_string "<a><b><c>A</c><d/></b><b><c>B</c></b></a>" in
  let update = Transform_ast.Delete (parse_path "a/b/c") in
  let uq = User_query.parse "for $x in a/b[not(c = \"A\")] return $x" in
  check_equiv ~doc "Ex 4.3 Q2" update uq;
  (* after the delete no b has a c child, so both b's qualify *)
  let got = Composition.run update uq ~doc in
  Alcotest.(check int) "both b's" 2 (List.length got)

(* Example 4.3, pair (Q3, Q'3): insert e into a//c; user a/b. *)
let test_example_4_3_q3 () =
  let doc = Dom.parse_string "<a><b><c/><x><c/></x></b><b/></a>" in
  let update = Transform_ast.Insert (parse_path "a//c", Node.elem "e" []) in
  let uq = User_query.parse "for $x in a/b return $x" in
  check_equiv ~doc "Ex 4.3 Q3" update uq;
  let got = value_repr (Composition.run update uq ~doc) in
  Alcotest.(check (list string)) "insertions visible inside $x"
    [ "<b><c><e/></c><x><c><e/></c></x></b>"; "<b/>" ]
    got

let test_disjoint_pair_has_no_runtime_helper () =
  (* U9-style insert into regions, user query over people: the composed
     query must not contain any runtime topDown call. *)
  let update =
    Transform_ast.Insert (parse_path "site/regions//item[location = \"United States\"]", supplier_e)
  in
  let uq = User_query.parse "for $x in site/people/person return $x/name" in
  match Composition.compose update uq with
  | Error m -> Alcotest.fail m
  | Ok c ->
    Alcotest.(check int) "no natives registered" 0 (Composition.native_count c);
    let doc = Xut_xmark.Generator.generate ~factor:0.002 () in
    check_equiv ~doc "disjoint pair" update uq

let test_matrix_on_parts () =
  let updates =
    [ Transform_ast.Delete (parse_path "//supplier[country = \"A\"]");
      Transform_ast.Delete (parse_path "//price");
      Transform_ast.Delete (parse_path "db/part/part");
      Transform_ast.Insert (parse_path "//part[pname = \"keyboard\"]", supplier_e);
      Transform_ast.Insert (parse_path "//supplier", Node.elem "verified" []);
      Transform_ast.Insert (parse_path "db/part", supplier_e);
      Transform_ast.Insert_first (parse_path "//part", supplier_e);
      Transform_ast.Delete (parse_path "db/nosuch") ]
  in
  let queries =
    [ "for $x in db/part return $x/pname";
      "for $x in db/part/supplier return $x";
      "for $x in db//supplier return $x/sname";
      "for $x in db/part where $x/supplier/price > 20 return $x/pname";
      "for $x in db/part[supplier/country = \"B\"] return $x";
      "for $x in db//part return <p>{$x/pname}{$x/supplier}</p>";
      "for $x in db/part return $x" ]
  in
  List.iter
    (fun u ->
      List.iter
        (fun q ->
          let uq = User_query.parse q in
          check_equiv
            (Printf.sprintf "matrix [%s | %s]" (Transform_ast.update_to_string u) q)
            u uq)
        queries)
    updates

let test_matrix_on_xmark () =
  let doc = Xut_xmark.Generator.generate ~factor:0.002 () in
  let new_elem = Node.elem "new_elem" [ Node.text "inserted" ] in
  let pairs =
    [ (Transform_ast.Insert (parse_path "site/people/person", new_elem),
       "for $x in site/people/person where $x/@id = \"person1\" return $x");
      (Transform_ast.Insert (parse_path "site/regions//item[location = \"United States\"]", new_elem),
       "for $x in site/people/person return $x/name");
      (Transform_ast.Insert (parse_path "site/regions//item[location = \"United States\"]", new_elem),
       "for $x in site/regions//item return $x");
      (Transform_ast.Delete
         (parse_path "site/open_auctions/open_auction[initial > 10 and reserve > 50]/bidder"),
       "for $x in site//open_auctions/open_auction[not(@id = \"open_auction2\")]/bidder[increase > 10] return $x");
      (Transform_ast.Delete (parse_path "site//description"),
       "for $x in site/regions//item return <item-summary>{$x/name}{$x/description}</item-summary>")
    ]
  in
  List.iteri
    (fun i (u, q) -> check_equiv ~doc (Printf.sprintf "xmark pair %d" i) u (User_query.parse q))
    pairs

let test_relabeling_updates_compose () =
  (* rename and replace change labels, so label-based user steps must be
     judged against the transformed view (DESIGN.md: widened simulation) *)
  let cases =
    [ (Transform_ast.Rename (parse_path "//supplier", "vendor"),
       "for $x in db/part return $x");
      (* the renamed nodes are found under their NEW name... *)
      (Transform_ast.Rename (parse_path "//supplier", "vendor"),
       "for $x in db/part/vendor return $x/sname");
      (* ...and no longer under the old one *)
      (Transform_ast.Rename (parse_path "//supplier", "vendor"),
       "for $x in db/part/supplier return $x");
      (Transform_ast.Rename (parse_path "//supplier[country = \"A\"]", "banned"),
       "for $x in db//banned return $x");
      (Transform_ast.Replace (parse_path "//supplier[country = \"A\"]", Node.elem "redacted" []),
       "for $x in db/part return <p>{$x/pname}{$x/redacted}</p>");
      (Transform_ast.Replace (parse_path "//price", Node.elem "price" [ Node.text "0" ]),
       "for $x in db//supplier where $x/price < 1 return $x/sname") ]
  in
  List.iteri
    (fun i (u, q) -> check_equiv (Printf.sprintf "relabel %d" i) u (User_query.parse q))
    cases;
  (* and renamed nodes inside a '//' user step *)
  check_equiv "rename under //"
    (Transform_ast.Rename (parse_path "db/part/part", "subpart"))
    (User_query.parse "for $x in db//subpart return $x/pname")

let test_composed_query_prints () =
  let update = Transform_ast.Delete (parse_path "//supplier[country = \"A\"]") in
  let uq = User_query.parse "for $x in db/part[pname = \"keyboard\"]/supplier return $x" in
  match Composition.compose update uq with
  | Error m -> Alcotest.fail m
  | Ok c ->
    let s = Composition.to_string c in
    Alcotest.(check bool) "mentions the runtime helper or a plain loop" true
      (String.length s > 0)

(* --- the Fig. 2 rewriting --- *)

let test_rewrite_equals_native () =
  let doc = Fixtures.parts_doc () in
  let updates =
    [ Transform_ast.Insert (parse_path "//part[pname = \"keyboard\"]", supplier_e);
      Transform_ast.Delete (parse_path "//supplier[country = \"A\"]/price");
      Transform_ast.Replace (parse_path "//pname", Node.elem "pname" [ Node.text "redacted" ]);
      Transform_ast.Rename (parse_path "//supplier", "vendor") ]
  in
  List.iter
    (fun u ->
      let q = Transform_ast.make ~doc:"foo" u in
      let expected = Engine.transform Engine.Reference u doc in
      let got = Xquery_rewrite.run q ~doc in
      Alcotest.(check bool)
        ("rewrite = native: " ^ Transform_ast.update_to_string u)
        true
        (Node.equal_element expected got))
    updates

let test_rewrite_text_reparses () =
  let q =
    Transform_ast.make ~doc:"foo"
      (Transform_ast.Insert (parse_path "//part[pname = \"keyboard\"]", supplier_e))
  in
  let text = Xquery_rewrite.rewrite_to_string q in
  let doc = Fixtures.parts_doc () in
  let prog =
    try Xq_parser.parse text
    with Xq_parser.Parse_error m -> Alcotest.fail (m ^ "\n---\n" ^ text)
  in
  let env = Xq_eval.env ~docs:[ ("foo", doc) ] ~context:doc () in
  let out = Xq_eval.value_to_element (Xq_eval.eval_program env prog) in
  let expected = Engine.transform Engine.Reference q.Transform_ast.update doc in
  Alcotest.(check bool) "reparsed rewriting runs" true (Node.equal_element expected out)

(* Qualified '//' steps ([//.[q]]): an update with one composes, as
   does GENTOP compiled to XQuery; a user path with one, and an update
   whose [q] sits on the document node, fall back to naive composition
   (the static simulation has no test-state or document-node check). *)
let test_qualified_descendant () =
  let doc = Dom.parse_string "<r><c><a><a/></a><a/><x><y><b/><a/></y></x></c></r>" in
  let uq = User_query.parse "for $x in r/c//a return $x" in
  List.iter
    (fun path ->
      let update = Transform_ast.Delete (parse_path path) in
      check_equiv ~doc path update uq;
      let expected = Engine.transform Engine.Reference update doc in
      let q = Transform_ast.make ~doc:"d" update in
      Alcotest.(check bool) (path ^ ": compiled GENTOP") true
        (Node.equal_element expected (Xquery_compile.run q ~doc));
      Alcotest.(check bool) (path ^ ": compiled TD-BU") true
        (Node.equal_element expected (Xquery_compile.run_tdbu q ~doc)))
    [ "r/c//.[a/a]/a"; "r/c//.[b]/a"; "r/c//.[a]" ];
  let falls_back label update uq =
    match Composition.compose update uq with
    | Ok _ -> Alcotest.failf "%s: composed" label
    | Error _ ->
      let expected =
        value_repr (User_query.run uq ~doc:(Engine.transform Engine.Reference update doc))
      in
      Alcotest.(check (list string)) (label ^ ": naive = spec") expected
        (value_repr (Composition.naive update uq ~doc))
  in
  falls_back "user //.[b]"
    (Transform_ast.Delete (parse_path "r/c/x/y/b"))
    (User_query.parse "for $x in r/c//.[b]/a return $x");
  falls_back "update //.[r] at the document node"
    (Transform_ast.Delete (parse_path "//.[r]/r/c/x"))
    uq

let suite =
  [ Alcotest.test_case "Example 4.2" `Quick test_example_4_2;
    Alcotest.test_case "Example 4.3 Q1" `Quick test_example_4_3_q1;
    Alcotest.test_case "Example 4.3 Q2" `Quick test_example_4_3_q2;
    Alcotest.test_case "Example 4.3 Q3" `Quick test_example_4_3_q3;
    Alcotest.test_case "disjoint pair needs no helper" `Quick test_disjoint_pair_has_no_runtime_helper;
    Alcotest.test_case "matrix on parts doc" `Quick test_matrix_on_parts;
    Alcotest.test_case "matrix on xmark doc" `Quick test_matrix_on_xmark;
    Alcotest.test_case "relabeling updates compose" `Quick test_relabeling_updates_compose;
    Alcotest.test_case "composed query prints" `Quick test_composed_query_prints;
    Alcotest.test_case "Fig. 2 rewrite = native" `Quick test_rewrite_equals_native;
    Alcotest.test_case "Fig. 2 text reparses" `Quick test_rewrite_text_reparses ]

(* --- the GENTOP-in-XQuery compiler --- *)

let test_compiled_gentop_equals_native () =
  let doc = Fixtures.parts_doc () in
  let updates =
    [ Transform_ast.Insert (parse_path "//part[pname = \"keyboard\"]", supplier_e);
      Transform_ast.Insert_first (parse_path "db/part", supplier_e);
      Transform_ast.Delete (parse_path "//supplier[country = \"A\"]/price");
      Transform_ast.Delete (parse_path Fixtures.p1_text);
      Transform_ast.Replace (parse_path "//pname", Node.elem "pname" [ Node.text "x" ]);
      Transform_ast.Rename (parse_path "//supplier[not(country = \"C\")]", "vendor");
      Transform_ast.Delete (parse_path "db/nothing") ]
  in
  List.iter
    (fun u ->
      let q = Transform_ast.make ~doc:"foo" u in
      let expected = Engine.transform Engine.Reference u doc in
      let got = Xquery_compile.run q ~doc in
      Alcotest.(check bool)
        ("compiled = native: " ^ Transform_ast.update_to_string u)
        true
        (Node.equal_element expected got))
    updates

let test_compiled_text_reparses () =
  let q =
    Transform_ast.make ~doc:"foo"
      (Transform_ast.Delete (parse_path "//supplier[country = \"A\"]/price"))
  in
  let text = Xquery_compile.compile_to_string q in
  let doc = Fixtures.parts_doc () in
  let prog =
    try Xq_parser.parse text
    with Xq_parser.Parse_error m -> Alcotest.fail (m ^ "\n---\n" ^ text)
  in
  let env = Xq_eval.env ~docs:[ ("foo", doc) ] ~context:doc () in
  let out = Xq_eval.value_to_element (Xq_eval.eval_program env prog) in
  let expected = Engine.transform Engine.Reference q.Transform_ast.update doc in
  Alcotest.(check bool) "reparsed compiled query runs" true (Node.equal_element expected out)

let test_compiled_on_xmark () =
  let doc = Xut_xmark.Generator.generate ~factor:0.001 () in
  let u =
    Transform_ast.Insert
      (parse_path "site/regions//item[location = \"United States\"]", Node.elem "flag" [])
  in
  let expected = Engine.transform Engine.Reference u doc in
  let got = Xquery_compile.run (Transform_ast.make ~doc:"d" u) ~doc in
  Alcotest.(check bool) "xmark compiled" true (Node.equal_element expected got)

let suite =
  suite
  @ [ Alcotest.test_case "compiled GENTOP = native" `Quick test_compiled_gentop_equals_native;
      Alcotest.test_case "compiled text reparses" `Quick test_compiled_text_reparses;
      Alcotest.test_case "compiled GENTOP on xmark" `Quick test_compiled_on_xmark ]

let test_compiled_tdbu_equals_native () =
  let doc = Fixtures.parts_doc () in
  let updates =
    [ Transform_ast.Insert (parse_path "//part[pname = \"keyboard\"]", supplier_e);
      Transform_ast.Delete (parse_path "//supplier[country = \"A\"]/price");
      Transform_ast.Delete (parse_path Fixtures.p1_text);
      Transform_ast.Rename (parse_path "//supplier[not(country = \"C\")]", "vendor");
      Transform_ast.Replace (parse_path "//part[supplier/price < 5]/pname",
                             Node.elem "pname" [ Node.text "cheap" ]);
      Transform_ast.Insert (parse_path "site/people/person[@id = \"person1\"]", supplier_e) ]
  in
  List.iter
    (fun u ->
      let q = Transform_ast.make ~doc:"foo" u in
      let expected = Engine.transform Engine.Reference u doc in
      let got = Xquery_compile.run_tdbu q ~doc in
      Alcotest.(check bool)
        ("TD-BU compiled = native: " ^ Transform_ast.update_to_string u)
        true
        (Node.equal_element expected got))
    updates;
  (* annotations must not leak into the output: no xut-sat anywhere *)
  let q = Transform_ast.make ~doc:"foo" (List.hd updates) in
  let out = Xquery_compile.run_tdbu q ~doc in
  let leaked = ref false in
  Node.iter_elements
    (fun e -> if Node.attr e "xut-sat" <> None then leaked := true)
    out;
  Alcotest.(check bool) "no sat attributes leak" false !leaked

let test_compiled_tdbu_text_reparses () =
  let q =
    Transform_ast.make ~doc:"foo" (Transform_ast.Delete (parse_path Fixtures.p1_text))
  in
  let text = Xquery_compile.compile_tdbu_to_string q in
  let doc = Fixtures.parts_doc () in
  let prog =
    try Xq_parser.parse text
    with Xq_parser.Parse_error m -> Alcotest.fail (m ^ "\n---\n" ^ text)
  in
  let env = Xq_eval.env ~docs:[ ("foo", doc) ] ~context:doc () in
  let out = Xq_eval.value_to_element (Xq_eval.eval_program env prog) in
  let expected = Engine.transform Engine.Reference q.Transform_ast.update doc in
  Alcotest.(check bool) "reparsed TD-BU query runs" true (Node.equal_element expected out)

let suite =
  suite
  @ [ Alcotest.test_case "compiled TD-BU = native" `Quick test_compiled_tdbu_equals_native;
      Alcotest.test_case "compiled TD-BU text reparses" `Quick test_compiled_tdbu_text_reparses ]

(* --- stacked composition (view chains) --- *)

let check_stack_equiv ?(doc = Fixtures.parts_doc ()) name updates uq =
  let expected = value_repr (Composition.naive_stack updates uq ~doc) in
  let composed =
    match Composition.compose_stack updates uq with
    | Ok c -> c
    | Error m -> Alcotest.fail (name ^ ": did not compose: " ^ m)
  in
  let got = value_repr (Composition.run_composed composed ~doc) in
  Alcotest.(check (list string)) (name ^ " stack = naive") expected got

(* chain-safe updates: none can select the document element *)
let stack_updates =
  [ Transform_ast.Delete (parse_path "//price");
    Transform_ast.Delete (parse_path "//supplier[country = \"A\"]");
    Transform_ast.Delete (parse_path "db/part/part");
    Transform_ast.Insert (parse_path "//part[pname = \"keyboard\"]", supplier_e);
    Transform_ast.Insert (parse_path "//supplier", Node.elem "verified" []);
    Transform_ast.Insert_first (parse_path "//part", supplier_e);
    Transform_ast.Rename (parse_path "//supplier", "vendor");
    Transform_ast.Replace (parse_path "//pname", Node.elem "pname" [ Node.text "x" ]);
    Transform_ast.Delete (parse_path "db/nosuch") ]

let stack_queries =
  [ "for $x in db/part return $x/pname";
    "for $x in db/part/supplier return $x";
    "for $x in db//supplier return $x/sname";
    "for $x in db/part where $x/supplier/price > 20 return $x/pname";
    "for $x in db//vendor return $x/sname";
    "for $x in db/part return <p>{$x/pname}{$x/supplier}</p>";
    "for $x in db/part return $x" ]

let test_stack_depth2_matrix () =
  (* every ordered pair of distinct chain-safe updates, a rotating query *)
  let n = List.length stack_queries in
  let k = ref 0 in
  List.iteri
    (fun i u1 ->
      List.iteri
        (fun j u2 ->
          if i <> j then begin
            let q = List.nth stack_queries (!k mod n) in
            incr k;
            check_stack_equiv
              (Printf.sprintf "stack2 [%s ; %s | %s]"
                 (Transform_ast.update_to_string u1)
                 (Transform_ast.update_to_string u2)
                 q)
              [ u1; u2 ] (User_query.parse q)
          end)
        stack_updates)
    stack_updates

let test_stack_edge_depths () =
  let uq = User_query.parse "for $x in db/part/supplier return $x" in
  (* empty chain = plain user query *)
  check_stack_equiv "stack0" [] uq;
  (* singleton delegates to plain compose *)
  check_stack_equiv "stack1" [ Transform_ast.Delete (parse_path "//price") ] uq;
  (* deep chain where later levels see earlier levels' effects: the
     rename hides //supplier from the delete, and the insert targets the
     new label *)
  check_stack_equiv "stack3 rename-shadow"
    [ Transform_ast.Rename (parse_path "//supplier[country = \"A\"]", "banned");
      Transform_ast.Delete (parse_path "//supplier/price");
      Transform_ast.Insert (parse_path "//banned", Node.elem "why" [ Node.text "A" ]) ]
    (User_query.parse "for $x in db/part return $x");
  (* content inserted by one level navigated by the user query *)
  check_stack_equiv "stack2 inserted-content"
    [ Transform_ast.Insert (parse_path "//part[pname = \"keyboard\"]", supplier_e);
      Transform_ast.Delete (parse_path "//price") ]
    (User_query.parse "for $x in db/part/supplier return $x/sname")

let prop_stack_random_chains =
  let gen =
    QCheck.Gen.(
      pair (list_size (int_range 2 4) (oneofl stack_updates)) (oneofl stack_queries))
  in
  let print (updates, q) =
    String.concat " ; " (List.map Transform_ast.update_to_string updates) ^ " | " ^ q
  in
  QCheck.Test.make ~count:60 ~name:"compose_stack = naive_stack (random chains, depth >= 2)"
    (QCheck.make ~print gen) (fun (updates, q) ->
      let doc = Fixtures.parts_doc () in
      let uq = User_query.parse q in
      let expected = value_repr (Composition.naive_stack updates uq ~doc) in
      match Composition.compose_stack updates uq with
      | Error m -> QCheck.Test.fail_reportf "did not compose: %s" m
      | Ok c -> value_repr (Composition.run_composed c ~doc) = expected)

let suite =
  suite
  @ [ Alcotest.test_case "stack: depth-2 matrix" `Quick test_stack_depth2_matrix;
      Alcotest.test_case "stack: edge depths" `Quick test_stack_edge_depths;
      QCheck_alcotest.to_alcotest prop_stack_random_chains ]

(* --- stacked composition over XMark --- *)

(* XMark-shaped chain levels: deletes, inserts and renames, several
   with qualifiers, some of which an earlier level can affect *)
let xmark_levels =
  [ Transform_ast.Delete (parse_path "site/people/person/watches");
    Transform_ast.Delete (parse_path "site/regions//item/mailbox");
    Transform_ast.Delete (parse_path "site/people/person[profile/age > 30]/address");
    Transform_ast.Delete (parse_path "site/people/person[emailaddress]");
    Transform_ast.Delete (parse_path "//open_auction[initial > 100]/bidder");
    Transform_ast.Insert
      (parse_path "site/people/person[address/country = \"United States\"]",
       Node.elem "flag" [ Node.text "US" ]);
    Transform_ast.Insert
      (parse_path "site/people/person/profile", Node.elem "age" [ Node.text "99" ]);
    Transform_ast.Insert_first (parse_path "//person[watches]", Node.elem "vip" []);
    Transform_ast.Rename
      (parse_path "site/open_auctions/open_auction[bidder/increase > 10]/seller", "vendor");
    Transform_ast.Rename (parse_path "//watches", "watchlist");
    Transform_ast.Rename (parse_path "site/people/person[watches]/name", "handle") ]

(* sources ending in a child step (the walk stops below a binding), a
   wildcard, and behind a '//' (the walk must keep descending); the two
   with steps after a '//' run the one-update composer's Pipe native *)
let xmark_queries =
  [ "for $x in site/people/person return $x/name";
    "for $x in site/people/person[watches] return $x/name";
    "for $x in site/people/person[profile/age > 30] return <p>{$x/name}{$x/address}</p>";
    "for $x in site/people/person where $x/address/country = \"United States\" return $x";
    "for $x in site/open_auctions/open_auction[bidder/increase > 10] return $x/seller";
    "for $x in site/people/* return $x";
    "for $x in site/people/person/* return $x";
    "for $x in site//person return $x/name";
    "for $x in site//vendor return $x";
    "for $x in site/people//watchlist return $x";
    "for $x in site//person/name return $x";
    "for $x in site//open_auction[bidder]/seller return $x" ]

let prop_stack_random_xmark =
  let gen =
    QCheck.Gen.(
      triple (int_range 1 10_000)
        (list_size (int_range 2 3) (oneofl xmark_levels))
        (oneofl xmark_queries))
  in
  let print (seed, updates, q) =
    Printf.sprintf "seed %d: %s | %s" seed
      (String.concat " ; " (List.map Transform_ast.update_to_string updates))
      q
  in
  QCheck.Test.make ~count:40 ~name:"compose_stack = naive_stack (random XMark docs and chains)"
    (QCheck.make ~print gen) (fun (seed, updates, q) ->
      let doc = Xut_xmark.Generator.generate ~seed:(Int64.of_int seed) ~factor:0.0005 () in
      let uq = User_query.parse q in
      let expected = value_repr (Composition.naive_stack updates uq ~doc) in
      match Composition.compose_stack updates uq with
      | Error m -> QCheck.Test.fail_reportf "did not compose: %s" m
      | Ok c -> value_repr (Composition.run_composed c ~doc) = expected)

let prop_compose_random_xmark =
  let gen =
    QCheck.Gen.(triple (int_range 1 10_000) (oneofl xmark_levels) (oneofl xmark_queries))
  in
  let print (seed, update, q) =
    Printf.sprintf "seed %d: %s | %s" seed (Transform_ast.update_to_string update) q
  in
  QCheck.Test.make ~count:60 ~name:"compose = naive (random XMark docs, one update)"
    (QCheck.make ~print gen) (fun (seed, update, q) ->
      let doc = Xut_xmark.Generator.generate ~seed:(Int64.of_int seed) ~factor:0.0005 () in
      let uq = User_query.parse q in
      let expected = value_repr (Composition.naive update uq ~doc) in
      match Composition.compose update uq with
      | Error m -> QCheck.Test.fail_reportf "did not compose: %s" m
      | Ok c -> value_repr (Composition.run_composed c ~doc) = expected)

(* Chains where an earlier level changes what a later level's qualifier
   sees: the insert supplies the age the delete tests, the rename hides
   the watches the later steps test for *)
let test_stack_feeding_chains () =
  let doc = Xut_xmark.Generator.generate ~seed:3L ~factor:0.0005 () in
  let chains =
    [ [ Transform_ast.Insert
          (parse_path "site/people/person/profile", Node.elem "age" [ Node.text "99" ]);
        Transform_ast.Delete (parse_path "site/people/person[profile/age > 30]/address") ];
      [ Transform_ast.Rename (parse_path "//watches", "watchlist");
        Transform_ast.Rename (parse_path "site/people/person[watches]/name", "handle") ];
      [ Transform_ast.Delete (parse_path "site/people/person/watches");
        Transform_ast.Insert_first (parse_path "//person[watches]", Node.elem "vip" []);
        Transform_ast.Delete (parse_path "site/people/person[vip]/name") ] ]
  in
  List.iteri
    (fun i updates ->
      List.iter
        (fun q ->
          check_stack_equiv ~doc
            (Printf.sprintf "feeding chain %d | %s" i q)
            updates (User_query.parse q))
        xmark_queries)
    chains

(* The served shape of a view read: two stored deletes under the user
   FLWOR, run with the level-0 annotation oracle.  Once the plans'
   lazy DFAs are warm, a read allocates in proportion to its
   answer, not to the document. *)
let test_stack_read_allocation () =
  let doc = Xut_xmark.Generator.generate ~factor:0.002 () in
  let paths = List.map parse_path [ "site/regions//item/mailbox"; "site/people/person/watches" ] in
  let updates = List.map (fun p -> Transform_ast.Delete p) paths in
  let uq = User_query.parse "for $x in site/people/person return $x/name" in
  let c =
    match Composition.compose_stack updates uq with
    | Ok c -> c
    | Error m -> Alcotest.fail ("did not compose: " ^ m)
  in
  let nfa0 = Xut_automata.Selecting_nfa.of_path (List.hd paths) in
  let oracle =
    Xut_automata.Annotator.checkp (Xut_automata.Annotator.annotate nfa0 doc) nfa0
  in
  Alcotest.(check (list string)) "stack = naive"
    (value_repr (Composition.naive_stack updates uq ~doc))
    (value_repr (Composition.run_composed ~oracle c ~doc));
  let before = Gc.minor_words () in
  let items = List.length (Composition.run_composed ~oracle c ~doc) in
  let per_item = (Gc.minor_words () -. before) /. float_of_int (max 1 items) in
  Alcotest.(check bool) "a result per person" true (items > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words per result item (at most 300)" per_item)
    true (per_item <= 300.)

(* A composed plan whose user path has steps after a '//' runs the
   suffix's NFA in one native walk; the NFA is compiled with the plan,
   so a second read of the plan finds every step its first read took. *)
let test_pipe_keeps_dfa () =
  let doc = Xut_xmark.Generator.generate ~factor:0.002 () in
  let update = Transform_ast.Delete (parse_path "site/regions/africa/item/description") in
  let uq = User_query.parse "for $x in site//item/name return $x" in
  let c =
    match Composition.compose update uq with
    | Ok c -> c
    | Error m -> Alcotest.fail ("did not compose: " ^ m)
  in
  Alcotest.(check (list string)) "compose = naive"
    (value_repr (Composition.naive update uq ~doc))
    (value_repr (Composition.run_composed c ~doc));
  let misses = Fixtures.counter "nfa_memo_misses" in
  ignore (Composition.run_composed c ~doc);
  Alcotest.(check int) "steps computed by the second read" 0
    (Fixtures.counter "nfa_memo_misses" - misses)

let suite =
  suite
  @ [ Alcotest.test_case "stack: earlier levels feed later qualifiers" `Quick
        test_stack_feeding_chains;
      QCheck_alcotest.to_alcotest prop_stack_random_xmark;
      QCheck_alcotest.to_alcotest prop_compose_random_xmark;
      Alcotest.test_case "stack: view read allocates per answer" `Quick test_stack_read_allocation;
      Alcotest.test_case "qualified // steps compose or fall back" `Quick test_qualified_descendant;
      Alcotest.test_case "a // suffix keeps its DFA across reads" `Quick test_pipe_keeps_dfa ]
