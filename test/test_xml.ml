open Xut_xml

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

let roundtrip s =
  let e = Dom.parse_string s in
  Serialize.element_to_string e

let test_parse_simple () =
  let e = Dom.parse_string "<a><b>hi</b><c x=\"1\"/></a>" in
  check_str "name" "a" (Node.name e);
  check_int "children" 2 (List.length (Node.children e));
  match Node.children e with
  | [ Node.Element b; Node.Element c ] ->
    check_str "b text" "hi" (Node.text_content b);
    check_str "c attr" "1" (Option.get (Node.attr c "x"))
  | _ -> Alcotest.fail "unexpected shape"

let test_roundtrip () =
  check_str "simple" "<a><b>hi</b><c x=\"1\"/></a>" (roundtrip "<a><b>hi</b><c x=\"1\"/></a>");
  check_str "nested" "<a><b><c><d>x</d></c></b></a>" (roundtrip "<a><b><c><d>x</d></c></b></a>")

let test_escapes () =
  let e = Dom.parse_string "<a>x &amp; y &lt; z &#65;&#x42;</a>" in
  check_str "entities" "x & y < z AB" (Node.text_content e);
  let s = Serialize.element_to_string e in
  check_str "re-escaped" "<a>x &amp; y &lt; z AB</a>" s

let test_attr_quotes () =
  let e = Dom.parse_string "<a x='single &quot;q' y=\"double 'q\"/>" in
  check_str "single" "single \"q" (Option.get (Node.attr e "x"));
  check_str "double" "double 'q" (Option.get (Node.attr e "y"))

let test_comment_pi_cdata () =
  let e = Dom.parse_string "<?xml version=\"1.0\"?><a><!-- c --><?tgt data?><![CDATA[<raw>]]></a>" in
  (match Node.children e with
  | [ Node.Comment c; Node.Pi (t, d); Node.Text raw ] ->
    check_str "comment" " c " c;
    check_str "pi target" "tgt" t;
    check_str "pi data" "data" d;
    check_str "cdata" "<raw>" raw
  | _ -> Alcotest.fail "unexpected children");
  ignore e

let test_doctype_skipped () =
  let e = Dom.parse_string "<!DOCTYPE site SYSTEM \"foo.dtd\" [<!ENTITY x \"y\">]><a/>" in
  check_str "root" "a" (Node.name e)

let test_ws_dropped () =
  let e = Dom.parse_string "<a>\n  <b/>\n  <c/>\n</a>" in
  check_int "no ws children" 2 (List.length (Node.children e))

let test_ws_kept () =
  let e = Dom.parse_string ~keep_ws:true "<a>\n  <b/>\n</a>" in
  check_int "ws kept" 3 (List.length (Node.children e))

let test_mixed_content () =
  let e = Dom.parse_string "<p>one <em>two</em> three</p>" in
  check_int "3 children" 3 (List.length (Node.children e));
  check_str "direct text" "one  three" (Node.text_content e)

let test_parse_errors () =
  let fails s =
    match Dom.parse_string s with
    | exception Sax.Parse_error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ s)
  in
  fails "<a>";
  fails "<a></b>";
  fails "<a><b></a></b>";
  fails "no markup";
  fails "<a attr=novalue/>";
  fails "<a>&bogus;</a>"

let test_sax_events () =
  let events = ref [] in
  Sax.parse_string "<a x=\"1\"><b>t</b></a>" (fun ev -> events := ev :: !events);
  let got = List.rev !events in
  let expected =
    [ Sax.Start_document; Sax.Start_element ("a", [ ("x", "1") ]); Sax.Start_element ("b", []);
      Sax.Characters "t"; Sax.End_element "b"; Sax.End_element "a"; Sax.End_document ]
  in
  Alcotest.(check int) "event count" (List.length expected) (List.length got);
  List.iter2
    (fun e g -> Alcotest.(check bool) "event" true (Sax.equal_event e g))
    expected got

let test_events_of_tree_roundtrip () =
  let e = Dom.parse_string Fixtures.parts_doc_text in
  let b = Dom.Builder.create () in
  Sax.events_of_tree e (Dom.Builder.handler b);
  Fixtures.check_tree "tree->events->tree" e (Dom.Builder.result b)

let test_serialize_parse_roundtrip () =
  let e = Dom.parse_string Fixtures.parts_doc_text in
  let e' = Dom.parse_string (Serialize.element_to_string e) in
  Fixtures.check_tree "parse(serialize(t)) = t" e e'

let test_indent () =
  let e = Dom.parse_string "<a><b>t</b></a>" in
  check_str "indented" "<a>\n  <b>t</b>\n</a>" (Serialize.element_to_string ~indent:2 e)

(* The serializer's layout, pinned byte for byte: attribute escapes,
   empty elements, comments, PIs, element-only content broken into
   indented lines and mixed content kept inline. *)
let test_indent_layout () =
  let e =
    Node.element ~attrs:[ ("k", "a\"<&>'") ] "root"
      [ Node.elem "empty" [];
        Node.elem "list"
          [ Node.elem "i" [ Node.text "1 < 2" ]; Node.comment " c "; Node.elem "j" [ Node.elem "deep" [] ] ];
        Node.elem "mixed" [ Node.text "t&"; Node.elem "b" [ Node.elem "c" [] ]; Node.text "u" ];
        Node.pi "pi" "x=1" ]
  in
  let flat =
    "<root k=\"a&quot;&lt;&amp;&gt;'\"><empty/><list><i>1 &lt; 2</i><!-- c --><j><deep/></j></list><mixed>t&amp;<b><c/></b>u</mixed><?pi x=1?></root>"
  in
  check_str "no indent" flat (Serialize.element_to_string e);
  check_str "indent 0"
    "<root k=\"a&quot;&lt;&amp;&gt;'\">\n<empty/>\n<list>\n<i>1 &lt; 2</i>\n<!-- c -->\n<j>\n<deep/>\n</j>\n</list>\n<mixed>t&amp;<b><c/></b>u</mixed>\n<?pi x=1?>\n</root>"
    (Serialize.element_to_string ~indent:0 e);
  check_str "indent 3"
    "<root k=\"a&quot;&lt;&amp;&gt;'\">\n   <empty/>\n   <list>\n      <i>1 &lt; 2</i>\n      <!-- c -->\n      <j>\n         <deep/>\n      </j>\n   </list>\n   <mixed>t&amp;<b><c/></b>u</mixed>\n   <?pi x=1?>\n</root>"
    (Serialize.element_to_string ~indent:3 e);
  check_str "document, indent 1"
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<root k=\"a&quot;&lt;&amp;&gt;'\">\n <empty/>\n <list>\n  <i>1 &lt; 2</i>\n  <!-- c -->\n  <j>\n   <deep/>\n  </j>\n </list>\n <mixed>t&amp;<b><c/></b>u</mixed>\n <?pi x=1?>\n</root>"
    (Serialize.document_to_string ~indent:1 e);
  (* the sink walks the same tree: any chunking concatenates to it *)
  List.iter
    (fun chunk_size ->
      let buf = Buffer.create 64 in
      let sink = Serialize.Sink.create ~chunk_size (Buffer.add_string buf) in
      Serialize.Sink.element sink e;
      ignore (Serialize.Sink.close sink : Serialize.Sink.totals);
      check_str (Printf.sprintf "sink, chunk_size %d" chunk_size) flat (Buffer.contents buf))
    [ 1; 7; 65536 ]

(* The tree walk allocates nothing per node: the minor words of one
   whole serialization stay under one small constant on an XMark tree
   and on one ten times larger.  (The reply bytes themselves are above
   the minor-heap size limit and go straight to the major heap.)  A walk
   that builds a closure per element allocates ~10 words per element:
   ~35 kw and ~340 kw here.  Copying from a reply image allocates
   nothing per blit either: the tree with the two top levels rebuilt
   (about 1000 blits at f=0.02) stays under the same bound, and so does
   the tree a COMMIT of the marker under every open auction leaves,
   whose kept siblings are copied a run at a time. *)
let test_serializer_allocation () =
  let minor_words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let bound = 2048. in
  List.iter
    (fun factor ->
      let doc = Xut_xmark.Generator.generate ~factor () in
      ignore (Serialize.element_to_string doc : string) (* warm the pool *);
      let words = minor_words (fun () -> ignore (Serialize.element_to_string doc : string)) in
      if words >= bound then
        Alcotest.failf "element_to_string at f=%g: %.0f minor words (bound %.0f)" factor words
          bound;
      let bytes = ref 0 in
      let sink = Serialize.Sink.create (fun s -> bytes := !bytes + String.length s) in
      let words = minor_words (fun () -> Serialize.Sink.element sink doc) in
      ignore (Serialize.Sink.close sink : Serialize.Sink.totals);
      if words >= bound then
        Alcotest.failf "Sink.element at f=%g: %.0f minor words (bound %.0f)" factor words bound;
      let image = Serialize.Image.of_element doc in
      let rebuilt = function
        | Node.Element c -> Node.Element (Node.with_children c (Node.children c))
        | n -> n
      in
      let committed =
        match
          Xut_update.Apply.run
            (Core.Transform_parser.parse_updates
               "insert <m>p</m> into $a/site/open_auctions/open_auction")
            doc
        with
        | Ok (_, Some (root, _)) -> root
        | _ -> Alcotest.fail "the marker insert did not commit"
      in
      List.iter
        (fun (what, derived) ->
          let expected = Serialize.element_to_string derived in
          let out = ref "" in
          let words = minor_words (fun () -> out := Serialize.element_to_string ~image derived) in
          check_str (what ^ ": blitted = walked") expected !out;
          if words >= bound then
            Alcotest.failf "%s: element_to_string ~image at f=%g: %.0f minor words (bound %.0f)"
              what factor words bound;
          let sink = Serialize.Sink.create ignore in
          let words = minor_words (fun () -> Serialize.Sink.element ~image sink derived) in
          ignore (Serialize.Sink.close sink : Serialize.Sink.totals);
          if words >= bound then
            Alcotest.failf "%s: Sink.element ~image at f=%g: %.0f minor words (bound %.0f)" what
              factor words bound)
        [ ("rebuilt", Node.with_children doc (List.map rebuilt (Node.children doc)));
          ("committed", committed) ])
    [ 0.002; 0.02 ]

(* An element held in two places is one id at two offsets: serializing
   with an image of such a tree still gives the walk's bytes. *)
let test_image_of_shared_element () =
  let shared = Node.elem "s" [ Node.text "t" ] in
  let root = Node.element "r" [ Node.elem "a" [ shared; Node.elem "b" [] ]; shared ] in
  let image = Serialize.Image.of_element root in
  let derived = Node.with_children root (Node.children root @ [ Node.elem "c" [] ]) in
  List.iter
    (fun e ->
      check_str "with the image" (Serialize.element_to_string e)
        (Serialize.element_to_string ~image e))
    [ root; derived ]

(* A tree whose ids are not consecutive (other elements were built
   between its own) still has every element indexed: a rebuilt root's
   kept children are copied as one run. *)
let test_image_of_spread_ids () =
  let a = Node.elem "a" [ Node.text "x" ] in
  ignore (List.init 100 (fun _ -> Node.elem "gap" []) : Node.t list);
  let b = Node.elem "b" [] in
  let root = Node.element "r" [ a; b ] in
  let image = Serialize.Image.of_element root in
  let derived = Node.with_children root [ a; b; Node.elem "c" [] ] in
  let before = Fixtures.counter "serialize_image_blit_bytes" in
  check_str "with the image" (Serialize.element_to_string derived)
    (Serialize.element_to_string ~image derived);
  Alcotest.(check int) "the kept children in one run" (String.length "<a>x</a><b/>")
    (Fixtures.counter "serialize_image_blit_bytes" - before)

(* A committed root whose spine ids lie far past the parsed block it
   keeps (more ids than its image has slots were allocated between the
   LOAD and the COMMIT): its image homes ids by a hash, so no id's probe
   runs along the block, and replies from it and from the next commit
   keep the walk's bytes.  The LOAD root's image, consecutive ids, holds
   every id at home. *)
let test_image_of_far_spine () =
  let group = "<g>" ^ String.concat "" (List.init 50 (fun i -> Printf.sprintf "<x>%d</x>" i)) ^ "</g>" in
  let root = Dom.parse_string ("<r>" ^ String.concat "" (List.init 40 (fun _ -> group)) ^ "</r>") in
  check_int "LOAD image: every id at home" 0 (Serialize.Image.longest_probe (Serialize.Image.of_element root));
  ignore (List.init 5000 (fun _ -> Node.elem "gap" []) : Node.t list);
  (* a marker appended to every other group, other elements built
     between the rebuilds: 21 spine ids spread over thousands *)
  let commit root =
    Node.with_children root
      (List.mapi
         (fun i c ->
           match c with
           | Node.Element g when i mod 2 = 0 ->
             ignore (List.init 150 (fun _ -> Node.elem "gap" []) : Node.t list);
             Node.Element (Node.with_children g (Node.children g @ [ Node.elem "m" [] ]))
           | c -> c)
         (Node.children root))
  in
  let committed = commit root in
  let image = Serialize.Image.of_element committed in
  let probe = Serialize.Image.longest_probe image in
  if probe > 32 then Alcotest.failf "committed image: a probe runs %d slots past its home" probe;
  List.iter
    (fun e ->
      let before = Fixtures.counter "serialize_image_blit_bytes" in
      let bytes = Serialize.element_to_string ~image e in
      check_str "with the image" (Serialize.element_to_string e) bytes;
      let blitted = Fixtures.counter "serialize_image_blit_bytes" - before in
      if 10 * blitted < 9 * String.length bytes then
        Alcotest.failf "%d of %d bytes blitted" blitted (String.length bytes))
    [ committed; commit committed ]

(* A parsed element carries the symbol the parser interned at its start
   tag: one intern per element, not two. *)
let test_parse_interns_once () =
  let src = "<r><a x=\"1\"><b/>t<b/></a><c/></r>" in
  let before = Fixtures.counter "sym_interns" in
  let e = Dom.parse_string src in
  Alcotest.(check int) "one intern per element" 5 (Fixtures.counter "sym_interns" - before);
  Node.iter_elements
    (fun e ->
      Alcotest.(check string) "symbol names the element" (Node.name e) (Sym.name (Node.sym e)))
    e

let test_node_ops () =
  let e = Dom.parse_string Fixtures.parts_doc_text in
  check_int "element count" 35 (Node.element_count (Node.Element e));
  Alcotest.(check bool) "size includes text nodes" true
    (Node.size (Node.Element e) > Node.element_count (Node.Element e));
  check_int "depth" 7 (Node.depth (Node.Element e));
  check_int "descendants" 35 (List.length (Node.descendant_or_self e))

let test_refresh_ids () =
  let e = Dom.parse_string "<a><b/><b/></a>" in
  let e' = Node.refresh_ids (Node.Element e) in
  Alcotest.(check bool) "structurally equal" true (Node.equal (Node.Element e) e');
  match e' with
  | Node.Element f -> Alcotest.(check bool) "fresh id" true (Node.id f <> Node.id e)
  | _ -> Alcotest.fail "not an element"

let test_event_sink () =
  let buf = Buffer.create 64 in
  Sax.parse_string "<a><b>t</b></a>" (Serialize.event_sink buf);
  check_str "streamed serialization" "<a><b>t</b></a>" (Buffer.contents buf);
  (* empty elements self-close, as in the tree serializer *)
  let src = "<a><b/><c></c><d x=\"1\"/><e>t<f/></e></a>" in
  let buf = Buffer.create 64 in
  Sax.parse_string src (Serialize.event_sink buf);
  check_str "empty elements" (Serialize.element_to_string (Dom.parse_string src))
    (Buffer.contents buf)

let suite =
  [ Alcotest.test_case "parse simple" `Quick test_parse_simple;
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "escapes" `Quick test_escapes;
    Alcotest.test_case "attribute quotes" `Quick test_attr_quotes;
    Alcotest.test_case "comment/pi/cdata" `Quick test_comment_pi_cdata;
    Alcotest.test_case "doctype skipped" `Quick test_doctype_skipped;
    Alcotest.test_case "whitespace dropped" `Quick test_ws_dropped;
    Alcotest.test_case "whitespace kept" `Quick test_ws_kept;
    Alcotest.test_case "mixed content" `Quick test_mixed_content;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "sax events" `Quick test_sax_events;
    Alcotest.test_case "events_of_tree roundtrip" `Quick test_events_of_tree_roundtrip;
    Alcotest.test_case "serialize/parse roundtrip" `Quick test_serialize_parse_roundtrip;
    Alcotest.test_case "indent" `Quick test_indent;
    Alcotest.test_case "node ops" `Quick test_node_ops;
    Alcotest.test_case "refresh ids" `Quick test_refresh_ids;
    Alcotest.test_case "event sink" `Quick test_event_sink;
    Alcotest.test_case "indent layout" `Quick test_indent_layout;
    Alcotest.test_case "serializer allocates O(1) minor words" `Quick
      test_serializer_allocation;
    Alcotest.test_case "image of a tree holding an element twice" `Quick
      test_image_of_shared_element;
    Alcotest.test_case "a parse interns each name once" `Quick test_parse_interns_once;
    Alcotest.test_case "image of a tree with spread ids" `Quick test_image_of_spread_ids;
    Alcotest.test_case "image of a committed root far past its block" `Quick test_image_of_far_spine ]
