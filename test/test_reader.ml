(* The chunked reader and the streaming property of the SAX parser:
   events must be identical for any chunk size, including pathological
   1-byte chunks that split every token across refills. *)
open Xut_xml

let events_of source =
  let acc = ref [] in
  source (fun ev -> acc := ev :: !acc);
  List.rev !acc

let with_temp_doc text f =
  let tmp = Filename.temp_file "xut_rd" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Out_channel.with_open_bin tmp (fun oc -> output_string oc text);
      f tmp)

let check_chunked text =
  let expected = events_of (Sax.parse_string text) in
  List.iter
    (fun chunk_size ->
      with_temp_doc text (fun tmp ->
          let got =
            events_of (fun h ->
                In_channel.with_open_bin tmp (fun ic ->
                    Sax.parse_reader (Reader.of_channel ~chunk_size ic) h))
          in
          Alcotest.(check int)
            (Printf.sprintf "event count (chunk=%d)" chunk_size)
            (List.length expected) (List.length got);
          List.iter2
            (fun a b ->
              Alcotest.(check bool)
                (Printf.sprintf "event equal (chunk=%d)" chunk_size)
                true (Sax.equal_event a b))
            expected got))
    [ 1; 2; 3; 7; 64 ]

let test_chunk_boundaries () =
  check_chunked "<a x=\"1\" y='two'><b>text &amp; more &#65;</b><!-- c --><?pi data?><![CDATA[<r>]]><c/></a>"

let test_chunked_xmark () =
  let doc = Xut_xmark.Generator.generate ~factor:0.001 () in
  check_chunked (Serialize.element_to_string doc)

let test_reader_basics () =
  let r = Reader.of_string "ab\ncd" in
  Alcotest.(check bool) "first chunk" true (Reader.refill r 0);
  Alcotest.(check char) "first byte" 'a' (Bytes.get r.buf 0);
  Alcotest.(check int) "line 1" 1 (Reader.line r 1);
  Alcotest.(check int) "line 2 after newline" 2 (Reader.line r 3);
  Alcotest.(check int) "col" 1 (Reader.col r 3);
  Alcotest.(check bool) "eof" false (Reader.refill r r.len);
  Alcotest.(check int) "empty at eof" 0 r.len

let test_error_position () =
  (* the unknown entity is on line 3 *)
  match Sax.parse_string "<a>\n<b>\n&bogus;</b></a>" (fun _ -> ()) with
  | exception Sax.Parse_error { line; _ } -> Alcotest.(check int) "line" 3 line
  | _ -> Alcotest.fail "should not parse"

let test_streaming_transform_tiny_chunks () =
  (* the full two-pass streaming pipeline over 16-byte chunks *)
  let doc = Fixtures.parts_doc () in
  let text = Serialize.element_to_string doc in
  with_temp_doc text (fun tmp ->
      let update =
        Core.Transform_parser.parse_update "delete $a//supplier[country = 'A']/price"
      in
      let nfa = Xut_automata.Selecting_nfa.of_path (Core.Transform_ast.path update) in
      let out = Buffer.create 256 in
      let source h =
        In_channel.with_open_bin tmp (fun ic ->
            Sax.parse_reader (Reader.of_channel ~chunk_size:16 ic) h)
      in
      let _ = Core.Sax_transform.run nfa update ~source ~sink:(Serialize.event_sink out) in
      let got = Dom.parse_string (Buffer.contents out) in
      let expected = Core.Engine.transform Core.Engine.Reference update doc in
      Alcotest.(check bool) "chunked streaming = reference" true
        (Node.equal_element expected got))

(* Chunk-boundary property: for random XMark documents, the event
   stream must not depend on where the reader's refills land — chunk
   size 1 puts a boundary inside every token, 2/3/7 shear multi-byte
   constructs (entity references, CDATA markers, comments) at varying
   offsets, 64 exercises ordinary refills. *)
let prop_chunked_equals_string =
  QCheck2.Test.make ~name:"of_channel ~chunk_size:k = of_string on random XMark docs"
    ~count:8
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 2 12))
    (fun (seed, size) ->
      let factor = float_of_int size /. 10_000. in
      let doc = Xut_xmark.Generator.generate ~seed:(Int64.of_int seed) ~factor () in
      let text = Serialize.element_to_string doc in
      let expected = events_of (Sax.parse_string text) in
      with_temp_doc text (fun tmp ->
          List.for_all
            (fun chunk_size ->
              let got =
                events_of (fun h ->
                    In_channel.with_open_bin tmp (fun ic ->
                        Sax.parse_reader (Reader.of_channel ~chunk_size ic) h))
              in
              List.length expected = List.length got
              && List.for_all2 Sax.equal_event expected got)
            [ 1; 2; 3; 7; 64 ]))

(* ---- The window scanner, its per-character fallback and lazy positions ---- *)

let chunk_sizes = [ 1; 2; 3; 7; 64 ]

(* Events, or the parse error's position and message. *)
let outcome parse =
  let acc = ref [] in
  match parse (fun ev -> acc := ev :: !acc) with
  | () -> Ok (List.rev !acc)
  | exception Sax.Parse_error { line; col; msg } -> Error (line, col, msg)

(* The of_string outcome, and whether every chunked reader agrees with it. *)
let outcomes_agree ?keep_ws ?(chunk_sizes = chunk_sizes) text =
  let expected = outcome (Sax.parse_string ?keep_ws text) in
  let agree =
    with_temp_doc text (fun tmp ->
        List.for_all
          (fun chunk_size ->
            outcome (fun h ->
                In_channel.with_open_bin tmp (fun ic ->
                    Sax.parse_reader ?keep_ws (Reader.of_channel ~chunk_size ic) h))
            = expected)
          chunk_sizes)
  in
  (expected, agree)

(* Documents that put every token kind across a refill: element and
   attribute names longer than the largest chunk, references in text and
   in both quote styles, whitespace-only runs, comments, PIs and CDATA. *)
let gen_token_doc =
  let open QCheck2.Gen in
  let long c = String.make 90 c in
  let element_name = oneofl [ "a"; "item"; "x_y.z-9"; "ns:el"; long 'n'; "L" ^ long 'm' ] in
  let attr_name =
    map2
      (fun c rest -> String.make 1 c ^ rest)
      (oneofl [ 'a'; '_'; 'k' ])
      (string_size ~gen:(oneofl [ 'a'; 'z'; '0'; '-'; '.'; ':' ]) (int_range 0 80))
  in
  let attr_value =
    let* quote = oneofl [ '"'; '\'' ] in
    let other = if quote = '"' then "'" else "\"" in
    let+ parts =
      list_size (int_range 0 5)
        (oneofl [ "v"; " "; "&amp;"; "&#x42;"; "&#233;"; "&apos;"; "&quot;"; "&lt;"; other; long 'v' ])
    in
    Printf.sprintf "%c%s%c" quote (String.concat "" parts) quote
  in
  let concat_of pieces = map (String.concat "") (list_size (int_range 1 5) (oneofl pieces)) in
  let text =
    concat_of
      [ "word"; " "; "&amp;"; "&lt;"; "&gt;"; "&#x41;"; "&#65;"; "&#x1F600;"; "\n"; "caf\xc3\xa9"; long 't' ]
  in
  let ws = string_size ~gen:(oneofl [ ' '; '\n'; '\t'; '\r' ]) (int_range 1 80) in
  let comment = map (Printf.sprintf "<!--%s-->") (concat_of [ "c"; "- "; "\n"; "<&"; long 'k' ]) in
  let pi =
    map2 (Printf.sprintf "<?%s %s?>")
      (oneofl [ "pi"; "p" ^ long 'p' ])
      (concat_of [ "d"; " "; "\n"; "<&>"; long 'q' ])
  in
  let cdata = map (Printf.sprintf "<![CDATA[%s]]>") (concat_of [ "x"; "<"; "&amp;"; "]"; "\n"; long 'c' ]) in
  let element =
    fix (fun self depth ->
        let* name = element_name in
        let* attrs = list_size (int_range 0 3) (pair attr_name attr_value) in
        let* pad = oneofl [ ""; " "; "\n\t" ] in
        let attrs = String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k v) attrs) in
        let child = if depth = 0 then oneof [ text; ws ] else oneof [ self (depth - 1); text; ws; comment; pi; cdata ] in
        let* children = list_size (int_range 0 4) child in
        let* self_close = bool in
        if children = [] && self_close then return (Printf.sprintf "<%s%s%s/>" name attrs pad)
        else return (Printf.sprintf "<%s%s%s>%s</%s%s>" name attrs pad (String.concat "" children) name pad))
  in
  let* prolog =
    oneofl [ ""; "<?xml version=\"1.0\"?>\n"; "<!DOCTYPE site [<!ELEMENT site ANY>]>\n"; "<!-- head -->\n" ]
  in
  let* root = int_range 0 3 >>= element in
  let+ tail = oneofl [ ""; "\n"; "\n<!-- tail -->\n"; "<?done?>" ] in
  prolog ^ root ^ tail

let prop_token_doc_chunks =
  QCheck2.Test.make ~name:"window scanner: every token kind across a refill" ~count:150
    ~print:(fun s -> s) gen_token_doc (fun text ->
      List.for_all
        (fun keep_ws ->
          match outcomes_agree ~keep_ws text with
          | Ok _, agree -> agree
          | Error (l, c, m), _ -> QCheck2.Test.fail_reportf "generated document fails at %d:%d: %s" l c m)
        [ false; true ])

(* [s] with [extra] inserted after every occurrence of [needle]. *)
let insert_after needle extra s =
  let b = Buffer.create (2 * String.length s) in
  let k = String.length needle in
  let i = ref 0 in
  while !i < String.length s do
    if !i + k <= String.length s && String.sub s !i k = needle then begin
      Buffer.add_string b needle;
      Buffer.add_string b extra;
      i := !i + k
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* Multi-line XMark text with references, a comment, a PI and CDATA in
   every <text>, so mutations land in every kind of token. *)
let multiline_xmark =
  lazy
    (let doc = Xut_xmark.Generator.generate ~seed:7L ~factor:0.0005 () in
     "<?xml version=\"1.0\"?>\n"
     ^ insert_after "<text>" "&amp;&#x41;<!-- c\n --><?pi a\nb?><![CDATA[x<y\n]]>"
         (Serialize.element_to_string ~indent:1 doc))

let gen_mutation =
  let open QCheck2.Gen in
  delay @@ fun () ->
  let text = Lazy.force multiline_xmark in
  let n = String.length text in
  let bytes = oneofl [ '\000'; '<'; '>'; '&'; '#'; ';'; '"'; '\''; '\n'; '/'; '='; 'x'; '!'; '?'; ']'; '-'; '\xff' ] in
  oneof
    [ map (fun i -> String.sub text 0 i) (int_range 0 n);
      map2
        (fun i c ->
          let b = Bytes.of_string text in
          Bytes.set b i c;
          Bytes.to_string b)
        (int_range 0 (n - 1)) bytes ]

let prop_error_positions_chunks =
  QCheck2.Test.make ~name:"parse errors: line/col/msg equal for any chunk size" ~count:120
    gen_mutation (fun text -> snd (outcomes_agree text))

(* Fuzz: malformed input of any shape may only raise Parse_error (or, for
   Dom, report a missing document element). *)
let only_parse_errors text =
  let survives f =
    match f () with
    | () -> true
    | exception Sax.Parse_error _ -> true
    | exception Dom.No_document_element -> true
  in
  survives (fun () -> Sax.parse_string text ignore) && survives (fun () -> ignore (Dom.parse_string text))

let gen_hostile =
  let open QCheck2.Gen in
  let piece =
    oneof
      [ oneofl
          [ "<"; ">"; "</"; "/>"; "a"; "b"; "="; "\""; "'"; " "; "\n"; "&"; "&#"; "&#x"; ";"; "9"; "F";
            "amp"; "\000"; "<!--"; "-->"; "<![CDATA["; "]]>"; "<?"; "?>"; "<!DOCTYPE"; "["; "]";
            "&#99999999999999999999999;"; "&#x110000000;"; "&#0;"; "&#xD800;"; "<a>"; "</a>" ];
        map (String.make 1) char ]
  in
  let random = map (String.concat "") (list_size (int_range 0 60) piece) in
  delay @@ fun () ->
  let text = Lazy.force multiline_xmark in
  let spliced =
    map2
      (fun i p -> String.sub text 0 i ^ p ^ String.sub text i (String.length text - i))
      (int_range 0 (String.length text)) random
  in
  oneof [ random; string_size (int_range 0 200); gen_mutation; spliced ]

let prop_fuzz_only_parse_errors =
  QCheck2.Test.make ~name:"fuzz: Sax/Dom raise only Parse_error" ~count:400 gen_hostile only_parse_errors

let parse_error text =
  match Sax.parse_string text ignore with
  | () -> Alcotest.failf "%S should not parse" text
  | exception Sax.Parse_error { line; col; msg } -> (line, col, msg)

let check_error_at text (line, col) =
  let l, c, msg = parse_error text in
  Alcotest.(check (pair int int)) (Printf.sprintf "%S: %s" text msg) (line, col) (l, c);
  match Dom.parse_string text with
  | _ -> Alcotest.failf "Dom accepted %S" text
  | exception Sax.Parse_error _ -> ()

let test_char_ref_range () =
  (* errors point at the reference's '&' *)
  List.iter
    (fun (text, pos) -> check_error_at text pos)
    [ ("<a>&#99999999999999999999999;</a>", (1, 4));
      ("<a>&#x110000000;</a>", (1, 4));
      ("<a>&#x110000;</a>", (1, 4));
      ("<a>\n  &#0;</a>", (2, 3));
      ("<a>&#xD800;</a>", (1, 4));
      ("<a>&#xdfff;</a>", (1, 4));
      ("<a b='x&#x110000;'/>", (1, 8)) ];
  List.iter
    (fun (text, expected) ->
      match Dom.parse_string text with
      | e -> Alcotest.(check string) text expected (Node.text_content e)
      | exception Sax.Parse_error { msg; _ } -> Alcotest.failf "%S: %s" text msg)
    [ ("<a>&#x10FFFF;</a>", "\xf4\x8f\xbf\xbf");
      ("<a>&#xD7FF;&#xE000;</a>", "\xed\x9f\xbf\xee\x80\x80");
      ("<a>&#x0000000041;&#0000066;</a>", "AB") ]

let test_nul_rejected () =
  List.iter
    (fun (text, pos) -> check_error_at text pos)
    [ ("<a>\000</a>", (1, 4));
      ("<a>x\ny\000</a>", (2, 2));
      ("<a b=\"\000\"/>", (1, 7));
      ("<a b='&amp;\000'/>", (1, 12));
      ("<a><!--\000--></a>", (1, 8));
      ("<a><![CDATA[\000]]></a>", (1, 13)) ]

let test_close_tag_in_place () =
  List.iter
    (fun (text, msg) ->
      let _, _, got = parse_error text in
      Alcotest.(check string) text msg got)
    [ ("<a></ab>", "mismatched tags: <a> closed by </ab>");
      ("<ab></a>", "mismatched tags: <ab> closed by </a>");
      ("<ab></ba>", "mismatched tags: <ab> closed by </ba>");
      ("<a><b></a></b>", "mismatched tags: <b> closed by </a>");
      ("<a/></a>", "closing tag </a> with no open element") ]

let test_intern_sub () =
  let b = Bytes.of_string "xx<sym-sub-test>yy" in
  let here = Counter.local () in
  let v = Sym.intern_sub here b 3 12 in
  let s = Sym.name v in
  Alcotest.(check string) "name" "sym-sub-test" s;
  Alcotest.(check int) "the interned symbol" (Sym.intern here "sym-sub-test") v;
  Alcotest.(check int) "stable" v (Sym.intern_sub here b 3 12);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Sym.intern_sub here b 3 12))
  done;
  (* only Gc.minor_words' own boxed floats *)
  Alcotest.(check bool) "a hit allocates nothing" true (Gc.minor_words () -. before < 100.);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Sym.intern here s))
  done;
  Alcotest.(check bool) "an intern hit allocates nothing" true (Gc.minor_words () -. before < 100.);
  Alcotest.check_raises "range" (Invalid_argument "Sym.intern_sub") (fun () ->
      ignore (Sym.intern_sub here b 10 20));
  Sax.parse_string "<sym-sub-test><sym-sub-test/></sym-sub-test>" (function
    | Sax.Start_element (n, _) | Sax.End_element n ->
      Alcotest.(check bool) "event names are the interned string" true (n == s)
    | _ -> ())

(* Terminators of comments, PIs and CDATA and their near-misses ([--],
   [-->] inside a longer run of dashes, [?] not followed by [>], [\]\]]
   not followed by [>]) land on every offset of every chunk size from 1
   to 8; the events, or the error's position and message, must equal
   [of_string]'s. *)
let test_terminators_across_chunks () =
  let cases =
    [ "<a><!--x-->y</a>";
      "<a><!---->x<!-- - -- --->y<!-----></a>";
      "<a><!--a-b--c---d---->e</a>";
      "<a><?p?><?p ??><?p a?b? ?c>d??>e</a>";
      "<a><![CDATA[]]><![CDATA[]]]]><![CDATA[x]y]]z]]]>]]></a>";
      "<a><![CDATA[]]]]]]]>t<![CDATA[]>]]>]]></a>";
      "<?xml version=\"1.0\"?><!-- head -- - --><a/><?tail ? ?? ?>";
      "<a>\n<!--\n--\n-->\n<?p\n?\n?>\n<![CDATA[\n]]\n]]>\n</a>";
      (* unterminated, and NUL bytes before and inside a near-miss *)
      "<a><!-- x --";
      "<a><!-- x -\000-></a>";
      "<a><?p x ?";
      "<a><?p x \000?></a>";
      "<a><![CDATA[x]]";
      "<a><![CDATA[x]\000]></a>";
      "<a><![CDATA[x]]]\000]]></a>" ]
  in
  List.iter
    (fun text ->
      Alcotest.(check bool) text true (snd (outcomes_agree ~chunk_sizes:(List.init 8 succ) text)))
    cases;
  (* the contents themselves *)
  let contents text =
    match outcome (Sax.parse_string text) with
    | Ok evs ->
      List.filter_map
        (function
          | Sax.Comment_event c | Sax.Characters c -> Some c
          | Sax.Pi_event (t, d) -> Some (t ^ "|" ^ d)
          | _ -> None)
        evs
    | Error (l, c, m) -> [ Printf.sprintf "%d:%d %s" l c m ]
  in
  List.iter
    (fun (text, expected) -> Alcotest.(check (list string)) text expected (contents text))
    [ ("<a><!--a-b--c---d---->e</a>", [ "a-b--c---d--"; "e" ]);
      ("<a><?p a?b? ?c>d??>e</a>", [ "p|a?b? ?c>d?"; "e" ]);
      ("<a><![CDATA[x]y]]z]]]>]]></a>", [ "x]y]]z]"; "]]>" ]);
      ("<a><!-- x --", [ "1:13 unterminated: expected -->" ]);
      ("<a><![CDATA[x]]]\000]]></a>", [ "1:17 NUL byte" ]) ]

(* ---- What a SAX ingest allocates ----

   A run allocates the events and their strings; neither pass nor the
   parser's tag stack allocates per element.  Allocation is counted in
   minor-heap words on this domain. *)

(* [f ()] and the words it allocated *)
let minor_words f =
  let before = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. before)

(* A 20 000-deep [<d>] chain with no text or attributes: the parser
   allocates its two events per element (3 + 2 words) and a constant
   beside them (the parser's buffers, a name split by a refill). *)
let test_parser_allocation () =
  let depth = 20_000 in
  let text = String.concat "" (List.init depth (fun _ -> "<d>") @ List.init depth (fun _ -> "</d>")) in
  let events = ref 0 in
  (* the second parse, once [d] is interned *)
  Sax.parse_string text ignore;
  let (), words = minor_words (fun () -> Sax.parse_string text (fun _ -> incr events)) in
  Alcotest.(check int) "events" ((2 * depth) + 2) !events;
  let bound = float_of_int ((5 * depth) + 2_000) in
  if words > bound then Alcotest.failf "parse allocated %.0f words, over %.0f" words bound

let u7 =
  "delete $a/site/open_auctions/open_auction[bidder/increase > 5]/annotation[happiness < 20]/\
   description//text"

(* The fused tier (U4, a qualifier-free delete), the buffered tier (U7,
   two qualifiers) and twoPassSAX (U5, whose [//] step gives pass 1 a
   frame at nearly every element) over an XMark f=0.002 document, beside
   a parse alone of the same string, into a sink that keeps nothing.
   The words per element beyond the run's parses (U7's re-reads counted
   as the fraction of a parse their bytes are) are bounded 20-25% above
   what these measured on a warm plan: 0.16 for U4 and 0.15 for U5 (the
   passes' stacks, allocated once per run); U7 is bounded at 1.0 (pass
   2's transitions into qualifier states; its qualifier evaluation and
   truth entries allocate nothing). *)
let test_ingest_allocation () =
  let doc = Xut_xmark.Generator.generate ~seed:1L ~factor:0.002 () in
  let text = Serialize.element_to_string doc in
  let elements = Node.element_count (Node.Element doc) in
  let source h = Sax.parse_string text h in
  source ignore;
  let (), parse = minor_words (fun () -> source ignore) in
  let plan q =
    let update = Core.Transform_parser.parse_update q in
    (update, Xut_automata.Selecting_nfa.of_path (Core.Transform_ast.path update))
  in
  List.iter
    (fun (label, q, run, bound) ->
      let update, nfa = plan q in
      let once () = run nfa update in
      (* the second run, on a warm plan as the service's are *)
      ignore (once ());
      let stats, words = minor_words once in
      Alcotest.(check int) (label ^ ": elements") elements stats.Core.Sax_transform.elements_seen;
      let parses =
        float_of_int stats.Core.Sax_transform.parses
        +. (float_of_int stats.Core.Sax_transform.reread_bytes /. float_of_int (String.length text))
      in
      let per_element = (words -. (parses *. parse)) /. float_of_int elements in
      if per_element > bound then
        Alcotest.failf "%s: %.2f words per element beyond its parses, over %.2f" label
          per_element bound)
    [ ( "U4 run_once",
        "delete $a/site/regions//item",
        (fun nfa u -> Core.Sax_transform.run_once nfa u ~source ~sink:ignore),
        0.2 );
      ( "U7 run_buffered",
        u7,
        (fun nfa u ->
          Core.Sax_transform.run_buffered nfa u ~input:(Reader.string text) ~sink:ignore),
        1.0 );
      ( "U5 run",
        "delete $a/site//description",
        (fun nfa u -> Core.Sax_transform.run nfa u ~source ~sink:ignore),
        0.18 ) ];
  (* The same plans through the buffered driver into a chunked
     serializer, its parses steered: a steered subtree makes no events,
     so the bound is on all the words per element, the parses included
     (a parse alone makes about 11).  U4 copies or skips everything
     outside [regions] and every item, and measured 0.19 words per
     element; U7 makes the events of what its regions' passes walk, and
     measured 1.39 (3.25 when its regions were held as events).  A
     driver that never steers makes U4 allocate the parse's 11. *)
  List.iter
    (fun (label, q, bound) ->
      let update, nfa = plan q in
      let once () =
        let sink = Serialize.Sink.create ignore in
        let stats =
          Core.Sax_transform.run_buffered ~copy_to:(Serialize.Sink.writer sink) nfa update
            ~input:(Reader.string text) ~sink:(Serialize.Sink.event sink)
        in
        ignore (Serialize.Sink.close sink);
        stats
      in
      ignore (once ());
      let stats, words = minor_words once in
      Alcotest.(check int) (label ^ ": elements") elements stats.Core.Sax_transform.elements_seen;
      let per_element = words /. float_of_int elements in
      if per_element > bound then
        Alcotest.failf "%s: %.2f words per element, parse included, over %.2f" label per_element
          bound)
    [ ("U4 into a sink", "delete $a/site/regions//item", 0.25); ("U7 into a sink", u7, 1.75) ]

(* The buffered driver interns nothing of its own: each start-tag a
   parse walks is interned once, by the parser.  Unsteered, U7's live
   parse walks every element and each region's re-read every element of
   the region, an [open_auction]. *)
let test_buffered_interns () =
  let doc = Xut_xmark.Generator.generate ~seed:1L ~factor:0.002 () in
  let text = Serialize.element_to_string doc in
  let update = Core.Transform_parser.parse_update u7 in
  let nfa = Xut_automata.Selecting_nfa.of_path (Core.Transform_ast.path update) in
  let in_regions = ref 0 in
  Node.iter_elements
    (fun e ->
      if Node.name e = "open_auction" then in_regions := !in_regions + Node.element_count (Node.Element e))
    doc;
  let n0 = Fixtures.counter "sym_interns" in
  let stats =
    Core.Sax_transform.run_buffered nfa update ~input:(Reader.string text) ~sink:ignore
  in
  Alcotest.(check bool) "regions re-read" true (stats.Core.Sax_transform.regions > 0);
  Alcotest.(check int) "interns: one per start-tag per read"
    (stats.Core.Sax_transform.elements_seen + !in_regions)
    (Fixtures.counter "sym_interns" - n0)

(* U7, U4 and a copy of everything on the benchmark's stream-ingest
   document (XMark f=0.02, seed 1), read from a file, steered into a
   sink, on a warm plan.  Every open_auction is one region, re-read
   once: the re-reads consume exactly the bytes of the open_auctions.
   U7 allocates under 35 kw (72 kw when regions were held as events;
   measured 25 kw), and computes no step the DFA its automaton keeps
   already holds;
   U4 under 2 kw (measured 0.6 kw), and interns only the 448 start-tags
   it walks; the copy at most 609 words (measured 603: text runs that
   cross a window refill are made whole in the window, not copied into
   a string). *)
let test_u7_ingest () =
  let doc = Xut_xmark.Generator.generate ~seed:1L ~factor:0.02 () in
  let text = Serialize.element_to_string doc in
  let auctions = ref 0 in
  Node.iter_elements
    (fun e ->
      if Node.name e = "open_auction" then
        auctions := !auctions + String.length (Serialize.element_to_string e))
    doc;
  with_temp_doc text (fun path ->
      let run q =
        let update = Core.Transform_parser.parse_update q in
        let nfa = Xut_automata.Selecting_nfa.of_path (Core.Transform_ast.path update) in
        let dfa = Xut_automata.Dfa.of_nfa nfa in
        let once () =
          let sink = Serialize.Sink.create ignore in
          let stats =
            Core.Sax_transform.run_buffered ~copy_to:(Serialize.Sink.writer sink) nfa update
              ~input:(Reader.file path) ~sink:(Serialize.Sink.event sink)
          in
          ignore (Serialize.Sink.close sink);
          stats
        in
        ignore (once ());
        let computed = Xut_automata.Dfa.computed dfa in
        let n0 = Fixtures.counter "sym_interns" in
        let stats, words = minor_words once in
        Alcotest.(check int) (q ^ ": steps computed again") computed
          (Xut_automata.Dfa.computed dfa);
        (stats, words, Fixtures.counter "sym_interns" - n0)
      in
      let stats, words, _ = run u7 in
      Alcotest.(check (triple int int int)) "regions, parses, bytes re-read" (240, 1, !auctions)
        (stats.Core.Sax_transform.regions, stats.Core.Sax_transform.parses,
         stats.Core.Sax_transform.reread_bytes);
      if words > 35_000. then Alcotest.failf "U7 allocated %.0f words, over 35000" words;
      let _, words, interns = run "delete $a/site/regions//item" in
      if words > 2_000. then Alcotest.failf "U4 allocated %.0f words, over 2000" words;
      Alcotest.(check int) "U4 interns" 448 interns;
      let _, words, _ = run "delete $a/site/zz" in
      if words > 609. then Alcotest.failf "copy-all allocated %.0f words, over 609" words)

(* ---- Pins taken from the per-character lexer ----

   The event stream of a one-line and of an indented XMark document, and
   the (line, col, msg) of malformed multi-line inputs, as the lexer
   before the one-loop scanner produced them.  Every chunk size must
   reproduce them: 1-8 put a refill inside every token at every offset,
   61 lands refills at varying offsets, 4096 and 65536 are ordinary. *)

let pin_chunk_sizes = List.init 8 succ @ [ 61; 4096; 65536 ]

(* A digest of the events, each framed by a tag byte and length-prefixed
   strings, so no two distinct streams collide by concatenation. *)
let event_digest parse =
  let b = Buffer.create (1 lsl 16) in
  let str s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  parse (function
    | Sax.Start_document -> Buffer.add_char b 'D'
    | Sax.Start_element (n, attrs) ->
      Buffer.add_char b 'S';
      str n;
      List.iter
        (fun (k, v) ->
          Buffer.add_char b 'A';
          str k;
          str v)
        attrs
    | Sax.Characters s ->
      Buffer.add_char b 'T';
      str s
    | Sax.Comment_event s ->
      Buffer.add_char b 'C';
      str s
    | Sax.Pi_event (t, d) ->
      Buffer.add_char b 'P';
      str t;
      str d
    | Sax.End_element n ->
      Buffer.add_char b 'E';
      str n
    | Sax.End_document -> Buffer.add_char b 'Z');
  Digest.to_hex (Digest.string (Buffer.contents b))

let xmark_pin_docs =
  lazy
    (let doc = Xut_xmark.Generator.generate ~seed:42L ~factor:0.01 () in
     (Serialize.element_to_string doc, Serialize.element_to_string ~indent:2 doc))

let test_event_pins () =
  let one_line, pretty = Lazy.force xmark_pin_docs in
  List.iter
    (fun (label, text, keep_ws, pinned) ->
      with_temp_doc text (fun tmp ->
          List.iter
            (fun chunk_size ->
              let got =
                event_digest (fun h ->
                    In_channel.with_open_bin tmp (fun ic ->
                        Sax.parse_reader ~keep_ws (Reader.of_channel ~chunk_size ic) h))
              in
              Alcotest.(check string) (Printf.sprintf "%s (chunk=%d)" label chunk_size) pinned got)
            pin_chunk_sizes;
          Alcotest.(check string) (label ^ " (of_string)") pinned
            (event_digest (Sax.parse_string ~keep_ws text))))
    [ ("one line", one_line, false, "723dba86b711de24ae08b2b8446c8d99");
      ("one line, keep_ws", one_line, true, "723dba86b711de24ae08b2b8446c8d99");
      ("pretty", pretty, false, "723dba86b711de24ae08b2b8446c8d99");
      ("pretty, keep_ws", pretty, true, "7ba69fa6786e51f42c2e38eb15bb1e55") ]

let long_name = String.make 100 'n'

let malformed_pins =
  [ ("<a>\n  <b>\n</a>", (3, 5, "mismatched tags: <b> closed by </a>"));
    ("<a>\n<b x='1' y=\n>", (3, 1, "expected attribute value"));
    ("<a>\n  <b\n  c='1'\n  d>\n</b></a>", (4, 4, "expected '=', found '>'"));
    ("<a>\n\n<1b/></a>", (3, 2, "expected a name"));
    ("<a>\n</a>\n</a>", (3, 5, "closing tag </a> with no open element"));
    ("<a>\n  text\n", (3, 1, "unclosed element <a>"));
    ("x\n<a/>", (2, 1, "text outside the document element"));
    ("<a/>\n  y", (2, 4, "text outside the document element"));
    ("<a>\n&bogus;\n</a>", (2, 8, "unknown entity &bogus;"));
    ("<a>\n  &#;</a>", (2, 5, "empty character reference"));
    ("<a>\n  text &#x110000;</a>", (2, 8, "character reference out of range"));
    ("<a b='1\n2&#0;'/>", (2, 2, "character reference to U+0000"));
    ("<a\n b=\"x\n\000\"/>", (3, 1, "NUL byte in attribute value"));
    ("<a>\n<b></b\n c></a>", (3, 2, "expected '>', found 'c'"));
    ("<a>\n<b/ ></a>", (2, 4, "expected '>', found ' '"));
    ("<a>\n<!-- x\n", (3, 1, "unterminated: expected -->"));
    ("<a>\n<![CDATA[\n x", (3, 3, "unterminated: expected ]]>"));
    ("<a>\n<?pi\n", (3, 1, "unterminated: expected ?>"));
    ("\n\n<!DOCTYPE x [\n", (4, 1, "unterminated DOCTYPE"));
    ("<a>\r\n\t<b>&amp</b></a>", (2, 9, "expected ';', found '<'"));
    ("<a>\n  <b c='1' 3='y'/></a>", (2, 12, "expected '>', found '3'"));
    ( "<a>\n  <bbbbbb attr='v'>\n    <c/>\n  </bbbbbb >\n</a",
      (5, 4, "expected '>', found '\\000'") );
    ("<a\n", (2, 1, "expected '>', found '\\000'"));
    ( "<" ^ long_name ^ ">\n</" ^ String.sub long_name 0 99 ^ ">",
      ( 2,
        103,
        "mismatched tags: <" ^ long_name ^ "> closed by </" ^ String.sub long_name 0 99 ^ ">" ) );
    ("<a>\n\n  <b x='&lt;&unknown;'/></a>", (3, 22, "unknown entity &unknown;"));
    ( "<a>\n  <" ^ long_name ^ "\n   " ^ long_name ^ "='v' " ^ long_name ^ "></a>",
      (3, 209, "expected '=', found '>'") );
    ( "<a>\n\t<b>\n\t\t<c>x</c>\n\t</b>\n\t<d>\n\t\ttext\n\t</e>\n</a>",
      (7, 6, "mismatched tags: <d> closed by </e>") );
    ("<a>\n  <b>&#x41;&#66;\n  &#xZ;</b></a>", (3, 6, "empty character reference"));
    ("<a>\n<b\n/>\n<c\n\n x='1'\n\n y=\"2\"\n\n z></a>", (10, 3, "expected '=', found '>'"));
    ( "<a>\n  <b>\n  </b>\n  <" ^ long_name ^ ">\n  </" ^ long_name ^ "x>\n</a>",
      (5, 107, "mismatched tags: <" ^ long_name ^ "> closed by </" ^ long_name ^ "x>") );
    (* the prolog: one DOCTYPE, and no reference outside the element,
       even one that decodes to whitespace *)
    ("<!DOCTYPE a>\n<!DOCTYPE b>\n<a/>", (2, 1, "misplaced DOCTYPE"));
    ("&#32;<a/>&#10;", (1, 1, "reference outside the document element"));
    ("<a/>\n  &#10;", (2, 3, "reference outside the document element"));
    (* faults after canonical markup, which a steered copy or skip scans
       as a run: the token path must still report them *)
    ("<a>\n<b k=\"v\">t</b><c><d/>x</e>\n</a>", (2, 27, "mismatched tags: <c> closed by </e>"));
    ("<a>\n<b k=\"v\">t</b><c>x\000y</c></a>", (2, 19, "NUL byte in character data"));
    ("<a>\n<b k=\"v\">t</b><c k=\"x\000\"/></a>", (2, 22, "NUL byte in attribute value"));
    ("<a>\n<b k=\"v\">t</b><c k=\"v\"", (2, 23, "expected '>', found '\\000'"));
    ("<a>\n<b k=\"v\">t</b><c><d>u</d>", (2, 26, "unclosed element <c>")) ]

let test_error_pins () =
  List.iter
    (fun (text, pinned) ->
      let label = String.escaped text in
      let got = parse_error text in
      Alcotest.(check (triple int int string)) label pinned got;
      let expected, agree = outcomes_agree ~chunk_sizes:pin_chunk_sizes text in
      Alcotest.(check bool) (label ^ ": every chunk size") true agree;
      Alcotest.(check bool) label true (expected = Error got))
    malformed_pins

(* A file parse takes its window from the reader's pool and returns it on
   every exit: a clean parse, a parse error and a handler that raises.
   Once the pool is warm no parse misses, and none puts a window on the
   major heap.  The runtime adds a block allocated on the major heap to
   [major_words] only at the next minor collection, so one is forced
   before each reading: the count is then what the four parses
   allocated, not what an earlier test did. *)
let test_window_pool () =
  with_temp_doc "<a><b>x</b></a>" (fun ok ->
      with_temp_doc "<a>\n<b></a>" (fun bad ->
          Sax.parse_file ok ignore;
          let hits0 = Fixtures.counter "reader_pool_hits" in
          let misses0 = Fixtures.counter "reader_pool_misses" in
          Gc.minor ();
          let major0 = (Gc.quick_stat ()).Gc.major_words in
          Sax.parse_file ok ignore;
          (match Sax.parse_file bad ignore with
          | () -> Alcotest.fail "should not parse"
          | exception Sax.Parse_error { line = 2; _ } -> ());
          (match Sax.parse_file ok (fun _ -> raise Exit) with
          | () -> Alcotest.fail "the handler raises"
          | exception Exit -> ());
          Sax.parse_file ok ignore;
          Gc.minor ();
          let major = (Gc.quick_stat ()).Gc.major_words -. major0 in
          Alcotest.(check int) "hits" 4 (Fixtures.counter "reader_pool_hits" - hits0);
          Alcotest.(check int) "misses" 0 (Fixtures.counter "reader_pool_misses" - misses0);
          if major > 1000. then
            Alcotest.failf "four parses put %.0f words on the major heap" major))

(* [Reader.refill] keeps the unread tail: a kept token longer than the
   window doubles it, and the positions count the discarded newlines. *)
let test_refill_keeps_tail () =
  let text = "ab\ncdefghij\nkl" in
  with_temp_doc text (fun tmp ->
      In_channel.with_open_bin tmp (fun ic ->
          let r = Reader.of_channel ~chunk_size:4 ic in
          Alcotest.(check bool) "first chunk" true (Reader.refill r 0);
          Alcotest.(check int) "4 bytes" 4 r.Reader.len;
          (* consume "ab\n", keep "c" *)
          Alcotest.(check bool) "second chunk" true (Reader.refill r 3);
          Alcotest.(check string) "kept tail first" "cdef" (Bytes.sub_string r.buf 0 r.len);
          (* keep the whole window: it doubles and reads one chunk more *)
          Alcotest.(check bool) "grown" true (Reader.refill r 0);
          Alcotest.(check string) "window" "cdefghij" (Bytes.sub_string r.buf 0 r.len);
          Alcotest.(check (pair int int))
            "line:col after a refill" (2, 9) (Reader.line r 8, Reader.col r 8);
          Alcotest.(check bool) "rest" true (Reader.refill r 8);
          Alcotest.(check bool) "end" false (Reader.refill r r.len);
          Alcotest.(check (pair int int))
            "line:col at the end" (3, 3) (Reader.line r 0, Reader.col r 0)))

(* A document has one document element, and a DOCTYPE only before it:
   a start tag at depth 0 once the element has started is an error at
   its '<', a DOCTYPE there one at its own '<', at every chunk size. *)
let test_one_document_element () =
  List.iter
    (fun (text, pos, msg) ->
      check_error_at text pos;
      match outcomes_agree ~chunk_sizes:(List.init 8 succ) text with
      | Error (_, _, m), true -> Alcotest.(check string) text msg m
      | _, agree -> Alcotest.failf "%S: parsed, or chunked readers disagree (%b)" text agree)
    [ ("<a><x/></a><b><x/></b>", (1, 12), "a second document element");
      ("<a/>\n<!-- c -->\n  <b/>", (3, 3), "a second document element");
      ("<a/><a/>", (1, 5), "a second document element");
      ("<a><!DOCTYPE x><y/></a>", (1, 4), "misplaced DOCTYPE");
      ("<a/>\n<!DOCTYPE x>", (2, 1), "misplaced DOCTYPE") ]

(* [Sax.parse_element] reads the first element after whitespace,
   comments and PIs, and nothing past its end tag. *)
let test_parse_element () =
  let element src i =
    let acc = ref [] in
    let j = Sax.parse_element src i (fun ev -> acc := ev :: !acc) in
    (List.rev !acc, j)
  in
  let evs, j = element "insert \n <!-- c --> <?p x?><a b='>'>t<![CDATA[<]]></a> into \000<" 7 in
  Alcotest.(check int) "offset past the end tag" 54 j;
  Alcotest.(check bool) "events" true
    (evs
    = [ Sax.Comment_event " c "; Sax.Pi_event ("p", "x"); Sax.Start_element ("a", [ ("b", ">") ]);
        Sax.Characters "t"; Sax.Characters "<"; Sax.End_element "a" ]);
  Alcotest.(check int) "self-closed" 4 (snd (element "<a/><b/>" 0));
  let e, j = Dom.parse_element "x <a> <b/> </a>y" 2 in
  Alcotest.(check (pair string int)) "Dom.parse_element" ("<a><b/></a>", 15)
    (Serialize.element_to_string e, j);
  List.iter
    (fun (src, msg) ->
      match element src 0 with
      | _ -> Alcotest.failf "%S parsed" src
      | exception Sax.Parse_error { msg = m; _ } -> Alcotest.(check string) src msg m)
    [ ("  ", "expected an element");
      ("<!-- c -->", "expected an element");
      ("<!DOCTYPE a><a/>", "misplaced DOCTYPE");
      ("<a><!DOCTYPE a></a>", "misplaced DOCTYPE");
      ("t<a/>", "text outside the document element");
      ("<![CDATA[x]]><a/>", "CDATA outside the document element");
      ("<!-- c -->&#32;<a/>", "reference outside the document element");
      ("<a>", "unclosed element <a>") ];
  (* a transform literal is read by [parse_element] *)
  match
    Core.Transform_parser.parse
      "transform copy $a := doc(\"d\") modify do insert <!-- c -->&#32;<a/> into $a/x return $a"
  with
  | _ -> Alcotest.fail "a reference before the literal's element parsed"
  | exception Core.Transform_parser.Parse_error _ -> ()

(* Comments, PIs, CDATA sections and DOCTYPE internal subsets far longer
   than the window, and each cut off before its terminator: the window
   grows to hold the token, and the events, or the error's position and
   message, are the same for every chunk size. *)
let test_long_markup () =
  let big pattern = String.concat "" (List.init (200_000 / String.length pattern) (fun _ -> pattern)) in
  let comment = big "a-b-\n>c" and pi = big "x?y>\n?z" and cdata = big "]]x]>\n<&" in
  let subset = big "<!ENTITY e 'v'>\n" in
  let cases =
    [ ("<a><!--" ^ comment ^ "--></a>", Some (Sax.Comment_event comment));
      ("<a><?p " ^ pi ^ "?></a>", Some (Sax.Pi_event ("p", pi)));
      ("<a><![CDATA[" ^ cdata ^ "]]></a>", Some (Sax.Characters cdata));
      ("<!DOCTYPE a [" ^ subset ^ "]><a/>", None) ]
  in
  let chunk_sizes = List.init 8 succ @ [ 4096 ] in
  List.iter
    (fun (text, event) ->
      let label = String.sub text 0 12 in
      (match outcomes_agree ~chunk_sizes text with
      | Ok evs, true ->
        Option.iter
          (fun ev -> Alcotest.(check bool) (label ^ ": content") true (List.mem ev evs))
          event
      | Ok _, false -> Alcotest.failf "%s: chunked readers disagree" label
      | Error (l, c, m), _ -> Alcotest.failf "%s: %d:%d %s" label l c m);
      let cut = String.sub text 0 (String.length text - 8) in
      match outcomes_agree ~chunk_sizes cut with
      | Error (line, _, m), true ->
        Alcotest.(check bool) (label ^ " cut: " ^ m) true
          (line > 10_000 && String.starts_with ~prefix:"unterminated" m)
      | _ -> Alcotest.failf "%s cut: parsed, or chunked readers disagree" label)
    cases

let suite =
  [ Alcotest.test_case "reader basics" `Quick test_reader_basics;
    QCheck_alcotest.to_alcotest prop_chunked_equals_string;
    Alcotest.test_case "chunk boundaries" `Quick test_chunk_boundaries;
    Alcotest.test_case "chunked xmark document" `Quick test_chunked_xmark;
    Alcotest.test_case "error position" `Quick test_error_position;
    Alcotest.test_case "streaming transform, 16-byte chunks" `Quick
      test_streaming_transform_tiny_chunks;
    QCheck_alcotest.to_alcotest prop_token_doc_chunks;
    QCheck_alcotest.to_alcotest prop_error_positions_chunks;
    QCheck_alcotest.to_alcotest prop_fuzz_only_parse_errors;
    Alcotest.test_case "character references out of range" `Quick test_char_ref_range;
    Alcotest.test_case "NUL bytes rejected" `Quick test_nul_rejected;
    Alcotest.test_case "Sym.intern_sub" `Quick test_intern_sub;
    Alcotest.test_case "closing tags compared in place" `Quick test_close_tag_in_place;
    Alcotest.test_case "comment, PI and CDATA terminators across chunks" `Quick
      test_terminators_across_chunks;
    Alcotest.test_case "parser allocates its events per element" `Quick test_parser_allocation;
    Alcotest.test_case "SAX ingest allocates per event, not per element" `Quick
      test_ingest_allocation;
    Alcotest.test_case "event streams pinned at every chunk size" `Quick test_event_pins;
    Alcotest.test_case "buffered driver interns each start-tag once" `Quick test_buffered_interns;
    Alcotest.test_case "U7 and U4 ingest: bytes re-read, allocation, interns" `Quick test_u7_ingest;
    Alcotest.test_case "malformed multi-line inputs pinned to line:col" `Quick test_error_pins;
    Alcotest.test_case "file parses reuse pooled windows" `Quick test_window_pool;
    Alcotest.test_case "refill keeps the unread tail" `Quick test_refill_keeps_tail;
    Alcotest.test_case "one document element, DOCTYPE before it" `Quick test_one_document_element;
    Alcotest.test_case "parse_element reads one element" `Quick test_parse_element;
    Alcotest.test_case "markup longer than the window" `Quick test_long_markup ]
