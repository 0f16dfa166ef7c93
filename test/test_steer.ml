(* Steered ingest: a parse that copies or skips the subtrees pass 2 would
   only copy or drop must write exactly what the event path writes — the
   same chunks, the same run statistics, the same exception. *)
open Xut_xml
open Core

let with_temp_doc = Test_reader.with_temp_doc

(* The reader and sink chunk sizes: 1-8 put a refill inside every token
   at every offset, 61 lands them at varying offsets, 4096 and 65536 are
   ordinary. *)
let chunk_sizes = Test_reader.pin_chunk_sizes

let describe = function
  | Sax.Parse_error { line; col; msg } -> Printf.sprintf "%d:%d: %s" line col msg
  | e -> Printexc.to_string e

(* The buffered driver over [input], into a sink flushing every [chunk]
   bytes, its parses steered when [steered]: the chunks it emitted, then
   its stats or the exception it raised. *)
let outcome_of ~steered ~chunk ?keep_ws update input =
  let nfa = Xut_automata.Selecting_nfa.of_path (Transform_ast.path update) in
  let chunks = ref [] in
  let sink = Serialize.Sink.create ~chunk_size:chunk (fun c -> chunks := c :: !chunks) in
  let copy_to = if steered then Some (Serialize.Sink.writer sink) else None in
  let result =
    match
      Sax_transform.run_buffered ?copy_to ?keep_ws nfa update ~input
        ~sink:(Serialize.Sink.event sink)
    with
    | stats ->
      ignore (Serialize.Sink.close sink);
      Ok stats
    | exception e ->
      Serialize.Sink.abort sink;
      Error (describe e)
  in
  (List.rev !chunks, result)

(* The same over the file [path], read in [chunk]-byte windows. *)
let outcome ~steered ~chunk ?keep_ws update path =
  outcome_of ~steered ~chunk ?keep_ws update (Reader.file ~chunk_size:chunk path)

(* Whether steered and unsteered runs agree at every chunk size, failing
   with the first difference. *)
let agree ?keep_ws ?(chunk_sizes = chunk_sizes) update text =
  with_temp_doc text (fun path ->
      List.for_all
        (fun chunk ->
          let plain = outcome ~steered:false ~chunk ?keep_ws update path in
          let steered = outcome ~steered:true ~chunk ?keep_ws update path in
          plain = steered
          || QCheck2.Test.fail_reportf "chunk %d: %s unsteered, %s steered" chunk
               (match snd plain with Ok _ -> "ok" | Error e -> e)
               (match snd steered with Ok _ -> "ok" | Error e -> e))
        chunk_sizes)

(* ---- generated documents with non-canonical markup ---- *)

(* Elements over the property suite's labels, so its paths select in
   them, and over two labels no path names, so a region holds subtrees
   neither pass reads, at every depth; single- and double-quoted
   attributes whose values hold references, '>' and the other quote;
   references and '>' in text; whitespace runs; CDATA, comments, PIs;
   [<a></a>] beside [<a/>]; padding inside tags. *)
let gen_doc =
  let open QCheck2.Gen in
  let label = oneofa (Array.append Test_properties.labels [| "u"; "v" |]) in
  let attr =
    let* name = oneofl [ "id"; "k"; "x_y" ] in
    let* quote = oneofl [ '"'; '\'' ] in
    let* parts =
      list_size (int_range 0 4)
        (oneofl [ "A"; "10"; " "; "&amp;"; "&lt;"; ">"; "&#233;"; "&#x41;"; "&quot;"; "&apos;";
                  (if quote = '"' then "'" else "\"") ])
    in
    let* pad = oneofl [ ""; " "; "\n" ] in
    return (Printf.sprintf " %s%s=%s%c%s%c" name pad pad quote (String.concat "" parts) quote)
  in
  let text =
    map (String.concat "")
      (list_size (int_range 1 4)
         (oneofa (Array.append Test_properties.texts [| " "; "&amp;"; "&lt;"; "&gt;"; ">"; "&#65;"; "&#x4E2D;"; "\n  " |])))
  in
  let ws = oneofl [ " "; "\n"; "\n\t  "; "\r\n" ] in
  let comment = oneofl [ "<!-- c -->"; "<!--<a>&-->" ] in
  let pi = oneofl [ "<?pi data?>"; "<?p a>b?>" ] in
  let cdata = oneofl [ "<![CDATA[x<y&z]]>"; "<![CDATA[ ]]>"; "<![CDATA[]]>" ] in
  let element =
    fix (fun self depth ->
        let* name = label in
        let* attrs = list_size (frequency [ (3, return 0); (2, int_range 1 2) ]) attr in
        let* pad = oneofl [ ""; ""; " "; "\n" ] in
        let attrs = String.concat "" attrs in
        let child =
          if depth = 0 then oneof [ text; ws ]
          else frequency [ (4, self (depth - 1)); (2, text); (2, ws); (1, comment); (1, pi); (1, cdata) ]
        in
        let* children = list_size (int_range 0 4) child in
        let* self_close = bool in
        if children = [] && self_close then return (Printf.sprintf "<%s%s%s/>" name attrs pad)
        else
          return
            (Printf.sprintf "<%s%s%s>%s</%s%s>" name attrs pad (String.concat "" children) name pad))
  in
  let* prolog = oneofl [ ""; "<?xml version=\"1.0\"?>\n"; "<!-- head -->\n" ] in
  let* kids = list_size (int_range 1 4) (int_range 0 4 >>= element) in
  let* tail = oneofl [ ""; "\n"; "<!-- tail -->" ] in
  return (prolog ^ "<r>" ^ String.concat "" kids ^ "</r>" ^ tail)

(* Half the plans carry a qualifier, so their regions hold what pass 1
   leaves unread as bytes. *)
let prop_steered_equals_unsteered =
  QCheck2.Test.make ~name:"steered run = unsteered run: chunks, stats, exception" ~count:150
    ~print:(fun (text, update, keep_ws) ->
      Printf.sprintf "%s\n%s keep_ws=%b" text (Transform_ast.update_to_string update) keep_ws)
    QCheck2.Gen.(
      triple gen_doc
        (oneof [ Test_properties.gen_update; Test_properties.gen_qualified_update ])
        bool)
    (fun (text, update, keep_ws) -> agree ~keep_ws update text)

(* ---- canonical documents ----

   Long documents already in the writer's form, which a steered copy or
   skip takes as canonical runs, each with one token that is not, at a
   random place: the run must stop at its first byte and the token path
   take it, wherever the reader's window and the writer's flush points
   fall. *)

(* The tokens that end a canonical run, each a whole content item. *)
let non_canonical =
  [| "<b></b>"; "<c k='1'>t</c>"; "x&amp;y"; "x>y"; "<d >t</d >"; "<d k=\"1\" />";
     "<e\nk=\"v\"/>"; "\r\n"; "<!-- c -->"; "<?p d?>"; "<![CDATA[x<y]]>" |]

let gen_canonical_doc =
  let open QCheck2.Gen in
  let label = oneofa (Array.append Test_properties.labels [| "u"; "v" |]) in
  let attr =
    map2 (Printf.sprintf " %s=\"%s\"") (oneofl [ "id"; "k"; "x_y" ])
      (oneofl [ ""; "A"; "10"; "a b"; "x'y"; "\t1" ])
  in
  let text =
    map (String.concat "")
      (list_size (int_range 1 3) (oneofl [ "A"; "10"; "3.5"; "x y"; "it's"; "a\nb"; "\"q\"" ]))
  in
  let element =
    fix (fun self depth ->
        let* name = label in
        let* attrs = map (String.concat "") (list_size (int_range 0 2) attr) in
        let* children =
          list_size (int_range 0 4) (if depth = 0 then text else oneof [ self (depth - 1); text ])
        in
        if children = [] then return (Printf.sprintf "<%s%s/>" name attrs)
        else return (Printf.sprintf "<%s%s>%s</%s>" name attrs (String.concat "" children) name))
  in
  let* kids = frequency [ (3, int_range 5 60); (1, int_range 1500 3000) ] in
  let* body = map (String.concat "") (list_repeat kids (int_range 0 3 >>= element)) in
  let doc = "<r>" ^ body ^ "</r>" in
  (* after a '>' inside the document element: every '>' of canonical
     markup ends a tag *)
  let ends = List.filter (fun i -> doc.[i] = '>') (List.init (String.length doc - 4) Fun.id) in
  let* at = oneofl ends in
  let* token = oneofa non_canonical in
  return (String.sub doc 0 (at + 1) ^ token ^ String.sub doc (at + 1) (String.length doc - at - 1))

(* Plans that copy or skip nearly everything beside the property
   suite's: copies of each child of the document element and of its
   whole content, skips of each child. *)
let gen_run_update =
  QCheck2.Gen.(
    oneof
      [ Test_properties.gen_update; Test_properties.gen_qualified_update;
        oneofl
          (List.map Transform_parser.parse_update
             [ "delete $a/r/zz"; "rename $a/zz as y"; "delete $a/r/*"; "delete $a/r/*/*" ]) ])

let prop_canonical_runs =
  QCheck2.Test.make ~name:"steered run = unsteered run: canonical runs, one token not" ~count:30
    ~print:(fun (text, update, keep_ws) ->
      Printf.sprintf "%s\n%s keep_ws=%b" text (Transform_ast.update_to_string update) keep_ws)
    QCheck2.Gen.(triple gen_canonical_doc gen_run_update bool)
    (fun (text, update, keep_ws) -> agree ~keep_ws update text)

(* Malformed XMark-shaped input under plans that copy and skip most of
   the document: the error, and every chunk written before it, are the
   event path's. *)
let prop_steered_errors =
  let updates =
    List.map Transform_parser.parse_update
      [ "delete $a/site/regions//item";
        "insert <n/> into $a/site/people/person";
        "delete $a/site/open_auctions/open_auction[bidder/increase > 5]/annotation[happiness < \
         20]/description//text" ]
  in
  QCheck2.Test.make ~name:"steered run = unsteered run on malformed input" ~count:40
    Test_reader.gen_mutation (fun text ->
      List.for_all (fun update -> agree ~chunk_sizes:[ 1; 61; 4096 ] update text) updates)

(* ---- fixed cases ---- *)

(* test_reader's malformed inputs, their document element copied, then
   skipped, then its children copied and skipped: the pinned (line, col,
   msg) at every chunk size, and the unsteered run's chunks. *)
let test_error_pins () =
  let updates =
    List.map Transform_parser.parse_update
      [ "rename $a/zzz as y"; "replace $a/* with <n/>"; "rename $a/*/zzz as y"; "delete $a/*/*" ]
  in
  List.iter
    (fun (text, (line, col, msg)) ->
      let pinned = Error (Printf.sprintf "%d:%d: %s" line col msg) in
      with_temp_doc text (fun path ->
          List.iter
            (fun update ->
              List.iter
                (fun chunk ->
                  let label =
                    Printf.sprintf "%s under %s, chunk %d" (String.escaped text)
                      (Transform_ast.update_to_string update) chunk
                  in
                  let steered = outcome ~steered:true ~chunk update path in
                  Alcotest.(check bool) label true (snd steered = pinned);
                  Alcotest.(check bool) (label ^ ": chunks") true
                    (fst steered = fst (outcome ~steered:false ~chunk update path)))
                chunk_sizes)
            updates))
    Test_reader.malformed_pins

(* Regions larger than the 512 KiB a region could once hold: one after a
   copied subtree, one holding a subtree pass 1 skips that alone is that
   large, after a region holding a smaller one.  The run reads the file
   once and re-reads each region, steered as the live parse is, and its
   bytes are twoPassSAX's. *)
let test_large_regions () =
  let copied = "<c><x a='1 &amp; 2'>t &lt; u</x><y></y><!-- n --></c>" in
  let filler = String.concat "" (List.init 60_000 (fun i -> Printf.sprintf "<z>%d</z>" i)) in
  let unread = String.concat "" (List.init 60_000 (fun i -> Printf.sprintf "<w n='%d'/>" i)) in
  List.iter
    (fun (label, text, query, regions) ->
      let update = Transform_parser.parse_update query in
      let nfa = Xut_automata.Selecting_nfa.of_path (Transform_ast.path update) in
      let expected = Buffer.create (String.length text) in
      ignore
        (Sax_transform.run nfa update ~source:(Sax.parse_string text)
           ~sink:(Serialize.event_sink expected));
      with_temp_doc text (fun path ->
          List.iter
            (fun chunk ->
              let chunks, result = outcome ~steered:true ~chunk update path in
              (match result with
              | Ok stats ->
                Alcotest.(check (pair int int)) (label ^ ": regions, one read") (regions, 1)
                  (stats.Sax_transform.regions, stats.Sax_transform.parses)
              | Error e -> Alcotest.fail e);
              Alcotest.(check string) (Printf.sprintf "%s: bytes = run's (chunk %d)" label chunk)
                (Buffer.contents expected) (String.concat "" chunks);
              Alcotest.(check bool) (label ^ ": chunks = unsteered") true
                ((chunks, result) = outcome ~steered:false ~chunk update path))
            [ 7; 4096; 65536 ]))
    [ ( "after a copied subtree",
        Printf.sprintf "<r>%s<q>%s<k/></q>%s</r>" copied filler copied,
        "delete $a/r/q[k]/z",
        1 );
      ( "a skipped subtree past 512 KiB",
        Printf.sprintf "<r><q><k/><u>%s</u><z/></q><q><u>%s</u><k/><z/></q>%s</r>" copied unread
          copied,
        "delete $a/r/q[k]/z",
        2 ) ]

(* A qualifier whose LQ list outgrows the immediate-int bitset (62
   entries), so pass 1's demands are [Bytes]-backed: the buffered run,
   steered or not, writes what GENTOP writes. *)
let test_wide_qualifier () =
  let names = List.init 40 (Printf.sprintf "x%d") in
  let query =
    Printf.sprintf "rename $a/r/g[%s]/a as b" (String.concat " or " names)
  in
  let update = Transform_parser.parse_update query in
  let nfa = Xut_automata.Selecting_nfa.of_path (Transform_ast.path update) in
  Alcotest.(check bool) "more than 62 LQ entries" true
    (Xut_xpath.Lq.length (Xut_automata.Selecting_nfa.lq nfa) > 62);
  let g i kid = Printf.sprintf "<g><u><v k='%d'/>t</u>%s<a>%d</a></g>" i kid i in
  let text =
    "<r>" ^ g 0 "<x7/>" ^ g 1 "<y/>" ^ g 2 "<x39>z</x39>" ^ g 3 "" ^ "</r>"
  in
  let expected =
    Serialize.element_to_string (Engine.transform Engine.Gentop update (Dom.parse_string text))
  in
  with_temp_doc text (fun path ->
      List.iter
        (fun chunk ->
          let steered = outcome ~steered:true ~chunk update path in
          Alcotest.(check string) (Printf.sprintf "bytes = GENTOP's (chunk %d)" chunk) expected
            (String.concat "" (fst steered));
          Alcotest.(check bool) "steered = unsteered" true
            (steered = outcome ~steered:false ~chunk update path))
        [ 1; 7; 4096 ])

(* Elements a steered run of [nfa]'s update consumes as bytes: those
   below an element the update deletes, and below one whose state set
   empties (copied whole).  The elements themselves run a transition. *)
let steered_away nfa root =
  let rec go states e =
    let states' = Xut_automata.Selecting_nfa.next_unchecked nfa states (Node.sym e) in
    if
      Xut_automata.Selecting_nfa.accepts_set nfa states'
      || Xut_automata.Selecting_nfa.set_is_empty states'
    then Node.elements e - 1
    else
      List.fold_left
        (fun acc -> function Node.Element c -> acc + go states' c | _ -> acc)
        0 (Node.children e)
  in
  go (Xut_automata.Selecting_nfa.start nfa) root

(* A steered run counts as visited only the elements pass 2 ran a
   transition on: U4 over XMark f=0.01 visits every element unsteered,
   and steered, that many less the ones it consumed as bytes. *)
let test_steered_visits () =
  let root = Xut_xmark.Generator.generate ~factor:0.01 () in
  let update = Transform_parser.parse_update "delete $a/site/regions//item" in
  let nfa = Xut_automata.Selecting_nfa.of_path (Transform_ast.path update) in
  with_temp_doc (Serialize.element_to_string root) (fun path ->
      let visits ~steered =
        let before = Fixtures.counter "nodes_visited" in
        (match outcome ~steered ~chunk:65536 update path with
        | _, Ok _ -> ()
        | _, Error e -> Alcotest.fail e);
        Fixtures.counter "nodes_visited" - before
      in
      let unsteered = visits ~steered:false and steered = visits ~steered:true in
      Alcotest.(check int) "unsteered: every element" (Node.elements root) unsteered;
      Alcotest.(check bool) "steered: fewer than the file's elements" true
        (steered < Node.elements root);
      Alcotest.(check int) "steered = unsteered - consumed as bytes"
        (unsteered - steered_away nfa root) steered)

(* U4, U7 and a copy of everything over XMark f=0.01, whose markup is
   canonical throughout, one line and indented: steered and unsteered
   runs write the same chunks, and the copy writes nearly all of its
   bytes as blits (the indentation, which the event path drops, is
   dropped inside the canonical runs). *)
let test_xmark_runs () =
  let doc = Xut_xmark.Generator.generate ~seed:1L ~factor:0.01 () in
  List.iter (fun text ->
  with_temp_doc text (fun path ->
      List.iter
        (fun (label, query) ->
          let update = Transform_parser.parse_update query in
          let nfa = Xut_automata.Selecting_nfa.of_path (Transform_ast.path update) in
          List.iter
            (fun chunk ->
              (* the chunks' lengths and their bytes, and the bytes blitted *)
              let run ~steered =
                let lengths = ref [] and bytes = Buffer.create (String.length text) in
                let sink =
                  Serialize.Sink.lending ~chunk_size:chunk (fun b ->
                      lengths := Buffer.length b :: !lengths;
                      Buffer.add_buffer bytes b)
                in
                let copy_to = if steered then Some (Serialize.Sink.writer sink) else None in
                let blits = Fixtures.counter "sax_copy_blit_bytes" in
                let stats =
                  Sax_transform.run_buffered ?copy_to nfa update
                    ~input:(Reader.file ~chunk_size:chunk path) ~sink:(Serialize.Sink.event sink)
                in
                ignore (Serialize.Sink.close sink);
                ( (!lengths, Buffer.contents bytes, stats),
                  Fixtures.counter "sax_copy_blit_bytes" - blits )
              in
              let plain, unsteered_blits = run ~steered:false in
              let steered, blits = run ~steered:true in
              let name = Printf.sprintf "%s, chunk %d" label chunk in
              Alcotest.(check bool) (name ^ ": chunks and stats = unsteered") true (plain = steered);
              Alcotest.(check int) (name ^ ": unsteered blits nothing") 0 unsteered_blits;
              if label = "copy-all" && chunk = 65536 then
                let _, out, _ = steered in
                if 100 * blits < 95 * String.length out then
                  Alcotest.failf "copy-all blitted %d of %d bytes" blits (String.length out))
            [ 1; 61; 4096; 65536 ])
        [ ("U4", "delete $a/site/regions//item");
          ("U7", Test_reader.u7);
          ("copy-all", "delete $a/site/zz") ]))
    [ Serialize.element_to_string doc; Serialize.element_to_string ~indent:2 doc ]

(* Copy and skip modes intern no name: a steered copy and a steered skip
   of 20 000 elements with distinct names leave the symbol table as it
   was (an event parse of them interns every one, each insertion
   rebuilding the table). *)
let test_steered_interns () =
  let names = 20_000 in
  let text =
    "<site><keep>"
    ^ String.concat "" (List.init names (Printf.sprintf "<steer-sym-%d/>"))
    ^ "</keep></site>"
  in
  (* the names the runs walk, and the plans' *)
  let here = Counter.local () in
  List.iter (fun n -> ignore (Sym.intern here n)) [ "site"; "keep"; "zz" ];
  with_temp_doc text (fun path ->
      List.iter
        (fun (label, query, expected) ->
          let update = Transform_parser.parse_update query in
          let before = Sym.count () in
          let chunks, result = outcome ~steered:true ~chunk:65536 update path in
          (match result with Ok _ -> () | Error e -> Alcotest.fail e);
          Alcotest.(check int) (label ^ ": symbols") before (Sym.count ());
          Alcotest.(check string) (label ^ ": bytes") expected (String.concat "" chunks))
        [ ("copy", "delete $a/site/zz", text);
          ("skip", "delete $a/site/keep", "<site/>") ])

(* ---- the ingest half of the oracle ----

   Documents of a few hundred of the property suite's subtrees under one
   document element, up to a few hundred KiB: many regions for its
   qualified paths, each of them many windows long at the small chunk
   sizes, and the whole several windows long at 4096 bytes and, for the
   largest, at 65536. *)
let gen_large_root =
  QCheck2.Gen.(
    let* parts = frequency [ (4, int_range 20 80); (1, int_range 400 900) ] in
    let* roots = list_repeat parts Test_properties.gen_root in
    return (Node.element "r" (List.concat_map Node.children roots)))

(* The buffered run over the file and over the string, steered and not,
   at every chunk size, against twoPassSAX and GENTOP. *)
let prop_large_documents =
  QCheck2.Test.make
    ~name:"buffered = twoPassSAX = GENTOP, steered = unsteered: large documents, every chunk size"
    ~count:12
    ~print:(fun (_, update) -> Transform_ast.update_to_string update)
    QCheck2.Gen.(pair gen_large_root Test_properties.gen_qualified_update)
    (fun (root, update) ->
      let nfa = Xut_automata.Selecting_nfa.of_path (Transform_ast.path update) in
      let text = Serialize.element_to_string root in
      let expected =
        match Engine.transform Engine.Gentop update root with
        | out -> Some (Serialize.element_to_string out)
        | exception Transform_ast.Invalid_update _ -> None
      in
      let two_pass =
        let buf = Buffer.create (String.length text) in
        match
          Sax_transform.run nfa update ~source:(Sax.events_of_tree root)
            ~sink:(Serialize.event_sink buf)
        with
        | _ -> Some (Buffer.contents buf)
        | exception Transform_ast.Invalid_update _ -> None
      in
      (two_pass = expected || QCheck2.Test.fail_report "twoPassSAX <> GENTOP")
      && with_temp_doc text (fun path ->
          List.for_all
            (fun chunk ->
              List.for_all
                (fun (kind, input) ->
                  let steered = outcome_of ~steered:true ~chunk update input in
                  let plain = outcome_of ~steered:false ~chunk update input in
                  let bytes =
                    match snd steered with Ok _ -> Some (String.concat "" (fst steered)) | Error _ -> None
                  in
                  (steered = plain && bytes = expected)
                  || QCheck2.Test.fail_reportf "%s, chunk %d: %s" kind chunk
                       (if steered <> plain then "steered <> unsteered" else "buffered <> GENTOP"))
                [ ("file", Reader.file ~chunk_size:chunk path);
                  ("string", Reader.string ~chunk_size:chunk text) ])
            chunk_sizes))

(* A region that starts before the end of a reader window and ends after
   it, at the ordinary window sizes, the pooled one included: its
   re-read crosses the refill the live parse crossed. *)
let test_region_across_refill () =
  let filler n = String.concat "" (List.init n (Printf.sprintf "<a>%06d</a>")) in
  let region i = Printf.sprintf "<g id=\"%d\"><k/><z>%s</z>%s</g>" i (filler 30) (filler 300) in
  (* <a>nnnnnn</a> is 13 bytes: the second region starts 1 000 bytes
     before offset 65536 and runs 4 KiB past it *)
  let text = "<r>" ^ region 0 ^ filler ((65536 - 1000 - 3 - String.length (region 0)) / 13) ^ region 1 ^ region 2 ^ "</r>" in
  let update = Transform_parser.parse_update "delete $a/r/g[k]/z" in
  let expected =
    Serialize.element_to_string (Engine.transform Engine.Gentop update (Dom.parse_string text))
  in
  with_temp_doc text (fun path ->
      List.iter
        (fun (label, input, plain_input) ->
          let chunks, result = outcome_of ~steered:true ~chunk:4096 update input in
          (match result with
          | Ok stats -> Alcotest.(check int) (label ^ ": regions") 3 stats.Sax_transform.regions
          | Error e -> Alcotest.fail e);
          Alcotest.(check string) (label ^ ": bytes = GENTOP's") expected (String.concat "" chunks);
          Alcotest.(check bool) (label ^ ": steered = unsteered") true
            ((chunks, result) = outcome_of ~steered:false ~chunk:4096 update plain_input))
        [ ("pooled file", Reader.file path, Reader.file path);
          ("4096-byte file", Reader.file ~chunk_size:4096 path, Reader.file ~chunk_size:4096 path);
          ("65536-byte string", Reader.string ~chunk_size:65536 text, Reader.string ~chunk_size:65536 text) ])

(* [site[people]] on the benchmark's stream-ingest document (XMark
   f=0.02, seed 1): the whole document is one region, larger than the
   512 KiB a region could once hold, re-read once, and the bytes are
   GENTOP's. *)
let test_site_region () =
  let doc = Xut_xmark.Generator.generate ~seed:1L ~factor:0.02 () in
  let text = Serialize.element_to_string doc in
  let update = Transform_parser.parse_update "delete $a/site[people]/regions" in
  let expected = Serialize.element_to_string (Engine.transform Engine.Gentop update doc) in
  with_temp_doc text (fun path ->
      let chunks, result = outcome_of ~steered:true ~chunk:65536 update (Reader.file path) in
      match result with
      | Ok stats ->
        Alcotest.(check (triple int int int)) "regions, parses, bytes re-read"
          (1, 1, String.length text)
          (stats.Sax_transform.regions, stats.Sax_transform.parses, stats.Sax_transform.reread_bytes);
        Alcotest.(check bool) "past 512 KiB" true (String.length text > 524288);
        Alcotest.(check bool) "bytes = GENTOP's" true (String.concat "" chunks = expected)
      | Error e -> Alcotest.fail e)

(* An input the re-read cannot trust: a file rewritten while the live
   parse reads it (after its reader took the whole of it in), so a
   region's re-read ends early, meets one more element, runs out of
   input, or meets other text in the same structure, fails with
   [Sys_error]; unchanged, the same run succeeds.  Other text is seen
   by comparing the two windows' bytes and, read in 16-byte windows
   that no longer hold the region, by the file's version: the file is
   dated in the past before each run, so the rewrite's modification
   time differs from it however coarse the file system's clock is.  A
   FIFO cannot be read twice: a plan with qualifiers is refused before
   anything is read, and its tier is the materialized one. *)
let test_reread_errors () =
  let text = "<r><g><k/><z>1</z></g><g><z>2</z></g></r>" in
  let update = Transform_parser.parse_update "delete $a/r/g[k]/z" in
  let nfa = Xut_automata.Selecting_nfa.of_path (Transform_ast.path update) in
  with_temp_doc text (fun path ->
      let write s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s) in
      let run ?chunk_size changed =
        write text;
        Unix.utimes path 1e9 1e9;
        let out = Buffer.create 64 in
        let written = Serialize.event_sink out in
        let sink ev =
          (match ev with Sax.Start_element ("r", _) -> Option.iter write changed | _ -> ());
          written ev
        in
        match Sax_transform.run_buffered nfa update ~input:(Reader.file ?chunk_size path) ~sink with
        | _ -> Ok (Buffer.contents out)
        | exception Sys_error msg -> Error msg
      in
      List.iter
        (fun chunk_size ->
          Alcotest.(check (result string string)) "unchanged" (Ok "<r><g><k/></g><g><z>2</z></g></r>")
            (run ?chunk_size None))
        [ None; Some 16 ];
      List.iter
        (fun (label, chunk_size, changed) ->
          Alcotest.(check int) (label ^ ": same length") (String.length text) (String.length changed);
          match run ?chunk_size (Some changed) with
          | Ok out -> Alcotest.failf "%s: wrote %s" label out
          | Error msg ->
            Alcotest.(check string) label (path ^ ": bytes 3-22 changed between their two reads") msg)
        [ ("ends early", None, "<r><g><k/></g><!--x--><g><z>2</z></g></r>");
          ("one more element", None, "<r><g><k/><z/><y/></g><g><z>2</z></g></r>");
          ("other text", None, "<r><g><k/><z>9</z></g><g><z>2</z></g></r>");
          ("other text, 16-byte windows", Some 16, "<r><g><k/><z>9</z></g><g><z>2</z></g></r>") ];
      match run (Some "<r><g><k/><z>1</z>") with
      | Error msg ->
        Alcotest.(check string) "cut short" (path ^ ": bytes 3-22 changed between their two reads") msg
      | Ok out -> Alcotest.failf "cut short: wrote %s" out);
  let refused, readers =
    Fixtures.with_fifo text (fun fifo ->
        let input = Reader.file fifo in
        Alcotest.(check bool) "FIFO: qualifiers materialize" true
          (Sax_transform.tier nfa input = Sax_transform.Materialized);
        let fused =
          Xut_automata.Selecting_nfa.of_path
            (Transform_ast.path (Transform_parser.parse_update "delete $a/r/g"))
        in
        Alcotest.(check bool) "FIFO: a plan without qualifiers streams" true
          (Sax_transform.tier fused input = Sax_transform.Streamed);
        match Sax_transform.run_buffered nfa update ~input ~sink:ignore with
        | _ -> false
        | exception Sax_transform.Unsupported_streaming _ -> true)
  in
  Alcotest.(check (pair bool int)) "FIFO: refused before a read" (true, 0) (refused, readers)

let suite =
  [ QCheck_alcotest.to_alcotest prop_steered_equals_unsteered;
    QCheck_alcotest.to_alcotest prop_steered_errors;
    Alcotest.test_case "malformed inputs pinned under copy and skip" `Quick test_error_pins;
    Alcotest.test_case "large regions after a copied subtree are re-read" `Quick test_large_regions;
    Alcotest.test_case "qualifiers past 62 LQ entries" `Quick test_wide_qualifier;
    Alcotest.test_case "steered runs count only the elements they visit" `Quick
      test_steered_visits;
    QCheck_alcotest.to_alcotest prop_canonical_runs;
    Alcotest.test_case "XMark U4, U7 and copy-all: steered chunks = unsteered" `Quick
      test_xmark_runs;
    Alcotest.test_case "steered copy and skip intern no name" `Quick test_steered_interns;
    QCheck_alcotest.to_alcotest prop_large_documents;
    Alcotest.test_case "a region across a window refill" `Quick test_region_across_refill;
    Alcotest.test_case "site[people] on XMark f=0.02: one region past 512 KiB" `Quick
      test_site_region;
    Alcotest.test_case "re-read errors: a changed file, a FIFO" `Quick test_reread_errors ]
