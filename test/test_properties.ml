(* Property-based tests: random documents and random X expressions,
   checking the cross-engine equivalences that the unit suites check on
   fixed examples. *)
open Xut_xml
open Xut_xpath
open Core

let labels = [| "a"; "b"; "c"; "d"; "e" |]
let texts = [| "A"; "B"; "10"; "20"; "3.5" |]

(* ---------------- generators ---------------- *)

let gen_label = QCheck2.Gen.oneofa labels
let gen_text = QCheck2.Gen.oneofa texts

(* adjacent text nodes do not roundtrip through serialization: merge *)
let rec coalesce_text = function
  | Node.Text a :: Node.Text b :: rest -> coalesce_text (Node.Text (a ^ b) :: rest)
  | x :: rest -> x :: coalesce_text rest
  | [] -> []

let gen_tree : Node.t QCheck2.Gen.t =
  QCheck2.Gen.sized_size (QCheck2.Gen.int_range 1 60)
  @@ QCheck2.Gen.fix (fun self size ->
         let open QCheck2.Gen in
         if size <= 1 then map Node.text gen_text
         else
           let* name = gen_label in
           let* n_children = int_range 0 (min 4 size) in
           let* attrs =
             frequency
               [ (3, return []); (1, map (fun v -> [ ("id", v) ]) gen_text) ]
           in
           let* children = list_repeat n_children (self (size / (max 1 n_children))) in
           return (Node.elem ~attrs name (coalesce_text children)))

let gen_root : Node.element QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* kids = list_size (int_range 1 4) gen_tree in
  return (Node.element "r" (coalesce_text kids))

let gen_cmp = QCheck2.Gen.oneofa [| Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge |]

let gen_value =
  QCheck2.Gen.oneof
    [ QCheck2.Gen.map (fun s -> Ast.V_str s) gen_text;
      QCheck2.Gen.map (fun f -> Ast.V_num (float_of_int f)) (QCheck2.Gen.int_range 0 25) ]

let rec gen_qual depth : Ast.qual QCheck2.Gen.t =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [ map (fun p -> Ast.Q_exists (Ast.path_source p)) (gen_path_simple 2);
        (let* p = gen_path_simple 2 in
         let* op = gen_cmp in
         let* v = gen_value in
         return (Ast.Q_cmp (Ast.path_source p, op, v)));
        map (fun l -> Ast.Q_label l) gen_label;
        (let* op = gen_cmp in
         let* v = gen_value in
         return (Ast.Q_cmp (Ast.self_source, op, v)));
        map (fun v -> Ast.Q_cmp (Ast.attr_source "id", Ast.Eq, Ast.V_str v)) gen_text ]
  in
  if depth <= 0 then leaf
  else
    frequency
      [ (4, leaf);
        (1, map2 (fun a b -> Ast.Q_and (a, b)) (gen_qual (depth - 1)) (gen_qual (depth - 1)));
        (1, map2 (fun a b -> Ast.Q_or (a, b)) (gen_qual (depth - 1)) (gen_qual (depth - 1)));
        (1, map (fun a -> Ast.Q_not a) (gen_qual (depth - 1))) ]

and gen_path_simple len : Ast.path QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 1 len in
  let step _ =
    let* nav =
      frequency
        [ (4, map (fun l -> Ast.Label l) gen_label); (1, return Ast.Wildcard);
          (1, return Ast.Descendant) ]
    in
    match nav with
    | Ast.Descendant ->
      let* l = gen_label in
      return [ Ast.step Ast.Descendant; Ast.step (Ast.Label l) ]
    | nav -> return [ Ast.step nav ]
  in
  let* stepss = flatten_l (List.init n step) in
  return (List.concat stepss)

(* [base] with a qualifier on one of its steps, a '//' one included
   ([//.[q]]: [q] holds at the node the next step leaves from) *)
let gen_qualified base : Ast.path QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* q = gen_qual 1 in
  let* pos = int_range 0 (List.length base - 1) in
  return
    (List.mapi (fun i (s : Ast.step) -> if i = pos then { s with quals = q :: s.quals } else s) base)

let gen_path : Ast.path QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* base = gen_path_simple 3 in
  let* with_qual = bool in
  if with_qual then gen_qualified base else return base

(* [gen_path] with '.' steps spliced in, bare or qualified, a leading
   one qualifying the context (the document node); half the paths start
   at the document element "r", so a child-only path selects at all. *)
let gen_path_dotted : Ast.path QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* base = gen_path in
  let* from_root = bool in
  let base = if from_root then Ast.step (Ast.Label "r") :: base else base in
  let dot =
    frequency
      [ (3, return []);
        (1, return [ Ast.step Ast.Self ]);
        (1, map (fun q -> [ Ast.step ~quals:[ q ] Ast.Self ]) (gen_qual 1)) ]
  in
  let* lead = dot in
  let* rest = flatten_l (List.map (fun s -> map (fun d -> s :: d) dot) base) in
  return (lead @ List.concat rest)

let gen_update_on gen_path : Transform_ast.update QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* path = gen_path in
  let enew = Node.elem "new" [ Node.text "X" ] in
  oneof
    [ return (Transform_ast.Delete path);
      return (Transform_ast.Insert (path, enew));
      return (Transform_ast.Insert_first (path, enew));
      return (Transform_ast.Replace (path, enew));
      return (Transform_ast.Rename (path, "renamed")) ]

let gen_update = gen_update_on gen_path

(* ---------------- properties ---------------- *)

let engines = Engine.[ Naive; Gentop; Td_bu; Two_pass_sax; Galax_update ]

let count = 300

let prop_engines_agree =
  QCheck2.Test.make ~name:"all engines = reference on random input" ~count
    QCheck2.Gen.(pair gen_root gen_update)
    (fun (root, update) ->
      match Engine.transform Engine.Reference update root with
      | exception Transform_ast.Invalid_update _ ->
        (* all engines must reject it the same way *)
        List.for_all
          (fun algo ->
            match Engine.transform algo update root with
            | exception Transform_ast.Invalid_update _ -> true
            | _ -> false)
          engines
      | expected ->
        List.for_all
          (fun algo -> Node.equal_element expected (Engine.transform algo update root))
          engines)

let prop_transform_non_destructive =
  QCheck2.Test.make ~name:"transform queries never touch the store" ~count
    QCheck2.Gen.(pair gen_root gen_update)
    (fun (root, update) ->
      let before = Serialize.element_to_string root in
      (try ignore (Engine.transform Engine.Gentop update root)
       with Transform_ast.Invalid_update _ -> ());
      String.equal before (Serialize.element_to_string root))

let prop_nfa_equals_eval =
  QCheck2.Test.make ~name:"NFA selection = direct evaluator" ~count
    QCheck2.Gen.(pair gen_root gen_path)
    (fun (root, path) ->
      let expected = List.map Node.id (Eval.select_doc root path) |> List.sort compare in
      let nfa = Xut_automata.Selecting_nfa.of_path path in
      let acc = ref [] in
      let cp s n = Eval.check_qual n (Xut_automata.Selecting_nfa.state_qual nfa s) in
      let rec go e states =
        let states' = Xut_automata.Selecting_nfa.next nfa ~checkp:cp e states (Node.sym e) in
        if not (Xut_automata.Selecting_nfa.set_is_empty states') then begin
          if Xut_automata.Selecting_nfa.accepts_set nfa states' then acc := Node.id e :: !acc;
          List.iter (fun c -> go c states') (Node.child_elements e)
        end
      in
      go root (Semantics.start nfa root).Xut_automata.Dfa.states;
      List.sort compare !acc = expected)

let prop_annotator_equals_direct =
  QCheck2.Test.make ~name:"annotated checkp = direct checkp where needed" ~count
    QCheck2.Gen.(pair gen_root gen_path)
    (fun (root, path) ->
      (* the annotated oracle must give the same selection as the direct
         one (it is only defined at nodes the filtering keeps alive) *)
      let u = Transform_ast.Rename (path, "z") in
      match Engine.transform Engine.Reference u root with
      | exception Transform_ast.Invalid_update _ -> true
      | expected ->
        Node.equal_element expected (Engine.transform Engine.Td_bu u root))

(* ---- streaming result path: chunked bytes = materialized bytes ---- *)

(* Drive a serializer sink with a tiny chunk size (so every run crosses
   many chunk boundaries) and return the reassembled bytes; a rejected
   update (root deletion/replacement) is the [Error] case and must match
   the materialized engines raising [Invalid_update]. *)
let stream_to_string ?(chunk_size = 7) drive =
  let buf = Buffer.create 64 in
  let sink = Serialize.Sink.create ~chunk_size (Buffer.add_string buf) in
  match drive (Serialize.Sink.event sink) with
  | () ->
    ignore (Serialize.Sink.close sink : Serialize.Sink.totals);
    Ok (Buffer.contents buf)
  | exception Transform_ast.Invalid_update _ ->
    Serialize.Sink.abort sink;
    Error `Invalid

let prop_stream_equals_materialized =
  QCheck2.Test.make ~name:"streamed bytes = materialized serialization" ~count
    QCheck2.Gen.(pair gen_root gen_update)
    (fun (root, update) ->
      let nfa = Xut_automata.Selecting_nfa.of_path (Transform_ast.path update) in
      let expected =
        match Engine.transform Engine.Reference update root with
        | exception Transform_ast.Invalid_update _ -> Error `Invalid
        | out -> Ok (Serialize.element_to_string out)
      in
      let drivers =
        [ (fun events -> Top_down.stream nfa update root events);
          (fun events ->
            let table = Xut_automata.Annotator.annotate nfa root in
            Top_down.stream
              ~checkp:(Xut_automata.Annotator.checkp table nfa)
              nfa update root events);
          (fun events ->
            ignore
              (Sax_transform.run nfa update ~source:(Sax.events_of_tree root) ~sink:events))
        ]
      in
      List.for_all (fun drive -> stream_to_string drive = expected) drivers)

(* ---- the buffered one-pass SAX tier ---- *)

(* Half the paths start at the document element, so a qualifier may sit
   on the root and make the whole document one undecided region. *)
let gen_qualified_update =
  let open QCheck2.Gen in
  gen_update_on
    (let* base = gen_path_simple 3 in
     let* from_root = bool in
     gen_qualified (if from_root then Ast.step (Ast.Label "r") :: base else base))

(* Documents whose regions hold subtrees the plans' passes never read:
   elements labelled outside [labels], at every depth, beside the
   labelled ones, with attributes, comments, PIs, empty elements and text
   that serializes with references. *)
let gen_root_unread : Node.element QCheck2.Gen.t =
  let open QCheck2.Gen in
  let label = oneofa (Array.append labels [| "u"; "v"; "u" |]) in
  let text = oneofa (Array.append texts [| "x & y"; "<z>"; "'\"'"; "a > b" |]) in
  let leaf =
    frequency
      [ (4, map Node.text text); (1, return (Node.Comment " c ")); (1, return (Node.Pi ("p", "x y"))) ]
  in
  let tree =
    sized_size (int_range 1 60)
    @@ fix (fun self size ->
           if size <= 1 then leaf
           else
             let* name = label in
             let* n_children = int_range 0 (min 4 size) in
             let* attrs =
               frequency
                 [ (3, return []);
                   (1, map (fun v -> [ ("id", v) ]) gen_text);
                   (1, map (fun v -> [ ("k", v); ("id", "A") ]) text) ]
             in
             let* children = list_repeat n_children (self (size / max 1 n_children)) in
             return (Node.elem ~attrs name (coalesce_text children)))
  in
  let* kids = list_size (int_range 1 4) tree in
  return (Node.element "r" (coalesce_text kids))

(* The buffered run over [text], steered into the sink: what the run
   only copies or drops, the parses copy or skip. *)
let steered_to_string ?(chunk_size = 7) nfa update text =
  let buf = Buffer.create 64 in
  let sink = Serialize.Sink.create ~chunk_size (Buffer.add_string buf) in
  match
    Sax_transform.run_buffered ~copy_to:(Serialize.Sink.writer sink) nfa update
      ~input:(Reader.string text) ~sink:(Serialize.Sink.event sink)
  with
  | (_ : Sax_transform.run_stats) ->
    ignore (Serialize.Sink.close sink : Serialize.Sink.totals);
    Ok (Buffer.contents buf)
  | exception Transform_ast.Invalid_update _ ->
    Serialize.Sink.abort sink;
    Error `Invalid

let prop_buffered_equals_two_pass =
  QCheck2.Test.make ~name:"buffered one pass = twoPassSAX = GENTOP, byte for byte" ~count
    QCheck2.Gen.(pair (oneof [ gen_root; gen_root_unread ]) gen_qualified_update)
    (fun (root, update) ->
      let nfa = Xut_automata.Selecting_nfa.of_path (Transform_ast.path update) in
      let source = Sax.events_of_tree root and text = Serialize.element_to_string root in
      let expected =
        match Engine.transform Engine.Gentop update root with
        | exception Transform_ast.Invalid_update _ -> Error `Invalid
        | out -> Ok (Serialize.element_to_string out)
      in
      (* one read, but for a path that begins with [//.[q]], whose truth
         at the document node is known only at the end of the input:
         two *)
      let reads = if Xut_automata.Selecting_nfa.checks_document nfa then 2 else 1 in
      let parses = ref reads in
      stream_to_string (fun events -> ignore (Sax_transform.run nfa update ~source ~sink:events))
      = expected
      && stream_to_string (fun events ->
             parses :=
               (Sax_transform.run_buffered nfa update ~input:(Reader.string text) ~sink:events)
                 .Sax_transform.parses)
         = expected
      && !parses = reads
      && steered_to_string nfa update text = expected)

(* Regions larger than the 512 KiB a region could once hold: a
   root-level qualifier makes the whole document one region, and a
   qualifier on [g] makes each [g] one, the middle one that large, with
   regions before and after it, once under the document element and
   once four levels below it.  Each region is re-read from the input, in
   one read of the whole, and the run writes what the two-parse [run]
   writes. *)
let test_buffered_overflow () =
  let filler n = List.init n (fun i -> Node.elem "a" [ Node.text (Printf.sprintf "item-%08d" i) ]) in
  (* [n] filler children take this many bytes of markup, at least *)
  let fill_bytes n = n * String.length "<a>item-00000000</a>" in
  let n = 1 + ((1 lsl 19) / fill_bytes 1) in
  let small i = Node.elem ~attrs:[ ("id", string_of_int i) ] "g" (filler 2) in
  let cases =
    [ ("root-level qualifier", Node.element "r" (filler n), "r[a]/a", 1);
      ( "large middle region",
        Node.element "r"
          ([ small 1; Node.elem "g" [ Node.text "bare" ]; small 2 ]
          @ [ Node.elem "g" (filler n) ]
          @ [ small 3; Node.elem "h" [ small 4 ]; small 5 ]),
        "r/g[a]/a",
        6 );
      ( "large region four levels down",
        Node.element "r"
          [ Node.elem "s"
              [ small 6;
                Node.elem "t" [ Node.elem "u" [ small 7; Node.elem "g" (filler n); small 8 ] ];
                small 9 ] ],
        "r/s/t/u/g[a]/a",
        3 ) ]
  in
  List.iter
    (fun (label, root, path, regions) ->
      let update = Transform_ast.Rename (Parser.parse path, "b") in
      let nfa = Xut_automata.Selecting_nfa.of_path (Transform_ast.path update) in
      let text = Serialize.element_to_string root in
      let expected = Buffer.create (String.length text) in
      ignore (Sax_transform.run nfa update ~source:(Sax.events_of_tree root) ~sink:(Serialize.event_sink expected));
      let buffered = Buffer.create (String.length text) in
      let stats =
        Sax_transform.run_buffered nfa update ~input:(Reader.string text)
          ~sink:(Serialize.event_sink buffered)
      in
      Alcotest.(check int) (label ^ ": one read") 1 stats.Sax_transform.parses;
      Alcotest.(check int) (label ^ ": regions opened") regions stats.Sax_transform.regions;
      Alcotest.(check bool) (label ^ ": a region past 512 KiB re-read") true
        (stats.Sax_transform.reread_bytes > 1 lsl 19);
      Alcotest.(check int) (label ^ ": every element seen")
        (Node.element_count (Node.Element root)) stats.Sax_transform.elements_seen;
      Alcotest.(check bool) (label ^ ": buffered = run") true
        (Buffer.contents expected = Buffer.contents buffered);
      Alcotest.(check bool) (label ^ ": run = GENTOP") true
        (String.equal (Buffer.contents expected)
           (Serialize.element_to_string (Engine.transform Engine.Gentop update root))))
    cases

(* Ld against a [Hashtbl] model: random sets, gets and clears over up to
   70 expressions and a few hundred elements, enough entries to grow the
   table several times between clears. *)
let prop_truth_table =
  let open QCheck2.Gen in
  let op = pair (int_range 0 40) (triple (int_range (-1) 300) (int_range 0 69) bool) in
  QCheck2.Test.make ~name:"Ld table = Hashtbl model under set, get and clear" ~count:200
    (pair (int_range 1 70) (list_size (int_range 0 3000) op))
    (fun (nlq, ops) ->
      let t = Sax_transform.Truth.create ~nlq and model = Hashtbl.create 16 in
      List.for_all
        (fun (kind, (seq, lq, v)) ->
          let lq = lq mod nlq in
          if kind = 0 then begin
            Sax_transform.Truth.clear t;
            Hashtbl.reset model
          end
          else if kind <= 25 then begin
            Sax_transform.Truth.set t seq lq v;
            Hashtbl.replace model (seq, lq) v
          end;
          Sax_transform.Truth.get t seq lq
          = Option.value ~default:false (Hashtbl.find_opt model (seq, lq))
          && Sax_transform.Truth.length t = Hashtbl.length model)
        ops)

(* [Id_table] against a [Hashtbl] model: random claims, removes and
   lookups of keys spread wider than the table, in a table homed by hash
   or by offset from a base (some keys below it, homed at the end),
   with two words per entry; a resize, to a fixed size, may switch the
   homing.  Removes
   exercise the backward shift over runs that wrap past the array's
   end. *)
let prop_id_table =
  let open QCheck2.Gen in
  let op = triple (int_range 0 9) (int_range (-40) 100) (int_range 0 1000) in
  QCheck2.Test.make ~name:"Id_table = Hashtbl model under claim, remove, find, resize" ~count:200
    (pair bool (list_size (int_range 0 2000) op))
    (fun (by_offset, ops) ->
      let t = Id_table.create ?base:(if by_offset then Some 0 else None) ~words:2 16
      and model = Hashtbl.create 16 in
      let value key =
        let s = Id_table.find t key in
        if s < 0 then None else Some (t.Id_table.vals.(2 * s), t.Id_table.vals.((2 * s) + 1))
      in
      List.for_all
        (fun (kind, key, v) ->
          (if kind <= 4 then begin
             let s = Id_table.claim t key in
             t.Id_table.vals.(2 * s) <- v;
             t.Id_table.vals.((2 * s) + 1) <- -v;
             Hashtbl.replace model key (v, -v)
           end
           else if kind <= 7 then begin
             Alcotest.(check bool) "removed iff held" (Hashtbl.mem model key) (Id_table.remove t key);
             Hashtbl.remove model key
           end
           else if kind = 8 && v mod 10 = 0 then
             (* 512 slots hold the 141 keys at most half full *)
             Id_table.resize t ?base:(if v mod 20 = 0 then Some Id_table.hashed else None) 512);
          value key = Hashtbl.find_opt model key && Id_table.length t = Hashtbl.length model)
        ops
      && Hashtbl.fold (fun k kv ok -> ok && value k = Some kv) model true)

(* ---- topDown shares its input: only the spine above a match is new ---- *)

(* Every element of [run]'s output that carries an input id is that input
   element itself (a rebuilt node gets a fresh id); an update that
   selects nothing rebuilds nothing and returns the root itself. *)
let prop_run_shares_input =
  QCheck2.Test.make ~name:"topDown output shares every untouched input element" ~count
    QCheck2.Gen.(pair gen_root gen_update)
    (fun (root, update) ->
      let path = Transform_ast.path update in
      let nfa = Xut_automata.Selecting_nfa.of_path path in
      let input = Hashtbl.create 64 in
      Node.iter_elements (fun e -> Hashtbl.replace input (Node.id e) e) root;
      let selects_nothing = Eval.select_doc root path = [] in
      let shares checkp =
        let c0 = Counter.value Stats.nodes_copied in
        match Top_down.run ?checkp nfa update root with
        | exception Transform_ast.Invalid_update _ -> not selects_nothing
        | out ->
          let copied = Counter.value Stats.nodes_copied - c0 in
          Node.fold_elements
            (fun ok e ->
              ok
              &&
              match Hashtbl.find_opt input (Node.id e) with
              | Some e_in -> e == e_in
              | None -> true)
            true out
          && ((not selects_nothing) || (out == root && copied = 0))
      in
      let table = Xut_automata.Annotator.annotate nfa root in
      shares None && shares (Some (Xut_automata.Annotator.checkp table nfa)))

(* ---- a wide document: no stack depth per sibling ---- *)

(* 10^5 siblings under the document element, the last one distinct: one
   update changes every other child, one only the last.  The walk, the
   counting walk and a service result stream all equal the reference. *)
let test_wide_document () =
  let n = 100_000 in
  let kids =
    List.init n (fun i ->
        if i = n - 1 then Node.elem "d" [ Node.text "last" ]
        else if i mod 2 = 0 then Node.elem "a" [ Node.elem "b" [ Node.text "x" ] ]
        else Node.elem "c" [])
  in
  let root = Node.element "r" kids in
  let file = Filename.temp_file "xut_wide" ".xml" in
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc (Serialize.element_to_string root));
  let svc = Xut_service.Service.create () in
  Fun.protect
    ~finally:(fun () ->
      Xut_service.Service.shutdown svc;
      Sys.remove file)
    (fun () ->
      (match
         Xut_service.Service.call svc
           (Xut_service.Service.Load { name = "w"; file; schema = None })
       with
      | Xut_service.Service.Ok _ -> ()
      | Xut_service.Service.Error { message; _ } -> Alcotest.fail message);
      List.iter
        (fun (label, update, query) ->
          let nfa = Xut_automata.Selecting_nfa.of_path (Transform_ast.path update) in
          let expected = Engine.transform Engine.Reference update root in
          let expected_s = Serialize.element_to_string expected in
          Alcotest.(check string) (label ^ ": run") expected_s
            (Serialize.element_to_string (Top_down.run nfa update root));
          Alcotest.(check int) (label ^ ": count")
            (Node.element_count (Node.Element expected))
            (Top_down.count nfa update root);
          let buf = Buffer.create (String.length expected_s) in
          match
            Xut_service.Service.transform_stream svc ~doc:"w" ~engine:Engine.Td_bu ~query
              (Buffer.add_string buf)
          with
          | Xut_service.Service.Ok (Xut_service.Service.Stream_done _) ->
            Alcotest.(check string) (label ^ ": td-bu result stream") expected_s
              (Buffer.contents buf)
          | Xut_service.Service.Ok _ -> Alcotest.fail "expected Stream_done"
          | Xut_service.Service.Error { message; _ } -> Alcotest.fail message)
        [ ( "every other child",
            Transform_ast.Delete (Parser.parse "r/a/b"),
            {|transform copy $a := doc("w") modify do delete $a/r/a/b return $a|} );
          ( "last child only",
            Transform_ast.Rename (Parser.parse "r/d", "z"),
            {|transform copy $a := doc("w") modify do rename $a/r/d as z return $a|} ) ])

(* ---- qualified '//' steps ([//.[q]]) ---- *)

(* [q] of a [//.[q]] step holds at the node the next step leaves from:
   the node where the [//] starts included, and a node that fails it
   does not hide the nodes below.  Each case is pinned, then checked on
   every engine, on served TRANSFORM and COUNT, on every engine's result
   stream and on TRANSFORM-STREAM of the document and of the file. *)
let test_qualified_descendant () =
  let module S = Xut_service.Service in
  let svc = S.create () in
  let files = ref [] in
  Fun.protect
    ~finally:(fun () ->
      S.shutdown svc;
      List.iter Sys.remove !files)
    (fun () ->
      List.iter
        (fun (label, doc, update, expected) ->
          let root = Dom.parse_string doc in
          let update = Transform_parser.parse_update update in
          let query =
            Printf.sprintf "transform copy $a := doc(\"q\") modify do %s return $a"
              (Transform_ast.update_to_string update)
          in
          Alcotest.(check string) (label ^ ": reference") expected
            (Serialize.element_to_string (Engine.transform Engine.Reference update root));
          List.iter
            (fun algo ->
              Alcotest.(check string) (label ^ ": " ^ Engine.name algo) expected
                (Serialize.element_to_string (Engine.transform algo update root)))
            Engine.all;
          let file = Filename.temp_file "xut_qdesc" ".xml" in
          files := file :: !files;
          Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc doc);
          let ok = function
            | S.Ok p -> p
            | S.Error { message; _ } -> Alcotest.failf "%s: %s" label message
          in
          ignore (ok (S.call svc (S.Load { name = "q"; file; schema = None })));
          let elements = Node.element_count (Node.Element (Dom.parse_string expected)) in
          List.iter
            (fun engine ->
              let target = S.Doc "q" and name = label ^ ": " ^ Engine.name engine in
              (match ok (S.call svc (S.Transform { target; engine; query })) with
              | S.Tree t -> Alcotest.(check string) (name ^ " TRANSFORM") expected t
              | _ -> Alcotest.fail "expected a tree");
              (match ok (S.call svc (S.Count { target; engine; query })) with
              | S.Element_count n -> Alcotest.(check int) (name ^ " COUNT") elements n
              | _ -> Alcotest.fail "expected a count");
              let buf = Buffer.create 64 in
              ignore (ok (S.transform_stream svc ~doc:"q" ~engine ~query (Buffer.add_string buf)));
              Alcotest.(check string) (name ^ " result stream") expected (Buffer.contents buf))
            Engine.all;
          List.iter
            (fun (what, source) ->
              let buf = Buffer.create 64 in
              ignore (ok (S.transform_ingest svc ~source ~query (Buffer.add_string buf)));
              Alcotest.(check string)
                (label ^ ": TRANSFORM-STREAM " ^ what)
                expected (Buffer.contents buf))
            [ ("doc", S.From_doc "q"); ("FILE", S.From_file file) ])
        [ ( "q fails where the // starts",
            "<r><c><a/><a/><a/></c></r>",
            "delete $a/r/c//.[a/a]/a",
            "<r><c><a/><a/><a/></c></r>" );
          ( "a failing node keeps the // loop",
            "<r><c><x><y><b/><a/></y></x></c></r>",
            "delete $a/r/c//.[b]/a",
            "<r><c><x><y><b/></y></x></c></r>" );
          ( "q at the document node",
            "<r><c><a/></c><d><r><c/></r></d></r>",
            "delete $a//.[r]/r/c",
            "<r><d><r/></d></r>" ) ])

(* ---- counting walk: count = element count of the materialized result ---- *)

let prop_count_equals_materialized =
  QCheck2.Test.make ~name:"counting walk = element count of the result" ~count
    QCheck2.Gen.(pair gen_root gen_update)
    (fun (root, update) ->
      let nfa = Xut_automata.Selecting_nfa.of_path (Transform_ast.path update) in
      let outcome count =
        match count () with n -> Ok n | exception Transform_ast.Invalid_update _ -> Error `Invalid
      in
      let expected =
        outcome (fun () ->
            Node.element_count (Node.Element (Engine.transform Engine.Reference update root)))
      in
      let table = Xut_automata.Annotator.annotate nfa root in
      outcome (fun () -> Top_down.count nfa update root) = expected
      && outcome (fun () ->
             Top_down.count ~checkp:(Xut_automata.Annotator.checkp table nfa) nfa update root)
         = expected)

(* ---- reply image: a blit gives the bytes of the walk ---- *)

(* The trees a COMMIT sequence passes through, [root] first: a rejected
   or empty commit leaves the tree as it is. *)
let commit_generations root updates =
  List.rev
    (List.fold_left
       (fun gens u ->
         match Xut_update.Apply.run [ u ] (List.hd gens) with
         | Ok (_, Some (root', _)) -> root' :: gens
         | Ok (_, None) | Error _ -> gens
         | exception Xut_update.Apply.Invalid _ -> gens)
       [ root ] updates)

(* Updates that also insert mixed content, comments and PIs. *)
let gen_image_update =
  let open QCheck2.Gen in
  let mixed =
    Node.elem ~attrs:[ ("k", "a & b") ] "m"
      [ Node.text "t<"; Node.Comment " c "; Node.elem "n" []; Node.Pi ("p", "q"); Node.text "u" ]
  in
  frequency
    [ (3, gen_update);
      (1, map (fun p -> Transform_ast.Insert (p, mixed)) gen_path);
      (1, map (fun p -> Transform_ast.Insert_first (p, mixed)) gen_path) ]

(* Every generation, 1 to 6 commits from the root, and what the last
   update as a TRANSFORM makes of it, serialized with an image of the
   original tree (carried across every commit, as a binding carries
   it), of an intermediate generation and of an unrelated tree (no
   hits): as a whole reply and through sinks whose chunks split the
   blits.  The roots hold mixed content, attributes, comments and
   PIs. *)
let prop_image_serialization =
  QCheck2.Test.make ~name:"serialization with a reply image = without" ~count:1000
    QCheck2.Gen.(
      triple
        (oneof [ gen_root; gen_root_unread ])
        (list_size (int_range 1 6) gen_image_update)
        gen_root)
    (fun (root, updates, unrelated) ->
      let gens = commit_generations root updates in
      let read = List.nth updates (List.length updates - 1) in
      let replies =
        List.filter_map
          (fun g ->
            match Engine.transform Engine.Td_bu read g with
            | out -> Some out
            | exception Transform_ast.Invalid_update _ -> None)
          gens
      in
      let images =
        List.map Serialize.Image.of_element
          [ root; List.nth gens (List.length gens / 2); unrelated ]
      in
      let sunk image chunk_size e =
        let buf = Buffer.create 256 in
        let sink = Serialize.Sink.create ~chunk_size (Buffer.add_string buf) in
        Serialize.Sink.element ~image sink e;
        ignore (Serialize.Sink.close sink : Serialize.Sink.totals);
        Buffer.contents buf
      in
      List.for_all
        (fun e ->
          let expected = Serialize.element_to_string e in
          List.for_all
            (fun image ->
              Serialize.element_to_string ~image e = expected
              && List.for_all (fun n -> sunk image n e = expected) [ 1; 7; 65536 ])
            images)
        (gens @ replies))

let prop_serialize_roundtrip =
  QCheck2.Test.make ~name:"parse(serialize(t)) = t" ~count gen_root (fun root ->
      let s = Serialize.element_to_string root in
      Node.equal_element root (Dom.parse_string s))

let prop_path_print_parse =
  QCheck2.Test.make ~name:"path parse(print(p)) = p" ~count gen_path (fun path ->
      Ast.equal_path path (Parser.parse (Ast.path_to_string path)))

let prop_update_print_parse =
  QCheck2.Test.make ~name:"update parse(print(u)) = u" ~count gen_update (fun u ->
      let q = Transform_ast.make ~doc:"d" u in
      let q' = Transform_parser.parse (Transform_ast.to_string q) in
      Transform_ast.to_string q = Transform_ast.to_string q')

let prop_xquery_rewrite =
  QCheck2.Test.make ~name:"Fig. 2 rewriting = native" ~count:150
    QCheck2.Gen.(pair gen_root gen_update)
    (fun (root, update) ->
      let q = Transform_ast.make ~doc:"d" update in
      match Engine.transform Engine.Reference update root with
      | exception Transform_ast.Invalid_update _ -> true
      | expected -> (
        match Xquery_rewrite.run q ~doc:root with
        | exception Xut_xquery.Xq_eval.Eval_error _ -> false
        | got -> Node.equal_element expected got))

let gen_user_query : User_query.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* source = gen_path in
  let* hole = gen_path_simple 2 in
  let* shape = int_range 0 2 in
  let template =
    match shape with
    | 0 -> User_query.T_hole ([], None)
    | 1 -> User_query.T_elem ("out", [], [ User_query.T_hole (hole, None) ])
    | _ ->
      User_query.T_elem ("out", [], [ User_query.T_text "v:"; User_query.T_hole (hole, None) ])
  in
  let* conds =
    frequency
      [ (2, return []);
        (1,
         let* p = gen_path_simple 2 in
         let* v = gen_value in
         return [ { User_query.left = User_query.Rel (p, None); op = Ast.Eq; right = User_query.Const v } ])
      ]
  in
  return (User_query.make ~conds ~source template)

(* all five kinds compose now; the inserted/replacement element reuses
   generator labels so that relabeling can create new matches *)
let gen_compose_update : Transform_ast.update QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* path = gen_path in
  let* label = gen_label in
  let enew = Node.elem label [ Node.text "X" ] in
  oneof
    [ return (Transform_ast.Delete path); return (Transform_ast.Insert (path, enew));
      return (Transform_ast.Insert_first (path, enew));
      return (Transform_ast.Replace (path, enew));
      return (Transform_ast.Rename (path, label)) ]

let value_repr v =
  List.map
    (fun item ->
      match item with
      | Xut_xquery.Xq_value.N n -> Serialize.to_string n
      | Xut_xquery.Xq_value.D e -> Serialize.element_to_string e
      | other -> Xut_xquery.Xq_value.string_of_item other)
    v

let prop_compose_equals_spec =
  QCheck2.Test.make ~name:"Qc(T) = Q(Qt(T)) on random pairs" ~count:300
    QCheck2.Gen.(triple gen_root gen_compose_update gen_user_query)
    (fun (root, update, uq) ->
      match Engine.transform Engine.Reference update root with
      | exception Transform_ast.Invalid_update _ -> true
      | transformed -> (
        let expected = value_repr (User_query.run uq ~doc:transformed) in
        match Composition.compose update uq with
        | Error _ -> true  (* out of fragment: nothing to check *)
        | Ok c -> value_repr (Composition.run_composed c ~doc:root) = expected))

(* [Eval.select] against a test-local navigator that always removes
   duplicates and sorts by pre-order rank: pins that child-only paths,
   which skip both, still answer distinct elements in document order. *)
let reference_select_ranks ctx (path : Ast.path) =
  let rec go frontier = function
    | [] -> frontier
    | ({ Ast.nav; quals } : Ast.step) :: rest ->
      let expanded =
        match nav with
        | Ast.Self -> frontier
        | Ast.Label l ->
          List.concat_map
            (fun e -> List.filter (fun c -> Node.name c = l) (Node.child_elements e))
            frontier
        | Ast.Wildcard -> List.concat_map Node.child_elements frontier
        | Ast.Descendant -> List.concat_map Node.descendant_or_self frontier
      in
      go (List.filter (fun e -> List.for_all (Eval.check_qual e) quals) expanded) rest
  in
  let rank = Hashtbl.create 64 in
  Node.iter_elements (fun e -> Hashtbl.replace rank (Node.id e) (Hashtbl.length rank)) ctx;
  let ranks = List.map (fun e -> Hashtbl.find rank (Node.id e)) (go [ ctx ] path) in
  (rank, List.sort_uniq compare ranks)

let gen_select_path : Ast.path QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* path = gen_path in
  let child_only = List.filter (fun (s : Ast.step) -> s.nav <> Ast.Descendant) path in
  oneofl [ path; child_only; Ast.step Ast.Self :: child_only ]

let prop_select_equals_reference =
  QCheck2.Test.make ~name:"Eval.select = dedup + rank-sorted reference" ~count
    ~print:(fun (_, p) -> Ast.path_to_string p)
    QCheck2.Gen.(pair gen_root gen_select_path)
    (fun (root, path) ->
      let rank, expected = reference_select_ranks root path in
      List.map (fun e -> Hashtbl.find rank (Node.id e)) (Eval.select root path) = expected)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_engines_agree;
      prop_transform_non_destructive;
      prop_nfa_equals_eval;
      prop_annotator_equals_direct;
      prop_stream_equals_materialized;
      prop_serialize_roundtrip;
      prop_path_print_parse;
      prop_update_print_parse;
      prop_xquery_rewrite;
      prop_compose_equals_spec;
      prop_select_equals_reference;
      prop_buffered_equals_two_pass;
      prop_truth_table ]

(* ---------------- XQuery printer/parser ---------------- *)

let gen_xq_expr : Xut_xquery.Xq_ast.expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Xut_xquery.Xq_ast in
  let leaf =
    oneof
      [ map (fun s -> Str s) gen_text;
        map (fun n -> Num (float_of_int n)) (int_range 0 99);
        return (Var "v");
        return Context;
        map (fun p -> Path (Var "v", p)) (gen_path_simple 2);
        map (fun p -> Path (Context, p)) (gen_path_simple 2);
        map (fun a -> AttrPath (Var "v", [], a)) gen_label;
        return Empty ]
  in
  let gen =
    fix (fun self depth ->
        if depth <= 0 then leaf
        else
          let sub = self (depth - 1) in
          frequency
            [ (4, leaf);
              (2, map2 (fun a b -> Cmp (Eq, a, b)) sub sub);
              (1, map2 (fun a b -> Cmp (Lt, a, b)) sub sub);
              (1, map2 (fun a b -> Arith (Add, a, b)) sub sub);
              (1, map2 (fun a b -> Arith (Mul, a, b)) sub sub);
              (2, map2 (fun a b -> And (a, b)) sub sub);
              (1, map2 (fun a b -> Or (a, b)) sub sub);
              (1, map (fun a -> Call ("not", [ a ])) sub);
              (1, map (fun a -> Call ("count", [ a ])) sub);
              (2, map3 (fun c t e -> If (c, t, e)) sub sub sub);
              (2,
               let* src = sub and* body = sub and* w = option sub in
               return (Flwor ([ For ("v", src) ], w, body)));
              (1,
               let* bound = sub and* body = sub in
               return (Flwor ([ LetC ("v", bound) ], None, body)));
              (1, map2 (fun s b -> Quant (`Some, "v", s, b)) sub sub);
              (1,
               let* kids = list_size (int_range 0 2) sub in
               return (ElemLit ("w", [], kids)));
              (1, map (fun a -> ElemDyn (Str "w", a)) sub) ])
  in
  gen 3

let prop_xquery_print_parse =
  QCheck2.Test.make ~name:"xquery parse(print(e)) evaluates identically" ~count:400 gen_xq_expr
    (fun e ->
      let printed = Xut_xquery.Xq_ast.to_string e in
      match Xut_xquery.Xq_parser.parse_expr printed with
      | exception Xut_xquery.Xq_parser.Parse_error _ -> false
      | e2 ->
        (* ASTs may differ in shape (Seq nesting); compare by evaluation *)
        let root = Dom.parse_string "<r><a>1</a><b x=\"2\">two</b><a>3</a></r>" in
        let env = Xut_xquery.Xq_eval.env ~context:root () in
        let env = ref env in
        ignore env;
        let eval_repr ex =
          let base = Xut_xquery.Xq_eval.env ~context:root () in
          match
            Xut_xquery.Xq_eval.eval_expr base
              (Xut_xquery.Xq_ast.Flwor
                 ( [ Xut_xquery.Xq_ast.LetC ("v", Xut_xquery.Xq_ast.Path (Xut_xquery.Xq_ast.Context, Parser.parse "r/a")) ],
                   None,
                   ex ))
          with
          | v ->
            Ok
              (List.map
                 (fun item ->
                   match item with
                   | Xut_xquery.Xq_value.N n -> Serialize.to_string n
                   | other -> Xut_xquery.Xq_value.string_of_item other)
                 v)
          | exception Xut_xquery.Xq_eval.Eval_error m -> Error ("eval: " ^ m)
          | exception Xut_xquery.Xq_value.Type_error m -> Error ("type: " ^ m)
        in
        eval_repr e = eval_repr e2)

(* ---- stored element counts ---- *)

(* Two names whose symbols share a summary bit (equal mod 63), A fresh
   and B the name of A's symbol minus 63, in
   [<r><p><A/></p><q><B/></q><s><C/></s></r>], where r, p, q, s and C
   are fresh names after A, so no bit of theirs is A's: a walk for
   either name enters the other's subtree (the shared bit is set there)
   and prunes only s, and every answer is the reference's. *)
let shared_bit_case =
  lazy
    (let here = Counter.local () and k = ref 0 in
     let fresh () =
       incr k;
       let name = Printf.sprintf "xut_shared_bit_%d" !k in
       (name, Sym.intern here name)
     in
     let rec past_one_word () =
       match fresh () with (_, sym) as a when sym >= 63 -> a | _ -> past_one_word ()
     in
     let a, sym_a = past_one_word () in
     let b = Sym.name (sym_a - 63) in
     let name () = fst (fresh ()) in
     let r = name () and p = name () and q = name () and s = name () and c = name () in
     let leaf l = Node.elem l [] in
     let root =
       Node.element r
         [ Node.elem p [ leaf a ]; Node.elem q [ leaf b ]; Node.elem s [ leaf c ] ]
     in
     Alcotest.(check bool) "A and B share a bit" true
       (Node.label_bit sym_a = Node.label_bit (Sym.intern here b));
     List.iter
       (fun x ->
         let path = Ast.[ step (Label r); step Descendant; step (Label x) ] in
         let nfa = Xut_automata.Selecting_nfa.of_path path in
         let update = Transform_ast.Delete path in
         let v0 = Counter.value Stats.nodes_visited and s0 = Counter.value Stats.nodes_shared in
         let n = Top_down.count nfa update root in
         Alcotest.(check (pair int int)) (x ^ ": visits r, p, A, q, B; shares s") (5, 1)
           (Counter.value Stats.nodes_visited - v0, Counter.value Stats.nodes_shared - s0);
         let expected = Engine.transform Engine.Reference update root in
         Alcotest.(check int) (x ^ ": count = reference") (Node.elements expected) n;
         Alcotest.(check string) (x ^ ": run = reference") (Serialize.element_to_string expected)
           (Serialize.element_to_string (Top_down.run nfa update root));
         Alcotest.(check (list int)) (x ^ ": resolve = Eval.select_doc")
           (List.map Node.id (Eval.select_doc root path))
           (List.map Node.id (Xut_update.Apply.select path root)))
       [ a; b ])

(* Every way the library builds an element stores the count and the
   label summary a walk finds, at every element: the generator's
   constructors, a DOM parse (through the SAX builder), [with_children],
   [refresh_ids], a topDown result, a committed tree
   ([Apply.materialize]), twoPassSAX's rebuilt tree and XQuery element
   constructors.  Each case also forces [shared_bit_case]. *)
let prop_counts_exact =
  QCheck2.Test.make ~name:"stored element counts = recount, every constructor" ~count
    QCheck2.Gen.(pair gen_root gen_update)
    (fun (root, update) ->
      Lazy.force shared_bit_case;
      let nfa = Xut_automata.Selecting_nfa.of_path (Transform_ast.path update) in
      let committed () =
        match Xut_update.Apply.run [ update ] root with
        | Ok (_, Some (root', _)) -> root'
        | Ok (_, None) | Error _ -> root
      in
      let constructed () =
        let env = Xut_xquery.Xq_eval.env ~context:root () in
        match
          Xut_xquery.Xq_eval.eval_expr env
            (Xut_xquery.Xq_parser.parse_expr "<w>{ r/* }<v>{ r//a }</v></w>")
        with
        | [ Xut_xquery.Xq_value.N (Node.Element e) ] -> e
        | _ -> failwith "expected one element"
      in
      let trees =
        [ (fun () -> root);
          (fun () -> Dom.parse_string (Serialize.element_to_string root));
          (fun () -> Node.with_children root (List.rev (Node.children root)));
          (fun () ->
            match Node.refresh_ids (Node.Element root) with
            | Node.Element e -> e
            | Node.Text _ | Node.Comment _ | Node.Pi _ -> assert false);
          (fun () -> Top_down.run nfa update root);
          committed;
          (fun () -> Sax_transform.transform update root);
          constructed ]
      in
      List.for_all
        (fun tree ->
          match tree () with
          | e -> Fixtures.counts_exact e
          | exception
              ( Transform_ast.Invalid_update _ | Xut_update.Apply.Invalid _
              | Sax_transform.Unsupported_streaming _ ) ->
            true)
        trees)

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_xquery_print_parse;
        prop_count_equals_materialized;
        prop_run_shares_input;
        prop_image_serialization ]
  @ [ Alcotest.test_case "wide document: run, count, result stream" `Quick test_wide_document;
      Alcotest.test_case "buffered pass re-reads regions past 512 KiB" `Quick test_buffered_overflow;
      Alcotest.test_case "qualified // steps: engines, TRANSFORM, COUNT, streams" `Quick
        test_qualified_descendant;
      QCheck_alcotest.to_alcotest prop_counts_exact;
      QCheck_alcotest.to_alcotest prop_id_table ]
