(* Bechamel microbenches for the building blocks: NFA construction,
   nextStates transitions, QualDP evaluation, SAX parsing throughput —
   plus an end-to-end ns-per-node measurement for TD-BU on XMark with
   the qualifier-heavy query subset (the hot path the bitset NFA and
   the plan's lazy DFA target).

   With [~json] the results are also written as a machine-readable JSON
   file (one object per measurement), seeding the BENCH trajectory. *)
open Bechamel
open Toolkit

let p1 =
  "/site/open_auctions/open_auction[bidder/increase > 5]/annotation[happiness < 20]/description//text"

let tests () =
  let path = Xut_xpath.Parser.parse p1 in
  let nfa = Xut_automata.Selecting_nfa.of_path path in
  let doc = Xut_xmark.Generator.generate ~factor:0.001 () in
  let doc_text = Xut_xml.Serialize.element_to_string doc in
  (* the same document indented: newlines and indentation runs between tags *)
  let pretty_text = Xut_xml.Serialize.element_to_string ~indent:2 doc in
  let dfa = Xut_automata.Dfa.of_nfa nfa in
  let start = Xut_automata.Dfa.start dfa in
  let labels = [| "site"; "open_auctions"; "open_auction"; "bidder"; "increase"; "x" |] in
  let here = Xut_xml.Counter.local () in
  let syms = Array.map (Xut_xml.Sym.intern here) labels in
  let b = Xut_xpath.Lq.create_builder () in
  let qi =
    Xut_xpath.Lq.add_qual b
      (Xut_xpath.Parser.parse_qual "bidder/increase > 5 and not(annotation/happiness < 20)")
  in
  let lq = Xut_xpath.Lq.freeze b in
  [ Test.make ~name:"selecting-NFA construction"
      (Staged.stage (fun () -> Xut_automata.Selecting_nfa.of_path path));
    Test.make ~name:"nextStates (6 transitions)"
      (Staged.stage (fun () ->
           Array.fold_left
             (fun s l -> Xut_automata.Dfa.next dfa here ~checkp:(fun _ () -> true) () s l)
             start syms));
    (let sc = Xut_xpath.Lq.scratch lq and wanted = Xut_xpath.Lq.set_of_list lq [ qi ] in
     Test.make ~name:"QualDP at one node"
       (Staged.stage (fun () ->
            Xut_xpath.Lq.eval lq sc ~name:"open_auction" ~attrs:[ ("id", "x") ] ~text:"12"
              ~csat:(fun _ -> false) ~wanted;
            Xut_xpath.Lq.holds sc qi)));
    Test.make ~name:"SAX parse (50 KB doc)"
      (Staged.stage (fun () -> Xut_xml.Sax.parse_string doc_text (fun _ -> ())));
    Test.make ~name:"SAX parse (50 KB doc, pretty)"
      (Staged.stage (fun () -> Xut_xml.Sax.parse_string pretty_text (fun _ -> ())));
    Test.make ~name:"DOM parse (50 KB doc)"
      (Staged.stage (fun () -> Xut_xml.Dom.parse_string doc_text));
    (* the escape fast path: almost all of XMark text is escape-free, so
       serialization time is dominated by run scanning + whole-run blits *)
    Test.make ~name:"serialize to string (50 KB doc)"
      (Staged.stage (fun () -> Xut_xml.Serialize.element_to_string doc));
    Test.make ~name:"serialize via sink (50 KB doc)"
      (Staged.stage (fun () ->
           let sink = Xut_xml.Serialize.Sink.create (fun _ -> ()) in
           Xut_xml.Serialize.Sink.element sink doc;
           Xut_xml.Serialize.Sink.close sink));
    (let plain = String.concat " " (List.init 400 (fun _ -> "no escapes here")) in
     Test.make ~name:"escape plain text (6 KB)"
       (Staged.stage (fun () -> Xut_xml.Serialize.to_string (Xut_xml.Node.Text plain))));
    (let spicy =
       String.concat " " (List.init 400 (fun i -> if i mod 4 = 0 then "a<b&c" else "plain"))
     in
     Test.make ~name:"escape 25% spicy text (2.5 KB)"
       (Staged.stage (fun () -> Xut_xml.Serialize.to_string (Xut_xml.Node.Text spicy)))) ]

(* ---- end-to-end ns/node: TD-BU over XMark, qualifier-heavy queries ---- *)

let qualifier_heavy = [ "U2"; "U3"; "U7"; "U8"; "U9"; "U10" ]

(* [prepare nfa update root] returns the run to time for one query; each
   is warmed once outside the clock (filling transition memos the way a
   cached plan in the service layer would). *)
let ns_per_node root ~reps prepare =
  let nodes = Xut_xml.Node.element_count (Xut_xml.Node.Element root) in
  let queries =
    List.filter (fun u -> List.mem u.Workloads.name qualifier_heavy) Workloads.all
  in
  List.map
    (fun u ->
      let update = Workloads.delete_of u in
      let nfa = Xut_automata.Selecting_nfa.of_path (Xut_xpath.Parser.parse u.Workloads.path) in
      let run = prepare nfa update root in
      run ();
      let dt = Timing.measure ~reps run in
      (u.Workloads.name, dt *. 1e9 /. float_of_int nodes))
    queries

let tdbu_ns_per_node root ~reps =
  ns_per_node root ~reps (fun nfa update root () ->
      ignore (Sys.opaque_identity (Core.Two_pass.run nfa update root)))

(* A warm TD-BU result stream: the memoized annotation is built outside
   the clock, as the plan cache holds it; timed are the walk and the
   chunked sink serializing its shared-output tree. *)
let result_stream_ns_per_node root ~reps =
  ns_per_node root ~reps (fun nfa update root ->
      let checkp =
        Xut_automata.Annotator.checkp (Xut_automata.Annotator.annotate nfa root) nfa
      in
      fun () ->
        let sink = Xut_xml.Serialize.Sink.create (fun _ -> ()) in
        Xut_xml.Serialize.Sink.element sink (Core.Top_down.run ~checkp nfa update root);
        ignore (Sys.opaque_identity (Xut_xml.Serialize.Sink.close sink)))

(* A warm TD-BU COUNT: the walk of [Top_down.count] over U1-U10, with the
   memoized annotation built outside the clock, as the service counts a
   stored document.  One count takes microseconds, so each timed run is
   [inner] of them; the row is ns per document element per count. *)
let count_ns_per_node root ~reps =
  let nodes = Xut_xml.Node.element_count (Xut_xml.Node.Element root) and inner = 200 in
  List.map
    (fun u ->
      let update = Workloads.delete_of u in
      let nfa = Xut_automata.Selecting_nfa.of_path (Xut_xpath.Parser.parse u.Workloads.path) in
      let checkp =
        Xut_automata.Annotator.checkp (Xut_automata.Annotator.annotate nfa root) nfa
      in
      let run () =
        for _ = 1 to inner do
          ignore (Sys.opaque_identity (Core.Top_down.count ~checkp nfa update root))
        done
      in
      run ();
      let dt = Timing.measure ~reps run in
      (u.Workloads.name, dt *. 1e9 /. float_of_int (inner * nodes)))
    Workloads.all

(* ---- composed view read: a depth-2 view chain over XMark ---------------

   The served shape of a stored-view read: two stored deletes composed
   with a user FLWOR by [Composition.compose_stack], run with the
   level-0 annotation oracle built outside the clock (the annotation
   memo holds it in the service).  Reports the result count, time per
   read and minor words per read. *)

let view_chain = [ "site/regions//item/mailbox"; "site/people/person/watches" ]
let view_query = "for $x in site/people/person return $x/name"

let composed_view_read root ~reps =
  let paths = List.map Xut_xpath.Parser.parse view_chain in
  let updates = List.map (fun p -> Core.Transform_ast.Delete p) paths in
  let c =
    match Core.Composition.compose_stack updates (Core.User_query.parse view_query) with
    | Ok c -> c
    | Error m -> failwith ("composed view read: " ^ m)
  in
  let nfa0 = Xut_automata.Selecting_nfa.of_path (List.hd paths) in
  let oracle = Xut_automata.Annotator.checkp (Xut_automata.Annotator.annotate nfa0 root) nfa0 in
  let read () = Core.Composition.run_composed ~oracle c ~doc:root in
  let results = List.length (read ()) in
  let dt = Timing.measure ~reps read in
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (read ()))
  done;
  let kw = (Gc.minor_words () -. w0) /. float_of_int reps /. 1e3 in
  (results, dt *. 1e6, kw)

(* ---- annotator ns/node A/B: schema skip-sets on vs off ----------------

   The bottom-up annotation pass over XMark, with and without the
   NFA x schema skip-set oracle.  The schema-selective query confines
   its matches to one arm of the site tree, so the oracle prunes the
   other arms without a visit; the broad query reaches almost every arm,
   so the oracle is a no-op and the A/B doubles as a regression guard
   for the per-node skip check. *)

let annotator_queries =
  [ ("selective", p1); ("broad", "/site//date") ]

let annotator_ab root ~reps =
  Xut_xmark.Site_schema.register ();
  let schema =
    match Xut_schema.Schema.find Xut_xmark.Site_schema.schema_name with
    | Some s -> s
    | None -> assert false
  in
  let nodes = Xut_xml.Node.element_count (Xut_xml.Node.Element root) in
  List.map
    (fun (label, path_s) ->
      let nfa = Xut_automata.Selecting_nfa.of_path (Xut_xpath.Parser.parse path_s) in
      let product = Xut_schema.Schema.product schema nfa in
      let skip e = Xut_schema.Schema.skippable product (Xut_xml.Node.sym e) in
      ignore (Sys.opaque_identity (Xut_automata.Annotator.annotate nfa root));
      ignore (Sys.opaque_identity (Xut_automata.Annotator.annotate ~skip nfa root));
      let off =
        Timing.measure ~reps (fun () ->
            ignore (Sys.opaque_identity (Xut_automata.Annotator.annotate nfa root)))
      in
      let on =
        Timing.measure ~reps (fun () ->
            ignore (Sys.opaque_identity (Xut_automata.Annotator.annotate ~skip nfa root)))
      in
      ( label,
        Xut_schema.Schema.skip_count product,
        off *. 1e9 /. float_of_int nodes,
        on *. 1e9 /. float_of_int nodes ))
    annotator_queries

(* ---- the write path: what one COMMIT costs --------------------------------

   The mixed read/write workload's marker insert on XMark f=0.01 (seed
   1): [Apply] of the compiled write plan, the commit's label
   footprint, each Fig. 11 plan's annotation repair from its warm table
   (the qualified ones re-key), the first reply image's build, and one
   serialization of the committed root with that image, as every reply
   after the commit makes it.  Each row is the median of [reps] batches,
   in microseconds per call (a batch repeats the call for about 100 us,
   so the clock's microsecond grain does not round a call of a few),
   and the minor words of one call. *)

let marker_in =
  "insert <xut_bench_promo>p</xut_bench_promo> into $a/site/open_auctions/open_auction"

let write_path ~reps =
  let module Annotator = Xut_automata.Annotator in
  let module Apply = Xut_update.Apply in
  let module Serialize = Xut_xml.Serialize in
  let root = Xut_xmark.Generator.generate ~seed:1L ~factor:0.01 () in
  let plan = Apply.plan (Core.Transform_parser.parse_updates marker_in) in
  let root', spine =
    match Apply.run_plan plan root with
    | Ok (_, Some (root', diff)) -> (root', diff.Apply.spine)
    | _ -> failwith "write path: the marker insert did not commit"
  in
  (* (name, us per call, minor words per call) *)
  let row name f =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    let inner = max 1 (int_of_float (1e-4 /. max 1e-7 (Unix.gettimeofday () -. t0))) in
    let us =
      Timing.measure ~reps (fun () ->
          for _ = 1 to inner do
            ignore (Sys.opaque_identity (f ()))
          done)
      *. 1e6 /. float_of_int inner
    in
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    (name, us, Gc.minor_words () -. w0)
  in
  let fp = Lazy.from_val (Annotator.commit_footprint ~spine root') in
  let repairs =
    List.map
      (fun u ->
        let nfa = Xut_automata.Selecting_nfa.of_path (Xut_xpath.Parser.parse u.Workloads.path) in
        let old_table = Annotator.annotate nfa root in
        row ("repair " ^ u.Workloads.name) (fun () ->
            Annotator.repair ~footprint:fp nfa ~old_table ~spine root'))
      Workloads.all
  in
  let image = Serialize.Image.of_element root in
  [ row "apply" (fun () -> Apply.run_plan plan root);
    row "footprint" (fun () -> Annotator.commit_footprint ~spine root') ]
  @ repairs
  @ [ row "image build" (fun () -> Serialize.Image.of_element root);
      row "serialize committed root" (fun () ->
          let buf = Serialize.Pool.acquire () in
          Serialize.to_buffer ~image buf (Xut_xml.Node.Element root');
          Serialize.Pool.release buf) ]

(* ---- JSON output ------------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    let status = Unix.close_process_in ic in
    match (status, line) with Unix.WEXITED 0, l when l <> "" -> l | _ -> "unknown"
  with _ -> "unknown"

let iso_date () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
    t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec

(* one ["key": { "U2": ns, ... },] member *)
let ns_rows oc key rows =
  Printf.fprintf oc "  \"%s\": {\n" key;
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "    \"%s\": %.2f%s\n" (json_escape name) ns
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  },\n"

let write_json path ~factor ~micro ~tdbu ~stream ~count ~annot ~view ~writes =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\n";
      Printf.fprintf oc "  \"bench\": \"micro\",\n";
      Printf.fprintf oc
        "  \"meta\": { \"commit\": \"%s\", \"date\": \"%s\", \"cores\": %d, \"os\": \"%s\" },\n"
        (git_commit ()) (iso_date ())
        (Domain.recommended_domain_count ())
        Sys.os_type;
      Printf.fprintf oc "  \"xmark_factor\": %g,\n" factor;
      Printf.fprintf oc "  \"micro_ns_per_run\": {\n";
      List.iteri
        (fun i (name, ns) ->
          Printf.fprintf oc "    \"%s\": %.1f%s\n" (json_escape name) ns
            (if i = List.length micro - 1 then "" else ","))
        micro;
      Printf.fprintf oc "  },\n";
      ns_rows oc "tdbu_ns_per_node" tdbu;
      ns_rows oc "result_stream_ns_per_node" stream;
      ns_rows oc "count_ns_per_node" count;
      Printf.fprintf oc "  \"write_path_f0.01\": {\n";
      List.iteri
        (fun i (name, us, words) ->
          Printf.fprintf oc "    \"%s\": { \"us\": %.2f, \"minor_words\": %.0f }%s\n"
            (json_escape name) us words
            (if i = List.length writes - 1 then "" else ","))
        writes;
      Printf.fprintf oc "  },\n";
      (let results, us, kw = view in
       Printf.fprintf oc
         "  \"composed_view_read\": { \"chain\": \"%s\", \"query\": \"%s\", \"results\": %d, \
          \"us_per_read\": %.1f, \"kw_per_read\": %.2f },\n"
         (json_escape (String.concat " ; " view_chain))
         (json_escape view_query) results us kw);
      Printf.fprintf oc "  \"annotator_ns_per_node\": [\n";
      List.iteri
        (fun i (label, skips, off, on) ->
          Printf.fprintf oc
            "    { \"query\": \"%s\", \"skip_set_size\": %d, \"skip_off\": %.2f, \
             \"skip_on\": %.2f }%s\n"
            (json_escape label) skips off on
            (if i = List.length annot - 1 then "" else ","))
        annot;
      Printf.fprintf oc "  ],\n";
      let mean =
        List.fold_left (fun acc (_, ns) -> acc +. ns) 0. tdbu
        /. float_of_int (max 1 (List.length tdbu))
      in
      Printf.fprintf oc "  \"tdbu_ns_per_node_mean\": %.2f\n" mean;
      output_string oc "}\n");
  Printf.printf "  [json: %s]\n" path

let run ?json ?(quick = false) ?(tdbu_only = false) () =
  let micro_results = ref [] in
  if not tdbu_only then begin
    print_endline "\n== Microbenchmarks (bechamel) ==";
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
    in
    List.iter
      (fun test ->
        let results = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
        let analyzed = Analyze.all ols Instance.monotonic_clock results in
        Hashtbl.iter
          (fun name ols_result ->
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] ->
              micro_results := (name, est) :: !micro_results;
              Printf.printf "  %-32s %12.1f ns/run\n" name est
            | _ -> Printf.printf "  %-32s (no estimate)\n" name)
          analyzed)
      (tests ())
  end;
  let factor = if quick then 0.0005 else 0.002 in
  let reps = if quick then 3 else 5 in
  let root = Xut_xmark.Generator.generate ~factor () in
  let print_rows ?(queries = "qualifier-heavy queries") title rows =
    Printf.printf "\n== %s (XMark f=%g, %s) ==\n" title factor queries;
    List.iter (fun (name, ns) -> Printf.printf "  %-6s %10.2f ns/node\n" name ns) rows;
    let mean =
      List.fold_left (fun acc (_, ns) -> acc +. ns) 0. rows
      /. float_of_int (max 1 (List.length rows))
    in
    Printf.printf "  %-6s %10.2f ns/node\n" "mean" mean
  in
  let tdbu = tdbu_ns_per_node root ~reps in
  print_rows "TD-BU ns/node" tdbu;
  let stream = result_stream_ns_per_node root ~reps in
  print_rows "TD-BU result stream ns/node, warm annotation" stream;
  let count = count_ns_per_node root ~reps in
  print_rows ~queries:"U1-U10" "TD-BU COUNT walk ns/node, warm annotation" count;
  let view = composed_view_read root ~reps:(10 * reps) in
  (let results, us, kw = view in
   Printf.printf
     "\n== Composed view read (depth-2 chain, XMark f=%g) ==\n\
     \  %d results  %8.1f us/read  %8.2f kw/read  (%.0f words/result)\n"
     factor results us kw
     (kw *. 1e3 /. float_of_int (max 1 results)));
  Printf.printf "\n== Annotator ns/node, schema skip-sets off vs on (XMark f=%g) ==\n" factor;
  let annot = annotator_ab root ~reps in
  List.iter
    (fun (label, skips, off, on) ->
      Printf.printf "  %-10s skip_set=%-3d off %8.2f ns/node   on %8.2f ns/node  (%.2fx)\n"
        label skips off on
        (if on > 0. then off /. on else 0.))
    annot;
  Printf.printf "\n== Write path: one marker COMMIT (XMark f=0.01, medians) ==\n";
  let writes = write_path ~reps:(if quick then 41 else 101) in
  List.iter
    (fun (name, us, words) -> Printf.printf "  %-26s %10.1f us  %8.0f minor words\n" name us words)
    writes;
  match json with
  | Some path ->
    write_json path ~factor ~micro:(List.rev !micro_results) ~tdbu ~stream ~count ~annot ~view
      ~writes
  | None -> ()
