open Xut_xpath
open Xut_automata

let nfa_of s = Selecting_nfa.of_path (Parser.parse s)

(* Nodes selected via the NFA during a top-down walk must equal the direct
   evaluator's answer. *)
let nfa_select ?(checkp = `Direct) nfa root =
  let cp =
    match checkp with
    | `Direct -> fun s n -> Eval.check_qual n (Selecting_nfa.state_qual nfa s)
    | `Annotated ->
      let tbl = Annotator.annotate nfa root in
      Annotator.checkp tbl nfa
  in
  let acc = ref [] in
  let rec go e states =
    let states' =
      Selecting_nfa.next_states nfa ~checkp:(fun s -> cp s e) states (Xut_xml.Node.name e)
    in
    if states' <> [] then begin
      if Selecting_nfa.accepts nfa states' then acc := e :: !acc;
      List.iter (fun c -> go c states') (Xut_xml.Node.child_elements e)
    end
  in
  go root (Selecting_nfa.start_set nfa);
  List.rev !acc

let queries =
  [ "db/part"; "db/part/pname"; "//part"; "//supplier"; "db//part"; "//part//supplier";
    "db/*/supplier"; "db/part[pname = \"keyboard\"]"; "//part[supplier/price < 5]";
    "//part[not(supplier/country = \"A\")]"; Fixtures.p1_text;
    "//part[supplier/sname = \"HP\" or supplier/sname = \"Acme\"]"; "db/nothing";
    "//part[pname = \"keyboard\"]//part"; "//supplier[country = \"A\"]/price";
    "db/part/part/part"; "//part[label() = \"part\"]"; "//*[sname = \"Tiny\"]" ]

let ids es = List.map Xut_xml.Node.id es

let test_nfa_matches_eval () =
  let root = Fixtures.parts_doc () in
  List.iter
    (fun q ->
      let nfa = nfa_of q in
      let expected = ids (Eval.select_doc root (Parser.parse q)) in
      let got = ids (nfa_select nfa root) in
      Alcotest.(check (list int)) ("NFA = eval for " ^ q) expected got)
    queries

let test_nfa_annotated_matches_eval () =
  let root = Fixtures.parts_doc () in
  List.iter
    (fun q ->
      let nfa = nfa_of q in
      let expected = ids (Eval.select_doc root (Parser.parse q)) in
      let got = ids (nfa_select ~checkp:`Annotated nfa root) in
      Alcotest.(check (list int)) ("annotated NFA = eval for " ^ q) expected got)
    queries

let test_structure_example_3_1 () =
  (* Fig. 5: start, desc, part[q1], desc, part[q2] -> 5 states. *)
  let nfa = nfa_of Fixtures.p1_text in
  Alcotest.(check int) "five states" 5 (Selecting_nfa.size nfa);
  Alcotest.(check bool) "s1 is //" true (Selecting_nfa.kind nfa 1 = Selecting_nfa.K_desc);
  Alcotest.(check bool) "s2 is part" true (Selecting_nfa.kind nfa 2 = Selecting_nfa.K_label "part");
  Alcotest.(check bool) "s2 has qualifier" true (Selecting_nfa.has_qual nfa 2);
  Alcotest.(check bool) "s3 is //" true (Selecting_nfa.kind nfa 3 = Selecting_nfa.K_desc);
  Alcotest.(check int) "final" 4 (Selecting_nfa.final nfa);
  (* the epsilon-closure of the start state contains the first // state *)
  Alcotest.(check (list int)) "start closure" [ 0; 1 ] (Selecting_nfa.start_set nfa)

let test_next_states_desc_loop () =
  let nfa = nfa_of "//part" in
  (* states: 0 start, 1 desc, 2 part *)
  let s0 = Selecting_nfa.start_set nfa in
  Alcotest.(check (list int)) "closure(start)" [ 0; 1 ] s0;
  let s1 = Selecting_nfa.next_states nfa ~checkp:(fun _ -> true) s0 "db" in
  Alcotest.(check (list int)) "after db: desc survives" [ 1 ] s1;
  let s2 = Selecting_nfa.next_states nfa ~checkp:(fun _ -> true) s1 "part" in
  Alcotest.(check (list int)) "after part: desc + final" [ 1; 2 ] s2;
  Alcotest.(check bool) "accepts" true (Selecting_nfa.accepts nfa s2)

let test_qualifier_blocks_transition () =
  let nfa = nfa_of "db/part[pname = \"keyboard\"]/supplier" in
  let s0 = Selecting_nfa.start_set nfa in
  let s1 = Selecting_nfa.next_states nfa ~checkp:(fun _ -> true) s0 "db" in
  let blocked = Selecting_nfa.next_states nfa ~checkp:(fun _ -> false) s1 "part" in
  Alcotest.(check (list int)) "qualifier false kills the state" [] blocked;
  let open_ = Selecting_nfa.next_states nfa ~checkp:(fun _ -> true) s1 "part" in
  Alcotest.(check (list int)) "qualifier true keeps it" [ 2 ] open_

let test_static_simulation () =
  (* delta' as used by the Compose Method (Example 4.2):
     Mp of //supplier[country=A]; initial {0,1}; after 'part' -> {1};
     after 'supplier' -> {1, final}. *)
  let nfa = nfa_of "//supplier[country = \"A\"]" in
  let s0 = Selecting_nfa.start_set nfa in
  let s1 = Selecting_nfa.next_on_label nfa s0 "part" in
  Alcotest.(check (list int)) "S1" [ 1 ] s1;
  let s2 = Selecting_nfa.next_on_label nfa s1 "supplier" in
  Alcotest.(check (list int)) "S2" [ 1; 2 ] s2;
  Alcotest.(check bool) "final in S2" true (Selecting_nfa.accepts nfa s2);
  (* any-label transition *)
  let any = Selecting_nfa.next_on_any nfa s0 in
  Alcotest.(check (list int)) "any from start" [ 1; 2 ] any;
  (* desc transition saturates *)
  let desc = Selecting_nfa.next_on_desc nfa [ 0 ] in
  Alcotest.(check (list int)) "desc from start" [ 0; 1; 2 ] desc

let test_empty_path () =
  let nfa = Selecting_nfa.of_path [] in
  Alcotest.(check bool) "selects context" true (Selecting_nfa.selects_context nfa);
  let nfa2 = nfa_of "db" in
  Alcotest.(check bool) "nonempty does not" false (Selecting_nfa.selects_context nfa2)

let test_annotator_prunes () =
  (* supplier//part reaches nothing from the root: the annotator must not
     visit (annotate) any node beyond pruning (Example 5.3). *)
  let root = Fixtures.parts_doc () in
  let nfa = nfa_of "supplier[country = \"A\"]//part" in
  let tbl = Annotator.annotate nfa root in
  Alcotest.(check int) "no annotations" 0 (Annotator.annotated_count tbl);
  (* and a query with qualifiers only on parts does not annotate pname etc. *)
  let nfa2 = nfa_of "db/part[pname = \"keyboard\"]" in
  let tbl2 = Annotator.annotate nfa2 root in
  Alcotest.(check bool) "annotates a strict subset" true
    (Annotator.annotated_count tbl2 > 0
    && Annotator.annotated_count tbl2 < Xut_xml.Node.element_count (Xut_xml.Node.Element root))

let test_nfa_construction_linear () =
  let nfa = nfa_of "a/b/c/d/e/f/g/h" in
  Alcotest.(check int) "9 states for 8 steps" 9 (Selecting_nfa.size nfa)

(* ---------------- bitset core vs. list reference ----------------

   The list-based transition functions are retained in
   [Selecting_nfa.Reference] as the oracle; the bitset implementation
   (both the inline-int representation used up to 62 states and the
   Bytes-backed one above) must agree with it on random automata and
   random label sequences, for every exported transition. *)

let gen_run_label =
  (* the path alphabet plus a label no path step uses *)
  QCheck2.Gen.oneofa [| "a"; "b"; "c"; "d"; "e"; "zz" |]

let gen_nfa_path min_steps max_steps : Xut_xpath.Ast.path QCheck2.Gen.t =
  let open QCheck2.Gen in
  let gen_label = oneofa [| "a"; "b"; "c"; "d"; "e" |] in
  let gen_chunk =
    frequency
      [ (4, map (fun l -> [ Ast.step (Ast.Label l) ]) gen_label);
        (2, return [ Ast.step Ast.Wildcard ]);
        (2,
         let* l = gen_label in
         return [ Ast.step Ast.Descendant; Ast.step (Ast.Label l) ]) ]
  in
  let add_qual (s : Ast.step) =
    if s.Ast.nav = Ast.Descendant then return s
    else
      frequency
        [ (2, return s);
          (1,
           let* l = gen_label in
           return { s with Ast.quals = [ Ast.Q_label l ] }) ]
  in
  let* n = int_range min_steps max_steps in
  let* chunks = flatten_l (List.init n (fun _ -> gen_chunk)) in
  flatten_l (List.map add_qual (List.concat chunks))

let prop_bitset_equals_reference ~name ~min_steps ~max_steps ~wide =
  QCheck2.Test.make ~name ~count:150
    QCheck2.Gen.(
      triple (gen_nfa_path min_steps max_steps) (list_size (int_range 0 15) gen_run_label) int)
    (fun (path, run, salt) ->
      let nfa = Selecting_nfa.of_path path in
      if wide && Selecting_nfa.size nfa <= 62 then false
      else begin
        (* arbitrary but deterministic qualifier verdicts, shared by both
           implementations *)
        let checkp s = (s * 31 + salt) land 7 <> 0 in
        let agree cur lbl =
          Selecting_nfa.next_states_unchecked nfa cur lbl
          = Selecting_nfa.Reference.next_states_unchecked nfa cur lbl
          && Selecting_nfa.next_states nfa ~checkp cur lbl
             = Selecting_nfa.Reference.next_states nfa ~checkp cur lbl
          && Selecting_nfa.next_on_label nfa cur lbl
             = Selecting_nfa.Reference.next_on_label nfa cur lbl
          && Selecting_nfa.next_on_any nfa cur = Selecting_nfa.Reference.next_on_any nfa cur
          && Selecting_nfa.next_on_desc nfa cur = Selecting_nfa.Reference.next_on_desc nfa cur
          && Selecting_nfa.accepts nfa cur = Selecting_nfa.Reference.accepts nfa cur
        in
        let ok = ref (Selecting_nfa.start_set nfa = Selecting_nfa.Reference.start_set nfa) in
        let cur = ref (Selecting_nfa.start_set nfa) in
        List.iter
          (fun lbl ->
            if not (agree !cur lbl) then ok := false;
            cur := Selecting_nfa.next_states nfa ~checkp !cur lbl)
          run;
        !ok
      end)

let prop_bitset_small =
  prop_bitset_equals_reference ~name:"bitset NFA = list reference (inline int)" ~min_steps:1
    ~max_steps:8 ~wide:false

let prop_bitset_wide =
  prop_bitset_equals_reference ~name:"bitset NFA = list reference (Bytes-backed)" ~min_steps:63
    ~max_steps:70 ~wide:true

(* Interning must assign each name the same symbol on every domain, and
   symbols must survive the table's copy-on-grow republication. *)
let test_sym_domains () =
  let names = List.init 64 (fun i -> Printf.sprintf "dsym%d" i) in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let here = Xut_xml.Counter.local () in
            List.map (fun n -> (n, Xut_xml.Sym.intern here n)) names))
  in
  let results = List.map Domain.join doms in
  List.iter
    (List.iter (fun (n, v) ->
         Alcotest.(check int) ("stable across domains: " ^ n) (Xut_xml.Sym.intern (Xut_xml.Counter.local ()) n) v;
         Alcotest.(check string) ("name roundtrip: " ^ n) n (Xut_xml.Sym.name v)))
    results

let test_memo_counts () =
  let nfa = nfa_of "//part[pname = \"keyboard\"]" in
  let s0 = Selecting_nfa.start nfa in
  let here = Xut_xml.Counter.local () in
  let sym = Xut_xml.Sym.intern here "part" in
  let hits0 = Fixtures.counter "nfa_memo_hits" and misses0 = Fixtures.counter "nfa_memo_misses" in
  ignore (Selecting_nfa.next_unchecked nfa here s0 sym);
  ignore (Selecting_nfa.next_unchecked nfa here s0 sym);
  let hits = Fixtures.counter "nfa_memo_hits" - hits0
  and misses = Fixtures.counter "nfa_memo_misses" - misses0 in
  Alcotest.(check bool) "second transition hits" true (hits >= 1);
  Alcotest.(check bool) "first transition misses" true (misses >= 1)

(* A memo hit allocates nothing: 1000 warm unchecked transitions, and
   1000 checked ones whose targets carry no qualifier state, on both set
   representations.  The hit counter still counts every one of them. *)
let test_memo_hit_allocation () =
  let check name path label =
    let nfa = nfa_of path in
    let s0 = Selecting_nfa.start nfa in
    let checkp _ () = true and here = Xut_xml.Counter.local () in
    let sym = Xut_xml.Sym.intern here label in
    let s1 = Selecting_nfa.next nfa here ~checkp () s0 sym in
    Alcotest.(check bool) (name ^ ": the step enters no qualifier state") false
      (Selecting_nfa.set_intersects s1 (Selecting_nfa.qual_states nfa));
    ignore (Selecting_nfa.next_unchecked nfa here s0 sym);
    let hits0 = Fixtures.counter "nfa_memo_hits" in
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      ignore (Sys.opaque_identity (Selecting_nfa.next_unchecked nfa here s0 sym))
    done;
    let mid = Gc.minor_words () in
    for _ = 1 to 1000 do
      ignore (Sys.opaque_identity (Selecting_nfa.next nfa here ~checkp () s0 sym))
    done;
    let after = Gc.minor_words () in
    (* only Gc.minor_words' own boxed floats *)
    Alcotest.(check bool) (name ^ ": next_unchecked hits allocate nothing") true
      (mid -. before < 100.);
    Alcotest.(check bool) (name ^ ": next hits allocate nothing") true (after -. mid < 100.);
    Alcotest.(check int) (name ^ ": hits counted") 2000 (Fixtures.counter "nfa_memo_hits" - hits0)
  in
  check "inline" "//part[pname = \"keyboard\"]/supplier/price" "db";
  let wide = "a/" ^ String.concat "/" (List.init 69 (fun _ -> "b")) ^ "[c]" in
  Alcotest.(check bool) "the wide automaton is Bytes-backed" true
    (Selecting_nfa.size (nfa_of wide) > 62);
  check "wide" wide "a"

(* Each domain bumps its own cells, so the sums are exact however the
   domains interleave: two domains, each making [n] interns and [n] warm
   memo hits on one shared automaton, add exactly [2n] to each. *)
let test_counts_across_domains () =
  let n = 100_000 in
  let nfa = nfa_of "//part/supplier" in
  let s0 = Selecting_nfa.start nfa in
  let sym = Xut_xml.Sym.intern (Xut_xml.Counter.local ()) "part" in
  ignore (Selecting_nfa.next_unchecked nfa (Xut_xml.Counter.local ()) s0 sym);
  let interns0 = Fixtures.counter "sym_interns" and hits0 = Fixtures.counter "nfa_memo_hits" in
  let work () =
    let here = Xut_xml.Counter.local () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Xut_xml.Sym.intern here "part"));
      ignore (Sys.opaque_identity (Selecting_nfa.next_unchecked nfa here s0 sym))
    done
  in
  List.iter Domain.join [ Domain.spawn work; Domain.spawn work ];
  Alcotest.(check int) "sym_interns" (2 * n) (Fixtures.counter "sym_interns" - interns0);
  Alcotest.(check int) "nfa_memo_hits" (2 * n) (Fixtures.counter "nfa_memo_hits" - hits0)

(* A bump allocates nothing (only Gc.minor_words' own boxed floats). *)
let test_bump_allocation () =
  let c = Core.Stats.nodes_shared in
  let v0 = Xut_xml.Counter.value c in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Xut_xml.Counter.bump c
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "10 000 bumps allocate %.0f words" words) true (words < 100.);
  Alcotest.(check int) "bumps counted" 10_000 (Xut_xml.Counter.value c - v0)

let suite =
  [ Alcotest.test_case "NFA select = direct eval" `Quick test_nfa_matches_eval;
    Alcotest.test_case "annotated NFA select = direct eval" `Quick test_nfa_annotated_matches_eval;
    Alcotest.test_case "structure of Fig. 5" `Quick test_structure_example_3_1;
    Alcotest.test_case "descendant self-loop" `Quick test_next_states_desc_loop;
    Alcotest.test_case "qualifier blocks transition" `Quick test_qualifier_blocks_transition;
    Alcotest.test_case "static delta' (compose)" `Quick test_static_simulation;
    Alcotest.test_case "empty path" `Quick test_empty_path;
    Alcotest.test_case "annotator pruning" `Quick test_annotator_prunes;
    Alcotest.test_case "construction size" `Quick test_nfa_construction_linear;
    QCheck_alcotest.to_alcotest prop_bitset_small;
    QCheck_alcotest.to_alcotest prop_bitset_wide;
    Alcotest.test_case "interning stable across 4 domains" `Quick test_sym_domains;
    Alcotest.test_case "transition memo counts" `Quick test_memo_counts;
    Alcotest.test_case "memo hits allocate nothing" `Quick test_memo_hit_allocation;
    Alcotest.test_case "counts exact across 2 domains" `Quick test_counts_across_domains;
    Alcotest.test_case "counter bumps allocate nothing" `Quick test_bump_allocation ]
