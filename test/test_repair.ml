(* Annotation tables carried across a commit: an [Annotator.repair]ed
   table, re-keyed when its plan cannot observe the commit and annotated
   afresh otherwise, must be indistinguishable — through [sat]/[checkp],
   entry for entry — from a from-scratch [annotate] of the post-commit
   tree, across random documents, random pending-update lists,
   compounding commits, and NFAs too large for the immediate-int bitset.
   Each property fails for a re-key that ignores what the commit
   touched. *)

open Xut_xml
open Xut_automata
module Apply = Xut_update.Apply
module Service = Xut_service.Service
module Doc_store = Xut_service.Doc_store
module Plan_cache = Xut_service.Plan_cache
module Metrics = Xut_service.Metrics

let updates = Core.Transform_parser.parse_updates

(* Entry-for-entry equivalence, observed the way TD-BU observes it: the
   truth of every LQ expression at every node of the tree, plus the
   table sizes (a size mismatch means stale entries survived for ids
   that left the tree — invisible to [sat] but a leak under compounding
   commits). *)
let tables_equivalent nfa got expected root =
  let n = Xut_xpath.Lq.length (Selecting_nfa.lq nfa) in
  let ok = ref (Annotator.annotated_count got = Annotator.annotated_count expected) in
  Node.iter_elements
    (fun e ->
      for i = 0 to n - 1 do
        if Annotator.sat got e i <> Annotator.sat expected e i then ok := false
      done)
    root;
  !ok

(* ---- random documents x random update lists ---- *)

let gen_updates =
  QCheck2.Gen.(list_size (int_range 1 3) Test_properties.gen_update)

let prop_repair_equals_annotate =
  QCheck2.Test.make ~name:"repair = from-scratch annotate (random)" ~count:300
    QCheck2.Gen.(triple Test_properties.gen_root Test_properties.gen_path gen_updates)
    (fun (root, path, us) ->
      let nfa = Selecting_nfa.of_path path in
      let old_table = Annotator.annotate nfa root in
      match Apply.run us root with
      | Error _ -> true (* conflicting list: no new tree to repair for *)
      | Ok (_, None) -> true (* nothing selected: no commit *)
      | exception Apply.Invalid _ -> true (* root deleted/replaced: no commit *)
      | Ok (_, Some (root', diff)) -> begin
        match Annotator.repair nfa ~old_table ~spine:diff.Apply.spine root' with
        | None ->
          (* degenerate only when the document element was replaced *)
          not (Hashtbl.mem diff.Apply.spine (Node.id root'))
        | Some (repaired, _) ->
          tables_equivalent nfa repaired (Annotator.annotate nfa root') root'
      end)

(* ---- commits compounding on one document ---- *)

(* One pending list: [rename X as Y] with Y a document label, beside an
   edit strictly below X.  Both paths resolve against the tree before
   the commit, so the edit's spine runs through the renamed node, where
   what the run passes down to the rebuilt children changes; the rename
   also changes the renamed node's own bit in its label summary and in
   every ancestor's. *)
let gen_rename_and_edit =
  let open QCheck2.Gen in
  let open Xut_xpath.Ast in
  let* x = map (fun p -> step (Label "r") :: p) (Test_properties.gen_path_simple 2) in
  let* y = Test_properties.gen_label in
  let* below = Test_properties.gen_path_simple 2 in
  let* edit = Test_properties.gen_update_on (return (x @ below)) in
  return [ Core.Transform_ast.Rename (x, y); edit ]

(* Commits: a single random update, or as often a rename-plus-edit
   pair. *)
let gen_commit =
  QCheck2.Gen.(
    frequency [ (1, map (fun u -> [ u ]) Test_properties.gen_update); (1, gen_rename_and_edit) ])

(* Plans: the random paths of [Test_properties.gen_path] (unqualified
   ones, and ones that start with [//] or [*]), or as often a plan from
   the document element with one qualifier, so what a renamed node
   passes down to its children is something a table holds. *)
let gen_compound_plan =
  QCheck2.Gen.(
    frequency
      [ (1, Test_properties.gen_path);
        ( 1,
          Test_properties.gen_path_simple 3
          >>= fun p ->
          Test_properties.gen_qualified (Xut_xpath.Ast.step (Xut_xpath.Ast.Label "r") :: p) ) ])

let prop_repair_compounds =
  QCheck2.Test.make ~name:"repair compounds across successive commits" ~count:400
    QCheck2.Gen.(
      triple Test_properties.gen_root gen_compound_plan (list_size (int_range 4 10) gen_commit))
    (fun (root0, path, commits) ->
      let nfa = Selecting_nfa.of_path path in
      let root = ref root0 in
      let table = ref (Annotator.annotate nfa root0) in
      List.for_all
        (fun us ->
          match Apply.run us !root with
          | Error _ | Ok (_, None) -> true
          | exception Apply.Invalid _ -> true
          | Ok (_, Some (root', diff)) when not (Hashtbl.mem diff.Apply.spine (Node.id root'))
            ->
            (* root replaced: restart the chain from a fresh annotation *)
            root := root';
            table := Annotator.annotate nfa root';
            true
          | Ok (_, Some (root', diff)) -> begin
            (* each round repairs the previous round's repaired table,
               so stale-entry leaks accumulate and surface as a count
               mismatch even when one round masks them *)
            match Annotator.repair nfa ~old_table:!table ~spine:diff.Apply.spine root' with
            | None -> false
            | Some (repaired, _) ->
              let fresh = Annotator.annotate nfa root' in
              let ok = tables_equivalent nfa repaired fresh root' in
              root := root';
              table := repaired;
              ok
          end)
        commits)

(* ---- commits a plan cannot observe: the re-key ---- *)

(* Plans over the generated documents' labels (a-e under "r"): random
   paths from "r", and shapes whose qualifier compares the text of a
   child or of the qualified node itself. *)
let gen_plan =
  let open QCheck2.Gen in
  let open Xut_xpath.Ast in
  let r = step (Label "r") in
  let compared =
    let* l1 = Test_properties.gen_label in
    let* l2 = Test_properties.gen_label in
    let* op = Test_properties.gen_cmp in
    let* v = Test_properties.gen_value in
    oneofl
      [ [ r; step ~quals:[ Q_cmp (path_source [ step (Label l2) ], op, v) ] (Label l1) ];
        [ r; step (Label l1); step ~quals:[ Q_cmp (self_source, op, v) ] (Label l2) ];
        [ r; step Descendant; step ~quals:[ Q_cmp (path_source [ step (Label l2) ], op, v) ] (Label l1) ] ]
  in
  frequency
    [ (2, compared);
      (1, map (fun p -> r :: p) Test_properties.gen_path);
      (1, Test_properties.gen_path) ]

(* Commits biased towards ones a plan cannot observe: material under
   the fresh labels x and y (no document or plan names them), renames
   to the fresh label z, deletes of fresh material an earlier commit
   left, and text inserted where a plan may compare it (under every
   node of one label, so it often lands where a plan compares: the
   commit is observable only through its spine), beside a share of
   arbitrary updates. *)
let gen_biased_update =
  let open QCheck2.Gen in
  let open Xut_xpath.Ast in
  let fresh =
    oneofl
      [ Node.elem "x" [ Node.text "7" ];
        Node.elem "x" [ Node.elem "y" [ Node.text "20" ] ];
        Node.elem "y" [] ]
  in
  let text = oneofl [ "9"; "30"; "B" ] in
  let* path =
    let* p = Test_properties.gen_path_simple 2 in
    frequency [ (3, return (step (Label "r") :: p)); (1, return p) ]
  in
  frequency
    [ (3, map (fun m -> Core.Transform_ast.Insert (path, m)) fresh);
      (1, map (fun m -> Core.Transform_ast.Insert_first (path, m)) fresh);
      (2, return (Core.Transform_ast.Rename (path, "z")));
      (2, map (fun t -> Core.Transform_ast.Insert (path, Node.text t)) text);
      (3,
       map2
         (fun l t -> Core.Transform_ast.Insert ([ step Descendant; step (Label l) ], Node.text t))
         Test_properties.gen_label text);
      (1, return (Core.Transform_ast.Delete [ step Descendant; step (Label "x") ]));
      (1, Test_properties.gen_update) ]

(* Every (qualifier state, element) pair the table answers for: the
   states the unchecked run holds at each element, as bottomUp enters
   it, that carry a qualifier.  There [Annotator.checkp] must be
   [Top_down.direct_checkp]; [pairs] counts the pairs compared. *)
let checkp_agrees ?(pairs = ref 0) nfa table root =
  let checkp = Annotator.checkp table nfa and direct = Core.Top_down.direct_checkp nfa in
  let quals = Selecting_nfa.qual_states nfa in
  let rec walk states (e : Node.element) =
    let states = Selecting_nfa.next_unchecked nfa states (Node.sym e) in
    Selecting_nfa.set_fold
      (fun s ok ->
        incr pairs;
        ok && checkp s e = direct s e)
      (Selecting_nfa.set_inter states quals)
      true
    && List.for_all
         (function Node.Element c -> walk states c | Node.Text _ | Node.Comment _ | Node.Pi _ -> true)
         (Node.children e)
  in
  walk (Selecting_nfa.start nfa) root

(* Commit [us] one at a time from [root], repairing each commit's table
   from the previous one: [Some (rekeyed, evaluated)], how many repairs
   re-keyed and how many annotated afresh, when [check nfa table root] holds
   of the first table and of every repaired one; by default, that it
   equals a from-scratch annotation. *)
let rekey_chain
    ?(check = fun nfa table root -> tables_equivalent nfa table (Annotator.annotate nfa root) root)
    (root, path, us) =
  let nfa = Selecting_nfa.of_path path in
  let rec go root table (rekeyed, evaluated) = function
    | [] -> Some (rekeyed, evaluated)
    | u :: us -> (
      match Apply.run [ u ] root with
      | Error _ | Ok (_, None) | (exception Apply.Invalid _) -> go root table (rekeyed, evaluated) us
      | Ok (_, Some (root', diff)) -> (
        match Annotator.repair nfa ~old_table:table ~spine:diff.Apply.spine root' with
        | None -> go root' (Annotator.annotate nfa root') (rekeyed, evaluated) us
        | Some (repaired, st) ->
          if check nfa repaired root' then
            go root' repaired
              (if st.Annotator.rekeyed then (rekeyed + 1, evaluated) else (rekeyed, evaluated + 1))
              us
          else None))
  in
  let table = Annotator.annotate nfa root in
  if check nfa table root then go root table (0, 0) us else None

let gen_rekey_chain =
  QCheck2.Gen.(
    triple Test_properties.gen_root gen_plan (list_size (int_range 1 6) gen_biased_update))

let prop_rekey_equals_annotate =
  QCheck2.Test.make ~name:"footprint re-key = from-scratch annotate (biased)" ~count:500
    gen_rekey_chain
    (fun case -> Option.is_some (rekey_chain case))

(* The property above is only as good as its share of re-keyed repairs:
   on a fixed seed, every chain must hold and a fair share of the
   repairs must take the re-key (500 re-keyed repairs over the 1000
   chains on this seed). *)
let test_rekey_coverage () =
  let rand = Random.State.make [| 32 |] in
  let rekeyed = ref 0 in
  List.iter
    (fun case ->
      match rekey_chain case with
      | Some (n, _) -> rekeyed := !rekeyed + n
      | None -> Alcotest.fail "a re-keyed or repaired table differs from annotate")
    (QCheck2.Gen.generate ~rand ~n:1000 gen_rekey_chain);
  Alcotest.(check bool) (Printf.sprintf "%d re-keyed repairs >= 400" !rekeyed) true (!rekeyed >= 400)

(* ---- >62-state NFA: the Bytes-backed bitset path ---- *)

(* A chain document a/b/a/b/... with a <c> leaf at every level, and a
   64-step path [a[c]/b[c]/...] so the NFA outgrows the immediate-int
   bitset (62 states). *)
let chain_depth = 70
let path_steps = 64

let chain_doc () =
  let rec build d =
    let name = if d mod 2 = 0 then "a" else "b" in
    let kids = [ Node.elem "c" [ Node.text "X" ] ] in
    let kids = if d + 1 < chain_depth then kids @ [ Node.Element (build (d + 1)) ] else kids in
    Node.element name kids
  in
  build 1 (* the document element is the depth-0 "a"; chain starts at "b" *)

(* the first step matches the document element itself (the $a/p
   convention), so the path names start at the root's "a" *)
let deep_path ?(quals = true) n =
  String.concat "/"
    (List.init n (fun i ->
         let name = if i mod 2 = 0 then "a" else "b" in
         if quals then name ^ "[c]" else name))

let test_repair_wide_nfa () =
  let root = Node.element "a" [ Node.Element (chain_doc ()) ] in
  let nfa = Selecting_nfa.of_path (Xut_xpath.Parser.parse (deep_path path_steps)) in
  Alcotest.(check bool) "NFA outgrows the immediate bitset" true
    (Selecting_nfa.size nfa > 62);
  let table0 = Annotator.annotate nfa root in
  Alcotest.(check bool) "the chain is annotated at all" true
    (Annotator.annotated_count table0 > 0);
  (* three compounding commits: a deep insert (long rebuilt spine), a
     mid-spine rename (demand change over a shared subtree), and a deep
     delete — each repaired table must match from-scratch annotation *)
  let commits =
    [ Printf.sprintf "insert <c>Y</c> into $a/%s" (deep_path ~quals:false 40);
      Printf.sprintf "rename $a/%s as zz" (deep_path ~quals:false 20);
      (* above the renamed node, so the path still selects *)
      Printf.sprintf "delete $a/%s" (deep_path ~quals:false 15)
    ]
  in
  let root = ref root and table = ref table0 in
  List.iteri
    (fun i q ->
      match Apply.run (updates q) !root with
      | Ok (_, Some (root', diff)) -> begin
        match Annotator.repair nfa ~old_table:!table ~spine:diff.Apply.spine root' with
        | None -> Alcotest.failf "commit %d: repair unexpectedly degenerate" i
        | Some (repaired, st) ->
          Alcotest.(check bool)
            (Printf.sprintf "commit %d: repaired = annotated" i)
            true
            (tables_equivalent nfa repaired (Annotator.annotate nfa root') root');
          (* every commit touches a plan label: the new root is
             annotated, and STATS counts what that wrote *)
          Alcotest.(check int)
            (Printf.sprintf "commit %d: recomputed = the entries annotate writes" i)
            (Annotator.annotated_count (Annotator.annotate nfa root'))
            st.Annotator.recomputed;
          root := root';
          table := repaired
      end
      | _ -> Alcotest.failf "commit %d did not materialize" i)
    commits

(* ---- XMark-shaped commits ---- *)

let marker_in =
  "insert <xut_bench_promo>p</xut_bench_promo> into $a/site/open_auctions/open_auction"
let marker_out = "delete $a//xut_bench_promo"

(* Every Fig. 11 plan, repaired across compounding commits on an XMark
   document and checked against from-scratch annotation after each: the
   marker insert/delete pair of the mixed read/write workload (a spine
   through every open_auction, shared siblings below each), a rename of
   one open_auction, and renames of open_auctions away and back, which
   change the demand above shared children, and one of an open_auction
   back together with an edit below it, which changes the demand above
   a rebuilt child. *)
let test_repair_xmark_commits () =
  let root0 = Xut_xmark.Generator.generate ~seed:1L ~factor:0.002 () in
  let nfas =
    List.map
      (fun p -> (Plan_cache.compile (Test_schema.delete_q p)).Plan_cache.nfa)
      Test_schema.fig11
  in
  let commits =
    [ marker_in; marker_out; marker_in; marker_out;
      {|rename $a/site/open_auctions/open_auction[@id = "open_auction1"] as open_auctionx|};
      marker_in;
      "rename $a/site/open_auctions as x";
      "insert <xut_bench_promo>q</xut_bench_promo> into $a/site/x/open_auction";
      "rename $a/site/x as open_auctions";
      marker_out;
      (* entries of every open_auction change under U7, U8 and U10 *)
      "delete $a/site/open_auctions/open_auction/initial";
      "insert <bidder><increase>99</increase></bidder> into $a/site/open_auctions/open_auction";
      (* a rename back onto a plan label with an edit below it: the
         rebuilt initial inherits what the renamed node passes down now,
         not what it passed down before *)
      {|(rename $a/site/open_auctions/open_auctionx as open_auction,
         insert <xut_bench_promo>r</xut_bench_promo> into $a/site/open_auctions/open_auctionx/initial)|} ]
  in
  let root = ref root0 and tables = ref (List.map (fun nfa -> Annotator.annotate nfa root0) nfas) in
  List.iteri
    (fun i q ->
      match Apply.run (updates q) !root with
      | Ok (_, Some (root', diff)) ->
        tables :=
          List.mapi
            (fun u (nfa, table) ->
              match Annotator.repair nfa ~old_table:table ~spine:diff.Apply.spine root' with
              | None -> Alcotest.failf "commit %d: repair unexpectedly degenerate" i
              | Some (repaired, _) ->
                Alcotest.(check bool)
                  (Printf.sprintf "commit %d (%s): U%d repaired = annotated" i q (u + 1))
                  true
                  (tables_equivalent nfa repaired (Annotator.annotate nfa root') root');
                repaired)
            (List.combine nfas !tables);
        root := root'
      | _ -> Alcotest.failf "commit %d (%s) did not materialize" i q)
    commits

(* ---- re-key chains: overlays over a shared table ---- *)

(* Every answer a table gives about [root]: [sat] of every LQ
   expression and [checkp] of every qualified NFA state at every
   element, and the entry count, as a fresh annotation of [root] gives
   them. *)
let answers_agree nfa got root =
  let expected = Annotator.annotate nfa root in
  let n = Xut_xpath.Lq.length (Selecting_nfa.lq nfa) in
  let quals = Selecting_nfa.qual_states nfa in
  let got_checkp = Annotator.checkp got nfa and checkp = Annotator.checkp expected nfa in
  Annotator.annotated_count got = Annotator.annotated_count expected
  && Node.fold_elements
       (fun ok e ->
         ok
         && List.for_all
              (fun i -> Annotator.sat got e i = Annotator.sat expected e i)
              (List.init n Fun.id)
         && Selecting_nfa.set_fold (fun s ok -> ok && got_checkp s e = checkp s e) quals true)
       true root

(* The plans of a re-key chain: every Fig. 11 plan, and the innermost
   level of both view chains of the mixed read/write workload. *)
let chain_plans =
  List.map
    (fun p -> (p, (Plan_cache.compile (Test_schema.delete_q p)).Plan_cache.nfa))
    (Test_schema.fig11 @ [ "/site/regions//item/mailbox"; "/site/people/person/watches" ])

(* [commits] alternating marker inserts and deletes from [root], every
   plan's table repaired from the one before with the commit's one
   footprint: no plan can observe the marker, so every plan with
   qualifiers re-keys; after each commit every table answers as a fresh
   annotation does, and its overlays stay within their bound.  Returns
   each commit's overlay depths, by plan. *)
let rekey_marker_chain root ~commits =
  let tables = ref (List.map (fun (_, nfa) -> Annotator.annotate nfa root) chain_plans) in
  let root = ref root in
  List.init commits (fun i ->
      let commit = if i mod 2 = 0 then marker_in else marker_out in
      match Apply.run (updates commit) !root with
      | Ok (_, Some (root', diff)) ->
        let spine = diff.Apply.spine in
        let footprint = lazy (Annotator.commit_footprint ~spine root') in
        tables :=
          List.map2
            (fun (p, nfa) table ->
              match Annotator.repair ~footprint nfa ~old_table:table ~spine root' with
              | None -> Alcotest.failf "commit %d: repair unexpectedly degenerate" i
              | Some (repaired, st) ->
                let what = Printf.sprintf "commit %d (%s), %s" i commit p in
                Alcotest.(check bool) (what ^ ": re-keyed iff qualified")
                  (not (Selecting_nfa.set_is_empty (Selecting_nfa.qual_states nfa)))
                  st.Annotator.rekeyed;
                Alcotest.(check bool) (what ^ ": overlays within their bound") true
                  (Annotator.overlay_depth repaired <= Annotator.max_overlay_depth);
                Alcotest.(check bool) (what ^ ": answers = a fresh annotation") true
                  (answers_agree nfa repaired root');
                repaired)
            chain_plans !tables;
        root := root';
        List.map Annotator.overlay_depth !tables
      | _ -> Alcotest.failf "commit %d (%s) did not materialize" i commit)

let depths_of p depths =
  let rec index i = function
    | (q, _) :: rest -> if q = p then i else index (i + 1) rest
    | [] -> invalid_arg p
  in
  List.map (fun ds -> List.nth ds (index 0 chain_plans)) depths

(* Six marker commits on XMark f=0.01: U7 moves an entry per rebuilt
   open_auction, so its table stacks one overlay per commit. *)
let test_rekey_overlay_chain () =
  let depths =
    rekey_marker_chain (Xut_xmark.Generator.generate ~seed:1L ~factor:0.01 ()) ~commits:6
  in
  Alcotest.(check (list int)) "U7's overlays stack" [ 1; 2; 3; 4; 5; 6 ]
    (depths_of Test_schema.u7_path depths)

(* Past its bound a chain is flattened: the next re-key starts a flat
   table, and the answers stay exact across the flattening. *)
let test_rekey_overlay_flattens () =
  let bound = Annotator.max_overlay_depth in
  let depths =
    rekey_marker_chain (Xut_xmark.Generator.generate ~seed:1L ~factor:0.002 ())
      ~commits:((2 * bound) + 3)
  in
  Alcotest.(check (list int)) "U7's overlays flatten past the bound"
    (List.init ((2 * bound) + 3) (fun i -> (i + 1) mod (bound + 1)))
    (depths_of Test_schema.u7_path depths)

(* ---- a re-key's work is bounded by the spine ---- *)

(* 10 people and 1000 open_auctions of 101 elements each. *)
let wide_doc () =
  let auction i =
    Node.elem
      ~attrs:[ ("id", Printf.sprintf "a%d" i) ]
      "open_auction"
      (List.init 50 (fun _ -> Node.elem "bidder" [ Node.elem "increase" [ Node.text "3" ] ]))
  in
  let person i = Node.elem ~attrs:[ ("id", Printf.sprintf "p%d" i) ] "person" [] in
  Node.element "site"
    [ Node.elem "people" (List.init 10 person); Node.elem "open_auctions" (List.init 1000 auction) ]

(* One leaf inserted under one of the 1000 auctions: 3 spine nodes with
   ~1050 children between them.  The bound on a re-key's allocation: a
   few hundred words per spine node, 2 per child of a spine node (the
   footprint's alignment passes a shared child over), and 8 words per
   old-table entry.  A walk that visited the 999 shared siblings (a
   qualifier at open_auction) or the ~10^5 elements below open_auctions
   exceeds it many times over.  Neither plan can observe the inserted
   [leaf], so both are re-keyed. *)
let test_repair_bounded_by_spine () =
  let root = wide_doc () in
  let commit = {|insert <leaf/> into $a/site/open_auctions/open_auction[@id = "a500"]|} in
  let root', diff =
    match Apply.run (updates commit) root with
    | Ok (_, Some r) -> r
    | _ -> Alcotest.fail "commit did not materialize"
  in
  let spine = Hashtbl.length diff.Apply.spine in
  let children = Fixtures.spine_extent diff.Apply.spine root' - spine in
  List.iter
    (fun (path, rekeyed) ->
      let nfa = Selecting_nfa.of_path (Xut_xpath.Parser.parse path) in
      let old_table = Annotator.annotate nfa root in
      let bound = (512 * spine) + (2 * children) + (8 * Annotator.annotated_count old_table) in
      let before = Gc.minor_words () in
      let repaired = Annotator.repair nfa ~old_table ~spine:diff.Apply.spine root' in
      let words = int_of_float (Gc.minor_words () -. before) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d minor words <= %d" path words bound)
        true (words <= bound);
      match repaired with
      | Some (repaired, st) ->
        Alcotest.(check bool) (path ^ ": re-keyed iff no leaf is named") rekeyed
          st.Annotator.rekeyed;
        Alcotest.(check bool) (path ^ ": repaired = annotated") true
          (tables_equivalent nfa repaired (Annotator.annotate nfa root') root')
      | None -> Alcotest.fail "repair unexpectedly degenerate")
    [ ({|site/people/person[@id = "p1"]|}, true);
      ({|site/open_auctions/open_auction[@id = "a7"]/bidder|}, true) ]

(* The marker insert of the mixed read/write workload on XMark f=0.01,
   repaired across the ten warm Fig. 11 plans: no plan can observe an
   inserted [xut_bench_promo], so each re-keys its table, and the whole
   repair allocates little: the footprint and an overlay of the moved
   entries per plan (100.5 kw when U7, U8 and U10 re-evaluated their
   120 rebuilt open_auction entries). *)
let test_plan_cache_repair_marker_alloc () =
  let root = Xut_xmark.Generator.generate ~seed:1L ~factor:0.01 () in
  let cache = Plan_cache.create ~capacity:16 in
  List.iter
    (fun p ->
      let plan, _ = Plan_cache.find_or_compile cache (Test_schema.delete_q p) in
      ignore (Plan_cache.annotation plan root))
    Test_schema.fig11;
  match Apply.run (updates marker_in) root with
  | Ok (_, Some (root', diff)) ->
    let before = Gc.minor_words () in
    let totals =
      Plan_cache.repair cache ~old_root_id:(Node.id root) ~spine:diff.Apply.spine root'
    in
    let words = int_of_float (Gc.minor_words () -. before) in
    Alcotest.(check int) "ten plans repaired" 10 totals.Plan_cache.repaired;
    Alcotest.(check int) "the six with qualifiers re-keyed" 6 totals.Plan_cache.rekeyed;
    Alcotest.(check bool) (Printf.sprintf "%d minor words <= 40k" words) true (words <= 40_000)
  | _ -> Alcotest.fail "marker insert did not materialize"

(* A spine node whose qualifier reads its own text: text inserted
   through the API (the query syntax only inserts elements) must make
   repair evaluate the node afresh rather than keep its old entry.  The
   commit inserts no labelled material, so only the compared label on
   its spine tells the plan it can observe it: a re-key would keep the
   stale [false]. *)
let test_repair_text_edit () =
  List.iter
    (fun (doc, plan, target) ->
      let root = Dom.parse_string doc in
      let nfa = Selecting_nfa.of_path (Xut_xpath.Parser.parse plan) in
      let old_table = Annotator.annotate nfa root in
      let insert = Core.Transform_ast.Insert (Xut_xpath.Parser.parse target, Node.text "9") in
      match Apply.run [ insert ] root with
      | Ok (_, Some (root', diff)) -> (
        match Annotator.repair nfa ~old_table ~spine:diff.Apply.spine root' with
        | Some (repaired, st) ->
          Alcotest.(check bool) (plan ^ ": not re-keyed") false st.Annotator.rekeyed;
          Alcotest.(check bool) (plan ^ ": the comparison turns true") true
            (tables_equivalent nfa repaired (Annotator.annotate nfa root') root')
        | None -> Alcotest.fail "repair unexpectedly degenerate")
      | _ -> Alcotest.fail "text insert did not materialize")
    [ ("<site><items><item><price>1</price></item></items></site>", "site/items/item[price > 5]",
       "site/items/item/price");
      ("<r><a><b>3</b></a></r>", "r/a[b > 5]", "r/a/b") ]

(* ---- degenerate diff: document element replaced ---- *)

let test_repair_degenerate_root_swap () =
  let root = Dom.parse_string "<site><items><item><price>9</price></item></items></site>" in
  let nfa = Selecting_nfa.of_path (Xut_xpath.Parser.parse "items/item[price]") in
  let old_table = Annotator.annotate nfa root in
  match Apply.run (updates "replace $a with <fresh><items/></fresh>") root with
  | Ok (_, Some (root', diff)) ->
    Alcotest.(check bool) "new root is not in the spine map" true
      (not (Hashtbl.mem diff.Apply.spine (Node.id root')));
    (match Annotator.repair nfa ~old_table ~spine:diff.Apply.spine root' with
    | None -> ()
    | Some _ -> Alcotest.fail "root replacement must be degenerate")
  | _ -> Alcotest.fail "root replacement did not materialize"

(* ---- plan cache: repair keeps the old root's table addressable ---- *)

let cache_doc_xml =
  {|<site><items><item><name>kettle</name><price>12</price></item><item><name>lamp</name><price>3</price></item></items></site>|}

let cache_query =
  {|transform copy $a := doc("d") modify do delete $a/site/items/item[price > 5]/name return $a|}

let test_plan_cache_repair_keeps_old_table () =
  let root = Dom.parse_string cache_doc_xml in
  let cache = Plan_cache.create ~capacity:8 in
  let plan, _ = Plan_cache.find_or_compile cache cache_query in
  let old_table = Plan_cache.annotation plan root in
  match Apply.run (updates "insert <item><price>7</price></item> into $a/site/items") root with
  | Ok (_, Some (root', diff)) ->
    let totals =
      Plan_cache.repair cache ~old_root_id:(Node.id root) ~spine:diff.Apply.spine root'
    in
    Alcotest.(check int) "one plan repaired" 1 totals.Plan_cache.repaired;
    Alcotest.(check int) "no fallbacks" 0 totals.Plan_cache.fallbacks;
    (* a reader still holding the pre-commit snapshot resolves the very
       same table — no eviction, no rebuild *)
    Alcotest.(check bool) "old root's table still addressable" true
      (Plan_cache.annotation plan root == old_table);
    (* and the new root's table was memoized by the repair (an
       [annotation] call now hits, and its entries match from-scratch) *)
    Alcotest.(check int) "both tables memoized" 2 (Plan_cache.annotation_entries cache);
    let repaired = Plan_cache.annotation plan root' in
    Alcotest.(check bool) "repaired table matches from-scratch" true
      (tables_equivalent plan.Plan_cache.nfa repaired
         (Annotator.annotate plan.Plan_cache.nfa root')
         root')
  | _ -> Alcotest.fail "commit did not materialize"

(* ---- service level: readers racing commit+repair ---- *)

let with_doc_file xml f =
  let path = Filename.temp_file "xut_repair_test" ".xml" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc xml);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let with_service ?(domains = 1) f =
  let svc = Service.create ~domains () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) (fun () -> f svc)

let load_doc svc path =
  match Service.call svc (Service.Load { name = "d"; file = path; schema = None }) with
  | Service.Ok (Service.Doc_loaded _) -> ()
  | _ -> Alcotest.fail "load failed"

let mix_xml = "<root><m1><v>0</v></m1><m2><v>0</v></m2></root>"

(* Identity TD-BU read whose path carries a qualifier, so every request
   demands an annotation table and every commit exercises repair. *)
let read_query =
  {|transform copy $a := doc("d") modify do delete $a/root/m1[zz]/none return $a|}

let value_between s opening closing =
  let n = String.length s and ol = String.length opening in
  let rec find i =
    if i + ol > n then None
    else if String.sub s i ol = opening then Some (i + ol)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let rec upto i =
      if String.sub s i (String.length closing) = closing then i else upto (i + 1)
    in
    Some (String.sub s start (upto start - start))

(* PR 6's torn-snapshot race, now with repair in the commit path: every
   commit rewrites both cousins to the same stamp, readers in flight
   across the commit must see matching stamps (whole old or whole new
   snapshot), and the steady-state write load must be served by repairs
   — zero fallbacks. *)
let test_readers_race_repair () =
  with_doc_file mix_xml (fun path ->
      with_service ~domains:4 (fun svc ->
          load_doc svc path;
          let generation () = (Option.get (Doc_store.info (Service.store svc) "d")).generation in
          let gen0 = generation () in
          let expect, all = Fixtures.replies () in
          for k = 1 to 12 do
            for _ = 1 to 3 do
              Service.submit svc
                (Service.Transform
                   { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = read_query })
                (expect ())
            done;
            let q =
              Printf.sprintf
                "(replace $a/root/m1/v with <v>%d</v>, replace $a/root/m2/v with <v>%d</v>)"
                k k
            in
            match Service.call svc (Service.Commit { doc = "d"; query = q }) with
            | Service.Ok (Service.Committed _) -> ()
            | _ -> Alcotest.fail "commit failed"
          done;
          List.iter
            (function
              | Service.Ok (Service.Tree s) ->
                let m1 = Option.get (value_between s "<m1><v>" "</v></m1>") in
                let m2 = Option.get (value_between s "<m2><v>" "</v></m2>") in
                Alcotest.(check string) "no torn snapshot" m1 m2
              | _ -> Alcotest.fail "reader failed")
            (all ());
          let m = Service.metrics svc in
          Alcotest.(check int) "all commits effective" 12 (Metrics.commits m);
          Alcotest.(check int) "generation in lockstep with commits" 12 (generation () - gen0);
          Alcotest.(check bool) "commits were served by repairs" true
            (Metrics.annotation_repairs m > 0);
          Alcotest.(check int) "no repair fell back to eviction" 0
            (Metrics.repair_fallbacks m);
          (* repaired tables of departed roots stay addressable for
             in-flight readers until the per-plan LRU ages them out *)
          Alcotest.(check bool) "annotation tables bounded by the per-plan LRU" true
            ((Service.cache_stats svc).annotation_entries <= 8)))

(* A root-replacing commit through the service must take the fallback
   path: the table is evicted (counted as an invalidation), reads keep
   answering correctly against a fresh annotation. *)
let test_service_fallback_on_root_swap () =
  with_doc_file mix_xml (fun path ->
      with_service (fun svc ->
          load_doc svc path;
          let read () =
            match
              Service.call svc
                (Service.Transform
                   { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = read_query })
            with
            | Service.Ok (Service.Tree s) -> s
            | _ -> Alcotest.fail "read failed"
          in
          ignore (read ());
          (match
             Service.call svc
               (Service.Commit
                  { doc = "d"; query = "replace $a with <root><m1><v>9</v></m1></root>" })
           with
          | Service.Ok (Service.Committed _) -> ()
          | _ -> Alcotest.fail "commit failed");
          let m = Service.metrics svc in
          Alcotest.(check int) "fallback counted" 1 (Metrics.repair_fallbacks m);
          Alcotest.(check int) "no repair counted" 0 (Metrics.annotation_repairs m);
          Alcotest.(check string) "reads see the swapped tree" "<root><m1><v>9</v></m1></root>"
            (read ())))

(* ---- the traffic a re-key serves ----

   The mixed read/write workload's steady state through the service, on
   XMark f=0.01 (seed 1): all ten Fig. 11 plans read as Doc TRANSFORMs
   and both of its depth-2 view chains read, then alternating marker
   commits.  No plan can observe the marker, so each commit re-keys the
   six tables with qualifiers and annotates nothing: a footprint change
   that pushes the marker off the re-key fails here before it shows as
   a slower workload. *)
let mixed_rw_views =
  let def base p =
    Printf.sprintf {|transform copy $a := doc("%s") modify do delete $a/%s return $a|} base p
  in
  [ ("v0_0", def "d" "site/regions//item/mailbox");
    ("v0", def "v0_0" "site/people/person/watches");
    ("v1_0", def "d" "site/people/person/watches");
    ("v1", def "v1_0" "site/open_auctions/open_auction/bidder") ]

let test_marker_commits_rekey () =
  let path = Filename.temp_file "xut_repair_marker" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Xut_xmark.Generator.to_file ~seed:1L ~factor:0.01 path;
      with_service (fun svc ->
          load_doc svc path;
          let call what req =
            match Service.call svc req with
            | Service.Ok _ -> ()
            | Service.Error { message; _ } -> Alcotest.fail (what ^ ": " ^ message)
          in
          let read target query =
            call query (Service.Transform { target; engine = Core.Engine.Td_bu; query })
          in
          List.iter (fun (name, query) -> call name (Service.Defview { name; query })) mixed_rw_views;
          List.iter (fun p -> read (Service.Doc "d") (Test_schema.delete_q p)) Test_schema.fig11;
          List.iter
            (fun v -> read (Service.View v) "for $x in site/people/person return $x/name")
            [ "v0"; "v1" ];
          let counts () =
            List.map
              (Fixtures.stat (Service.metrics svc))
              [ "repair_rekeyed"; "repair_recomputed_nodes"; "repair_fallbacks" ]
          in
          for i = 0 to 3 do
            let commit = if i mod 2 = 0 then marker_in else marker_out in
            let before = counts () in
            call commit (Service.Commit { doc = "d"; query = commit });
            Alcotest.(check (list int))
              (Printf.sprintf "commit %d (%s): re-keys, entries annotated, fallbacks" i commit)
              [ 6; 0; 0 ]
              (List.map2 ( - ) (counts ()) before)
          done))

(* ---- the truth table against the direct evaluator ---- *)

(* [gen_path] plans over random documents, each with a chain of commits
   biased towards ones the plan cannot observe, so both kinds of repair
   are taken; [rekey_chain ~check:checkp_agrees] checks every table. *)
let gen_truth_chain =
  QCheck2.Gen.(
    triple Test_properties.gen_root Test_properties.gen_path
      (list_size (int_range 1 4) gen_biased_update))

let prop_checkp_equals_direct =
  QCheck2.Test.make ~name:"table checkp = direct checkp (annotate, repair, re-key)" ~count:500
    gen_truth_chain
    (fun case -> Option.is_some (rekey_chain ~check:checkp_agrees case))

(* The property compares pairs, through both kinds of repair: on a fixed
   seed every chain holds, and each kind is taken. *)
let test_checkp_coverage () =
  let rand = Random.State.make [| 53 |] and pairs = ref 0 in
  let rekeyed, evaluated =
    List.fold_left
      (fun (r, e) case ->
        match rekey_chain ~check:(checkp_agrees ~pairs) case with
        | Some (r', e') -> (r + r', e + e')
        | None -> Alcotest.fail "a table's checkp differs from the direct evaluator")
      (0, 0)
      (QCheck2.Gen.generate ~rand ~n:600 gen_truth_chain)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d pairs, %d re-keyed and %d annotated repairs" !pairs rekeyed evaluated)
    true
    (!pairs > 1000 && rekeyed > 0 && evaluated > 0)

(* A plan of more than 62 LQ expressions stores each entry in several
   words.  The chain document's level [d] holds [<c>d</c>]; step [i] of
   the path asks [c = "i"], true on the chain, or, every third step,
   [c = "x"], false, so the truths are a mix of both. *)
let test_checkp_wide_entries () =
  let root =
    let rec build d =
      let name = if d mod 2 = 0 then "a" else "b" in
      let kids = [ Node.elem "c" [ Node.text (string_of_int d) ] ] in
      let kids = if d + 1 < chain_depth then kids @ [ Node.Element (build (d + 1)) ] else kids in
      Node.element name kids
    in
    build 0
  in
  let path =
    String.concat "/"
      (List.init 40 (fun i ->
           Printf.sprintf "%s[c = \"%s\"]" (if i mod 2 = 0 then "a" else "b")
             (if i mod 3 = 0 then "x" else string_of_int i)))
  in
  let nfa = Selecting_nfa.of_path (Xut_xpath.Parser.parse path) in
  Alcotest.(check bool) "more than 62 LQ expressions" true
    (Xut_xpath.Lq.length (Selecting_nfa.lq nfa) > 62);
  let table = Annotator.annotate nfa root and pairs = ref 0 in
  Alcotest.(check bool) "checkp = direct" true (checkp_agrees ~pairs nfa table root);
  Alcotest.(check bool) (Printf.sprintf "%d pairs" !pairs) true (!pairs >= 40);
  (* the commit inserts a plan label: the new root is annotated *)
  let root', diff =
    match Apply.run (updates "insert <c>0</c> into $a/a/b/a") root with
    | Ok (_, Some (root', diff)) -> (root', diff)
    | _ -> Alcotest.fail "commit"
  in
  match Annotator.repair nfa ~old_table:table ~spine:diff.Apply.spine root' with
  | Some (repaired, _) ->
    Alcotest.(check bool) "repaired checkp = direct" true (checkp_agrees nfa repaired root');
    Alcotest.(check bool) "repaired = annotate" true
      (tables_equivalent nfa repaired (Annotator.annotate nfa root') root')
  | None -> Alcotest.fail "repair"

(* A table large enough to grow many times, with entries whose probe
   wraps past the end of the array; a commit then deletes every other
   [a], and the new root's table must answer as the direct evaluator.
   Slots follow element ids, which depend on what was built before, so
   fresh documents are drawn until one table wraps. *)
let test_checkp_wrapping_probe () =
  let nfa = Selecting_nfa.of_path (Xut_xpath.Parser.parse "r/a[c = \"1\"]/d") in
  let rand = Random.State.make [| 7 |] in
  let doc () =
    Node.element "r"
      (List.init 600 (fun i ->
           (* a random number of fillers spreads the ids irregularly *)
           let fill = List.init (Random.State.int rand 4) (fun _ -> Node.elem "z" []) in
           Node.elem "a" (fill @ [ Node.elem "c" [ Node.text (string_of_int (i mod 2)) ] ])))
  in
  let rec draw k =
    let root = doc () in
    let table = Annotator.annotate nfa root in
    if Annotator.wrapped table > 0 then (root, table)
    else if k = 0 then Alcotest.fail "no table wrapped"
    else draw (k - 1)
  in
  let root, table = draw 50 in
  Alcotest.(check int) "an entry per a and per c" 1200 (Annotator.annotated_count table);
  Alcotest.(check bool) "checkp = direct" true (checkp_agrees nfa table root);
  let root', diff =
    match Apply.run (updates "delete $a/r/a[c = \"0\"]") root with
    | Ok (_, Some (root', diff)) -> (root', diff)
    | _ -> Alcotest.fail "commit"
  in
  match Annotator.repair nfa ~old_table:table ~spine:diff.Apply.spine root' with
  | Some (repaired, _) ->
    Alcotest.(check bool) "repaired checkp = direct" true (checkp_agrees nfa repaired root');
    Alcotest.(check bool) "repaired = annotate" true
      (tables_equivalent nfa repaired (Annotator.annotate nfa root') root')
  | None -> Alcotest.fail "repair"

let suite =
  [
    QCheck_alcotest.to_alcotest prop_repair_equals_annotate;
    QCheck_alcotest.to_alcotest prop_repair_compounds;
    QCheck_alcotest.to_alcotest prop_rekey_equals_annotate;
    Alcotest.test_case "re-key coverage on a fixed seed" `Quick test_rekey_coverage;
    Alcotest.test_case "repair across a >62-state NFA" `Quick test_repair_wide_nfa;
    Alcotest.test_case "degenerate diff on root replacement" `Quick
      test_repair_degenerate_root_swap;
    Alcotest.test_case "plan-cache repair keeps old table addressable" `Quick
      test_plan_cache_repair_keeps_old_table;
    Alcotest.test_case "readers race commit+repair" `Quick test_readers_race_repair;
    Alcotest.test_case "service fallback on root replacement" `Quick
      test_service_fallback_on_root_swap;
    Alcotest.test_case "marker commits re-key every warm table" `Quick test_marker_commits_rekey;
    Alcotest.test_case "repair across XMark-shaped commits" `Quick test_repair_xmark_commits;
    Alcotest.test_case "repair work bounded by the spine" `Quick test_repair_bounded_by_spine;
    Alcotest.test_case "repair re-evaluates a text edit" `Quick test_repair_text_edit;
    Alcotest.test_case "marker insert repair allocation" `Quick test_plan_cache_repair_marker_alloc;
    QCheck_alcotest.to_alcotest prop_checkp_equals_direct;
    Alcotest.test_case "table checkp coverage on a fixed seed" `Quick test_checkp_coverage;
    Alcotest.test_case "table checkp over >62 LQ expressions" `Quick test_checkp_wide_entries;
    Alcotest.test_case "table checkp across a wrapping probe" `Quick test_checkp_wrapping_probe;
    Alcotest.test_case "re-key chains answer as annotate" `Quick test_rekey_overlay_chain;
    Alcotest.test_case "re-key chains flatten past their bound" `Quick test_rekey_overlay_flattens;
  ]
