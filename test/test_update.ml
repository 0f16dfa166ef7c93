(* The write path: pending-list merging, MVCC materialization, and
   APPLY/COMMIT at the service layer. *)

open Xut_xml
module Pending = Xut_update.Pending
module Apply = Xut_update.Apply
module Service = Xut_service.Service
module Doc_store = Xut_service.Doc_store
module Metrics = Xut_service.Metrics

let doc_xml =
  {|<site><people><person id="p1"><name>Alice</name><age>30</age></person><person id="p2"><name>Bob</name><age>17</age></person></people><items><item><name>kettle</name><price>12</price></item><item><name>lamp</name><price>40</price></item></items></site>|}

let root () = Dom.parse_string doc_xml
let ser = Serialize.element_to_string
let updates = Core.Transform_parser.parse_updates
let el name = Node.elem name []

(* ---- merge hierarchy ---- *)

(* Build a pending list of primitives all on one target and normalize. *)
let norm1 ops =
  let t = Pending.create () in
  List.iter (fun op -> Pending.add t ~target:7 op) ops;
  (Pending.added t, Pending.normalize t)

let check_counts what added (nz : Pending.normalized) ~primitives ~collapsed ~conflicts =
  Alcotest.(check int) (what ^ ": primitives") primitives nz.Pending.primitives;
  Alcotest.(check int) (what ^ ": collapsed") collapsed nz.Pending.collapsed;
  Alcotest.(check int) (what ^ ": conflicts") conflicts (List.length nz.Pending.conflicts);
  Alcotest.(check int)
    (what ^ ": added = primitives + collapsed + conflicts")
    added
    (nz.Pending.primitives + nz.Pending.collapsed + List.length nz.Pending.conflicts)

let resolved_of (nz : Pending.normalized) = Hashtbl.find nz.Pending.table 7

let test_delete_absorbs () =
  (* Delete wins regardless of submission order, and a second delete is
     idempotent. *)
  let added, nz = norm1 [ Pending.Rename "x"; Pending.Delete ] in
  check_counts "rename then delete" added nz ~primitives:1 ~collapsed:1 ~conflicts:0;
  Alcotest.(check bool) "dead" true (resolved_of nz = Pending.Dead);
  let added, nz = norm1 [ Pending.Delete; Pending.Rename "x" ] in
  check_counts "delete then rename" added nz ~primitives:1 ~collapsed:1 ~conflicts:0;
  Alcotest.(check bool) "dead either order" true (resolved_of nz = Pending.Dead);
  let added, nz = norm1 [ Pending.Replace (el "y"); Pending.Delete ] in
  check_counts "replace then delete" added nz ~primitives:1 ~collapsed:1 ~conflicts:0;
  Alcotest.(check bool) "replace absorbed" true (resolved_of nz = Pending.Dead);
  let added, nz = norm1 [ Pending.Delete; Pending.Delete ] in
  check_counts "double delete" added nz ~primitives:1 ~collapsed:1 ~conflicts:0;
  (* the collapsing weight: a delete absorbs every prior edit at once *)
  let added, nz =
    norm1 [ Pending.Rename "x"; Pending.Insert (el "k"); Pending.Insert_first (el "j"); Pending.Delete ]
  in
  check_counts "edits then delete" added nz ~primitives:1 ~collapsed:3 ~conflicts:0;
  Alcotest.(check bool) "all edits absorbed" true (resolved_of nz = Pending.Dead)

let test_replace_absorbs_edits () =
  let added, nz =
    norm1 [ Pending.Rename "x"; Pending.Insert (el "k"); Pending.Replace (el "y") ]
  in
  check_counts "edits then replace" added nz ~primitives:1 ~collapsed:2 ~conflicts:0;
  (match resolved_of nz with
  | Pending.Swap n -> Alcotest.(check bool) "swap content" true (Node.equal n (el "y"))
  | _ -> Alcotest.fail "expected Swap");
  let added, nz =
    norm1 [ Pending.Replace (el "y"); Pending.Rename "x"; Pending.Insert_first (el "j") ]
  in
  check_counts "replace then edits" added nz ~primitives:1 ~collapsed:2 ~conflicts:0;
  match resolved_of nz with
  | Pending.Swap _ -> ()
  | _ -> Alcotest.fail "expected Swap either order"

let test_two_replaces_conflict () =
  let added, nz = norm1 [ Pending.Replace (el "y"); Pending.Replace (el "z") ] in
  check_counts "two replaces" added nz ~primitives:1 ~collapsed:0 ~conflicts:1;
  let c = List.hd nz.Pending.conflicts in
  Alcotest.(check int) "conflict target" 7 c.Pending.target;
  Alcotest.(check bool) "first submission kept" true
    (String.length c.Pending.kept > 0
    && String.length (Pending.render_conflict c) > 0
    && c.Pending.kept <> c.Pending.dropped);
  (* the first-submitted replace stays in force *)
  match resolved_of nz with
  | Pending.Swap n -> Alcotest.(check bool) "kept first replace" true (Node.equal n (el "y"))
  | _ -> Alcotest.fail "expected Swap"

let test_rename_merge () =
  let added, nz = norm1 [ Pending.Rename "x"; Pending.Rename "x" ] in
  check_counts "identical renames merge" added nz ~primitives:1 ~collapsed:1 ~conflicts:0;
  (match resolved_of nz with
  | Pending.Edit { rename = Some "x"; _ } -> ()
  | _ -> Alcotest.fail "expected Edit with rename");
  let added, nz = norm1 [ Pending.Rename "x"; Pending.Rename "w" ] in
  check_counts "different renames conflict" added nz ~primitives:1 ~collapsed:0 ~conflicts:1;
  match resolved_of nz with
  | Pending.Edit { rename = Some "x"; _ } -> ()
  | _ -> Alcotest.fail "first rename kept"

let test_insert_ordering () =
  let added, nz =
    norm1
      [
        Pending.Insert (el "a");
        Pending.Insert_first (el "b");
        Pending.Insert (el "c");
        Pending.Insert_first (el "d");
        Pending.Rename "r";
      ]
  in
  check_counts "inserts accumulate" added nz ~primitives:5 ~collapsed:0 ~conflicts:0;
  match resolved_of nz with
  | Pending.Edit { rename = Some "r"; firsts; lasts } ->
      Alcotest.(check (list string))
        "firsts in submission order" [ "b"; "d" ]
        (List.map (function Node.Element e -> Node.name e | _ -> "?") firsts);
      Alcotest.(check (list string))
        "lasts in submission order" [ "a"; "c" ]
        (List.map (function Node.Element e -> Node.name e | _ -> "?") lasts)
  | _ -> Alcotest.fail "expected Edit"

(* ---- apply engine ---- *)

let run_ok us r =
  match Apply.run us r with
  | Ok (report, tree) -> (report, Option.map fst tree)
  | Error _ -> Alcotest.fail "unexpected conflict"

let test_snapshot_semantics () =
  (* Both updates resolve against the one snapshot: the insert finds
     people even though the rename has already retargeted it.  The
     sequential semantics of a compound transform query (a left-to-right
     fold of single-update transforms) finds nothing at $a/site/people
     after the rename. *)
  let us = updates "(rename $a/site/people as folks, insert <x/> into $a/site/people)" in
  let _, tree = run_ok us (root ()) in
  let snapshot = ser (Option.get tree) in
  Alcotest.(check bool) "renamed" true (String.length snapshot > 0);
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "insert landed inside the renamed node" true
    (contains snapshot "<x/></folks>");
  let sequential =
    ser
      (List.fold_left
         (fun acc u -> Core.Engine.transform Core.Engine.Reference u acc)
         (root ()) us)
  in
  Alcotest.(check bool) "sequential semantics misses the insert" false
    (contains sequential "<x/>");
  Alcotest.(check bool) "the two disciplines differ" true (snapshot <> sequential)

let find_el r name =
  let found = ref None in
  Node.iter_elements (fun e -> if Node.name e = name && !found = None then found := Some e) r;
  Option.get !found

let test_physical_sharing () =
  let old_root = root () in
  let _, tree = run_ok (updates "rename $a/site/people as folks") old_root in
  let new_root = Option.get tree in
  Alcotest.(check bool) "root id changed" true (Node.id new_root <> Node.id old_root);
  Alcotest.(check bool) "untouched subtree is physically shared" true
    (find_el new_root "items" == find_el old_root "items");
  Alcotest.(check bool) "touched spine is fresh" true
    (Node.id (find_el new_root "folks") <> Node.id (find_el old_root "people"))

let test_empty_pending () =
  let report, tree = run_ok (updates "delete $a/site/nothing_here") (root ()) in
  Alcotest.(check int) "no primitives" 0 report.Apply.primitives;
  Alcotest.(check bool) "no new tree" true (tree = None)

let test_root_guards () =
  (match Apply.run (updates "delete $a") (root ()) with
  | exception Apply.Invalid _ -> ()
  | _ -> Alcotest.fail "deleting the document element must be Invalid");
  (* replacing the root with a non-element is inexpressible in the query
     syntax; exercise the guard through the primitive API *)
  let r = root () in
  let t = Pending.create () in
  Pending.add t ~target:(Node.id r) (Pending.Replace (Node.text "loose"));
  (match Apply.materialize (Pending.normalize t) r with
  | exception Apply.Invalid _ -> ()
  | _ -> Alcotest.fail "non-element root replacement must be Invalid");
  (* replacing the root with an element is fine *)
  let _, tree = run_ok (updates "replace $a with <fresh/>") (root ()) in
  Alcotest.(check string) "root swapped" "<fresh/>" (ser (Option.get tree))

let test_nested_subsumption () =
  (* A primitive inside a deleted subtree is subsumed, matching what the
     reference engine produces for the outer delete alone. *)
  let us = updates "(delete $a/site/people, rename $a/site/people/person as ghost)" in
  let report, tree = run_ok us (root ()) in
  Alcotest.(check int) "both primitives survive the merge (different targets)" 3
    report.Apply.primitives;
  let expected =
    ser (Core.Engine.transform Core.Engine.Reference (List.hd (updates "delete $a/site/people")) (root ()))
  in
  Alcotest.(check string) "nested rename subsumed" expected (ser (Option.get tree))

(* Single-update materialization agrees byte-for-byte with the reference
   engine. *)
let single_update_pool =
  [
    "delete $a/site/people/person/age";
    "delete $a//name";
    "rename $a/site/items/item as product";
    "insert <tag>new</tag> into $a/site/items";
    "insert <head/> as first into $a/site/people";
    "replace $a/site/items/item/price with <price>0</price>";
    "replace $a/site/people/person with <person><name>C</name></person>";
    "delete $a/site/absent";
  ]

let test_qcheck_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"materialize agrees with the reference engine" ~count:60
       (QCheck.oneofl single_update_pool)
       (fun q ->
         let u = List.hd (updates q) in
         let r = root () in
         let expected = ser (Core.Engine.transform Core.Engine.Reference u r) in
         let got =
           match run_ok [ u ] r with _, Some r' -> ser r' | _, None -> ser r
         in
         String.equal expected got))

(* ---- service integration ---- *)

let with_doc_file ?(xml = doc_xml) f =
  let path = Filename.temp_file "xut_update_test" ".xml" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc xml);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let with_service ?(domains = 1) f =
  let svc = Service.create ~domains () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) (fun () -> f svc)

let load_doc svc path =
  match Service.call svc (Service.Load { name = "d"; file = path; schema = None }) with
  | Service.Ok (Service.Doc_loaded _) -> ()
  | _ -> Alcotest.fail "load failed"

let generation svc = (Option.get (Doc_store.info (Service.store svc) "d")).Doc_store.generation

let tree_of svc query =
  match Service.call svc (Service.Transform { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query }) with
  | Service.Ok (Service.Tree s) -> s
  | _ -> Alcotest.fail "transform failed"

let identity_query = {|transform copy $a := doc("d") modify do delete $a/zzz return $a|}

let test_apply_dry_run () =
  with_doc_file (fun path ->
      with_service (fun svc ->
          load_doc svc path;
          let before = tree_of svc identity_query in
          let g0 = generation svc in
          (match Service.call svc (Service.Apply { doc = "d"; query = "delete $a//price" }) with
          | Service.Ok (Service.Applied { doc = "d"; primitives = 2; collapsed = 0; conflicts = [] })
            -> ()
          | _ -> Alcotest.fail "unexpected apply reply");
          Alcotest.(check int) "generation untouched" g0 (generation svc);
          Alcotest.(check string) "document untouched" before (tree_of svc identity_query);
          Alcotest.(check int) "no commit counted" 0 (Metrics.commits (Service.metrics svc))))

let test_commit_swaps () =
  with_doc_file (fun path ->
      with_service (fun svc ->
          load_doc svc path;
          let events = ref [] in
          Service.on_invalidate svc (fun ev -> events := ev :: !events);
          (* warm the plan cache so the commit has annotations to evict *)
          ignore (tree_of svc identity_query);
          let g0 = generation svc in
          let expected =
            ser
              (Core.Engine.transform Core.Engine.Reference
                 (List.hd (updates "delete $a//price"))
                 (Dom.parse_string doc_xml))
          in
          (match Service.call svc (Service.Commit { doc = "d"; query = "delete $a//price" }) with
          | Service.Ok (Service.Committed { doc = "d"; primitives = 2; collapsed = 0; elements; generation }) ->
              Alcotest.(check int) "generation bumped by exactly one" (g0 + 1) generation;
              Alcotest.(check int) "element count of the new tree" 13 elements
          | _ -> Alcotest.fail "unexpected commit reply");
          Alcotest.(check int) "store generation advanced" (g0 + 1) (generation svc);
          (match !events with
          | [ ev ] ->
              Alcotest.(check string) "event names the doc" "d" ev.Doc_store.name;
              Alcotest.(check bool) "reason is Committed" true
                (ev.Doc_store.reason = Doc_store.Committed);
              Alcotest.(check int) "event carries the new generation" (g0 + 1)
                ev.Doc_store.generation
          | evs -> Alcotest.failf "expected exactly one event, got %d" (List.length evs));
          Alcotest.(check string) "reads now see the new snapshot" expected
            (tree_of svc identity_query);
          let m = Service.metrics svc in
          Alcotest.(check int) "one commit counted" 1 (Metrics.commits m);
          Alcotest.(check int) "pending histogram recorded it" 1
            (Fixtures.stat m "pending_primitives_count");
          Alcotest.(check int) "pending max" 2 (Fixtures.stat m "pending_primitives_max")))

let test_commit_conflict_rejected () =
  with_doc_file (fun path ->
      with_service (fun svc ->
          load_doc svc path;
          let events = ref 0 in
          Service.on_invalidate svc (fun _ -> incr events);
          let before = tree_of svc identity_query in
          let g0 = generation svc in
          let q = "(replace $a/site/items with <i1/>, replace $a/site/items with <i2/>)" in
          (match Service.call svc (Service.Commit { doc = "d"; query = q }) with
          | Service.Error { code = Service.Conflict; message } ->
              Alcotest.(check bool) "message names the clash" true
                (String.length message > 0)
          | _ -> Alcotest.fail "expected a conflict rejection");
          Alcotest.(check int) "nothing swapped" g0 (generation svc);
          Alcotest.(check int) "no event fired" 0 !events;
          Alcotest.(check string) "document untouched" before (tree_of svc identity_query);
          let m = Service.metrics svc in
          Alcotest.(check int) "conflict counted" 1 (Fixtures.stat m "commit_conflicts");
          Alcotest.(check int) "no commit counted" 0 (Metrics.commits m)))

let test_commit_noop () =
  with_doc_file (fun path ->
      with_service (fun svc ->
          load_doc svc path;
          let events = ref 0 in
          Service.on_invalidate svc (fun _ -> incr events);
          let g0 = generation svc in
          (match Service.call svc (Service.Commit { doc = "d"; query = "delete $a/site/nothing" }) with
          | Service.Ok (Service.Committed { primitives = 0; generation; _ }) ->
              Alcotest.(check int) "generation unchanged" g0 generation
          | _ -> Alcotest.fail "unexpected noop reply");
          Alcotest.(check int) "no event" 0 !events;
          let m = Service.metrics svc in
          Alcotest.(check int) "noop counted" 1 (Metrics.commit_noops m);
          Alcotest.(check int) "not an effective commit" 0 (Metrics.commits m)))

let test_snapshot_isolation () =
  with_doc_file (fun path ->
      with_service (fun svc ->
          load_doc svc path;
          (* a reader takes the snapshot before the commit lands *)
          let old_root = Option.get (Doc_store.find (Service.store svc) "d") in
          let before = ser old_root in
          (match Service.call svc (Service.Commit { doc = "d"; query = "delete $a//age" }) with
          | Service.Ok (Service.Committed _) -> ()
          | _ -> Alcotest.fail "commit failed");
          let new_root = Option.get (Doc_store.find (Service.store svc) "d") in
          Alcotest.(check bool) "the binding moved" true (Node.id new_root <> Node.id old_root);
          Alcotest.(check string) "the held snapshot still reads pre-commit bytes" before
            (ser old_root);
          Alcotest.(check bool) "untouched subtree shared across the commit" true
            (find_el new_root "items" == find_el old_root "items")))

(* The acceptance interleaving test: concurrent readers racing commits
   must observe either the full old or the full new snapshot, never a
   mix.  Every commit rewrites two cousins to the same version stamp, so
   a torn read would show m1 <> m2. *)
let mix_xml = "<root><m1>0</m1><m2>0</m2></root>"

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
      let rec upto i = if String.sub s i (String.length closing) = closing then i else upto (i + 1) in
      Some (String.sub s start (upto start - start))

let test_interleaved_readers () =
  with_doc_file ~xml:mix_xml (fun path ->
      with_service ~domains:4 (fun svc ->
          load_doc svc path;
          let expect, all = Fixtures.replies () in
          for k = 1 to 12 do
            (* several reads in flight around every commit *)
            for _ = 1 to 3 do
              Service.submit svc
                (Service.Transform
                   { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = identity_query })
                (expect ())
            done;
            let q =
              Printf.sprintf "(replace $a/root/m1 with <m1>%d</m1>, replace $a/root/m2 with <m2>%d</m2>)"
                k k
            in
            match Service.call svc (Service.Commit { doc = "d"; query = q }) with
            | Service.Ok (Service.Committed { generation; _ }) ->
                Alcotest.(check int) "generations strictly increase" (k + 1) generation
            | _ -> Alcotest.fail "commit failed"
          done;
          List.iter
            (function
              | Service.Ok (Service.Tree s) ->
                  let m1 = Option.get (value_between s "<m1>" "</m1>") in
                  let m2 = Option.get (value_between s "<m2>" "</m2>") in
                  Alcotest.(check string) "no torn snapshot" m1 m2
              | _ -> Alcotest.fail "reader failed")
            (all ());
          Alcotest.(check int) "all commits effective" 12
            (Metrics.commits (Service.metrics svc))))

(* COMMIT then an identity TRANSFORM is byte-identical to the original
   TRANSFORM of the same update — the materialized write agrees with the
   read path — and the element count the COMMIT reports (derived from
   the diff, not recounted) is the new tree's. *)
let test_qcheck_commit_vs_transform =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"COMMIT then identity TRANSFORM matches TRANSFORM" ~count:25
       (QCheck.oneofl single_update_pool)
       (fun q ->
         with_doc_file (fun path ->
             with_service (fun svc ->
                 load_doc svc path;
                 let full =
                   Printf.sprintf {|transform copy $a := doc("d") modify do %s return $a|} q
                 in
                 let read_reply = tree_of svc full in
                 let elements =
                   match Service.call svc (Service.Commit { doc = "d"; query = q }) with
                   | Service.Ok (Service.Committed { elements; _ }) -> elements
                   | _ -> Alcotest.fail "commit failed"
                 in
                 let store = Service.store svc in
                 let root' = Option.get (Doc_store.find store "d") in
                 let count = Node.element_count (Node.Element root') in
                 elements = count
                 && (Option.get (Doc_store.info store "d")).Doc_store.elements = count
                 && String.equal read_reply (tree_of svc identity_query)))))

(* The materialize walk allocates along the rebuilt spine only: the
   marker insert/delete pair of the mixed read/write workload on XMark
   f=0.01 (a spine through every open_auction of ~14.7k elements) costs
   a bounded number of minor words per spine node, fresh content and the
   spine map included (85 and 99 words measured) — a closure or list
   cell per visited element exceeds the bound many times over. *)
let test_materialize_alloc_bounded_by_spine () =
  let commit root q =
    let report, nz = Apply.stage (Apply.plan (updates q)) root in
    Alcotest.(check int) (q ^ ": no conflicts") 0 (List.length report.Apply.conflicts);
    let before = Gc.minor_words () in
    let result = Apply.materialize nz root in
    let words = int_of_float (Gc.minor_words () -. before) in
    match result with
    | None -> Alcotest.failf "%s: nothing materialized" q
    | Some (root', diff) ->
      let spine = Hashtbl.length diff.Apply.spine in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d minor words <= 112 * %d spine nodes" q words spine)
        true
        (words <= 112 * spine);
      Alcotest.(check string) (q ^ ": = reference")
        (ser (Core.Engine.transform Core.Engine.Reference (List.hd (updates q)) root))
        (ser root');
      root'
  in
  let root = Xut_xmark.Generator.generate ~seed:1L ~factor:0.01 () in
  let root =
    commit root "insert <xut_bench_promo>p</xut_bench_promo> into $a/site/open_auctions/open_auction"
  in
  ignore (commit root "delete $a//xut_bench_promo")

(* A one-target COMMIT costs its spine, not the document: resolving and
   rebuilding the rename of one person (spine site/people/person) enter
   at most 4 elements per spine node or child of one, at two document
   sizes.  Before the walks stopped at empty state sets and unmarked
   elements, each half entered every element of the document. *)
let test_commit_visits_bounded_by_spine () =
  List.iter
    (fun factor ->
      let root = Xut_xmark.Generator.generate ~seed:1L ~factor () in
      let there_and_back =
        [ {|rename $a/site/people/person[@id = "person0"] as guest|};
          {|rename $a/site/people/guest[@id = "person0"] as person|} ]
      in
      ignore
        (List.fold_left
           (fun root q ->
             let v0 = Counter.value Core.Stats.nodes_visited in
             match Apply.run (updates q) root with
             | Ok (_, Some (root', diff)) ->
               let visited = Counter.value Core.Stats.nodes_visited - v0 in
               let extent = Fixtures.spine_extent diff.Apply.spine root' in
               Alcotest.(check bool)
                 (Printf.sprintf "f=%g %s: %d visits <= 4 * %d" factor q visited extent)
                 true
                 (visited <= 4 * extent);
               root'
             | _ -> Alcotest.failf "f=%g %s: no commit" factor q)
           root there_and_back))
    [ 0.01; 0.04 ]

(* Label summaries prune [//] walks without a schema: on XMark f=0.01
   (seed 1), topDown's count and run of U5 and of U10, and the marker
   delete's resolve after the marker insert, enter exactly the elements
   whose summary holds the final label's bit.  Under each [//] the state set
   never empties, so that recount from the tree is the whole walk.
   Symbol ids are process-wide, so whether another name of the document
   shares that bit depends on what was interned first; only when none
   does are the counts pinned as well: 1 121, 310 and 467, where only an
   empty state set stopped the walks at 9 599, 14 208 and 14 876 (every
   element under the [//]).  U5's 1 121 are the elements with a
   description at or below them. *)
let test_summaries_prune_visits () =
  let root = Xut_xmark.Generator.generate ~seed:1L ~factor:0.01 () in
  let visits what path pin f root =
    let mask = Xut_automata.Selecting_nfa.label_mask (Xut_automata.Selecting_nfa.of_path path) in
    let with_bit = ref 0 and names = Hashtbl.create 4 in
    let rec walk (e : Node.element) =
      if Node.labels e land mask <> 0 then incr with_bit;
      if Node.label_bit (Node.sym e) = mask then Hashtbl.replace names (Node.sym e) ();
      List.iter (function Node.Element c -> walk c | _ -> ()) (Node.children e)
    in
    walk root;
    let v0 = Counter.value Core.Stats.nodes_visited in
    let r = f () in
    let visited = Counter.value Core.Stats.nodes_visited - v0 in
    Alcotest.(check int) (what ^ ": visits = elements with the bit") !with_bit visited;
    if Hashtbl.length names = 1 then Alcotest.(check int) (what ^ ": visits") pin visited;
    r
  in
  let count p pin =
    let path = Xut_xpath.Parser.parse p in
    let nfa = Xut_automata.Selecting_nfa.of_path path in
    let update = Core.Transform_ast.Delete path in
    let n = visits p path pin (fun () -> Core.Top_down.count nfa update root) root in
    let expected = Core.Engine.transform Core.Engine.Reference update root in
    Alcotest.(check int) (p ^ ": = reference") (Node.elements expected) n;
    let out = visits (p ^ " (run)") path pin (fun () -> Core.Top_down.run nfa update root) root in
    Alcotest.(check bool) (p ^ ": run = reference") true (Node.equal_element expected out)
  in
  count "/site//description" 1121;
  count "/site//open_auctions/open_auction[not(@id = \"open_auction2\")]/bidder[increase > 10]" 310;
  let marked =
    match
      Apply.run
        (updates "insert <xut_bench_promo>p</xut_bench_promo> into $a/site/open_auctions/open_auction")
        root
    with
    | Ok (_, Some (root', _)) -> root'
    | _ -> Alcotest.fail "marker insert"
  in
  let path = Core.Transform_ast.path (List.hd (updates "delete $a//xut_bench_promo")) in
  let got =
    visits "marker delete's resolve" path 467 (fun () -> Apply.select path marked) marked
  in
  Alcotest.(check (list int)) "resolve = Eval.select_doc"
    (List.map Node.id (Xut_xpath.Eval.select_doc marked path)) (List.map Node.id got)

(* A walk adds its counts to the domain's cells once, when it ends, so
   one that raises must add them on its way out: [count] and [run] of a
   root delete visit the document element and then raise, and a walk
   whose qualifier oracle fails part way adds the visits it made before
   the failure (some, and no more than the whole walk makes). *)
let test_raising_walks_count_visits () =
  let root = Xut_xmark.Generator.generate ~seed:1L ~factor:0.01 () in
  let visited f =
    let v0 = Counter.value Core.Stats.nodes_visited in
    (match f () with
    | _ -> Alcotest.fail "the walk returned"
    | exception (Core.Transform_ast.Invalid_update _ | Exit) -> ());
    Counter.value Core.Stats.nodes_visited - v0
  in
  let path = Xut_xpath.Parser.parse "/site" in
  let nfa = Xut_automata.Selecting_nfa.of_path path in
  let update = Core.Transform_ast.Delete path in
  Alcotest.(check int) "count of a root delete" 1
    (visited (fun () -> Core.Top_down.count nfa update root));
  Alcotest.(check int) "run of a root delete" 1
    (visited (fun () -> ignore (Core.Top_down.run nfa update root)));
  let path =
    Xut_xpath.Parser.parse
      "/site//open_auctions/open_auction[not(@id = \"open_auction2\")]/bidder[increase > 10]"
  in
  let nfa = Xut_automata.Selecting_nfa.of_path path in
  let update = Core.Transform_ast.Delete path in
  let v0 = Counter.value Core.Stats.nodes_visited in
  ignore (Core.Top_down.count nfa update root);
  let whole = Counter.value Core.Stats.nodes_visited - v0 in
  let failing () =
    let checks = ref 0 in
    fun s n ->
      incr checks;
      if !checks = 40 then raise Exit;
      Core.Top_down.direct_checkp nfa s n
  in
  List.iter
    (fun (what, f) ->
      let v = visited f in
      Alcotest.(check bool)
        (Printf.sprintf "%s failing part way: 0 < %d < %d" what v whole)
        true
        (v > 0 && v < whole))
    [ ("count", fun () -> ignore (Core.Top_down.count ~checkp:(failing ()) nfa update root));
      ("run", fun () -> ignore (Core.Top_down.run ~checkp:(failing ()) nfa update root)) ]

(* The write path's selection is the selecting NFA's walk, and the
   reference semantics is [Eval.select_doc]: the same ids in the same
   order over random documents and paths with '.' steps and context
   qualifiers.  The marks are exactly the proper ancestors of the
   selected nodes. *)
let prop_select_matches_eval =
  QCheck2.Test.make ~name:"NFA resolve = Eval.select_doc (ids, order, marks)" ~count:2000
    ~print:(fun (root, path) ->
      Xut_xpath.Ast.path_to_string path ^ " over " ^ Serialize.element_to_string root)
    QCheck2.Gen.(pair Test_properties.gen_root Test_properties.gen_path_dotted)
    (fun (root, path) ->
      let marked = Hashtbl.create 16 in
      let got =
        Apply.select
          ~mark:(fun id ->
            if Hashtbl.mem marked id then failwith "marked twice";
            Hashtbl.replace marked id ())
          path root
      in
      let ids = List.map Node.id in
      let expected = Xut_xpath.Eval.select_doc root path in
      let ancestors = Hashtbl.create 16 in
      let rec walk (e : Node.element) =
        let below =
          List.fold_left
            (fun below -> function
              | Node.Element c -> walk c || below
              | Node.Text _ | Node.Comment _ | Node.Pi _ -> below)
            false (Node.children e)
        in
        if below then Hashtbl.replace ancestors (Node.id e) ();
        below || List.memq e expected
      in
      ignore (walk root);
      ids got = ids expected
      && Hashtbl.length marked = Hashtbl.length ancestors
      && Hashtbl.fold (fun id () ok -> ok && Hashtbl.mem ancestors id) marked true)

let suite =
  [
    Alcotest.test_case "delete absorbs everything" `Quick test_delete_absorbs;
    Alcotest.test_case "replace absorbs edits" `Quick test_replace_absorbs_edits;
    Alcotest.test_case "two replaces conflict" `Quick test_two_replaces_conflict;
    Alcotest.test_case "rename merge and conflict" `Quick test_rename_merge;
    Alcotest.test_case "insert ordering" `Quick test_insert_ordering;
    Alcotest.test_case "snapshot vs sequential semantics" `Quick test_snapshot_semantics;
    Alcotest.test_case "physical sharing" `Quick test_physical_sharing;
    Alcotest.test_case "empty pending list" `Quick test_empty_pending;
    Alcotest.test_case "document-element guards" `Quick test_root_guards;
    Alcotest.test_case "nested-target subsumption" `Quick test_nested_subsumption;
    test_qcheck_matches_reference;
    Alcotest.test_case "apply is a dry run" `Quick test_apply_dry_run;
    Alcotest.test_case "commit swaps, stamps, notifies once" `Quick test_commit_swaps;
    Alcotest.test_case "conflicting commit rejected" `Quick test_commit_conflict_rejected;
    Alcotest.test_case "noop commit" `Quick test_commit_noop;
    Alcotest.test_case "snapshot isolation across commit" `Quick test_snapshot_isolation;
    Alcotest.test_case "interleaved readers see whole snapshots" `Quick test_interleaved_readers;
    test_qcheck_commit_vs_transform;
    Alcotest.test_case "materialize allocates per spine node" `Quick
      test_materialize_alloc_bounded_by_spine;
    Alcotest.test_case "one-target commit visits its spine" `Quick
      test_commit_visits_bounded_by_spine;
    Alcotest.test_case "label summaries prune // walks (exact visits)" `Quick
      test_summaries_prune_visits;
    QCheck_alcotest.to_alcotest prop_select_matches_eval;
    Alcotest.test_case "raising walks count their visits" `Quick test_raising_walks_count_visits;
  ]
