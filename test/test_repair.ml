(* Incremental annotation repair (PR 7): a [Annotator.repair]ed table
   must be indistinguishable — through [sat]/[checkp], entry for entry —
   from a from-scratch [annotate] of the post-commit tree, across random
   documents, random pending-update lists, compounding commits, and
   NFAs too large for the immediate-int bitset. *)

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

let prop_repair_compounds =
  QCheck2.Test.make ~name:"repair compounds across successive commits" ~count:60
    QCheck2.Gen.(
      triple Test_properties.gen_root Test_properties.gen_path
        (list_size (int_range 4 10) Test_properties.gen_update))
    (fun (root0, path, us) ->
      let nfa = Selecting_nfa.of_path path in
      let root = ref root0 in
      let table = ref (Annotator.annotate nfa root0) in
      List.for_all
        (fun u ->
          match Apply.run [ u ] !root with
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
        us)

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
          (* the point of repairing: most of the chain is not re-annotated *)
          if i = 0 then
            Alcotest.(check bool) "deep insert reuses entries" true
              (st.Annotator.reused > 0);
          root := root';
          table := repaired
      end
      | _ -> Alcotest.failf "commit %d did not materialize" i)
    commits

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

let suite =
  [
    QCheck_alcotest.to_alcotest prop_repair_equals_annotate;
    QCheck_alcotest.to_alcotest prop_repair_compounds;
    Alcotest.test_case "repair across a >62-state NFA" `Quick test_repair_wide_nfa;
    Alcotest.test_case "degenerate diff on root replacement" `Quick
      test_repair_degenerate_root_swap;
    Alcotest.test_case "plan-cache repair keeps old table addressable" `Quick
      test_plan_cache_repair_keeps_old_table;
    Alcotest.test_case "readers race commit+repair" `Quick test_readers_race_repair;
    Alcotest.test_case "service fallback on root replacement" `Quick
      test_service_fallback_on_root_swap;
  ]
