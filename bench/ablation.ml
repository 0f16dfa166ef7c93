(* Ablation: make the design choices DESIGN.md calls out visible.
   1. Subtree pruning/sharing in topDown (the selecting NFA's empty-set
      short-circuit) — counted with the Stats instrumentation.
   2. The filtering machinery of Section 5 — how many elements the
      bottom-up pass annotates, against the document size.
   3. GENTOP vs TD-BU on an artificially expensive qualifier — the case
      Section 5 exists for. *)
open Core

let run ~factor =
  let file = Workloads.doc_file ~factor in
  let doc = Xut_xml.Dom.parse_file file in
  let total = Xut_xml.Node.element_count (Xut_xml.Node.Element doc) in
  Printf.printf "\n== Ablations (document: %d elements) ==\n" total;

  (* 1: pruning/sharing *)
  let header = [ "query"; "visited"; "copied"; "shared"; "% visited" ] in
  let rows =
    List.map
      (fun u ->
        let update = Workloads.insert_of u in
        let nodes () =
          List.map Xut_xml.Counter.value Stats.[ nodes_visited; nodes_copied; nodes_shared ]
        in
        let before = nodes () in
        ignore (Engine.transform Engine.Gentop update doc);
        let moved = List.map2 ( - ) (nodes ()) before in
        let visited = List.hd moved in
        (u.Workloads.name :: List.map string_of_int moved)
        @ [ Printf.sprintf "%.1f%%" (100. *. float_of_int visited /. float_of_int total) ])
      Workloads.all
  in
  Timing.print_table
    ~title:"Ablation 1 — topDown pruning: elements visited vs shared whole (GENTOP)"
    ~header rows;

  (* 2: annotation pruning *)
  let header = [ "query"; "annotated"; "% of elements" ] in
  let rows =
    List.map
      (fun u ->
        let nfa = Xut_automata.Selecting_nfa.of_path (Workloads.parse_path u.Workloads.path) in
        let n = Two_pass.annotated_nodes nfa doc in
        [ u.Workloads.name; string_of_int n;
          Printf.sprintf "%.1f%%" (100. *. float_of_int n /. float_of_int total) ])
      Workloads.all
  in
  Timing.print_table
    ~title:"Ablation 2 — bottomUp filtering: elements the annotation pass touches"
    ~header rows;

  (* 3: expensive qualifiers, GENTOP's direct evaluation vs TD-BU's
     one-pass QualDP.  The '//' inside the qualifier makes the direct
     evaluator rescan subtrees at every candidate node. *)
  (* every element checks its entire subtree: direct evaluation costs
     the sum of all subtree sizes (O(n·depth)); the annotated pass is
     one bottom-up sweep *)
  let expensive =
    Transform_ast.Rename (Workloads.parse_path "//*[not(.//keyword = \"nosuch\")]", "n")
  in
  let t_gentop = Timing.measure ~reps:3 (fun () -> Engine.transform Engine.Gentop expensive doc) in
  let t_tdbu = Timing.measure ~reps:3 (fun () -> Engine.transform Engine.Td_bu expensive doc) in
  Timing.print_table
    ~title:"Ablation 3 — expensive ('//'-heavy) qualifiers: direct evaluation vs QualDP annotations"
    ~header:[ "engine"; "time" ]
    [ [ "GENTOP (direct checkp)"; Timing.fmt_time t_gentop ];
      [ "TD-BU (annotated checkp)"; Timing.fmt_time t_tdbu ] ];

  (* 4: the paper's actual Fig. 12 configuration — both methods running
     AS XQUERY on the host engine.  The Fig. 2 rewriting pays the
     quadratic membership scan; the compiled automaton does not. *)
  let small_doc =
    if Xut_xml.Node.element_count (Xut_xml.Node.Element doc) > 20000 then
      Xut_xmark.Generator.generate ~factor:0.01 ()
    else doc
  in
  let rows =
    List.map
      (fun u ->
        let q = Transform_ast.make ~doc:"d" (Workloads.insert_of u) in
        let t_naive = Timing.measure ~reps:2 (fun () -> Xquery_rewrite.run q ~doc:small_doc) in
        let t_comp = Timing.measure ~reps:2 (fun () -> Xquery_compile.run q ~doc:small_doc) in
        let t_tdbu = Timing.measure ~reps:2 (fun () -> Xquery_compile.run_tdbu q ~doc:small_doc) in
        [ u.Workloads.name; Timing.fmt_time t_naive; Timing.fmt_time t_comp;
          Timing.fmt_time t_tdbu ])
      Workloads.[ u1; u2; u5; u7 ]
  in
  Timing.print_table
    ~title:
      "Ablation 4 — on the XQuery engine itself (the paper's setting): all three methods as XQuery"
    ~header:[ "query"; "NAIVE (Fig. 2)"; "GENTOP (compiled)"; "TD-BU (compiled)" ]
    rows
