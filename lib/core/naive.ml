open Xut_xml
open Xut_xpath

let transform update root =
  let xp = Eval.select_doc root (Transform_ast.path update) in
  (* Linear scan per node: the quadratic membership test of Fig. 2. *)
  let mem e =
    Counter.bump Stats.nodes_visited;
    Counter.bump Stats.nodes_copied;
    List.exists (fun x -> Node.id x = Node.id e) xp
  in
  Semantics.rebuild ~mem update root
