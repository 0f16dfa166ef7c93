open Xut_xml
open Xut_xpath

let transform update root =
  (* Snapshot first (the "copy" of copy-and-update)... *)
  let snapshot =
    match Node.refresh_ids (Node.Element root) with
    | Node.Element e -> e
    | Node.Text _ | Node.Comment _ | Node.Pi _ -> assert false
  in
  Node.iter_elements (fun _ -> Counter.bump Stats.nodes_copied) snapshot;
  (* ...then update the snapshot in place (modelled purely). *)
  let selected = Eval.select_doc snapshot (Transform_ast.path update) in
  let ids = Eval.node_set_ids selected in
  let mem e =
    Counter.bump Stats.nodes_visited;
    Hashtbl.mem ids (Node.id e)
  in
  Semantics.rebuild ~mem update snapshot
