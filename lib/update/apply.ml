open Xut_xml
open Xut_xpath

exception Invalid of string

type report = {
  targets : int;
  primitives : int;
  collapsed : int;
  conflicts : Pending.conflict list;
}

let op_of_update = function
  | Core.Transform_ast.Insert (_, e) -> Pending.Insert e
  | Core.Transform_ast.Insert_first (_, e) -> Pending.Insert_first e
  | Core.Transform_ast.Delete _ -> Pending.Delete
  | Core.Transform_ast.Replace (_, e) -> Pending.Replace e
  | Core.Transform_ast.Rename (_, l) -> Pending.Rename l

let resolve updates root =
  let p = Pending.create () in
  List.iter
    (fun u ->
      let op = op_of_update u in
      List.iter
        (fun e -> Pending.add p ~target:(Node.id e) op)
        (Eval.select_doc root (Core.Transform_ast.path u)))
    updates;
  p

let report_of (nz : Pending.normalized) =
  {
    targets = nz.Pending.targets;
    primitives = nz.Pending.primitives;
    collapsed = nz.Pending.collapsed;
    conflicts = nz.Pending.conflicts;
  }

let stage updates root =
  let nz = Pending.normalize (resolve updates root) in
  (report_of nz, nz)

type diff = { spine : (int, Node.element) Hashtbl.t; element_delta : int }

(* One pass over the snapshot, as topDown's step over the pending
   table: [Top_down.rebuild_children] returns [None] for a child list
   nothing below changed, allocating nothing, and otherwise rebuilds it
   from the first changed child on.  Inserted/replacement content is
   deep copied with fresh ids per target (several targets may share one
   literal); the spine down to each touched node is rebuilt with fresh
   ids; an untouched subtree is the very same value.  Every rebuilt
   spine element is recorded in the diff as [fresh id -> the element it
   replaced] — the map downstream annotation repair walks; replacements
   and insertions are {e not} spine (their ids pair with nothing in the
   old tree).  The element delta is counted over the departed and the
   fresh subtrees only.  A commit allocates along the rebuilt spines
   plus fresh content. *)
let materialize (nz : Pending.normalized) root =
  if nz.Pending.primitives = 0 then None
  else begin
    let spine = Hashtbl.create 64 in
    let delta = ref 0 in
    let rebuilt old_e new_e =
      Hashtbl.replace spine (Node.id new_e) old_e;
      Core.Top_down.Changed [ Node.Element new_e ]
    in
    let refresh n =
      let n' = Node.refresh_ids n in
      delta := !delta + Node.element_count n';
      n'
    in
    let departed e = delta := !delta - Node.element_count (Node.Element e) in
    let rec go e () =
      match Hashtbl.find_opt nz.Pending.table (Node.id e) with
      | Some Pending.Dead ->
        departed e;
        Core.Top_down.Changed []
      | Some (Pending.Swap r) ->
        departed e;
        Core.Top_down.Changed [ refresh r ]
      | Some (Pending.Edit { rename; firsts; lasts }) ->
        (* the node survives: its own subtree may still hold targets *)
        let kids =
          Option.value (Core.Top_down.rebuild_children go () (Node.children e))
            ~default:(Node.children e)
        in
        let name = Option.value rename ~default:(Node.name e) in
        rebuilt e
          (Node.element ~attrs:(Node.attrs e) name
             (List.map refresh firsts @ kids @ List.map refresh lasts))
      | None -> (
        match Core.Top_down.rebuild_children go () (Node.children e) with
        | None -> Core.Top_down.Same
        | Some kids -> rebuilt e (Node.with_children e kids))
    in
    match go root () with
    | Core.Top_down.Same -> None
    | Core.Top_down.Changed [ Node.Element e ] -> Some (e, { spine; element_delta = !delta })
    | Core.Top_down.Changed [] -> raise (Invalid "update deletes the document element")
    | Core.Top_down.Changed _ ->
      raise (Invalid "update replaces the document element with a non-element")
  end

let run updates root =
  let report, nz = stage updates root in
  if report.conflicts <> [] then Error report else Ok (report, materialize nz root)
