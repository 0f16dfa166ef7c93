open Xut_xml
open Xut_automata

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

(* topDown's selection (Sec. 3.3) without the rebuild: the walk stops
   wherever the state set empties, or before any transition where the
   element's label summary misses the label every selected node
   carries, and collects the selected nodes in document order.  [go]
   answers whether a target lies at or below [e]; [mark] receives the id
   of each element with a target strictly below it, so marking
   allocates nothing per node: the walk allocates per target, per
   marked ancestor, and where its DFA computes a step. *)
let select ?(mark = ignore) path root =
  let nfa = Selecting_nfa.of_path path in
  if not (Core.Semantics.ctx_holds nfa root) then []
  else if Selecting_nfa.selects_context nfa then [ root ]
  else begin
    let targets = ref [] and visits = ref 0 in
    let here = Counter.local () and checkp = Core.Top_down.direct_checkp nfa in
    let dfa = Dfa.of_nfa nfa and mask = Selecting_nfa.label_mask nfa in
    let rec go c (e : Node.element) =
      if Node.labels e land mask = 0 then begin
        Counter.bump_local here Core.Stats.nodes_shared;
        false
      end
      else visit c e
    and visit c e =
      incr visits;
      let c' = Dfa.next dfa here ~checkp e c (Node.sym e) in
      (not c'.empty)
      &&
      let here = c'.accepts in
      if here then targets := e :: !targets;
      let below = kids c' false (Node.children e) in
      if below then mark (Node.id e);
      here || below
    and kids c found = function
      | [] -> found
      | Node.Element e :: rest ->
        let f = go c e in
        kids c (f || found) rest
      | (Node.Text _ | Node.Comment _ | Node.Pi _) :: rest -> kids c found rest
    in
    ignore (go (Core.Semantics.start nfa root) root);
    Counter.add Core.Stats.nodes_visited !visits;
    List.rev !targets
  end

let resolve updates root =
  let p = Pending.create () in
  List.iter
    (fun u ->
      let op = op_of_update u in
      List.iter
        (fun e -> Pending.add p ~target:(Node.id e) op)
        (select ~mark:(Pending.mark_ancestor p) (Core.Transform_ast.path u) root))
    updates;
  p

let report_of (nz : Pending.normalized) =
  {
    targets = nz.Pending.targets;
    primitives = nz.Pending.primitives;
    collapsed = nz.Pending.collapsed;
    conflicts = nz.Pending.conflicts;
  }

(* The document element must survive as an element — the one check on a
   normalized list that needs no tree. *)
let check_document_element (nz : Pending.normalized) root =
  match Hashtbl.find_opt nz.Pending.table (Node.id root) with
  | Some Pending.Dead -> raise (Invalid "update deletes the document element")
  | Some (Pending.Swap (Node.Text _ | Node.Comment _ | Node.Pi _)) ->
    raise (Invalid "update replaces the document element with a non-element")
  | Some (Pending.Swap (Node.Element _) | Pending.Edit _) | None -> ()

let stage updates root =
  let nz = Pending.normalize (resolve updates root) in
  check_document_element nz root;
  (report_of nz, nz)

type diff = { spine : (int, Node.element) Hashtbl.t }

(* One pass over the snapshot, as topDown's step over the pending
   table: an element that is neither a target nor a marked ancestor is
   [Same] without a descent, so the walk visits the spine and its
   children only.  [Top_down.rebuild_children] returns [None] for a
   child list nothing below changed, allocating nothing, and otherwise
   rebuilds it from the first changed child on.  Inserted/replacement
   content is deep copied with fresh ids per target (several targets may
   share one literal); the spine down to each touched node is rebuilt
   with fresh ids; an untouched subtree is the very same value.  Every rebuilt
   spine element is recorded in the diff as [fresh id -> the element it
   replaced] — the map downstream annotation repair walks; replacements
   and insertions are {e not} spine (their ids pair with nothing in the
   old tree).  A commit allocates along the rebuilt spines plus fresh
   content. *)
let materialize (nz : Pending.normalized) root =
  if nz.Pending.primitives = 0 then None
  else begin
    check_document_element nz root;
    let spine = Hashtbl.create 64 in
    let rebuilt old_e new_e =
      Hashtbl.replace spine (Node.id new_e) old_e;
      Core.Top_down.Changed [ Node.Element new_e ]
    in
    let rec go e () =
      Counter.bump Core.Stats.nodes_visited;
      match Hashtbl.find_opt nz.Pending.table (Node.id e) with
      | Some Pending.Dead -> Core.Top_down.Changed []
      | Some (Pending.Swap r) -> Core.Top_down.Changed [ Node.refresh_ids r ]
      | Some (Pending.Edit { rename; firsts; lasts }) ->
        (* the node survives: its own subtree may still hold targets *)
        let kids =
          Option.value (Core.Top_down.rebuild_children go () (Node.children e))
            ~default:(Node.children e)
        in
        let name = Option.value rename ~default:(Node.name e) in
        rebuilt e
          (Node.element ~attrs:(Node.attrs e) name
             (List.map Node.refresh_ids firsts @ kids @ List.map Node.refresh_ids lasts))
      | None when not (Hashtbl.mem nz.Pending.ancestors (Node.id e)) -> Core.Top_down.Same
      | None -> (
        match Core.Top_down.rebuild_children go () (Node.children e) with
        | None -> Core.Top_down.Same
        | Some kids -> rebuilt e (Node.with_children e kids))
    in
    match go root () with
    | Core.Top_down.Same -> None
    | Core.Top_down.Changed [ Node.Element e ] -> Some (e, { spine })
    | Core.Top_down.Changed _ -> assert false (* [check_document_element] *)
  end

let run updates root =
  let report, nz = stage updates root in
  if report.conflicts <> [] then Error report else Ok (report, materialize nz root)
