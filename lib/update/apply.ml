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

(* One pass over the snapshot.  Inserted/replacement content is deep
   copied with fresh ids per target (several targets may share one
   literal); the spine down to each touched node is rebuilt with fresh
   ids; an untouched subtree is returned as the very same value, which
   is both the structural sharing and the O(1) "did anything change
   below" signal.  Every rebuilt spine element is recorded in the diff
   as [fresh id -> the element it replaced] — the map downstream
   annotation repair walks; replacements and insertions are {e not}
   spine (their ids pair with nothing in the old tree).  The element
   delta is counted over the departed and the fresh subtrees only. *)
let materialize (nz : Pending.normalized) root =
  if nz.Pending.primitives = 0 then None
  else begin
    let spine = Hashtbl.create 64 in
    let delta = ref 0 in
    let rebuilt old_e new_e =
      Hashtbl.replace spine (Node.id new_e) old_e;
      new_e
    in
    let refresh n =
      let n' = Node.refresh_ids n in
      delta := !delta + Node.element_count n';
      n'
    in
    let departed e = delta := !delta - Node.element_count (Node.Element e) in
    (* [Same] (an immediate) signals an untouched subtree, so the walk over
       the unchanged bulk of the snapshot allocates nothing; a changed
       child list shares its unchanged suffix with the old tree.  A commit
       therefore allocates only along rebuilt spines plus fresh content. *)
    let rec node n =
      match n with
      | Node.Text _ | Node.Comment _ | Node.Pi _ -> `Same
      | Node.Element e -> begin
        match Hashtbl.find_opt nz.Pending.table (Node.id e) with
        | Some Pending.Dead ->
          departed e;
          `Gone
        | Some (Pending.Swap r) ->
          departed e;
          `One (refresh r)
        | Some (Pending.Edit { rename; firsts; lasts }) ->
          (* the node survives: its own subtree may still hold targets *)
          let kids = Option.value (children e) ~default:(Node.children e) in
          let name = Option.value rename ~default:(Node.name e) in
          `One
            (Node.Element
               (rebuilt e
                  (Node.element ~attrs:(Node.attrs e) name
                     (List.map refresh firsts @ kids @ List.map refresh lasts))))
        | None -> (
          match children e with
          | None -> `Same
          | Some kids ->
            `One (Node.Element (rebuilt e (Node.element ~attrs:(Node.attrs e) (Node.name e) kids))))
      end
    and children e =
      (* [None] = no descendant touched; [Some kids] = the rebuilt list,
         sharing the original tail past the last touched child. *)
      let rec go cs =
        match cs with
        | [] -> None
        | c :: rest -> (
          match node c with
          | `Same -> (
            (* explicit match: Option.map would allocate a closure per node *)
            match go rest with
            | None -> None
            | Some rest' -> Some (c :: rest'))
          | `Gone -> Some (match go rest with None -> rest | Some rest' -> rest')
          | `One n -> Some (n :: (match go rest with None -> rest | Some rest' -> rest')))
      in
      go (Node.children e)
    in
    match node (Node.Element root) with
    | `Same -> None
    | `One (Node.Element e) -> Some (e, { spine; element_delta = !delta })
    | `Gone -> raise (Invalid "update deletes the document element")
    | `One _ -> raise (Invalid "update replaces the document element with a non-element")
  end

let run updates root =
  let report, nz = stage updates root in
  if report.conflicts <> [] then Error report else Ok (report, materialize nz root)
