open Xut_xml

(* Expand one step from a document-ordered frontier of elements, keeping
   document order and removing duplicates (descendant steps can reach the
   same node along several routes). *)
let dedup elems =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun e ->
      let id = Node.id e in
      if Hashtbl.mem seen id then false
      else begin
        Hashtbl.add seen id ();
        true
      end)
    elems

let rec descendant_or_self_acc acc e =
  let acc = e :: acc in
  List.fold_left descendant_or_self_acc acc (Node.child_elements e)

(* the children named [l] of the frontier elements, in order: scans the
   raw child lists, building no intermediate element lists *)
let label_children l frontier =
  let rec scan acc = function
    | [] -> acc
    | Node.Element c :: rest when String.equal (Node.name c) l -> scan (c :: acc) rest
    | _ :: rest -> scan acc rest
  in
  List.rev (List.fold_left (fun acc e -> scan acc (Node.children e)) [] frontier)

let rec select_from (frontier : Node.element list) (path : Ast.path) : Node.element list =
  match path with
  | [] -> frontier
  | { Ast.nav; quals } :: rest ->
    let expanded =
      match nav with
      | Ast.Self -> frontier
      | Ast.Label l -> label_children l frontier
      | Ast.Wildcard -> List.concat_map Node.child_elements frontier
      | Ast.Descendant -> (
        (* descendants of a single element are unique by construction *)
        match frontier with
        | [ e ] -> List.rev (descendant_or_self_acc [] e)
        | _ -> dedup (List.concat_map (fun e -> List.rev (descendant_or_self_acc [] e)) frontier))
    in
    let filtered =
      if quals = [] then expanded
      else List.filter (fun e -> List.for_all (check_qual e) quals) expanded
    in
    select_from filtered rest

and check_qual (n : Node.element) (q : Ast.qual) : bool =
  match q with
  | Ast.Q_true -> true
  | Ast.Q_label l -> String.equal (Node.name n) l
  | Ast.Q_and (a, b) -> check_qual n a && check_qual n b
  | Ast.Q_or (a, b) -> check_qual n a || check_qual n b
  | Ast.Q_not a -> not (check_qual n a)
  | Ast.Q_exists { spath; sattr } -> (
    let nodes = select_from [ n ] spath in
    match sattr with
    | None -> nodes <> []
    | Some a -> List.exists (fun e -> Node.attr e a <> None) nodes)
  | Ast.Q_cmp ({ spath; sattr }, op, v) ->
    let nodes = select_from [ n ] spath in
    let values =
      match sattr with
      | None -> List.map Node.text_content nodes
      | Some a -> List.filter_map (fun e -> Node.attr e a) nodes
    in
    List.exists (fun s -> Ast.compare_values op s v) values

(* A path ending in '//l' behind a child-only prefix: the prefix frontier
   sits at a single depth, so frontier subtrees are disjoint and one
   pre-order walk per frontier element yields the result in document order
   with no duplicates — skipping the materialized descendant list, the
   dedup table and the whole-document rank sort.  This is the shape of
   marker-cleanup updates (delete $a//x) and of [//name] reads, which
   the reference and naive engines and XQuery evaluate. *)
let rec split_trailing_desc_label acc = function
  | [ { Ast.nav = Ast.Descendant; quals = dq }; { Ast.nav = Ast.Label l; quals = lq } ] ->
    Some (List.rev acc, dq, l, lq)
  | ({ Ast.nav = Ast.Label _ | Ast.Wildcard | Ast.Self; _ } as s) :: rest ->
    split_trailing_desc_label (s :: acc) rest
  | _ -> None

let rec quals_ok v = function
  | [] -> true
  | q :: rest -> check_qual v q && quals_ok v rest

let fused_descendant_label frontier dquals l lquals =
  let acc = ref [] in
  (* walk the raw child list: no per-node closure, no materialized
     child-element lists — the walk allocates only for matches *)
  let rec walk v =
    let v_ok = quals_ok v dquals in
    walk_children v_ok (Node.children v)
  and walk_children v_ok = function
    | [] -> ()
    | Node.Element c :: rest ->
      if v_ok && String.equal (Node.name c) l && quals_ok c lquals then acc := c :: !acc;
      walk c;
      walk_children v_ok rest
    | _ :: rest -> walk_children v_ok rest
  in
  List.iter walk frontier;
  List.rev !acc

let select_general ctx path =
  (* Child-only paths produce distinct elements in document order by
     construction: element ids are unique within a tree, and each element
     is reached from its one parent.  After a descendant step the same
     node can be reached along several routes, and later child steps can
     emit cousins out of order, so dedup and sort by pre-order rank. *)
  if not (List.exists (fun (s : Ast.step) -> s.nav = Ast.Descendant) path) then
    select_from [ ctx ] path
  else begin
    let result = dedup (select_from [ ctx ] path) in
    let rank = Hashtbl.create 256 in
    let counter = ref 0 in
    Node.iter_elements
      (fun e ->
        Hashtbl.replace rank (Node.id e) !counter;
        incr counter)
      ctx;
    let key e = try Hashtbl.find rank (Node.id e) with Not_found -> max_int in
    List.stable_sort (fun a b -> compare (key a) (key b)) result
  end

let select ctx path =
  match split_trailing_desc_label [] path with
  | Some (prefix, dquals, l, lquals) ->
    fused_descendant_label (select_from [ ctx ] prefix) dquals l lquals
  | None -> select_general ctx path

let select_doc root path =
  (* Leading '.' steps qualify the virtual document node; an empty path
     (after normalization) denotes the document element itself. *)
  let norm = Norm.steps path in
  let doc = Node.element "#document" [ Node.Element root ] in
  if not (List.for_all (check_qual doc) norm.Norm.ctx_quals) then []
  else
    match norm.Norm.steps with
    | [] -> [ root ]
    | _ -> select doc (Norm.to_path norm)

let node_set_ids elems =
  let tbl = Hashtbl.create (List.length elems * 2) in
  List.iter (fun e -> Hashtbl.replace tbl (Node.id e) ()) elems;
  tbl
