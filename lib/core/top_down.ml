open Xut_xml
open Xut_automata

type checkp = int -> Node.element -> bool

let direct_checkp nfa s n = Xut_xpath.Eval.check_qual n (Selecting_nfa.state_qual nfa s)

(* Rebuild element [e] from processed children, preserving physical
   sharing (and skipping the copy) when nothing below changed. *)
let rebuild_elem e kids =
  let unchanged =
    List.length kids = List.length (Node.children e)
    && List.for_all2 (fun a b -> a == b) kids (Node.children e)
  in
  if unchanged then Node.Element e
  else begin
    Stats.copy ();
    Node.Element (Node.element ~attrs:(Node.attrs e) (Node.name e) kids)
  end

let make_go ~checkp ?(skip = fun _ -> false) nfa update =
  let rec go (e : Node.element) states : Node.t list =
    if skip e then begin
      (* schema skip-set: no configuration at or below this symbol can
         accept, so the subtree is shared without running a transition *)
      Stats.share ();
      [ Node.Element e ]
    end
    else begin
      Stats.visit ();
      let states' =
        Selecting_nfa.next nfa ~checkp:(fun s -> checkp s e) states (Node.sym e)
      in
      if Selecting_nfa.set_is_empty states' then begin
        Stats.share ();
        [ Node.Element e ]
      end
      else begin
        let matched = Selecting_nfa.accepts_set nfa states' in
        match update, matched with
        | Transform_ast.Delete _, true -> []
        | Transform_ast.Replace (_, enew), true ->
          Stats.copy ();
          [ Node.refresh_ids enew ]
        | (Transform_ast.Insert _ | Transform_ast.Insert_first _ | Transform_ast.Rename _
          | Transform_ast.Delete _ | Transform_ast.Replace _), _ ->
          let kids =
            List.concat_map
              (function
                | Node.Element c -> go c states'
                | (Node.Text _ | Node.Comment _ | Node.Pi _) as other -> [ other ])
              (Node.children e)
          in
          if matched then Semantics.apply_matched update e ~kids
          else [ rebuild_elem e kids ]
      end
    end
  in
  go

let run ?checkp ?skip nfa update root =
  let checkp = match checkp with Some f -> f | None -> direct_checkp nfa in
  if not (Semantics.ctx_holds nfa root) then root
  else if Selecting_nfa.selects_context nfa then Semantics.apply_at_root update root
  else begin
    let go = make_go ~checkp ?skip nfa update in
    match go root (Selecting_nfa.start nfa) with
    | [ Node.Element e ] -> e
    | [] -> raise (Transform_ast.Invalid_update "update deletes the document element")
    | [ _ ] | _ :: _ ->
      raise (Transform_ast.Invalid_update "update replaces the document element with a non-element")
  end

(* ---------------- counting ----------------

   The same walk once more, returning only the result's element count:
   the input's count plus the updates' effect, summed where [make_go]
   would rebuild.  Shared subtrees (skipped or with an empty state set)
   add nothing and are never entered; a deleted or replaced subtree
   costs one [size] call. *)

let count ?checkp ?(skip = fun _ -> false) ?size ~elements nfa update root =
  let checkp = match checkp with Some f -> f | None -> direct_checkp nfa in
  let size = match size with Some f -> f | None -> fun e -> Node.element_count (Node.Element e) in
  let added =
    match update with
    | Transform_ast.Insert (_, enew) | Transform_ast.Insert_first (_, enew)
    | Transform_ast.Replace (_, enew) ->
      Node.element_count enew
    | Transform_ast.Delete _ | Transform_ast.Rename _ -> 0
  in
  let rec go (e : Node.element) states =
    if skip e then begin
      Stats.share ();
      0
    end
    else begin
      Stats.visit ();
      let states' =
        Selecting_nfa.next nfa ~checkp:(fun s -> checkp s e) states (Node.sym e)
      in
      if Selecting_nfa.set_is_empty states' then begin
        Stats.share ();
        0
      end
      else delta e states'
    end
  and delta e states' =
    match update, Selecting_nfa.accepts_set nfa states' with
    | Transform_ast.Delete _, true -> -size e
    | Transform_ast.Replace _, true -> added - size e
    | (Transform_ast.Insert _ | Transform_ast.Insert_first _), true -> kids e states' + added
    | (Transform_ast.Insert _ | Transform_ast.Insert_first _ | Transform_ast.Rename _
      | Transform_ast.Delete _ | Transform_ast.Replace _), _ ->
      kids e states'
  and kids e states' =
    List.fold_left
      (fun acc -> function
        | Node.Element c -> acc + go c states'
        | Node.Text _ | Node.Comment _ | Node.Pi _ -> acc)
      0 (Node.children e)
  in
  (* the structural checks [run] applies to the document element *)
  let check_root () =
    match update with
    | Transform_ast.Delete _ ->
      raise (Transform_ast.Invalid_update "update deletes the document element")
    | Transform_ast.Replace (_, (Node.Text _ | Node.Comment _ | Node.Pi _)) ->
      raise
        (Transform_ast.Invalid_update "update replaces the document element with a non-element")
    | Transform_ast.Replace (_, Node.Element _) | Transform_ast.Insert _
    | Transform_ast.Insert_first _ | Transform_ast.Rename _ ->
      ()
  in
  if not (Semantics.ctx_holds nfa root) then elements
  else if Selecting_nfa.selects_context nfa then begin
    check_root ();
    match update with
    | Transform_ast.Replace _ -> added
    | Transform_ast.Insert _ | Transform_ast.Insert_first _ -> elements + added
    | Transform_ast.Delete _ | Transform_ast.Rename _ -> elements
  end
  else if skip root then begin
    Stats.share ();
    elements
  end
  else begin
    Stats.visit ();
    let states' =
      Selecting_nfa.next nfa ~checkp:(fun s -> checkp s root)
        (Selecting_nfa.start nfa) (Node.sym root)
    in
    if Selecting_nfa.set_is_empty states' then begin
      Stats.share ();
      elements
    end
    else begin
      if Selecting_nfa.accepts_set nfa states' then check_root ();
      elements + delta root states'
    end
  end

let transform_at ?checkp nfa update ~states (e : Node.element) : Node.t list =
  let checkp = match checkp with Some f -> f | None -> direct_checkp nfa in
  let go = make_go ~checkp nfa update in
  (* [states] comes from the static delta' simulation of the Compose
     Method: label consistency and qualifiers have not been checked yet,
     so settle both at [e] before deciding anything. *)
  let alive =
    Selecting_nfa.set_of_list nfa
      (Selecting_nfa.set_fold
         (fun s acc ->
           if
             Selecting_nfa.consistent_at_sym nfa s (Node.sym e)
             && ((not (Selecting_nfa.has_qual nfa s)) || checkp s e)
           then s :: acc
           else acc)
         states [])
  in
  if Selecting_nfa.set_is_empty alive then [ Node.Element e ]
  else begin
    let matched = Selecting_nfa.accepts_set nfa alive in
    match update, matched with
    | Transform_ast.Delete _, true -> []
    | Transform_ast.Replace (_, enew), true -> [ Node.refresh_ids enew ]
    | (Transform_ast.Insert _ | Transform_ast.Insert_first _ | Transform_ast.Rename _
      | Transform_ast.Delete _ | Transform_ast.Replace _), _ ->
      let kids =
        List.concat_map
          (function
            | Node.Element c -> go c alive
            | (Node.Text _ | Node.Comment _ | Node.Pi _) as other -> [ other ])
          (Node.children e)
      in
      if matched then Semantics.apply_matched update e ~kids
      else [ rebuild_elem e kids ]
  end

let transform update root =
  let nfa = Selecting_nfa.of_path (Transform_ast.path update) in
  run nfa update root

(* ---------------- streaming emission ----------------

   The same top-down walk, but instead of rebuilding a result tree the
   output is pushed to a SAX sink as it is decided.  Untouched subtrees
   (empty state set) and inserted/replacement subtrees are emitted
   whole; everything else is a start-tag, the transformed children, an
   end-tag.  Mirrors [make_go] + [Semantics.apply_matched] arm for arm,
   so the byte stream a serializer sink produces is exactly the
   serialization of [run]'s result. *)

let emit_tree sink node =
  let rec go = function
    | Node.Element e ->
      sink (Sax.Start_element (Node.name e, Node.attrs e));
      List.iter go (Node.children e);
      sink (Sax.End_element (Node.name e))
    | Node.Text s -> sink (Sax.Characters s)
    | Node.Comment s -> sink (Sax.Comment_event s)
    | Node.Pi (t, c) -> sink (Sax.Pi_event (t, c))
  in
  go node

let stream ?checkp ?(skip = fun _ -> false) nfa update root sink =
  let checkp = match checkp with Some f -> f | None -> direct_checkp nfa in
  if not (Semantics.ctx_holds nfa root) then emit_tree sink (Node.Element root)
  else if Selecting_nfa.selects_context nfa then
    emit_tree sink (Node.Element (Semantics.apply_at_root update root))
  else begin
    let rec go (e : Node.element) states =
      if skip e then begin
        Stats.share ();
        emit_tree sink (Node.Element e)
      end
      else begin
      Stats.visit ();
      let states' =
        Selecting_nfa.next nfa ~checkp:(fun s -> checkp s e) states (Node.sym e)
      in
      if Selecting_nfa.set_is_empty states' then begin
        Stats.share ();
        emit_tree sink (Node.Element e)
      end
      else begin
        let matched = Selecting_nfa.accepts_set nfa states' in
        match update, matched with
        | Transform_ast.Delete _, true -> ()
        | Transform_ast.Replace (_, enew), true -> emit_tree sink enew
        | Transform_ast.Rename (_, l), true ->
          sink (Sax.Start_element (l, Node.attrs e));
          kids e states';
          sink (Sax.End_element l)
        | Transform_ast.Insert (_, enew), true ->
          sink (Sax.Start_element (Node.name e, Node.attrs e));
          kids e states';
          emit_tree sink enew;
          sink (Sax.End_element (Node.name e))
        | Transform_ast.Insert_first (_, enew), true ->
          sink (Sax.Start_element (Node.name e, Node.attrs e));
          emit_tree sink enew;
          kids e states';
          sink (Sax.End_element (Node.name e))
        | (Transform_ast.Insert _ | Transform_ast.Insert_first _ | Transform_ast.Delete _
          | Transform_ast.Replace _ | Transform_ast.Rename _), false ->
          sink (Sax.Start_element (Node.name e, Node.attrs e));
          kids e states';
          sink (Sax.End_element (Node.name e))
      end
      end
    and kids e states' =
      List.iter
        (function
          | Node.Element c -> go c states'
          | (Node.Text _ | Node.Comment _ | Node.Pi _) as other -> emit_tree sink other)
        (Node.children e)
    in
    (* the document element needs the structural checks [run] applies to
       [go]'s result list — settled here before anything is emitted *)
    if skip root then begin
      Stats.share ();
      emit_tree sink (Node.Element root)
    end
    else begin
    Stats.visit ();
    let states' =
      Selecting_nfa.next nfa ~checkp:(fun s -> checkp s root)
        (Selecting_nfa.start nfa) (Node.sym root)
    in
    if Selecting_nfa.set_is_empty states' then begin
      Stats.share ();
      emit_tree sink (Node.Element root)
    end
    else begin
      let matched = Selecting_nfa.accepts_set nfa states' in
      match update, matched with
      | Transform_ast.Delete _, true ->
        raise (Transform_ast.Invalid_update "update deletes the document element")
      | Transform_ast.Replace (_, enew), true -> begin
        match enew with
        | Node.Element _ -> emit_tree sink enew
        | Node.Text _ | Node.Comment _ | Node.Pi _ ->
          raise
            (Transform_ast.Invalid_update
               "update replaces the document element with a non-element")
      end
      | Transform_ast.Rename (_, l), true ->
        sink (Sax.Start_element (l, Node.attrs root));
        kids root states';
        sink (Sax.End_element l)
      | Transform_ast.Insert (_, enew), true ->
        sink (Sax.Start_element (Node.name root, Node.attrs root));
        kids root states';
        emit_tree sink enew;
        sink (Sax.End_element (Node.name root))
      | Transform_ast.Insert_first (_, enew), true ->
        sink (Sax.Start_element (Node.name root, Node.attrs root));
        emit_tree sink enew;
        kids root states';
        sink (Sax.End_element (Node.name root))
      | (Transform_ast.Insert _ | Transform_ast.Insert_first _ | Transform_ast.Delete _
        | Transform_ast.Replace _ | Transform_ast.Rename _), false ->
        sink (Sax.Start_element (Node.name root, Node.attrs root));
        kids root states';
        sink (Sax.End_element (Node.name root))
    end
    end
  end
