open Xut_xml
open Xut_automata

type checkp = int -> Node.element -> bool

let direct_checkp nfa s n = Xut_xpath.Eval.check_qual n (Selecting_nfa.state_qual nfa s)

type step = Same | Changed of Node.t list

(* The children of a node after [go c states] on each element child, or
   [None] when every one comes back [Same] — then nothing is allocated.
   Iterative over the siblings: [scan] to the first changed child
   (its position, its forest and the siblings after it), then rebuild
   the list from there, so a wide node costs no stack. *)
let rec scan go states i = function
  | [] -> None
  | Node.Element c :: rest -> (
    match go c states with
    | Same -> scan go states (i + 1) rest
    | Changed out -> Some (i, out, rest))
  | (Node.Text _ | Node.Comment _ | Node.Pi _) :: rest -> scan go states (i + 1) rest

let rec rev_prefix i cs acc =
  match cs with c :: cs when i > 0 -> rev_prefix (i - 1) cs (c :: acc) | _ -> acc

let rec finish go states acc = function
  | [] -> List.rev acc
  | (Node.Element c as n) :: rest -> (
    match go c states with
    | Same -> finish go states (n :: acc) rest
    | Changed out -> finish go states (List.rev_append out acc) rest)
  | ((Node.Text _ | Node.Comment _ | Node.Pi _) as n) :: rest -> finish go states (n :: acc) rest

let rebuild_children go states children =
  match scan go states 0 children with
  | None -> None
  | Some (i, out, rest) ->
    Some (finish go states (List.rev_append out (rev_prefix i children [])) rest)

(* [go e states] is the walk at [e] reached with [states]; [at e states']
   the work at [e] once its own state set [states'] is settled and
   non-empty — shared with [transform_at], which settles it differently. *)
let make_go ~checkp ?(skip = fun _ -> false) nfa update =
  (* the walk counts at every element: this domain's cells, taken once *)
  let here = Counter.local () and mask = Selecting_nfa.label_mask nfa in
  let rec go (e : Node.element) states =
    if Node.labels e land mask = 0 || skip e then begin
      (* no node at or below [e] carries the label every selected node
         carries (its label summary), or the schema skip-set says no
         configuration at or below this symbol can accept: the subtree
         is shared without running a transition *)
      Counter.bump_local here Stats.nodes_shared;
      Same
    end
    else begin
      Counter.bump_local here Stats.nodes_visited;
      let states' = Selecting_nfa.next nfa here ~checkp e states (Node.sym e) in
      if Selecting_nfa.set_is_empty states' then begin
        Counter.bump_local here Stats.nodes_shared;
        Same
      end
      else at e states'
    end
  and at e states' =
    match update, Selecting_nfa.accepts_set nfa states' with
    | Transform_ast.Delete _, true -> Changed []
    | Transform_ast.Replace (_, enew), true ->
      Counter.bump_local here Stats.nodes_copied;
      Changed [ Node.refresh_ids enew ]
    | (Transform_ast.Insert _ | Transform_ast.Insert_first _ | Transform_ast.Rename _), true ->
      let kids =
        Option.value (rebuild_children go states' (Node.children e)) ~default:(Node.children e)
      in
      Changed (Semantics.apply_matched update e ~kids)
    | (Transform_ast.Insert _ | Transform_ast.Insert_first _ | Transform_ast.Rename _
      | Transform_ast.Delete _ | Transform_ast.Replace _), false -> (
      match rebuild_children go states' (Node.children e) with
      | None -> Same
      | Some kids ->
        Counter.bump_local here Stats.nodes_copied;
        Changed [ Node.Element (Node.with_children e kids) ])
  in
  (go, at)

let run ?checkp ?skip nfa update root =
  let checkp = match checkp with Some f -> f | None -> direct_checkp nfa in
  if not (Semantics.ctx_holds nfa root) then root
  else if Selecting_nfa.selects_context nfa then Semantics.apply_at_root update root
  else begin
    let go, _ = make_go ~checkp ?skip nfa update in
    match go root (Semantics.start nfa root) with
    | Same -> root
    | Changed out -> Semantics.document_element out
  end

(* ---------------- counting ----------------

   The same walk once more, returning only the result's element count:
   the input's count plus the update's effect, summed where [make_go]
   would rebuild.  Shared subtrees (pruned by label summary or with an
   empty state set) add nothing and are never entered; a deleted
   or replaced subtree costs one read of its stored count.  The walk is
   one [let rec] over elements and sibling lists, so it allocates
   nothing per element. *)

(* the elements an update adds at each match *)
let added = function
  | Transform_ast.Insert (_, enew) | Transform_ast.Insert_first (_, enew)
  | Transform_ast.Replace (_, enew) ->
    Node.element_count enew
  | Transform_ast.Delete _ | Transform_ast.Rename _ -> 0

let count ?checkp nfa update root =
  let checkp = match checkp with Some f -> f | None -> direct_checkp nfa in
  let here = Counter.local () and mask = Selecting_nfa.label_mask nfa in
  let rec go (e : Node.element) states =
    if Node.labels e land mask = 0 then begin
      Counter.bump_local here Stats.nodes_shared;
      0
    end
    else begin
      Counter.bump_local here Stats.nodes_visited;
      let states' = Selecting_nfa.next nfa here ~checkp e states (Node.sym e) in
      if Selecting_nfa.set_is_empty states' then begin
        Counter.bump_local here Stats.nodes_shared;
        0
      end
      else delta e states'
    end
  and delta e states' =
    match update, Selecting_nfa.accepts_set nfa states' with
    | Transform_ast.Delete _, true -> -Node.elements e
    | Transform_ast.Replace _, true -> added update - Node.elements e
    | (Transform_ast.Insert _ | Transform_ast.Insert_first _), true ->
      kids 0 states' (Node.children e) + added update
    | (Transform_ast.Insert _ | Transform_ast.Insert_first _ | Transform_ast.Rename _
      | Transform_ast.Delete _ | Transform_ast.Replace _), _ ->
      kids 0 states' (Node.children e)
  and kids acc states' = function
    | [] -> acc
    | Node.Element c :: rest -> kids (acc + go c states') states' rest
    | (Node.Text _ | Node.Comment _ | Node.Pi _) :: rest -> kids acc states' rest
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
  let elements = Node.elements root in
  if not (Semantics.ctx_holds nfa root) then elements
  else if Selecting_nfa.selects_context nfa then begin
    check_root ();
    match update with
    | Transform_ast.Replace _ -> added update
    | Transform_ast.Insert _ | Transform_ast.Insert_first _ -> elements + added update
    | Transform_ast.Delete _ | Transform_ast.Rename _ -> elements
  end
  else if Node.labels root land mask = 0 then begin
    Counter.bump_local here Stats.nodes_shared;
    elements
  end
  else begin
    Counter.bump_local here Stats.nodes_visited;
    let states' =
      Selecting_nfa.next nfa here ~checkp root (Semantics.start nfa root) (Node.sym root)
    in
    if Selecting_nfa.set_is_empty states' then begin
      Counter.bump_local here Stats.nodes_shared;
      elements
    end
    else begin
      if Selecting_nfa.accepts_set nfa states' then check_root ();
      elements + delta root states'
    end
  end

let settle ~checkp nfa states (e : Node.element) =
  Selecting_nfa.set_of_list nfa
    (Selecting_nfa.set_fold
       (fun s acc ->
         if
           Selecting_nfa.consistent_at_sym nfa s (Node.sym e)
           && ((not (Selecting_nfa.has_qual nfa s)) || checkp s e)
         then s :: acc
         else acc)
       states [])

let transform_at ?checkp nfa update ~states (e : Node.element) : Node.t list =
  let checkp = match checkp with Some f -> f | None -> direct_checkp nfa in
  let alive = settle ~checkp nfa states e in
  let _, at = make_go ~checkp nfa update in
  if Selecting_nfa.set_is_empty alive then [ Node.Element e ]
  else match at e alive with Same -> [ Node.Element e ] | Changed out -> out

let transform update root =
  let nfa = Selecting_nfa.of_path (Transform_ast.path update) in
  run nfa update root

let stream ?checkp ?skip nfa update root sink =
  Sax.events_of_node (Node.Element (run ?checkp ?skip nfa update root)) sink
