open Xut_xml
open Xut_xpath

let refresh = Node.refresh_ids

let apply_matched update (e : Node.element) ~(kids : Node.t list) : Node.t list =
  match update with
  | Transform_ast.Delete _ -> []
  | Transform_ast.Replace (_, enew) -> [ refresh enew ]
  | Transform_ast.Insert (_, enew) ->
    [ Node.Element (Node.element ~attrs:(Node.attrs e) (Node.name e) (kids @ [ refresh enew ])) ]
  | Transform_ast.Insert_first (_, enew) ->
    [ Node.Element (Node.element ~attrs:(Node.attrs e) (Node.name e) (refresh enew :: kids)) ]
  | Transform_ast.Rename (_, l) ->
    [ Node.Element (Node.element ~attrs:(Node.attrs e) l kids) ]

let document_element = function
  | [ Node.Element e ] -> e
  | [] -> raise (Transform_ast.Invalid_update "update deletes the document element")
  | [ _ ] | _ :: _ ->
    raise (Transform_ast.Invalid_update "update replaces the document element with a non-element")

let rebuild ~mem update root =
  let rec node n =
    match n with
    | Node.Element e ->
      let kids = List.concat_map node (Node.children e) in
      if mem e then apply_matched update e ~kids
      else [ Node.Element (Node.element ~attrs:(Node.attrs e) (Node.name e) kids) ]
    | Node.Text _ | Node.Comment _ | Node.Pi _ -> [ n ]
  in
  document_element (node (Node.Element root))

let apply update root =
  let selected = Eval.select_doc root (Transform_ast.path update) in
  let ids = Eval.node_set_ids selected in
  rebuild ~mem:(fun e -> Hashtbl.mem ids (Node.id e)) update root

(* The virtual document node the reference evaluates paths from. *)
let document root = Node.element "#document" [ Node.Element root ]

let ctx_holds nfa root =
  match Xut_automata.Selecting_nfa.ctx_qual nfa with
  | Ast.Q_true -> true
  | q -> Eval.check_qual (document root) q

let start nfa root =
  let module Nfa = Xut_automata.Selecting_nfa in
  let dfa = Xut_automata.Dfa.of_nfa nfa in
  if not (Nfa.checks_document nfa) then Xut_automata.Dfa.start dfa
  else
    Xut_automata.Dfa.start_checked dfa
      ~checkp:(fun s doc -> Eval.check_qual doc (Nfa.state_qual nfa s))
      (document root)

let apply_at_root update root =
  document_element (apply_matched update root ~kids:(Node.children root))
