open Xut_xml

type rule =
  | Deny of Xut_xpath.Ast.path
  | Redact of Xut_xpath.Ast.path * Node.t
  | Relabel of Xut_xpath.Ast.path * string

type t = { name : string; rules : rule list }

let make ~name rules = { name; rules }

let deny path = Deny (Xut_xpath.Parser.parse path)

let redact path ~with_ =
  Redact (Xut_xpath.Parser.parse path, Node.Element (Dom.parse_string with_))

let relabel path ~as_ = Relabel (Xut_xpath.Parser.parse path, as_)

let update_of_rule = function
  | Deny p -> Transform_ast.Delete p
  | Redact (p, e) -> Transform_ast.Replace (p, e)
  | Relabel (p, l) -> Transform_ast.Rename (p, l)

let to_updates t = List.map update_of_rule t.rules

let to_transform t = Sequence.make ~doc:t.name (to_updates t)

let view_of ?(algo = Engine.Td_bu) t ~doc = Sequence.run algo (to_transform t) ~doc

let answer t uq ~doc =
  match to_updates t with
  | [ u ] -> Composition.run u uq ~doc
  | us -> Composition.naive_stack ~algo:Engine.Td_bu us uq ~doc

let permitted t path ~doc =
  let p = Xut_xpath.Parser.parse path in
  Xut_xpath.Eval.select_doc (view_of t ~doc) p <> []
