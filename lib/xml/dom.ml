exception No_document_element

module Builder = struct
  (* Stack of open elements, children accumulated in reverse.  [sym] is
     the name's symbol when the parser handed it over, else -1. *)
  type frame = {
    name : string;
    sym : Sym.t;
    attrs : (string * string) list;
    mutable rev_children : Node.t list;
  }

  type t = {
    mutable stack : frame list;
    mutable root : Node.element option;
    mutable next_sym : Sym.t;  (* the symbol of the start tag whose event comes next, or -1 *)
  }

  let create () = { stack = []; root = None; next_sym = -1 }

  (* A steering hook that walks every start tag and keeps its symbol
     for the event that follows, so the element is built without
     interning its name again *)
  let steer b =
    Sax.steer (fun _ sym ->
        b.next_sym <- sym;
        Sax.Walk)

  let add_child b node =
    match b.stack with
    | top :: _ -> top.rev_children <- node :: top.rev_children
    | [] -> (
      (* comments/PIs outside the document element are dropped *)
      match node with
      | Node.Element e -> b.root <- Some e
      | Node.Text _ | Node.Comment _ | Node.Pi _ -> ())

  let handle b = function
    | Sax.Start_document | Sax.End_document -> ()
    | Sax.Start_element (name, attrs) ->
      b.stack <- { name; sym = b.next_sym; attrs; rev_children = [] } :: b.stack;
      b.next_sym <- -1
    | Sax.Characters s -> add_child b (Node.Text s)
    | Sax.Comment_event s -> add_child b (Node.Comment s)
    | Sax.Pi_event (t, c) -> add_child b (Node.Pi (t, c))
    | Sax.End_element _ -> (
      match b.stack with
      | top :: rest ->
        b.stack <- rest;
        let children = List.rev top.rev_children in
        let e =
          if top.sym >= 0 then Node.element_of_sym ~attrs:top.attrs top.sym children
          else Node.element ~attrs:top.attrs top.name children
        in
        add_child b (Node.Element e)
      | [] -> invalid_arg "Dom.Builder: end element with empty stack")

  let result b =
    match b.root with
    | Some e when b.stack = [] -> e
    | Some _ -> invalid_arg "Dom.Builder: unclosed elements remain"
    | None -> raise No_document_element

  let handler b ev = handle b ev
end

let parse_string ?keep_ws src =
  let b = Builder.create () in
  Sax.parse_string ?keep_ws ~steer:(Builder.steer b) src (Builder.handler b);
  Builder.result b

let parse_element src i =
  let b = Builder.create () in
  let j = Sax.parse_element src i (Builder.handler b) in
  (Builder.result b, j)

let parse_file ?keep_ws path =
  let b = Builder.create () in
  Sax.parse_file ?keep_ws ~steer:(Builder.steer b) path (Builder.handler b);
  Builder.result b
