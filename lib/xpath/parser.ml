exception Parse_error of string

module Stream_ = struct
  type t = { mutable toks : Lexer.token list }

  let of_tokens toks = { toks }
  let of_string s = of_tokens (Lexer.tokenize s)

  let peek t = match t.toks with [] -> Lexer.EOF | tok :: _ -> tok
  let peek2 t = match t.toks with _ :: tok :: _ -> tok | _ -> Lexer.EOF

  let junk t = match t.toks with [] -> () | _ :: rest -> t.toks <- rest

  let next t =
    let tok = peek t in
    junk t;
    tok

  let fail _t msg = raise (Parse_error msg)

  let expect t tok =
    let got = next t in
    if got <> tok then
      raise
        (Parse_error
           (Printf.sprintf "expected %s, found %s" (Lexer.token_to_string tok)
              (Lexer.token_to_string got)))

  let expect_name t =
    match next t with
    | Lexer.NAME n -> n
    | got ->
      raise (Parse_error (Printf.sprintf "expected a name, found %s" (Lexer.token_to_string got)))

  let at_eof t = peek t = Lexer.EOF
end

open Stream_

let rec parse_steps t ~leading =
  (* [leading] is true when we are at the very start (absolute '/' already
     consumed or not present): a step is required. *)
  let rec quals acc =
    if peek t = Lexer.LBRACKET then begin
      junk t;
      let q = or_expr t in
      expect t Lexer.RBRACKET;
      quals (q :: acc)
    end
    else List.rev acc
  in
  let one_step () =
    match peek t with
    | Lexer.DOT ->
      junk t;
      { Ast.nav = Ast.Self; quals = quals [] }
    | Lexer.STAR ->
      junk t;
      { Ast.nav = Ast.Wildcard; quals = quals [] }
    | Lexer.NAME n ->
      junk t;
      { Ast.nav = Ast.Label n; quals = quals [] }
    | tok ->
      fail t (Printf.sprintf "expected a step, found %s" (Lexer.token_to_string tok))
  in
  ignore leading;
  let first = one_step () in
  let rec more acc =
    match peek t with
    | Lexer.SLASH when (peek2 t = Lexer.AT) = false && starts_step_after_slash t ->
      junk t;
      let s = one_step () in
      more (s :: acc)
    | Lexer.DSLASH ->
      junk t;
      more (List.rev_append (descendant (one_step ())) acc)
    | _ -> List.rev acc
  in
  first :: more []

(* The steps of '//' followed by [s]: a qualified '.' after '//' is the
   '//' step's own qualifier ([//.[q]], descendant-or-self nodes where [q]
   holds), which {!Ast.path_to_string} prints back the same way. *)
and descendant (s : Ast.step) =
  match s with
  | { nav = Ast.Self; quals = _ :: _ } -> [ { s with nav = Ast.Descendant } ]
  | s -> [ Ast.step Ast.Descendant; s ]

and starts_step_after_slash t =
  match peek2 t with Lexer.DOT | Lexer.STAR | Lexer.NAME _ -> true | _ -> false

and path_of_stream t =
  (* optional leading '/' or '//' *)
  match peek t with
  | Lexer.SLASH ->
    junk t;
    parse_steps t ~leading:true
  | Lexer.DSLASH -> (
    junk t;
    match parse_steps t ~leading:true with
    | s :: rest -> descendant s @ rest
    | [] -> [ Ast.step Ast.Descendant ])
  | _ -> parse_steps t ~leading:true

(* --- qualifiers -------------------------------------------------------- *)
and or_expr t =
  let left = and_expr t in
  match peek t with
  | Lexer.NAME "or" ->
    junk t;
    Ast.Q_or (left, or_expr t)
  | _ -> left

and and_expr t =
  let left = unary t in
  match peek t with
  | Lexer.NAME "and" ->
    junk t;
    Ast.Q_and (left, and_expr t)
  | _ -> left

and unary t =
  match peek t, peek2 t with
  | Lexer.NAME "not", Lexer.LPAREN ->
    junk t;
    junk t;
    let q = or_expr t in
    expect t Lexer.RPAREN;
    Ast.Q_not q
  | Lexer.NAME "label", Lexer.LPAREN ->
    junk t;
    junk t;
    expect t Lexer.RPAREN;
    expect t Lexer.EQ;
    (match next t with
    | Lexer.STRING s -> Ast.Q_label s
    | Lexer.NAME s -> Ast.Q_label s
    | tok -> fail t (Printf.sprintf "expected a label, found %s" (Lexer.token_to_string tok)))
  | Lexer.NAME "true", Lexer.LPAREN ->
    junk t;
    junk t;
    expect t Lexer.RPAREN;
    Ast.Q_true
  | Lexer.LPAREN, _ ->
    junk t;
    let q = or_expr t in
    expect t Lexer.RPAREN;
    q
  | _ -> comparison_or_exists t

and comparison_or_exists t =
  let src = parse_source t in
  let op =
    match peek t with
    | Lexer.EQ -> Some Ast.Eq
    | Lexer.NEQ -> Some Ast.Neq
    | Lexer.LT -> Some Ast.Lt
    | Lexer.LE -> Some Ast.Le
    | Lexer.GT -> Some Ast.Gt
    | Lexer.GE -> Some Ast.Ge
    | _ -> None
  in
  match op with
  | None -> Ast.Q_exists src
  | Some op ->
    junk t;
    let v =
      match next t with
      | Lexer.STRING s -> Ast.V_str s
      | Lexer.NUMBER f -> Ast.V_num f
      | tok -> fail t (Printf.sprintf "expected a literal, found %s" (Lexer.token_to_string tok))
    in
    Ast.Q_cmp (src, op, v)

and parse_source t =
  match peek t with
  | Lexer.AT ->
    junk t;
    Ast.attr_source (expect_name t)
  | Lexer.DOT when peek2 t <> Lexer.SLASH && peek2 t <> Lexer.DSLASH ->
    junk t;
    Ast.self_source
  | _ ->
    let path = path_of_stream t in
    (* a trailing "/@name" selects an attribute of the path's result *)
    if peek t = Lexer.SLASH && peek2 t = Lexer.AT then begin
      junk t;
      junk t;
      { Ast.spath = path; sattr = Some (expect_name t) }
    end
    else Ast.path_source path

let finish t v =
  if at_eof t then v
  else raise (Parse_error (Printf.sprintf "trailing input: %s" (Lexer.token_to_string (peek t))))

let parse s =
  let t = of_string s in
  let p = path_of_stream t in
  finish t p

let parse_qual s =
  let t = of_string s in
  let q = or_expr t in
  finish t q

