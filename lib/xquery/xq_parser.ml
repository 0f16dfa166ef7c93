open Xq_scanner

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let expect s tok =
  let got = next s in
  if got <> tok then fail "expected %s, found %s" (token_to_string tok) (token_to_string got)

let expect_kw s kw =
  match next s with
  | NAME n when n = kw -> ()
  | got -> fail "expected %s, found %s" kw (token_to_string got)

let peek_is_kw s kw = match peek s with NAME n -> n = kw | _ -> false

(* keywords that terminate a path substring at bracket depth 0 *)
let path_stop_keywords =
  [ "and"; "or"; "is"; "where"; "return"; "satisfies"; "then"; "else"; "eq"; "ne"; "lt";
    "le"; "gt"; "ge"; "to"; "in"; "for"; "let"; "order"; "stable" ]

let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

(* Carve out the maximal path substring starting at the cursor.  Tracks
   bracket/paren depth and string quoting; stops at depth 0 on a
   terminator character or a stop keyword. *)
let scan_path_substring s =
  skip_ws s;
  let src = src s in
  let n = String.length src in
  let start = pos s in
  let i = ref start in
  let depth = ref 0 in
  let quote = ref '\000' in
  let stop = ref None in
  while !stop = None && !i < n do
    let c = src.[!i] in
    if !quote <> '\000' then begin
      if c = !quote then quote := '\000';
      incr i
    end
    else
      match c with
      | '"' | '\'' ->
        quote := c;
        incr i
      | '[' | '(' ->
        incr depth;
        incr i
      | ']' | ')' ->
        if !depth = 0 then stop := Some !i
        else begin
          decr depth;
          incr i
        end
      | ',' | '}' | '{' | ';' when !depth = 0 -> stop := Some !i
      | ('=' | '!' | '<' | '>' | '+') when !depth = 0 -> stop := Some !i
      | '*' when !depth = 0 ->
        (* a '*' continues the path only as a wildcard step (right after
           '/' or '@' or at the start); otherwise it is multiplication *)
        let rec prev_nonws j =
          if j < start then '\000'
          else
            match src.[j] with
            | ' ' | '\t' | '\n' | '\r' -> prev_nonws (j - 1)
            | c -> c
        in
        (match prev_nonws (!i - 1) with
        | '\000' | '/' | '@' -> incr i
        | _ -> stop := Some !i)
      | '-'
        when !depth = 0 && !i > start
             && (let prev = src.[!i - 1] in
                 prev = ' ' || prev = '\t' || prev = '\n' || prev = '\r') ->
        (* a '-' preceded by whitespace is subtraction, not a name char
           (XQuery requires the same disambiguation) *)
        stop := Some !i
      | c when is_word_char c && !depth = 0 ->
        (* a keyword ends the path only at a word boundary *)
        let wstart = !i in
        let rec scan j = if j < n && is_word_char src.[j] then scan (j + 1) else j in
        let wstop = scan wstart in
        let word = String.sub src wstart (wstop - wstart) in
        let boundary = wstart = start || not (is_word_char src.[wstart - 1]) in
        let preceded_by_ws = wstart > start && (src.[wstart - 1] = ' ' || src.[wstart - 1] = '\n' || src.[wstart - 1] = '\t' || src.[wstart - 1] = '\r') in
        if boundary && preceded_by_ws && List.mem word path_stop_keywords then stop := Some wstart
        else i := wstop
      | _ -> incr i
  done;
  let stop = match !stop with Some p -> p | None -> n in
  let sub = String.trim (String.sub src start (stop - start)) in
  set_pos s stop;
  sub

(* Split a trailing "/@name" attribute selection off a path substring. *)
let split_attr sub =
  match String.rindex_opt sub '@' with
  | Some i
    when (i >= 1 && sub.[i - 1] = '/')
         || i = 0 ->
    let attr = String.sub sub (i + 1) (String.length sub - i - 1) in
    let valid_attr = attr <> "" && String.for_all (fun c -> is_word_char c || c = '-' || c = '*') attr in
    (* make sure the '@' is not inside brackets (a qualifier) *)
    let in_brackets =
      let depth = ref 0 in
      let inside = ref false in
      String.iteri
        (fun j c ->
          if c = '[' then incr depth
          else if c = ']' then decr depth
          else if j = i && !depth > 0 then inside := true)
        sub;
      !inside
    in
    if valid_attr && not in_brackets then
      let path_part = if i = 0 then "" else String.sub sub 0 (i - 1) in
      Some (path_part, attr)
    else None
  | _ -> None

let parse_path_string sub =
  try Xut_xpath.Parser.parse sub
  with Xut_xpath.Parser.Parse_error m | Xut_xpath.Lexer.Lex_error { msg = m; _ } ->
    fail "bad path %S: %s" sub m

(* Attach a scanned path substring to a base expression. *)
let attach_path base sub =
  if sub = "" then base
  else
    match split_attr sub with
    | Some ("", attr) -> Xq_ast.AttrPath (base, [], attr)
    | Some (path_part, attr) ->
      let path_part =
        (* "a/b" from "a/b/@id"; a lone "//" prefix survives trimming *)
        if path_part = "" then [] else parse_path_string path_part
      in
      Xq_ast.AttrPath (base, path_part, attr)
    | None -> Xq_ast.Path (base, parse_path_string sub)

(* ---------------- XML literals ---------------- *)

(* References decode as the document parser decodes them. *)
let decoded text =
  try Xut_xml.Sax.decode_references text with Xut_xml.Sax.Parse_error { msg; _ } -> fail "%s" msg

let is_all_ws s = String.for_all (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r') s

(* ---------------- expressions ---------------- *)

let rec parse_expr_seq s =
  let first = parse_expr_single s in
  if peek s = COMMA then begin
    let items = ref [ first ] in
    while peek s = COMMA do
      advance s;
      items := parse_expr_single s :: !items
    done;
    Xq_ast.Seq (List.rev !items)
  end
  else first

and parse_expr_single s =
  match peek s with
  | NAME "for" | NAME "let" -> parse_flwor s
  | NAME "if" when peek_after_kw_is s LPAREN -> parse_if s
  | NAME ("some" | "every") -> parse_quant s
  | _ -> parse_or s

and peek_after_kw_is s tok =
  (* look one token past the current keyword without committing *)
  let save = pos s in
  advance s;
  let r = peek s = tok in
  set_pos s save;
  r

and parse_flwor s =
  let clauses = ref [] in
  let rec clause_loop () =
    match peek s with
    | NAME "for" ->
      advance s;
      let rec vars () =
        (match next s with
        | VAR v ->
          expect_kw s "in";
          clauses := Xq_ast.For (v, parse_expr_single s) :: !clauses
        | got -> fail "expected a variable in 'for', found %s" (token_to_string got));
        if peek s = COMMA then begin
          advance s;
          vars ()
        end
      in
      vars ();
      clause_loop ()
    | NAME "let" ->
      advance s;
      let rec vars () =
        (match next s with
        | VAR v ->
          expect s ASSIGN;
          clauses := Xq_ast.LetC (v, parse_expr_single s) :: !clauses
        | got -> fail "expected a variable in 'let', found %s" (token_to_string got));
        if peek s = COMMA then begin
          advance s;
          vars ()
        end
      in
      vars ();
      clause_loop ()
    | _ -> ()
  in
  clause_loop ();
  let where = if peek_is_kw s "where" then begin advance s; Some (parse_expr_single s) end else None in
  expect_kw s "return";
  let ret = parse_expr_single s in
  Xq_ast.Flwor (List.rev !clauses, where, ret)

and parse_if s =
  expect_kw s "if";
  expect s LPAREN;
  let c = parse_expr_seq s in
  expect s RPAREN;
  expect_kw s "then";
  let t = parse_expr_single s in
  expect_kw s "else";
  let e = parse_expr_single s in
  Xq_ast.If (c, t, e)

and parse_quant s =
  let q = match next s with NAME "some" -> `Some | NAME "every" -> `Every | _ -> assert false in
  let v = match next s with VAR v -> v | got -> fail "expected a variable, found %s" (token_to_string got) in
  expect_kw s "in";
  let src_e = parse_expr_single s in
  expect_kw s "satisfies";
  let body = parse_expr_single s in
  Xq_ast.Quant (q, v, src_e, body)

and parse_or s =
  let left = parse_and s in
  if peek_is_kw s "or" then begin
    advance s;
    Xq_ast.Or (left, parse_or s)
  end
  else left

and parse_and s =
  let left = parse_cmp s in
  if peek_is_kw s "and" then begin
    advance s;
    Xq_ast.And (left, parse_and s)
  end
  else left

and parse_cmp s =
  let left = parse_additive s in
  let op =
    match peek s with
    | EQ -> Some Xq_ast.Eq
    | NEQ -> Some Xq_ast.Neq
    | LT -> Some Xq_ast.Lt
    | LE -> Some Xq_ast.Le
    | GT -> Some Xq_ast.Gt
    | GE -> Some Xq_ast.Ge
    | NAME "eq" -> Some Xq_ast.Eq
    | NAME "ne" -> Some Xq_ast.Neq
    | NAME "lt" -> Some Xq_ast.Lt
    | NAME "le" -> Some Xq_ast.Le
    | NAME "gt" -> Some Xq_ast.Gt
    | NAME "ge" -> Some Xq_ast.Ge
    | _ -> None
  in
  match op with
  | Some op ->
    advance s;
    Xq_ast.Cmp (op, left, parse_additive s)
  | None ->
    if peek_is_kw s "is" then begin
      advance s;
      Xq_ast.Is (left, parse_additive s)
    end
    else left

and parse_additive s =
  let rec loop left =
    match peek s with
    | PLUS ->
      advance s;
      loop (Xq_ast.Arith (Xq_ast.Add, left, parse_multiplicative s))
    | MINUS ->
      advance s;
      loop (Xq_ast.Arith (Xq_ast.Sub, left, parse_multiplicative s))
    | _ -> left
  in
  loop (parse_multiplicative s)

and parse_multiplicative s =
  let rec loop left =
    match peek s with
    | STAR ->
      advance s;
      loop (Xq_ast.Arith (Xq_ast.Mul, left, parse_path_expr s))
    | NAME "div" ->
      advance s;
      loop (Xq_ast.Arith (Xq_ast.Div, left, parse_path_expr s))
    | NAME "mod" ->
      advance s;
      loop (Xq_ast.Arith (Xq_ast.Mod, left, parse_path_expr s))
    | _ -> left
  in
  loop (parse_path_expr s)

and parse_path_expr s =
  let base = parse_primary s in
  (* trailing path: '/', '//', '[' (predicate) or '/@attr' *)
  match peek_char s with
  | '/' | '[' ->
    let save = pos s in
    skip_ws s;
    (* don't confuse a following '//' with anything else; carve substring *)
    let sub = scan_path_substring s in
    if sub = "" then begin
      set_pos s save;
      base
    end
    else
      let sub = if sub.[0] = '[' then "." ^ sub else sub in
      attach_path base sub
  | _ -> base

and parse_primary s =
  (* XML literal? must check raw characters before tokenizing '<' *)
  (match peek_char s with
  | '<' -> `Xml
  | _ -> `Tok)
  |> function
  | `Xml -> parse_xml_literal s
  | `Tok -> (
    match peek s with
    | LPAREN ->
      advance s;
      if peek s = RPAREN then begin
        advance s;
        Xq_ast.Empty
      end
      else begin
        let e = parse_expr_seq s in
        expect s RPAREN;
        e
      end
    | STR v ->
      advance s;
      Xq_ast.Str v
    | NUM f ->
      advance s;
      Xq_ast.Num f
    | VAR v ->
      advance s;
      Xq_ast.Var v
    | DOT ->
      advance s;
      Xq_ast.Context
    | SLASH | DSLASH | STAR | AT ->
      (* absolute or relative path from the context item *)
      let sub = scan_path_substring s in
      attach_path Xq_ast.Context (if sub.[0] = '@' then "/" ^ sub else sub)
    | NAME "element" when peek_after_kw_is s LBRACE ->
      advance s;
      expect s LBRACE;
      let name_e = parse_expr_seq s in
      expect s RBRACE;
      expect s LBRACE;
      let content = if peek s = RBRACE then Xq_ast.Empty else parse_expr_seq s in
      expect s RBRACE;
      Xq_ast.ElemDyn (name_e, content)
    | NAME "text" when peek_after_kw_is s LBRACE ->
      advance s;
      expect s LBRACE;
      let e = parse_expr_seq s in
      expect s RBRACE;
      Xq_ast.TextCtor e
    | NAME "document" when peek_after_kw_is s LBRACE ->
      advance s;
      expect s LBRACE;
      let e = parse_expr_seq s in
      expect s RBRACE;
      Xq_ast.DocCtor e
    | NAME name when peek_after_kw_is s LPAREN ->
      advance s;
      advance s;
      let args =
        if peek s = RPAREN then []
        else begin
          let args = ref [ parse_expr_single s ] in
          while peek s = COMMA do
            advance s;
            args := parse_expr_single s :: !args
          done;
          List.rev !args
        end
      in
      expect s RPAREN;
      Xq_ast.Call (name, args)
    | NAME _ ->
      (* a bare name opens a context-relative path *)
      let sub = scan_path_substring s in
      attach_path Xq_ast.Context sub
    | got -> fail "unexpected token %s" (token_to_string got))

(* ---------------- XML literals ---------------- *)

and parse_xml_literal s =
  skip_ws s;
  let source = src s in
  let n = String.length source in
  let cur () = pos s in
  let at i = if i < n then source.[i] else '\000' in
  let adv k = set_pos s (cur () + k) in
  let read_raw_name () =
    let start = cur () in
    let rec go j = if j < n && (is_word_char source.[j] || source.[j] = '-' || source.[j] = ':') then go (j + 1) else j in
    let stop = go start in
    if stop = start then fail "expected a name in XML literal at offset %d" start;
    set_pos s stop;
    String.sub source start (stop - start)
  in
  let skip_spaces () =
    while at (cur ()) = ' ' || at (cur ()) = '\n' || at (cur ()) = '\t' || at (cur ()) = '\r' do
      adv 1
    done
  in
  if at (cur ()) <> '<' then fail "expected '<'";
  adv 1;
  let name = read_raw_name () in
  (* attributes *)
  let attrs = ref [] in
  let rec attr_loop () =
    skip_spaces ();
    let c = at (cur ()) in
    if is_word_char c then begin
      let k = read_raw_name () in
      skip_spaces ();
      if at (cur ()) <> '=' then fail "expected '=' in attribute";
      adv 1;
      skip_spaces ();
      let q = at (cur ()) in
      if q <> '"' && q <> '\'' then fail "expected a quoted attribute value";
      adv 1;
      let start = cur () in
      let rec find j = if j >= n then fail "unterminated attribute" else if source.[j] = q then j else find (j + 1) in
      let stop = find start in
      set_pos s stop;
      adv 1;
      attrs := (k, decoded (String.sub source start (stop - start))) :: !attrs;
      attr_loop ()
    end
  in
  attr_loop ();
  skip_spaces ();
  if at (cur ()) = '/' && at (cur () + 1) = '>' then begin
    adv 2;
    Xq_ast.ElemLit (name, List.rev !attrs, [])
  end
  else begin
    if at (cur ()) <> '>' then fail "expected '>' in XML literal";
    adv 1;
    (* content loop *)
    let children = ref [] in
    let buf = Buffer.create 32 in
    let flush_text () =
      let t = Buffer.contents buf in
      Buffer.clear buf;
      (* literal constructor content is a text node, not an atomic value
         (atomics would be space-joined with their neighbours) *)
      if t <> "" && not (is_all_ws t) then
        children := Xq_ast.TextCtor (Xq_ast.Str (decoded t)) :: !children
    in
    let rec content () =
      if cur () >= n then fail "unterminated element <%s>" name
      else if at (cur ()) = '{' then
        if at (cur () + 1) = '{' then begin
          Buffer.add_char buf '{';
          adv 2;
          content ()
        end
        else begin
          flush_text ();
          adv 1;
          let e = parse_expr_seq s in
          expect s RBRACE;
          skip_ws s;
          children := e :: !children;
          content ()
        end
      else if at (cur ()) = '}' && at (cur () + 1) = '}' then begin
        Buffer.add_char buf '}';
        adv 2;
        content ()
      end
      else if at (cur ()) = '<' then
        if at (cur () + 1) = '/' then begin
          flush_text ();
          adv 2;
          let close = read_raw_name () in
          if close <> name then fail "mismatched XML literal: <%s> closed by </%s>" name close;
          skip_spaces ();
          if at (cur ()) <> '>' then fail "expected '>'";
          adv 1
        end
        else if at (cur () + 1) = '!' then begin
          (* comment *)
          if at (cur () + 2) <> '-' || at (cur () + 3) <> '-' then
            fail "unsupported markup in XML literal";
          let rec find j =
            if j + 3 > n then fail "unterminated comment"
            else if String.sub source j 3 = "-->" then j
            else find (j + 1)
          in
          let stop = find (cur () + 4) in
          set_pos s (stop + 3);
          content ()
        end
        else begin
          flush_text ();
          let child = parse_xml_literal s in
          children := child :: !children;
          content ()
        end
      else begin
        Buffer.add_char buf (at (cur ()));
        adv 1;
        content ()
      end
    in
    content ();
    Xq_ast.ElemLit (name, List.rev !attrs, List.rev !children)
  end

(* ---------------- programs ---------------- *)

let parse_seq_type s =
  (* 'as' NAME ['(' ')'] ['*'|'?'|'+']  — parsed and ignored *)
  (match next s with
  | NAME _ -> ()
  | got -> fail "expected a type name, found %s" (token_to_string got));
  if peek s = LPAREN then begin
    advance s;
    expect s RPAREN
  end;
  match peek s with
  | STAR ->
    advance s
  | NAME "?" -> advance s
  | _ -> ()

let parse_fundef s =
  expect_kw s "declare";
  expect_kw s "function";
  let fname = match next s with NAME n -> n | got -> fail "expected a function name, found %s" (token_to_string got) in
  expect s LPAREN;
  let params = ref [] in
  if peek s <> RPAREN then begin
    let rec loop () =
      (match next s with
      | VAR v ->
        params := v :: !params;
        if peek_is_kw s "as" then begin
          advance s;
          parse_seq_type s
        end
      | got -> fail "expected a parameter, found %s" (token_to_string got));
      if peek s = COMMA then begin
        advance s;
        loop ()
      end
    in
    loop ()
  end;
  expect s RPAREN;
  if peek_is_kw s "as" then begin
    advance s;
    parse_seq_type s
  end;
  expect s LBRACE;
  let body = parse_expr_seq s in
  expect s RBRACE;
  if peek s = SEMI then advance s;
  { Xq_ast.fname; params = List.rev !params; body }

let parse source =
  let s = of_string source in
  let functions = ref [] in
  (try
     while peek_is_kw s "declare" do
       functions := parse_fundef s :: !functions
     done;
     ()
   with Scan_error { pos; msg } -> fail "scan error at %d: %s" pos msg);
  let body =
    try parse_expr_seq s
    with Scan_error { pos; msg } -> fail "scan error at %d: %s" pos msg
  in
  (match peek s with
  | EOF -> ()
  | got -> fail "trailing input: %s" (token_to_string got));
  { Xq_ast.functions = List.rev !functions; body }

let parse_expr source =
  let p = parse source in
  if p.Xq_ast.functions <> [] then fail "unexpected function declarations";
  p.Xq_ast.body
