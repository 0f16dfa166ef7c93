open Xut_xml
open Xut_xpath

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type cursor = { src : string; mutable pos : int }

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_ws c =
  while c.pos < String.length c.src && is_ws c.src.[c.pos] do
    c.pos <- c.pos + 1
  done

let is_word_char ch =
  (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || (ch >= '0' && ch <= '9') || ch = '_'

let peek_word c =
  skip_ws c;
  let start = c.pos in
  let n = String.length c.src in
  let stop = ref start in
  while !stop < n && is_word_char c.src.[!stop] do
    incr stop
  done;
  String.sub c.src start (!stop - start)

let read_word c =
  let w = peek_word c in
  c.pos <- c.pos + String.length w;
  w

let expect_word c w =
  let got = read_word c in
  if got <> w then fail "expected %S, found %S" w got

let expect_char c ch =
  skip_ws c;
  if c.pos >= String.length c.src || c.src.[c.pos] <> ch then
    fail "expected %C at offset %d" ch c.pos;
  c.pos <- c.pos + 1

let read_string_lit c =
  skip_ws c;
  let n = String.length c.src in
  if c.pos >= n || (c.src.[c.pos] <> '"' && c.src.[c.pos] <> '\'') then
    fail "expected a string literal at offset %d" c.pos;
  let quote = c.src.[c.pos] in
  let start = c.pos + 1 in
  let stop = ref start in
  while !stop < n && c.src.[!stop] <> quote do
    incr stop
  done;
  if !stop >= n then fail "unterminated string literal";
  c.pos <- !stop + 1;
  String.sub c.src start (!stop - start)

let read_var c =
  expect_char c '$';
  let w = read_word c in
  if w = "" then fail "expected a variable name after '$'";
  w

(* An XML element literal at the cursor, read by the document parser up
   to its end tag; comments and PIs may come before it. *)
let read_element c =
  skip_ws c;
  if c.pos >= String.length c.src || c.src.[c.pos] <> '<' then
    fail "expected an XML element at offset %d" c.pos;
  match Dom.parse_element c.src c.pos with
  | e, i ->
    c.pos <- i;
    Node.Element e
  | exception Sax.Parse_error { msg; _ } -> fail "bad XML element literal: %s" msg

(* Find the offset of keyword [kw] (word-delimited, outside string
   literals) at or after [pos]; end of input when absent. *)
let find_keyword c kw =
  let n = String.length c.src in
  let klen = String.length kw in
  let rec go p quote =
    if p >= n then n
    else if quote <> '\000' then go (p + 1) (if c.src.[p] = quote then '\000' else quote)
    else
      match c.src.[p] with
      | ('"' | '\'') as q -> go (p + 1) q
      | ch
        when ch = kw.[0]
             && p + klen <= n
             && String.sub c.src p klen = kw
             && (p = 0 || not (is_word_char c.src.[p - 1]))
             && (p + klen = n || not (is_word_char c.src.[p + klen])) ->
        p
      | _ -> go (p + 1) quote
  in
  go c.pos '\000'

(* Where does a path expression end?  At the stop keyword, or — inside an
   update sequence — at a top-level ',' or ')' (brackets, parentheses and
   string literals are tracked so qualifiers stay intact). *)
let find_path_end c ~stop =
  let kw_pos = find_keyword c stop in
  let n = String.length c.src in
  let rec go p depth quote =
    if p >= min kw_pos n then kw_pos
    else if quote <> '\000' then go (p + 1) depth (if c.src.[p] = quote then '\000' else quote)
    else
      match c.src.[p] with
      | ('"' | '\'') as q -> go (p + 1) depth q
      | '[' | '(' -> go (p + 1) (depth + 1) quote
      | ']' -> go (p + 1) (depth - 1) quote
      | ')' when depth = 0 -> p
      | ')' -> go (p + 1) (depth - 1) quote
      | ',' when depth = 0 -> p
      | _ -> go (p + 1) depth quote
  in
  go c.pos 0 '\000'

(* Parse "$a/path" or "$a//path" up to (not including) keyword [stop],
   a top-level ',' or a top-level ')'. *)
let read_var_path c ~var ~stop =
  let v = read_var c in
  if v <> var then fail "expected $%s, found $%s" var v;
  let stop_pos = find_path_end c ~stop in
  let path_src = String.sub c.src c.pos (stop_pos - c.pos) in
  c.pos <- stop_pos;
  let path_src = String.trim path_src in
  if path_src = "" then []
  else
    try Parser.parse path_src
    with Parser.Parse_error msg | Lexer.Lex_error { msg; _ } ->
      fail "bad XPath %S: %s" path_src msg

let rec parse_update_at c ~var =
  skip_ws c;
  match peek_word c with
  | "insert" ->
    expect_word c "insert";
    let e = read_element c in
    let first =
      if peek_word c = "as" then begin
        expect_word c "as";
        match read_word c with
        | "first" -> true
        | "last" -> false
        | w -> fail "expected 'first' or 'last', found %S" w
      end
      else false
    in
    expect_word c "into";
    let p = read_var_path c ~var ~stop:"return" in
    if first then Transform_ast.Insert_first (p, e) else Transform_ast.Insert (p, e)
  | "delete" ->
    expect_word c "delete";
    let p = read_var_path c ~var ~stop:"return" in
    Transform_ast.Delete p
  | "replace" ->
    expect_word c "replace";
    let p = read_var_path c ~var ~stop:"with" in
    expect_word c "with";
    let e = read_element c in
    Transform_ast.Replace (p, e)
  | "rename" ->
    expect_word c "rename";
    let p = read_var_path c ~var ~stop:"as" in
    expect_word c "as";
    let l = read_word c in
    if l = "" then fail "expected a label after 'as'";
    Transform_ast.Rename (p, l)
  | w -> fail "expected an update operation, found %S" w

(* "( u1, u2, ... )" — an update sequence, applied left to right. *)
and parse_updates_at c ~var =
  skip_ws c;
  if c.pos < String.length c.src && c.src.[c.pos] = '(' then begin
    expect_char c '(';
    let rec loop acc =
      let u = parse_update_at c ~var in
      skip_ws c;
      if c.pos < String.length c.src && c.src.[c.pos] = ',' then begin
        expect_char c ',';
        loop (u :: acc)
      end
      else begin
        expect_char c ')';
        List.rev (u :: acc)
      end
    in
    loop []
  end
  else [ parse_update_at c ~var ]

let parse_header c =
  expect_word c "transform";
  expect_word c "copy";
  let var = read_var c in
  skip_ws c;
  expect_char c ':';
  expect_char c '=';
  expect_word c "doc";
  expect_char c '(';
  let doc = read_string_lit c in
  expect_char c ')';
  expect_word c "modify";
  skip_ws c;
  if peek_word c = "do" then expect_word c "do";
  (var, doc)

let parse_footer c ~var =
  expect_word c "return";
  let v = read_var c in
  if v <> var then fail "transform must return $%s" var;
  skip_ws c;
  if c.pos < String.length c.src then fail "trailing input after transform query"

let parse src =
  let c = { src; pos = 0 } in
  let var, doc = parse_header c in
  let update = parse_update_at c ~var in
  parse_footer c ~var;
  { Transform_ast.var; doc; update }

(* The bare write-query form: an update or a sequence over $a, with an
   optional trailing "return $a". *)
let parse_bare c parse_at =
  let r = parse_at c ~var:"a" in
  skip_ws c;
  if c.pos < String.length c.src then parse_footer c ~var:"a";
  r

let parse_update src = parse_bare { src; pos = 0 } parse_update_at

let parse_updates src =
  let c = { src; pos = 0 } in
  if peek_word c = "transform" then begin
    let var, _doc = parse_header c in
    let updates = parse_updates_at c ~var in
    parse_footer c ~var;
    updates
  end
  else parse_bare c parse_updates_at
