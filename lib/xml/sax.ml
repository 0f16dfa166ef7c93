type event =
  | Start_document
  | Start_element of string * (string * string) list
  | Characters of string
  | Comment_event of string
  | Pi_event of string * string
  | End_element of string
  | End_document

exception Parse_error of { line : int; col : int; msg : string }

let equal_event (a : event) (b : event) = a = b

(* The parser pulls characters from a chunked {!Reader}, so its memory is
   O(chunk + current token) — documents never need to fit in memory.

   Lexing scans the reader's buffer window in place: text runs, attribute
   values and whitespace are consumed a window at a time, and names are
   taken straight from the window when they end inside it.  A name that
   runs into the window's limit may continue in the next chunk, so it is
   re-read from its start by the per-character code ([read_name] over
   [Reader.peek]/[advance]), which crosses refills by construction.
   References, comments, PIs, CDATA and DOCTYPE stay per-character.

   A parse allocates its events and their strings, nothing else per
   element: known names are interned without a copy, and the open tags
   sit in an array that doubles when full. *)

let error r msg = raise (Parse_error { line = Reader.line r; col = Reader.col r; msg })

(* An error reported at a token that began [back] bytes before the cursor,
   on the cursor's line. *)
let error_back r back msg =
  raise (Parse_error { line = Reader.line r; col = Reader.col r - back; msg })

let expect r c =
  let got = Reader.peek r in
  if got <> c then error r (Printf.sprintf "expected %C, found %C" c got);
  Reader.advance r

let expect_string r s = String.iter (fun c -> expect r c) s

let[@inline] is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let[@inline] is_name_start = function 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false

let[@inline] is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' | '-' | '.' -> true
  | _ -> false

(* Window scanners: the first offset in [i, n) of [b] that ends the
   token, or [n] when the token runs to the window's limit. *)

let rec ws_end b i n = if i < n && is_ws (Bytes.unsafe_get b i) then ws_end b (i + 1) n else i

let rec name_end b i n = if i < n && is_name_char (Bytes.unsafe_get b i) then name_end b (i + 1) n else i

let rec text_end b i n =
  if i < n then match Bytes.unsafe_get b i with '<' | '&' | '\000' -> i | _ -> text_end b (i + 1) n
  else i

let rec value_end b i n quote =
  if i < n then
    let c = Bytes.unsafe_get b i in
    if c = quote || c = '&' || c = '\000' then i else value_end b (i + 1) n quote
  else i

let rec skip_ws r =
  let n = Reader.limit r in
  let i = ws_end (Reader.window r) (Reader.pos r) n in
  Reader.set_pos r i;
  if i = n && not (Reader.eof r) then skip_ws r

let read_name r =
  if not (is_name_start (Reader.peek r)) then error r "expected a name";
  let buf = Buffer.create 16 in
  while (not (Reader.eof r)) && is_name_char (Reader.peek r) do
    Buffer.add_char buf (Reader.next r)
  done;
  Buffer.contents buf

(* End offset of a name starting at the cursor and ending inside the
   window, or -1 when it does not begin with a name-start character or runs
   into the window's limit. *)
let window_name r =
  let b = Reader.window r and p = Reader.pos r and n = Reader.limit r in
  if p < n && is_name_start (Bytes.unsafe_get b p) then
    let i = name_end b (p + 1) n in
    if i < n then i else -1
  else -1

(* Element names are interned from the window: a known name allocates
   nothing and every event carries the shared interned string.  Interning
   also warms the table for the consumers that run automata over the
   events and intern again. *)
let read_element_name r =
  match window_name r with
  | -1 -> Sym.name (Sym.intern (read_name r))
  | i ->
    let p = Reader.pos r in
    Reader.set_pos r i;
    Sym.intern_sub (Reader.window r) p (i - p)

(* Attribute names are copied, not interned: input can bring an
   unbounded set of them. *)
let read_attr_name r =
  match window_name r with
  | -1 -> read_name r
  | i ->
    let p = Reader.pos r in
    Reader.set_pos r i;
    Bytes.sub_string (Reader.window r) p (i - p)

let utf8_encode code =
  if code < 0x80 then String.make 1 (Char.chr code)
  else begin
    let b = Buffer.create 4 in
    if code < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end;
    Buffer.contents b
  end

let digit_value ~hex = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c when hex -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c when hex -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* Entity and character references, starting at the '&'.  A character
   reference must name a Unicode scalar value other than U+0000; its
   value is checked digit by digit, so a long run of digits stops at the
   first one past U+10FFFF.  Those errors point at the '&'. *)
let read_reference r =
  let start = Reader.bytes_read r in
  expect r '&';
  if Reader.peek r = '#' then begin
    Reader.advance r;
    let hex = Reader.peek r = 'x' in
    if hex then Reader.advance r;
    let base = if hex then 16 else 10 in
    let invalid msg = error_back r (Reader.bytes_read r - start) msg in
    let code = ref 0 and ndigits = ref 0 in
    let d = ref (digit_value ~hex (Reader.peek r)) in
    while !d >= 0 do
      Reader.advance r;
      code := (!code * base) + !d;
      incr ndigits;
      if !code > 0x10FFFF then invalid "character reference out of range";
      d := digit_value ~hex (Reader.peek r)
    done;
    if !ndigits = 0 then error r "empty character reference";
    expect r ';';
    if !code = 0 then invalid "character reference to U+0000"
    else if !code >= 0xD800 && !code <= 0xDFFF then invalid "character reference to a surrogate"
    else utf8_encode !code
  end
  else begin
    let name = read_name r in
    expect r ';';
    match name with
    | "amp" -> "&"
    | "lt" -> "<"
    | "gt" -> ">"
    | "quot" -> "\""
    | "apos" -> "'"
    | other -> error r (Printf.sprintf "unknown entity &%s;" other)
  end

(* The rest of an attribute value, its opening quote consumed, assembled
   in [vbuf] a window at a time.  A value that ends inside the window it
   starts in, with no reference, is copied once from the window. *)
let rec read_value_rest r vbuf quote =
  let b = Reader.window r and p = Reader.pos r and n = Reader.limit r in
  let i = value_end b p n quote in
  Reader.set_pos r i;
  if i < n && Bytes.unsafe_get b i = quote then begin
    Reader.advance r;
    if Buffer.length vbuf = 0 then Bytes.sub_string b p (i - p)
    else begin
      Buffer.add_subbytes vbuf b p (i - p);
      Buffer.contents vbuf
    end
  end
  else begin
    Buffer.add_subbytes vbuf b p (i - p);
    if i < n then begin
      if Bytes.unsafe_get b i = '\000' then error r "NUL byte in attribute value";
      Buffer.add_string vbuf (read_reference r);
      read_value_rest r vbuf quote
    end
    else if Reader.eof r then error r "unterminated attribute value"
    else read_value_rest r vbuf quote
  end

let read_attr_value r vbuf =
  let quote = Reader.peek r in
  if quote <> '"' && quote <> '\'' then error r "expected attribute value";
  Reader.advance r;
  Buffer.clear vbuf;
  read_value_rest r vbuf quote

let rec read_attributes r vbuf acc =
  skip_ws r;
  if is_name_start (Reader.peek r) then begin
    let k = read_attr_name r in
    skip_ws r;
    expect r '=';
    skip_ws r;
    let v = read_attr_value r vbuf in
    read_attributes r vbuf ((k, v) :: acc)
  end
  else List.rev acc

let rec is_ws_from buf i = i >= Buffer.length buf || (is_ws (Buffer.nth buf i) && is_ws_from buf (i + 1))

let rec equal_sub s b off i =
  i >= String.length s || (String.unsafe_get s i = Bytes.unsafe_get b (off + i) && equal_sub s b off (i + 1))

(* The name of a closing tag, the "</" consumed.  When it matches [top],
   the innermost open element ("" when none is open), it is compared in
   the window and that element's own string is returned, so nothing is
   allocated. *)
let read_close_name r top =
  match window_name r with
  | -1 -> read_name r
  | i ->
    let b = Reader.window r and p = Reader.pos r in
    Reader.set_pos r i;
    if String.length top = i - p && equal_sub top b p 0 then top else Bytes.sub_string b p (i - p)

(* Does the buffer end with [term]? (Buffer.nth is O(1).) *)
let buffer_ends_with buf term =
  let n = Buffer.length buf in
  let k = String.length term in
  n >= k
  &&
  let rec go i = i >= k || (Buffer.nth buf (n - k + i) = term.[i] && go (i + 1)) in
  go 0

(* Read characters until the literal [term] appears, consuming it; the
   content before [term] is returned. *)
let read_until r term =
  let buf = Buffer.create 32 in
  let rec loop () =
    if Reader.eof r then error r ("unterminated: expected " ^ term)
    else begin
      if Reader.peek r = '\000' then error r "NUL byte";
      Buffer.add_char buf (Reader.next r);
      if buffer_ends_with buf term then
        Buffer.sub buf 0 (Buffer.length buf - String.length term)
      else loop ()
    end
  in
  loop ()

(* Skip a DOCTYPE declaration, including an internal subset. *)
let skip_doctype r =
  (* called after "<!DOCTYPE" has been consumed *)
  let depth = ref 1 in
  while !depth > 0 do
    if Reader.eof r then error r "unterminated DOCTYPE";
    (match Reader.peek r with
    | '<' -> incr depth
    | '>' -> decr depth
    | '[' -> incr depth
    | ']' -> decr depth
    | '\000' -> error r "NUL byte"
    | _ -> ());
    Reader.advance r
  done

let parse_events ~keep_ws r handler =
  handler Start_document;
  (* The open elements, innermost at [depth - 1], in an array that
     doubles when full: an open tag costs a slot write, not a cons. *)
  let tags = ref (Array.make 64 "") and depth = ref 0 in
  let top () = if !depth = 0 then "" else Array.unsafe_get !tags (!depth - 1) in
  let push name =
    if !depth = Array.length !tags then begin
      let grown = Array.make (2 * !depth) "" in
      Array.blit !tags 0 grown 0 !depth;
      tags := grown
    end;
    Array.unsafe_set !tags !depth name;
    incr depth
  in
  let text = Buffer.create 64 in
  let vbuf = Buffer.create 64 in
  (* Whether a text run is reported, given whether it is whitespace only;
     the caller copies the run only when it is, so dropped runs never
     allocate.  Outside the document element only whitespace may occur. *)
  let wanted ws =
    if !depth = 0 then begin
      if not ws then error r "text outside the document element";
      false
    end
    else keep_ws || not ws
  in
  let flush_text () =
    if Buffer.length text > 0 then begin
      if wanted (is_ws_from text 0) then handler (Characters (Buffer.contents text));
      Buffer.clear text
    end
  in
  (* A text run up to the next '<' or '&' or the window's limit.  One that
     ends at a '<' inside the window with nothing buffered before it is
     the whole run and is copied once; any other is appended to [text]. *)
  let text_run () =
    let b = Reader.window r and p = Reader.pos r and n = Reader.limit r in
    let i = text_end b p n in
    Reader.set_pos r i;
    if Buffer.length text = 0 && i < n && Bytes.unsafe_get b i = '<' then begin
      if wanted (ws_end b p i = i) then handler (Characters (Bytes.sub_string b p (i - p)))
    end
    else begin
      Buffer.add_subbytes text b p (i - p);
      if i < n && Bytes.unsafe_get b i = '\000' then error r "NUL byte in character data"
    end
  in
  let markup () =
    match Reader.peek r with
    | '?' ->
      Reader.advance r;
      let target = read_name r in
      skip_ws r;
      let content = read_until r "?>" in
      if String.lowercase_ascii target <> "xml" then handler (Pi_event (target, content))
    | '!' ->
      Reader.advance r;
      if Reader.peek r = '-' then begin
        expect_string r "--";
        let content = read_until r "-->" in
        handler (Comment_event content)
      end
      else if Reader.peek r = '[' then begin
        expect_string r "[CDATA[";
        let content = read_until r "]]>" in
        if !depth = 0 then error r "CDATA outside the document element";
        handler (Characters content)
      end
      else begin
        expect_string r "DOCTYPE";
        skip_doctype r
      end
    | '/' -> (
      Reader.advance r;
      let top = top () in
      let name = read_close_name r top in
      skip_ws r;
      expect r '>';
      if !depth = 0 then error r (Printf.sprintf "closing tag </%s> with no open element" name);
      if not (String.equal top name) then
        error r (Printf.sprintf "mismatched tags: <%s> closed by </%s>" top name);
      decr depth;
      handler (End_element top))
    | _ ->
      let name = read_element_name r in
      let attrs = read_attributes r vbuf [] in
      skip_ws r;
      if Reader.peek r = '/' then begin
        Reader.advance r;
        expect r '>';
        handler (Start_element (name, attrs));
        handler (End_element name)
      end
      else begin
        expect r '>';
        push name;
        handler (Start_element (name, attrs))
      end
  in
  let rec loop () =
    if Reader.eof r then begin
      flush_text ();
      if !depth > 0 then error r ("unclosed element <" ^ top () ^ ">");
      handler End_document
    end
    else begin
      (match Reader.peek r with
      | '<' ->
        flush_text ();
        Reader.advance r;
        markup ()
      | '&' -> Buffer.add_string text (read_reference r)
      | _ -> text_run ());
      loop ()
    end
  in
  loop ()

let parse_reader ?(keep_ws = false) r handler = parse_events ~keep_ws r handler

let parse_string ?keep_ws src handler = parse_reader ?keep_ws (Reader.of_string src) handler

let parse_channel ?keep_ws ic handler = parse_reader ?keep_ws (Reader.of_channel ic) handler

let parse_file ?keep_ws path handler =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> parse_channel ?keep_ws ic handler)

let events_of_node node handler =
  let rec emit = function
    | Node.Element e ->
      handler (Start_element (Node.name e, Node.attrs e));
      List.iter emit (Node.children e);
      handler (End_element (Node.name e))
    | Node.Text s -> handler (Characters s)
    | Node.Comment s -> handler (Comment_event s)
    | Node.Pi (t, c) -> handler (Pi_event (t, c))
  in
  emit node

let events_of_tree root handler =
  handler Start_document;
  events_of_node (Node.Element root) handler;
  handler End_document
