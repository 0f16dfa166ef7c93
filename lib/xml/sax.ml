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

(* The parser lexes in place in the reader's window: one loop ([content])
   dispatches on the byte at its cursor, and each token (start tag,
   attribute, text run, reference, end tag, comment, PI, CDATA section,
   DOCTYPE) is scanned by a top-level function that takes the cursor as
   an argument and returns the one past the token, so the lexer's cursor
   never lives in the reader and the lexer runs no closure of its own per
   token.  The reader is touched only at a refill.

   A token that runs into the window's limit is finished by refilling
   with [Reader.refill r keep], where [keep] is the token's first offset:
   the reader moves the token's unread tail to the front of the next
   window, so a name is always whole in one window (every offset moves
   down by [keep]; a scan keeps an absolute position, [r.retired + off],
   when it needs an offset from before the refill).  Text runs and
   attribute values keep nothing: the part seen so far goes to a
   [Buffer] and the scan resumes in the next window.  A comment, PI or
   CDATA section is kept whole in the window like a name ([until]); a
   DOCTYPE keeps nothing.

   Errors report the line and column of a window offset: the reader
   counts the newlines of each window as it discards it and scans the
   live window up to the offset only when an error is raised.

   A parse allocates its events and their strings, nothing else per
   element: known names are interned without a copy, and the open tags
   sit in an array that doubles when full.


   Steering.  A parse given a steering handle asks the handle's hook
   about each start tag it meets in [Events] mode, once it has interned
   the tag's name and before it reads the attributes: [Walk] makes the
   tag's event as an unsteered parse would; [Copy] and [Skip] consume the
   whole element, its start tag included, in another mode of the same
   loop: [Copying w] writes each token into the writer [w] as [write w]
   would write its events, [Skipping] only checks and counts.  Neither
   makes an event, attribute list or string, nor interns a name: the
   names open in the steered element are held as bytes in [raw].  The
   loop returns when the element's end tag pops it, and the parse goes
   on from there in [Events] mode.

   Both modes first try each token as a canonical one (see "canonical
   runs" below): markup already in the writer's form and whole in the
   window is consumed with no writer call of its own, and copy mode
   blits a run of it at once.  Any other token takes the token path
   from its first byte, so errors are the token path's. *)

type decision = Walk | Copy | Skip

type mode = Events | Copying of Writer.t | Skipping

type st = {
  r : Reader.t;
  mutable handler : event -> unit;
  keep_ws : bool;
  here : Counter.local;  (* the parsing domain's counter cells *)
  (* the hook of a steered parse, and the mode its [Copy] answer takes
     ([Events] when the handle has no writer) *)
  steered : bool;
  decide : int -> Sym.t -> decision;
  copying : mode;
  (* the open elements, innermost at [depth - 1]: those opened in
     [Events] mode in [tags]; in a steered element, the ones from the
     steered element down (at depth [base] and below) in [raw], element
     [k] (at depth [base + k]) ending at [raw_ends.(k)] and starting
     where the one before it ends *)
  mutable tags : string array;
  mutable raw : Bytes.t;
  mutable raw_ends : int array;
  mutable depth : int;
  mutable base : int;
  mutable rooted : bool;  (* the document element has started *)
  mutable doctype_seen : bool;
  text : Buffer.t;  (* a text run that crossed a refill or holds a reference *)
  vbuf : Buffer.t;  (* the same for an attribute value *)
  mutable attrs : (string * string) list;  (* the open start tag's, reversed *)
  mutable value : string;  (* the attribute value just read *)
  mutable mode : mode;
  (* the loop returns once [depth] falls below [stop]: a steered
     element's depth plus one, 1 for an element literal, 0 otherwise *)
  mutable stop : int;
  mutable starts : int;  (* start tags met so far, in every mode *)
  mutable peak : int;  (* the deepest level a start tag reached in copy mode *)
  (* the input offset of the tag the hook is asked about ('<'), or past
     the end tag whose event the handler is given ('>') *)
  mutable mark : int;
  (* A canonical run in copy mode: its bytes from [run] are not yet in
     the writer; [owed] when the last token was a start tag, whose '>'
     is owed (at the run's end, or in the writer); the writer would
     flush after an event that leaves [room] or more of the run's bytes
     to write, an owed '>' not counted.  [cut] when the scan stopped at
     a token that runs past the window. *)
  mutable run : int;
  mutable owed : bool;
  mutable room : int;
  mutable cut : bool;
}

let blit_bytes = Counter.declare "sax_copy_blit_bytes"

(* Write one event's markup. *)
let write w = function
  | Start_document | End_document -> ()
  | Start_element (name, attrs) -> Writer.start_element w name attrs
  | Characters s -> Writer.text w s
  | Comment_event s -> Writer.comment w s
  | Pi_event (target, content) -> Writer.pi w target content
  | End_element name -> Writer.end_element w name

(* An event the lexer does not make on a hot path (a comment, a PI,
   CDATA, a text run assembled in [text]), in the current mode. *)
let deliver st ev =
  match st.mode with Events -> st.handler ev | Copying w -> write w ev | Skipping -> ()

let error_at r i msg = raise (Parse_error { line = Reader.line r i; col = Reader.col r i; msg })

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

let rec ref_end b i n =
  if i < n && (is_name_char (Bytes.unsafe_get b i) || Bytes.unsafe_get b i = '#') then
    ref_end b (i + 1) n
  else i

(* [i], moved by the refills that make a byte available at it (keeping
   the window from [keep]); [i = r.len] on return only at end of input. *)
let[@inline] avail (r : Reader.t) keep i =
  if i < r.len then i
  else begin
    ignore (Reader.refill r keep);
    i - keep
  end

(* The byte at [i], or '\000' past the window. *)
let[@inline] byte_at (r : Reader.t) i = if i < r.len then Bytes.unsafe_get r.buf i else '\000'

(* The end of a name (or of a reference's run of name characters and
   '#', with [in_ref]) scanned from [j], whose first byte is at [keep]:
   the window is refilled, keeping the token, until the token ends inside
   it or the input ends. *)
let rec token_end ~in_ref (r : Reader.t) keep j =
  let e = if in_ref then ref_end r.buf j r.len else name_end r.buf j r.len in
  if e < r.len then e
  else if Reader.refill r keep then token_end ~in_ref r 0 (e - keep)
  else e - keep

let rec skip_ws_slow (r : Reader.t) i =
  let e = ws_end r.buf i r.len in
  if e < r.len then e else if Reader.refill r e then skip_ws_slow r 0 else 0

let[@inline] skip_ws (r : Reader.t) i =
  if i < r.len && not (is_ws (Bytes.unsafe_get r.buf i)) then i else skip_ws_slow r i

let expect_slow r i c =
  let i = avail r i i in
  let got = byte_at r i in
  if got <> c then error_at r i (Printf.sprintf "expected %C, found %C" c got);
  i + 1

(* Check that the byte at [i] is [c]; the offset past it. *)
let[@inline] expect_at (r : Reader.t) i c =
  if i < r.len && Bytes.unsafe_get r.buf i = c then i + 1 else expect_slow r i c

(* The end of the name that must start at [i] ("expected a name" there
   otherwise).  The caller finds its start from the absolute position
   [r.retired + i] taken before the call. *)
let name_from (r : Reader.t) i =
  let i = avail r i i in
  if not (is_name_start (byte_at r i)) then error_at r i "expected a name";
  let e = name_end r.buf (i + 1) r.len in
  if e < r.len then e else token_end ~in_ref:false r i e

let digit_value ~hex = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c when hex -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c when hex -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* An entity or character reference starting at the '&' at [s], decoded
   into [buf]; the offset past its ';'.  The reference (its run of name
   characters and '#') is first made whole in the window.  A character
   reference must name a Unicode scalar value other than U+0000; its
   value is checked digit by digit, so a long run of digits stops at the
   first one past U+10FFFF.  Those errors point at the '&'. *)
let reference r buf s =
  let a = r.Reader.retired + s in
  ignore (token_end ~in_ref:true r s (s + 1));
  let s = a - r.retired in
  let k = s + 1 in
  if byte_at r k = '#' then begin
    let hex = byte_at r (k + 1) = 'x' in
    let k = ref (if hex then k + 2 else k + 1) in
    let base = if hex then 16 else 10 in
    let code = ref 0 and ndigits = ref 0 in
    let d = ref (digit_value ~hex (byte_at r !k)) in
    while !d >= 0 do
      incr k;
      code := (!code * base) + !d;
      incr ndigits;
      if !code > 0x10FFFF then error_at r s "character reference out of range";
      d := digit_value ~hex (byte_at r !k)
    done;
    if !ndigits = 0 then error_at r !k "empty character reference";
    let k = expect_at r !k ';' in
    if !code = 0 then error_at r s "character reference to U+0000"
    else if !code >= 0xD800 && !code <= 0xDFFF then
      error_at r s "character reference to a surrogate";
    Buffer.add_utf_8_uchar buf (Uchar.of_int !code);
    k
  end
  else begin
    if not (is_name_start (byte_at r k)) then error_at r k "expected a name";
    let e = name_end r.buf (k + 1) r.len in
    let name = Bytes.sub_string r.buf k (e - k) in
    let e = expect_at r e ';' in
    Buffer.add_char buf
      (match name with
      | "amp" -> '&'
      | "lt" -> '<'
      | "gt" -> '>'
      | "quot" -> '"'
      | "apos" -> '\''
      | other -> error_at r e (Printf.sprintf "unknown entity &%s;" other));
    e
  end

(* ---- comments, PIs, CDATA and DOCTYPE ---- *)

let rec equal_sub s b off i =
  i >= String.length s
  || (String.unsafe_get s i = Bytes.unsafe_get b (off + i) && equal_sub s b off (i + 1))

(* The offset of the first [term] at or after [j], no NUL byte coming
   before it; the window is refilled, keeping it from [keep], until the
   term is whole in it.  Errors point at the NUL byte, or at the end of
   the input for a missing term. *)
let rec until (r : Reader.t) keep j term =
  if j + String.length term <= r.len then
    if Bytes.unsafe_get r.buf j = '\000' then error_at r j "NUL byte"
    else if equal_sub term r.buf j 0 then j
    else until r keep (j + 1) term
  else if Reader.refill r keep then until r 0 (j - keep) term
  else begin
    for k = j - keep to r.len - 1 do
      if Bytes.unsafe_get r.buf k = '\000' then error_at r k "NUL byte"
    done;
    error_at r r.len ("unterminated: expected " ^ term)
  end

(* The bytes from [i] up to the first [term], and the offset past it. *)
let section (r : Reader.t) i term =
  let a = r.retired + i in
  let e = until r i i term in
  let p = a - r.retired in
  (Bytes.sub_string r.buf p (e - p), e + String.length term)

(* The rest of a DOCTYPE from [j], at bracket depth [depth]; the offset
   past it. *)
let rec doctype_end (r : Reader.t) depth j =
  if j < r.len then
    match Bytes.unsafe_get r.buf j with
    | '<' | '[' -> doctype_end r (depth + 1) (j + 1)
    | '>' | ']' -> if depth = 1 then j + 1 else doctype_end r (depth - 1) (j + 1)
    | '\000' -> error_at r j "NUL byte"
    | _ -> doctype_end r depth (j + 1)
  else if Reader.refill r j then doctype_end r depth 0
  else error_at r 0 "unterminated DOCTYPE"

(* Check that the bytes from [i] spell [kw]; the offset past them. *)
let keyword r i kw = String.fold_left (fun i c -> expect_at r i c) i kw

(* A PI, comment, CDATA section or DOCTYPE whose '?' or '!' is at [i];
   the offset past it.  A DOCTYPE may only come before the document
   element, and never in an element literal ([stop > 0] outside a
   steered rest). *)
let other_markup st i =
  let r = st.r in
  let lt = r.retired + i - 1 in
  if byte_at r i = '?' then begin
    let a = r.retired + i + 1 in
    let e = name_from r (i + 1) in
    let p = a - r.retired in
    let target = Bytes.sub_string r.buf p (e - p) in
    let content, i = section r (skip_ws r e) "?>" in
    if String.lowercase_ascii target <> "xml" then deliver st (Pi_event (target, content));
    i
  end
  else
    let i = avail r (i + 1) (i + 1) in
    match byte_at r i with
    | '-' ->
      let content, i = section r (keyword r i "--") "-->" in
      deliver st (Comment_event content);
      i
    | '[' ->
      let content, i = section r (keyword r i "[CDATA[") "]]>" in
      if st.depth = 0 then error_at r i "CDATA outside the document element";
      deliver st (Characters content);
      i
    | _ ->
      let i = keyword r i "DOCTYPE" in
      if st.rooted || st.stop > 0 || st.doctype_seen then
        error_at r (lt - r.retired) "misplaced DOCTYPE";
      st.doctype_seen <- true;
      doctype_end r 1 i

(* ---- the one loop ---- *)

let[@inline] push st name =
  if st.depth = Array.length st.tags then begin
    let grown = Array.make (2 * st.depth) "" in
    Array.blit st.tags 0 grown 0 st.depth;
    st.tags <- grown
  end;
  Array.unsafe_set st.tags st.depth name;
  st.depth <- st.depth + 1

(* The open element names of a steered element.  [raw_start st k] is
   where the [k]th starts in [raw]. *)
let[@inline] raw_start st k = if k = 0 then 0 else Array.unsafe_get st.raw_ends (k - 1)

(* Put the name in [len] bytes of [b] from [p] in [raw], above the open
   elements; a start tag in copy or skip mode then opens it by bumping
   [depth], unless it is empty.  [raw] is made at the first steered
   start tag, so a parse that does not steer allocates none. *)
let stage st b p len =
  let k = st.depth - st.base in
  let at = raw_start st k in
  if at + len > Bytes.length st.raw then begin
    let grown = Bytes.create (max 64 (2 * (at + len))) in
    Bytes.blit st.raw 0 grown 0 at;
    st.raw <- grown
  end;
  if k = Array.length st.raw_ends then begin
    let grown = Array.make (max 16 (2 * k)) 0 in
    Array.blit st.raw_ends 0 grown 0 k;
    st.raw_ends <- grown
  end;
  Bytes.blit b p st.raw at len;
  Array.unsafe_set st.raw_ends k (at + len)

let rec equal_bytes a i b j len =
  len = 0
  || (Bytes.unsafe_get a i = Bytes.unsafe_get b j && equal_bytes a (i + 1) b (j + 1) (len - 1))

(* Whether the innermost open element is named by [len] bytes of [b]
   from [p]. *)
let top_is st b p len =
  let k = st.depth - 1 - st.base in
  if st.mode != Events && k >= 0 then
    let at = raw_start st k in
    Array.unsafe_get st.raw_ends k - at = len && equal_bytes st.raw at b p len
  else
    st.depth > 0
    &&
    let top = Array.unsafe_get st.tags (st.depth - 1) in
    String.length top = len && equal_sub top b p 0

(* The innermost open element's name, for an error message. *)
let top_name st =
  let k = st.depth - 1 - st.base in
  if st.mode != Events && k >= 0 then
    let at = raw_start st k in
    Bytes.sub_string st.raw at (st.raw_ends.(k) - at)
  else if st.depth = 0 then ""
  else st.tags.(st.depth - 1)

(* Whether a text run ending at [i] is reported, given whether it is
   whitespace only; the caller copies the run only when it is, so dropped
   runs never allocate.  Outside the document element only whitespace
   may occur (and no reference: [content] rejects it). *)
let[@inline] wanted st ws i =
  if st.depth = 0 then begin
    if not ws then error_at st.r i "text outside the document element";
    false
  end
  else st.keep_ws || not ws

let rec is_ws_from buf i = i >= Buffer.length buf || (is_ws (Buffer.nth buf i) && is_ws_from buf (i + 1))

let flush_text_slow st i =
  if st.mode != Skipping && wanted st (is_ws_from st.text 0) i then
    deliver st (Characters (Buffer.contents st.text));
  Buffer.clear st.text

let[@inline] flush_text st i = if Buffer.length st.text > 0 then flush_text_slow st i

(* A text run from [i] up to the next '<' or '&' or the window's limit.
   One that ends at a '<' inside the window with nothing buffered before
   it is the whole run and is copied once; any other is appended to
   [st.text]. *)
let text_run st i =
  let r = st.r in
  let b = r.buf and n = r.len in
  let j = text_end b i n in
  if j < n && Bytes.unsafe_get b j = '<' && Buffer.length st.text = 0 then begin
    if st.mode != Skipping && wanted st (is_ws (Bytes.unsafe_get b i) && ws_end b i j = j) j then
      match st.mode with
      | Copying w -> Writer.text_sub w (Bytes.unsafe_to_string b) i (j - i)
      | _ -> st.handler (Characters (Bytes.sub_string b i (j - i)))
  end
  else begin
    Buffer.add_subbytes st.text b i (j - i);
    if j < n && Bytes.unsafe_get b j = '\000' then error_at r j "NUL byte in character data"
  end;
  j

(* The rest of an attribute value from [i], its opening quote consumed,
   into [st.value] (in copy mode, into the writer); the offset past the
   closing quote.  A value that ends inside the window it starts in, with
   no reference, is copied once from the window; any other is assembled
   in [st.vbuf]. *)
let rec value_rest st quote i =
  let r = st.r in
  let b = r.buf and n = r.len in
  let j = value_end b i n quote in
  if j < n && Bytes.unsafe_get b j = quote then begin
    (match st.mode with
    | Events ->
      if Buffer.length st.vbuf = 0 then st.value <- Bytes.sub_string b i (j - i)
      else begin
        Buffer.add_subbytes st.vbuf b i (j - i);
        st.value <- Buffer.contents st.vbuf
      end
    | Copying w ->
      if Buffer.length st.vbuf = 0 then
        Writer.attribute_value_sub w (Bytes.unsafe_to_string b) i (j - i)
      else begin
        Buffer.add_subbytes st.vbuf b i (j - i);
        Writer.attribute_value w (Buffer.contents st.vbuf)
      end
    | Skipping -> ());
    j + 1
  end
  else begin
    Buffer.add_subbytes st.vbuf b i (j - i);
    if j < n then begin
      if Bytes.unsafe_get b j = '\000' then error_at r j "NUL byte in attribute value";
      value_rest st quote (reference r st.vbuf j)
    end
    else if Reader.refill r j then value_rest st quote 0
    else error_at r 0 "unterminated attribute value"
  end

(* Attributes from [i] into [st.attrs] (in copy mode, into the writer);
   the offset of the first byte after them and the whitespace that
   follows, which is not a name start. *)
let rec attributes st i =
  let r = st.r in
  let i = skip_ws r i in
  if is_name_start (byte_at r i) then begin
    let a = r.retired + i in
    let e = token_end ~in_ref:false r i (i + 1) in
    let p = a - r.retired in
    (* attribute names are copied, not interned: input can bring an
       unbounded set of them *)
    let k =
      match st.mode with
      | Events -> Bytes.sub_string r.buf p (e - p)
      | Copying w ->
        Writer.open_attribute w (Bytes.unsafe_to_string r.buf) p (e - p);
        ""
      | Skipping -> ""
    in
    let i = skip_ws r (expect_at r (skip_ws r e) '=') in
    let quote = byte_at r i in
    if quote <> '"' && quote <> '\'' then error_at r i "expected attribute value";
    Buffer.clear st.vbuf;
    let i = value_rest st quote (i + 1) in
    (match st.mode with
    | Events -> st.attrs <- (k, st.value) :: st.attrs
    | Copying w -> Writer.close_attribute w
    | Skipping -> ());
    attributes st i
  end
  else i

(* The start tag whose name the window holds from [p] to [e], in copy or
   skip mode; the offset past its '>'. *)
let steered_start st p e =
  let r = st.r in
  (* staged before the attributes, which may refill the window *)
  stage st r.buf p (e - p);
  (match st.mode with Copying w -> Writer.open_start w (Bytes.unsafe_to_string r.buf) p (e - p) | _ -> ());
  let i = if byte_at r e = '>' then e else attributes st e in
  let empty = byte_at r i = '/' in
  let i = if empty then expect_at r (i + 1) '>' else expect_at r i '>' in
  st.starts <- st.starts + 1;
  (match st.mode with
  | Copying w ->
    if st.depth >= st.peak then st.peak <- st.depth + 1;
    Writer.close_start w;
    (* the tag is still open: "/>" *)
    if empty then Writer.end_element w ""
  | _ -> ());
  if not empty then st.depth <- st.depth + 1;
  i

(* The start tag of [name], its name ending at [e], delivered to the
   handler as an event (and its end tag, when it is empty); the offset
   past its '>'. *)
let walk_start st name e =
  let r = st.r in
  let i = if byte_at r e = '>' then e else attributes st e in
  let attrs =
    match st.attrs with
    | [] -> []
    | l ->
      st.attrs <- [];
      List.rev l
  in
  if byte_at r i = '/' then begin
    let i = expect_at r (i + 1) '>' in
    st.handler (Start_element (name, attrs));
    st.mark <- r.retired + i;
    st.handler (End_element name);
    i
  end
  else begin
    let i = expect_at r i '>' in
    push st name;
    st.handler (Start_element (name, attrs));
    i
  end

let pop st =
  st.depth <- st.depth - 1;
  match st.mode with
  | Events -> st.handler (End_element (Array.unsafe_get st.tags st.depth))
  | Copying w ->
    let k = st.depth - st.base in
    let at = raw_start st k in
    Writer.end_element_sub w (Bytes.unsafe_to_string st.raw) at (Array.unsafe_get st.raw_ends k - at)
  | Skipping -> ()

(* An end tag whose name starts at [i]; the offset past its '>'.  A name
   that matches the innermost open element is compared in the window, so
   nothing is allocated. *)
let end_tag st i =
  let r = st.r in
  let a = r.retired + i in
  let e = name_from r i in
  let p = a - r.retired in
  let matched = top_is st r.buf p (e - p) in
  let name = if matched then "" else Bytes.sub_string r.buf p (e - p) in
  let i = expect_at r (skip_ws r e) '>' in
  if st.depth = 0 then error_at r i (Printf.sprintf "closing tag </%s> with no open element" name);
  if not matched then
    error_at r i (Printf.sprintf "mismatched tags: <%s> closed by </%s>" (top_name st) name);
  st.mark <- r.retired + i;
  pop st;
  i

(* ---- canonical runs ----

   In copy and skip modes a token already in the writer's form and whole
   in the window is consumed with no writer call of its own:
   - a start tag [<n>] or [<n/>] whose attributes are each [ k="v"], one
     space before each, the value free of '&', '<', '>' and NUL;
   - a text run that holds no '&', '>' or NUL and ends at a '<', unless
     it is whitespace only: outside [keep_ws] that run is dropped, as the
     event path drops it, and under [keep_ws] it takes the token path;
   - an end tag [</n>] of the innermost open element, unless a start tag
     came just before it: the writer writes that pair as [<n/>].
   Copy mode blits each run of such tokens into the writer at once
   ([blit_run]).  Chunk boundaries stay where writing the events one by
   one puts them: at each event's end the run is blitted and the writer
   flushed if [Writer.maybe_flush] would flush there ([event_end]).  The
   scan stops at the first byte of any other token, and of one that runs
   to the window's limit ([cut]); [content] then refills the window
   keeping that token, which the next scan takes whole, unless it filled
   the window: the token path takes it from there.  The byte-class
   tables are where checks beyond today's would go. *)

let stop_table chars = Bytes.init 256 (fun c -> if String.contains chars (Char.chr c) then '\001' else '\000')

(* what ends a canonical text run or attribute value: itself ('<' or
   '"'), or a byte that makes it not canonical *)
let text_stops = stop_table "<&>\000"
let value_stops = stop_table "\"&<>\000"

let rec scan stops b i n =
  if i < n && Bytes.unsafe_get stops (Char.code (Bytes.unsafe_get b i)) = '\000' then scan stops b (i + 1) n
  else i

(* The run from [st.run] up to [e] into copy mode's writer, its last byte
   owed when [st.owed]; the next run starts at [e]. *)
let blit_run st e =
  (match st.mode with
  | Copying w when e > st.run ->
    let len = e - st.run in
    Writer.blit w st.r.buf st.run len ~open_tag:st.owed;
    Counter.add_local st.here blit_bytes (if st.owed then len - 1 else len)
  | _ -> ());
  st.run <- e

(* The start of a run at [i], in the writer's current state. *)
let begin_run st i =
  st.run <- i;
  match st.mode with
  | Copying w ->
    st.owed <- w.open_tag;
    st.room <- w.chunk_size - Buffer.length w.buf - Bool.to_int w.open_tag
  | Events | Skipping ->
    st.owed <- false;
    st.room <- max_int

(* An event of the run ended at [e]: flush where the writer would. *)
let[@inline] event_end st e =
  if e - st.run - Bool.to_int st.owed >= st.room then begin
    blit_run st e;
    match st.mode with
    | Copying w ->
      Writer.flush w;
      st.room <- w.chunk_size - Buffer.length w.buf - Bool.to_int st.owed
    | Events | Skipping -> ()
  end

(* The offset past a canonical start tag's attributes and '>' or "/>"
   from [i]; -1 when they are not canonical, -2 when they run past the
   window. *)
let rec attrs_end b i n =
  if i >= n then -2
  else
    match Bytes.unsafe_get b i with
    | '>' -> i + 1
    | '/' -> if i + 1 >= n then -2 else if Bytes.unsafe_get b (i + 1) = '>' then i + 2 else -1
    | ' ' when i + 1 >= n -> -2
    | ' ' when is_name_start (Bytes.unsafe_get b (i + 1)) ->
      let e = name_end b (i + 2) n in
      if e + 1 >= n then -2
      else if Bytes.unsafe_get b e = '=' && Bytes.unsafe_get b (e + 1) = '"' then
        let v = scan value_stops b (e + 2) n in
        if v >= n then -2 else if Bytes.unsafe_get b v = '"' then attrs_end b (v + 1) n else -1
      else -1
    | _ -> -1

(* [i], noting that the token there runs past the window. *)
let cut_at st i =
  st.cut <- true;
  i

(* Canonical tokens from [i] in the window [b], [n] bytes long; the
   offset of the first byte that is not one, or past the end tag that
   pops the steered element. *)
let rec canonical st b n i =
  if i >= n then i
  else if Bytes.unsafe_get b i <> '<' then canonical_text st b n i
  else if i + 1 >= n then cut_at st i
  else
    let c = Bytes.unsafe_get b (i + 1) in
    if c = '/' then canonical_end st b n i
    else if is_name_start c then canonical_start st b n i
    else i

and canonical_text st b n i =
  let j = if is_ws (Bytes.unsafe_get b i) then ws_end b i n else i in
  if j >= n then cut_at st i
  else if j > i && Bytes.unsafe_get b j = '<' then
    if st.keep_ws then i
    else begin
      (* whitespace only: no event, no bytes *)
      blit_run st i;
      begin_run st j;
      canonical st b n j
    end
  else
    let k = scan text_stops b j n in
    if k >= n then cut_at st i
    else if Bytes.unsafe_get b k = '<' then begin
      st.owed <- false;
      event_end st k;
      canonical st b n k
    end
    else i

and canonical_start st b n i =
  let ne = name_end b (i + 2) n in
  let e = attrs_end b ne n in
  if e < 0 then if e = -2 then cut_at st i else i
  else begin
    st.starts <- st.starts + 1;
    let copying = st.mode != Skipping in
    if copying && st.depth >= st.peak then st.peak <- st.depth + 1;
    if Bytes.unsafe_get b (e - 2) <> '/' then begin
      stage st b (i + 1) (ne - i - 1);
      st.depth <- st.depth + 1;
      st.owed <- copying;
      event_end st e
    end
    else begin
      (* [<n/>] ends two events, as the writer writes it: the start tag
         with its '>' owed (the '/' stands for it), then the close *)
      st.owed <- copying;
      event_end st (e - 1);
      st.owed <- false;
      if st.run <> e - 1 then event_end st e
      else begin
        (* the writer flushed the open tag: it writes the close itself *)
        (match st.mode with
        | Copying w ->
          Writer.end_element w "";
          st.room <- w.chunk_size - Buffer.length w.buf
        | Events | Skipping -> ());
        st.run <- e
      end
    end;
    (* an empty steered element ends at its own tag *)
    if st.depth < st.stop then e else canonical st b n e
  end

and canonical_end st b n i =
  let ne = name_end b (i + 2) n in
  if ne >= n then cut_at st i
  else if st.owed || Bytes.unsafe_get b ne <> '>' || not (top_is st b (i + 2) (ne - i - 2)) then i
  else begin
    st.depth <- st.depth - 1;
    event_end st (ne + 1);
    if st.depth < st.stop then ne + 1 else canonical st b n (ne + 1)
  end

(* Canonical tokens from [i], blitted; the offset after them. *)
let canonical_run st i =
  begin_run st i;
  st.cut <- false;
  let j = canonical st st.r.buf st.r.len i in
  blit_run st j;
  j

(* Content from [i] to the end of the input, or to the end tag that
   brings [depth] below [stop] (the offset past it).  In copy and skip
   modes each token is first tried as a canonical one. *)
let rec content st i =
  let r = st.r in
  if i < r.len then
    if st.mode == Events || Buffer.length st.text > 0 then token st i
    else
      let j = canonical_run st i in
      if j > i && st.depth < st.stop then j
      else if st.cut && j > 0 then begin
        (* the token at [j] runs past the window: the next one holds it *)
        ignore (Reader.refill r j : bool);
        content st 0
      end
      else if j > i then content st j
      else token st i
  else if Reader.refill r i then content st 0
  else begin
    flush_text st 0;
    if st.depth > 0 then error_at r 0 ("unclosed element <" ^ top_name st ^ ">");
    (* an element literal that ends before its element *)
    if st.stop > 0 then error_at r 0 "expected an element";
    i
  end

(* The token at [i], taken by the token path. *)
and token st i =
  let r = st.r in
  match Bytes.unsafe_get r.buf i with
  | '<' ->
    flush_text st i;
    let i = markup st i in
    if st.depth < st.stop then i else content st i
  | '&' ->
    if st.depth = 0 then error_at r i "reference outside the document element";
    content st (reference r st.text i)
  | _ -> content st (text_run st i)

(* Markup whose '<' is at [i]; the offset past it. *)
and markup st i =
  let i = avail st.r (i + 1) (i + 1) in
  match byte_at st.r i with
  | '/' -> end_tag st (i + 1)
  | '?' | '!' -> other_markup st i
  | _ -> start_tag st i

(* A start tag whose name starts at [i]; the offset past its '>' (past
   its element, when the hook steers it).  Element names are interned
   from the window: a known name allocates nothing and every event
   carries the shared interned string.  Copy and skip modes make no
   event and intern nothing: the name goes to [raw]. *)
and start_tag st i =
  let r = st.r in
  let a = r.retired + i in
  let e = name_from r i in
  let p = a - r.retired in
  match st.mode with
  | Copying _ | Skipping -> steered_start st p e
  | Events -> (
    if st.depth = 0 then begin
      if st.rooted then error_at r (p - 1) "a second document element";
      st.rooted <- true
    end;
    let sym = Sym.intern_sub st.here r.buf p (e - p) in
    let n = st.starts in
    st.starts <- n + 1;
    match
      if st.steered then begin
        st.mark <- a - 1;
        st.decide n sym
      end
      else Walk
    with
    | Walk -> walk_start st (Sym.name sym) e
    | Copy when st.copying == Events -> invalid_arg "Sax: Copy without a writer"
    | Copy -> steer_element st st.copying p e
    | Skip -> steer_element st Skipping p e)

(* The element whose name the window holds from [p] to [e], consumed in
   [mode], its start tag included; the offset past it.  Its '<' is at
   [p - 1], unless a refill moved the name to the window's start: the
   token path then takes the tag from its name. *)
and steer_element st mode p e =
  let stop = st.stop and base = st.base in
  st.mode <- mode;
  st.base <- st.depth;
  st.stop <- st.depth + 1;
  (* the tag is counted again in [mode] *)
  st.starts <- st.starts - 1;
  let i =
    if p > 0 then content st (p - 1)
    else
      let i = steered_start st p e in
      if st.depth < st.stop then i else content st i
  in
  st.mode <- Events;
  st.stop <- stop;
  st.base <- base;
  i

(* ---- steering ---- *)

type steer = { copy_to : mode; hook : int -> Sym.t -> decision; mutable parser : st option }

let steer ?copy_to hook =
  { copy_to = (match copy_to with Some w -> Copying w | None -> Events); hook; parser = None }

let started h = match h.parser with Some st -> st.starts | None -> 0
let position h = match h.parser with Some st -> st.mark | None -> 0
let copied_depth h = match h.parser with Some st -> st.peak | None -> 0

let no_hook _ _ = Walk

let state ~keep_ws ?steer r handler =
  let steered, decide, copying =
    match steer with Some h -> (true, h.hook, h.copy_to) | None -> (false, no_hook, Events)
  in
  let st =
    { r; handler; keep_ws; here = Counter.local (); steered; decide; copying; tags = Array.make 16 "";
      raw = Bytes.empty; raw_ends = [||]; depth = 0; base = 0; rooted = false; doctype_seen = false;
      text = Buffer.create 64; vbuf = Buffer.create 64; attrs = []; value = ""; mode = Events;
      stop = 0; starts = 0; peak = 0; mark = 0; run = 0; owed = false; room = 0; cut = false }
  in
  Option.iter (fun h -> h.parser <- Some st) steer;
  st

let parse_events ~keep_ws ?steer r handler =
  handler Start_document;
  ignore (content (state ~keep_ws ?steer r handler) 0 : int);
  handler End_document

let parse_reader ?(keep_ws = false) ?steer r handler = parse_events ~keep_ws ?steer r handler

let parse_string ?keep_ws ?steer src handler =
  parse_reader ?keep_ws ?steer (Reader.of_string src) handler

(* The window comes from the reader's pool and goes back to it however
   the parse ends. *)
let parse_file ?keep_ws ?steer path handler =
  Reader.with_input (Reader.file path) (fun r -> parse_reader ?keep_ws ?steer r handler)

(* The one loop with [stop = 1] returns after the element's end tag, or
   after a comment or PI before it. *)
let parse_region ?(keep_ws = false) ~steer r handler =
  let st =
    match steer.parser with
    | Some st when st.r == r && st.keep_ws = keep_ws ->
      st.handler <- handler;
      st.depth <- 0;
      st.rooted <- false;
      st.starts <- 0;
      st.peak <- 0;
      st.attrs <- [];
      Buffer.clear st.text;
      st
    | _ -> state ~keep_ws ~steer r handler
  in
  st.stop <- 1;
  r.retired + content st 0

(* The one loop with [stop = 1], run until the first element has
   started. *)
let parse_element src i handler =
  let st = state ~keep_ws:false (Reader.of_string (String.sub src i (String.length src - i))) handler in
  st.stop <- 1;
  let rec go j =
    let j = content st j in
    if st.rooted then j else go j
  in
  let j = go 0 in
  i + st.r.retired + j

let decode_references s =
  if not (String.contains s '&') then s
  else begin
    let r = Reader.of_string s in
    let buf = Buffer.create (String.length s) in
    let rec go i =
      if i < r.len then
        if Bytes.unsafe_get r.buf i = '&' then go (reference r buf i)
        else begin
          Buffer.add_char buf (Bytes.unsafe_get r.buf i);
          go (i + 1)
        end
      else if Reader.refill r i then go 0
      else Buffer.contents buf
    in
    go 0
  end

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
