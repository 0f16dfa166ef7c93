(* Escaping: the five predefined entities, minus apostrophe (attributes
   are always double-quoted).  The hot path scans for runs of characters
   that need no escaping — by far the common case in XMark-style data —
   and blits the whole run, instead of pushing one char at a time
   through [Buffer.add_char]. *)

let text_plain =
  Array.init 256 (fun c -> c <> Char.code '&' && c <> Char.code '<' && c <> Char.code '>')

let attr_plain = Array.init 256 (fun c -> text_plain.(c) && c <> Char.code '"')

let add_escaped_sub buf ~attr s off len =
  let plain = if attr then attr_plain else text_plain in
  let n = off + len in
  let i = ref off in
  while !i < n do
    let run = ref !i in
    while !run < n && Array.unsafe_get plain (Char.code (String.unsafe_get s !run)) do
      incr run
    done;
    if !run > !i then Buffer.add_substring buf s !i (!run - !i);
    if !run < n then begin
      (match String.unsafe_get s !run with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c);
      incr run
    end;
    i := !run
  done

let add_escaped buf ~attr s = add_escaped_sub buf ~attr s 0 (String.length s)

let escaped_length ~attr s =
  let plain = if attr then attr_plain else text_plain in
  let n = ref (String.length s) in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if not (Array.unsafe_get plain (Char.code c)) then
      n := !n + (match c with '&' -> 4 | '<' | '>' -> 3 | '"' -> 5 | _ -> 0)
  done;
  !n

(* Attribute lists are walked by direct recursion, never through
   [List.iter]: a partially applied walker is a closure per element. *)
let rec add_attrs buf = function
  | [] -> ()
  | (k, v) :: rest ->
    Buffer.add_char buf ' ';
    Buffer.add_string buf k;
    Buffer.add_string buf "=\"";
    add_escaped buf ~attr:true v;
    Buffer.add_char buf '"';
    add_attrs buf rest

type t = {
  buf : Buffer.t;
  chunk_size : int;
  emit : Buffer.t -> unit;
  mutable open_tag : bool;
  mutable bytes : int;
  mutable chunks : int;
  mutable peak_chunk : int;
}

let create buf ~chunk_size emit =
  { buf; chunk_size = max 1 chunk_size; emit; open_tag = false; bytes = 0; chunks = 0;
    peak_chunk = 0 }

let flush t =
  let len = Buffer.length t.buf in
  if len > 0 then begin
    t.bytes <- t.bytes + len;
    t.chunks <- t.chunks + 1;
    if len > t.peak_chunk then t.peak_chunk <- len;
    (* the chunk is lent: [emit] reads it where it lies, and the
       buffer is cleared for the next one once [emit] returns *)
    match t.emit t.buf with
    | () -> Buffer.clear t.buf
    | exception e ->
      Buffer.clear t.buf;
      raise e
  end

let[@inline] maybe_flush t = if Buffer.length t.buf >= t.chunk_size then flush t

let[@inline] seal t =
  if t.open_tag then begin
    Buffer.add_char t.buf '>';
    t.open_tag <- false
  end

let open_start t s off len =
  seal t;
  Buffer.add_char t.buf '<';
  Buffer.add_substring t.buf s off len

let open_attribute t s off len =
  Buffer.add_char t.buf ' ';
  Buffer.add_substring t.buf s off len;
  Buffer.add_string t.buf "=\""

let attribute_value t v = add_escaped t.buf ~attr:true v
let attribute_value_sub t s off len = add_escaped_sub t.buf ~attr:true s off len
let close_attribute t = Buffer.add_char t.buf '"'

let close_start t =
  t.open_tag <- true;
  maybe_flush t

let start_element t name attrs =
  open_start t name 0 (String.length name);
  add_attrs t.buf attrs;
  close_start t

let text_sub t s off len =
  seal t;
  add_escaped_sub t.buf ~attr:false s off len;
  maybe_flush t

let text t s = text_sub t s 0 (String.length s)

let comment t s =
  seal t;
  Buffer.add_string t.buf "<!--";
  Buffer.add_string t.buf s;
  Buffer.add_string t.buf "-->";
  maybe_flush t

let pi t target content =
  seal t;
  Buffer.add_string t.buf "<?";
  Buffer.add_string t.buf target;
  Buffer.add_char t.buf ' ';
  Buffer.add_string t.buf content;
  Buffer.add_string t.buf "?>";
  maybe_flush t

let end_element_sub t s off len =
  if t.open_tag then begin
    Buffer.add_string t.buf "/>";
    t.open_tag <- false
  end
  else begin
    Buffer.add_string t.buf "</";
    Buffer.add_substring t.buf s off len;
    Buffer.add_char t.buf '>'
  end;
  maybe_flush t

let end_element t name = end_element_sub t name 0 (String.length name)

(* An owed '>' is paid before the bytes; with [open_tag] their own last
   byte, a start-tag's '>', is owed instead of written. *)
let blit t b off len ~open_tag =
  seal t;
  Buffer.add_subbytes t.buf b off (if open_tag then len - 1 else len);
  t.open_tag <- open_tag

let markup t s =
  seal t;
  Buffer.add_string t.buf s;
  maybe_flush t
