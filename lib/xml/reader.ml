type t = {
  refill : bytes -> int;  (* fill the buffer, return the byte count; 0 = eof *)
  buf : bytes;
  mutable len : int;   (* valid bytes in [buf] *)
  mutable pos : int;   (* cursor within [buf] *)
  mutable finished : bool;
  (* Positions are computed lazily: a chunk's newlines are counted once,
     when it is retired at refill; the live window is scanned on demand. *)
  mutable retired : int;        (* bytes of the chunks before [buf] *)
  mutable retired_lines : int;  (* newlines in those chunks *)
  mutable retired_bol : int;    (* offset just past their last newline *)
}

let default_chunk = 65536

let make refill chunk_size =
  {
    refill;
    buf = Bytes.create chunk_size;
    len = 0;
    pos = 0;
    finished = false;
    retired = 0;
    retired_lines = 0;
    retired_bol = 0;
  }

let of_string s =
  let offset = ref 0 in
  let refill buf =
    let n = min (String.length s - !offset) (Bytes.length buf) in
    Bytes.blit_string s !offset buf 0 n;
    offset := !offset + n;
    n
  in
  make refill (min default_chunk (max 16 (String.length s)))

let of_channel ?(chunk_size = default_chunk) ic =
  make (fun buf -> input ic buf 0 (Bytes.length buf)) chunk_size

let retire t =
  for i = 0 to t.len - 1 do
    if Bytes.unsafe_get t.buf i = '\n' then begin
      t.retired_lines <- t.retired_lines + 1;
      t.retired_bol <- t.retired + i + 1
    end
  done;
  t.retired <- t.retired + t.len

let fill t =
  if (not t.finished) && t.pos >= t.len then begin
    retire t;
    let n = t.refill t.buf in
    t.len <- n;
    t.pos <- 0;
    if n = 0 then t.finished <- true
  end

let peek t =
  if t.pos < t.len then Bytes.unsafe_get t.buf t.pos
  else begin
    fill t;
    if t.pos < t.len then Bytes.unsafe_get t.buf t.pos else '\000'
  end

let eof t =
  if t.pos < t.len then false
  else begin
    fill t;
    t.pos >= t.len
  end

let advance t =
  if t.pos < t.len then t.pos <- t.pos + 1
  else begin
    fill t;
    if t.pos < t.len then t.pos <- t.pos + 1
  end

let next t =
  let c = peek t in
  advance t;
  c

let window t = t.buf
let pos t = t.pos
let limit t = t.len

let set_pos t p =
  if p < t.pos || p > t.len then invalid_arg "Reader.set_pos";
  t.pos <- p

let line t =
  let n = ref t.retired_lines in
  for i = 0 to t.pos - 1 do
    if Bytes.unsafe_get t.buf i = '\n' then incr n
  done;
  !n + 1

let col t =
  let rec last_nl i = if i < 0 || Bytes.unsafe_get t.buf i = '\n' then i else last_nl (i - 1) in
  match last_nl (t.pos - 1) with
  | -1 -> t.retired + t.pos - t.retired_bol + 1
  | i -> t.pos - i

let bytes_read t = t.retired + t.pos
