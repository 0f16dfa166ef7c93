type t = {
  mutable buf : bytes;
  mutable len : int;
  (* Positions are computed lazily: the newlines of consumed bytes are
     counted once, when [refill] discards them; the live window is
     scanned on demand. *)
  mutable retired : int;
  mutable retired_lines : int;
  mutable retired_bol : int;
  mutable finished : bool;
  chunk : int;
  read : bytes -> int -> int -> int;  (* [read buf off n]: bytes read, 0 = eof *)
  move : int -> unit;  (* put the source at an input offset *)
  mutable upto : int;
  descr : Unix.file_descr option;  (* a channel's, for [version] *)
}

let default_chunk = 65536

let make ?descr read move buf =
  { buf; len = 0; retired = 0; retired_lines = 0; retired_bol = 0; finished = false;
    chunk = Bytes.length buf; read; move; upto = max_int; descr }

let of_string ?chunk_size s =
  let offset = ref 0 in
  let read buf off n =
    let n = min (String.length s - !offset) n in
    Bytes.blit_string s !offset buf off n;
    offset := !offset + n;
    n
  in
  let chunk = Option.value chunk_size ~default:(min default_chunk (max 16 (String.length s))) in
  make read (fun at -> offset := at) (Bytes.create chunk)

let channel_read ic buf off n = input ic buf off n

let of_channel ?(chunk_size = default_chunk) ic =
  make ~descr:(Unix.descr_of_in_channel ic) (channel_read ic) (seek_in ic) (Bytes.create chunk_size)

(* Windows for [with_channel], reused across parses so a file ingest does
   not put a fresh 64 KiB block on the major heap.  A window that grew
   past its chunk is left to the GC; the one taken goes back. *)
let pool_hits = Counter.declare "reader_pool_hits"
let pool_misses = Counter.declare "reader_pool_misses"
let pool =
  Free_list.create ~max:8 ~hits:pool_hits ~misses:pool_misses (fun () ->
      Bytes.create default_chunk)

let with_channel ic f =
  let b = Free_list.acquire pool in
  match f (make ~descr:(Unix.descr_of_in_channel ic) (channel_read ic) (seek_in ic) b) with
  | v ->
    Free_list.release pool b;
    v
  | exception e ->
    Free_list.release pool b;
    raise e

(* Newlines in [b.[0 .. n-1]], eight bytes at a time: a byte of
   [x = w lxor 0x0a..] is zero exactly at a newline; [zeros] has the top
   bit of exactly those bytes set (adding 0x7f to the low seven bits
   carries into the top bit unless they are all zero, and no byte
   carries into the next), and the multiply sums the flags into the top
   byte. *)
external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"

let newlines b n =
  let c = ref 0 and i = ref 0 in
  while !i + 8 <= n do
    let x = Int64.logxor (get64u b !i) 0x0a0a0a0a0a0a0a0aL in
    let low = Int64.add (Int64.logand x 0x7f7f7f7f7f7f7f7fL) 0x7f7f7f7f7f7f7f7fL in
    let zeros = Int64.logand (Int64.lognot (Int64.logor low x)) 0x8080808080808080L in
    let flags = Int64.shift_right_logical zeros 7 in
    c := !c + Int64.to_int (Int64.shift_right_logical (Int64.mul flags 0x0101010101010101L) 56);
    i := !i + 8
  done;
  for j = !i to n - 1 do
    if Bytes.unsafe_get b j = '\n' then incr c
  done;
  !c

(* Discard [buf.[0 .. n-1]], counting its newlines. *)
let retire t n =
  let lines = newlines t.buf n in
  if lines > 0 then begin
    t.retired_lines <- t.retired_lines + lines;
    let rec last i = if Bytes.unsafe_get t.buf i = '\n' then i else last (i - 1) in
    t.retired_bol <- t.retired + last (n - 1) + 1
  end;
  t.retired <- t.retired + n

let refill t keep =
  if keep < 0 || keep > t.len then invalid_arg "Reader.refill";
  retire t keep;
  let rest = t.len - keep in
  if keep > 0 && rest > 0 then Bytes.blit t.buf keep t.buf 0 rest;
  t.len <- rest;
  if t.finished then false
  else begin
    if rest = Bytes.length t.buf then begin
      let grown = Bytes.create (2 * max 1 rest) in
      Bytes.blit t.buf 0 grown 0 rest;
      t.buf <- grown
    end;
    let room = min t.chunk (Bytes.length t.buf - rest) in
    let n = t.read t.buf rest (max 0 (min room (t.upto - t.retired - rest))) in
    t.len <- rest + n;
    if n = 0 then t.finished <- true;
    n > 0
  end

let seek t ~from ~upto =
  t.move from;
  t.len <- 0;
  t.retired <- from;
  t.retired_lines <- 0;
  t.retired_bol <- from;
  t.finished <- false;
  t.upto <- upto

type version = Unix.stats option

let version t = Option.map Unix.fstat t.descr

(* Reading the file updates its access time only. *)
let same_version a b =
  match a, b with
  | None, None -> true
  | Some (a : Unix.stats), Some (b : Unix.stats) ->
    a.st_dev = b.st_dev && a.st_ino = b.st_ino && a.st_size = b.st_size
    && Float.equal a.st_mtime b.st_mtime && Float.equal a.st_ctime b.st_ctime
  | _ -> false

let holds t ~from ~upto = from >= t.retired && upto - t.retired <= t.len

(* eight bytes at a time, then the tail; a top-level loop, so comparing
   allocates nothing *)
let rec equal_from a i b j n =
  if n >= 8 then Int64.equal (get64u a i) (get64u b j) && equal_from a (i + 8) b (j + 8) (n - 8)
  else n = 0 || (Bytes.unsafe_get a i = Bytes.unsafe_get b j && equal_from a (i + 1) b (j + 1) (n - 1))

let same_bytes a b ~from ~upto =
  if not (holds a ~from ~upto && holds b ~from ~upto) then invalid_arg "Reader.same_bytes";
  equal_from a.buf (from - a.retired) b.buf (from - b.retired) (upto - from)

type input = File of string * int option | String of string * int option

let file ?chunk_size path = File (path, chunk_size)
let string ?chunk_size s = String (s, chunk_size)

let name = function File (path, _) -> path | String _ -> "the input string"

let rereadable = function
  | String _ -> true
  | File (path, _) -> ( try Sys.is_regular_file path with Sys_error _ -> true)

let with_input input f =
  match input with
  | String (s, chunk_size) -> f (of_string ?chunk_size s)
  | File (path, chunk_size) ->
    In_channel.with_open_bin path (fun ic ->
        match chunk_size with
        | None -> with_channel ic f
        | Some chunk_size -> f (of_channel ~chunk_size ic))

let line t pos = t.retired_lines + newlines t.buf pos + 1

let col t pos =
  let rec last_nl i = if i < 0 || Bytes.unsafe_get t.buf i = '\n' then i else last_nl (i - 1) in
  let i = last_nl (pos - 1) in
  if i < 0 then t.retired + pos - t.retired_bol + 1 else pos - i

