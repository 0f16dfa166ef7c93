(* Escaping: the five predefined entities, minus apostrophe (we always
   quote attributes with double quotes).  The hot path scans for runs of
   characters that need no escaping — by far the common case in
   XMark-style data — and blits the whole run, instead of pushing one
   char at a time through [Buffer.add_char]. *)

let text_plain =
  Array.init 256 (fun c -> c <> Char.code '&' && c <> Char.code '<' && c <> Char.code '>')

let attr_plain = Array.init 256 (fun c -> text_plain.(c) && c <> Char.code '"')

let add_escaped buf ~attr s =
  let plain = if attr then attr_plain else text_plain in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let run = ref !i in
    while
      !run < n && Array.unsafe_get plain (Char.code (String.unsafe_get s !run))
    do
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

(* Attribute and child lists are walked by direct recursion, never
   through [List.iter]: a partially applied walker is a closure per
   element, which on a 0.5 MB reply was most of the serializer's
   allocation. *)
let rec add_attrs buf = function
  | [] -> ()
  | (k, v) :: rest ->
    Buffer.add_char buf ' ';
    Buffer.add_string buf k;
    Buffer.add_string buf "=\"";
    add_escaped buf ~attr:true v;
    Buffer.add_char buf '"';
    add_attrs buf rest

let rec has_text_child = function
  | [] -> false
  | Node.Text _ :: _ -> true
  | _ :: rest -> has_text_child rest

let add_spaces buf n =
  for _ = 1 to n do
    Buffer.add_char buf ' '
  done

let no_flush () = ()

let add_start_tag buf e =
  Buffer.add_char buf '<';
  Buffer.add_string buf e.Node.name;
  add_attrs buf e.Node.attrs

let add_end_tag buf e =
  Buffer.add_string buf "</";
  Buffer.add_string buf e.Node.name;
  Buffer.add_char buf '>'

(* ---------------- reply image ---------------- *)

module Ids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* ids are sequential: the identity spreads them over the buckets *)
  let hash id = id land max_int
end)

(* [index] maps an element id to the (offset, length) of its bytes in
   [bytes].  An id names one immutable subtree, and serialization
   without indentation does not depend on context, so those bytes are
   that element's serialization in any tree that holds it. *)
type image = { bytes : string; index : (int * int) Ids.t }

let no_image = { bytes = ""; index = Ids.create 1 }
let image_builds = Atomic.make 0
let image_blit_bytes = Atomic.make 0

(* [mem] before [find]: a miss raises nothing and a hit allocates no
   option; without an image (an empty index) it is one field read *)
let indexed image id = Ids.length image.index > 0 && Ids.mem image.index id

(* [len] bytes of [s] from [off], split so that [buf] is flushed each
   time it reaches [limit], as the tree walk would have flushed it. *)
let rec add_blit buf ~limit ~flush s off len =
  let room = max 0 (limit - Buffer.length buf) in
  if len <= room then Buffer.add_substring buf s off len
  else begin
    Buffer.add_substring buf s off room;
    flush ();
    add_blit buf ~limit ~flush s (off + room) (len - room)
  end

(* The one tree walk, behind [to_buffer], [to_string] and [Sink.node].
   It allocates nothing per node.  An element the [image] indexes is
   copied out of it whole.  Between children it calls [flush] once [buf]
   holds [limit] bytes: the streaming sink's chunking.  Whole-reply
   callers pass [max_int], so they never flush; nor does indented
   output, which only whole replies ask for, and which is walked with
   [no_image]. *)
let rec add_node buf ~image ~limit ~flush ~indent ~level node =
  match node with
  | Node.Text s -> add_escaped buf ~attr:false s
  | Node.Comment s ->
    Buffer.add_string buf "<!--";
    Buffer.add_string buf s;
    Buffer.add_string buf "-->"
  | Node.Pi (t, c) ->
    Buffer.add_string buf "<?";
    Buffer.add_string buf t;
    Buffer.add_char buf ' ';
    Buffer.add_string buf c;
    Buffer.add_string buf "?>"
  | Node.Element e -> (
    if indexed image e.Node.id then begin
      let off, len = Ids.find image.index e.Node.id in
      ignore (Atomic.fetch_and_add image_blit_bytes len : int);
      add_blit buf ~limit ~flush image.bytes off len
    end
    else (
      add_start_tag buf e;
      match e.Node.children with
      | [] -> Buffer.add_string buf "/>"
      | cs ->
        Buffer.add_char buf '>';
        (match indent with
        | Some n when not (has_text_child cs) ->
          (* element-only content: one child per line; mixed content is
             kept inline, unindented *)
          add_lines buf ~indent n (level + 1) cs;
          Buffer.add_char buf '\n';
          add_spaces buf (level * n)
        | _ -> add_children buf ~image ~limit ~flush cs);
        add_end_tag buf e))

and add_children buf ~image ~limit ~flush = function
  | [] -> ()
  | c :: rest ->
    add_node buf ~image ~limit ~flush ~indent:None ~level:0 c;
    if Buffer.length buf >= limit then flush ();
    add_children buf ~image ~limit ~flush rest

and add_lines buf ~indent n level = function
  | [] -> ()
  | c :: rest ->
    Buffer.add_char buf '\n';
    add_spaces buf (level * n);
    add_node buf ~image:no_image ~limit:max_int ~flush:no_flush ~indent ~level c;
    add_lines buf ~indent n level rest

let to_buffer ?indent ?(image = no_image) buf node =
  let image = match indent with None -> image | Some _ -> no_image in
  add_node buf ~image ~limit:max_int ~flush:no_flush ~indent ~level:0 node

module Image = struct
  type t = image

  (* smaller subtrees cost about as much to walk as to look up *)
  let min_indexed = 64

  (* [add_node]'s unindented walk, recording where each element's bytes
     start and end *)
  let of_element root =
    let buf = Buffer.create 65536 and index = Ids.create 1024 in
    let rec walk = function
      | Node.Element e ->
        let start = Buffer.length buf in
        add_start_tag buf e;
        (match e.Node.children with
        | [] -> Buffer.add_string buf "/>"
        | cs ->
          Buffer.add_char buf '>';
          List.iter walk cs;
          add_end_tag buf e);
        let len = Buffer.length buf - start in
        if len >= min_indexed then Ids.replace index e.Node.id (start, len)
      | leaf -> to_buffer buf leaf
    in
    walk (Node.Element root);
    Atomic.incr image_builds;
    { bytes = Buffer.contents buf; index }

  let stats () = (Atomic.get image_builds, Atomic.get image_blit_bytes)
end

(* ---------------- buffer pool ---------------- *)

module Pool = struct
  let pool = Free_list.create ~max:32 (fun () -> Buffer.create 65536)

  (* a buffer that grew past this (a pathological single token in a
     sink, or a huge reply) is reset (storage freed) instead of parking
     megabytes in the pool *)
  let shrink_above = 4 * 1024 * 1024

  let acquire () = Free_list.acquire pool

  let release ?(shrink = false) b =
    if shrink then Buffer.reset b else Buffer.clear b;
    Free_list.release pool b

  let contents_of f =
    let b = acquire () in
    match f b with
    | () ->
      let s = Buffer.contents b in
      release ~shrink:(Buffer.length b > shrink_above) b;
      s
    | exception e ->
      release ~shrink:(Buffer.length b > shrink_above) b;
      raise e

  let stats () = Free_list.stats pool
end

(* Whole replies serialize into a pooled buffer, already grown by
   earlier replies, and are copied out once. *)
let to_string ?indent ?image node =
  Pool.contents_of (fun buf -> to_buffer ?indent ?image buf node)

let element_to_string ?indent ?image e = to_string ?indent ?image (Node.Element e)

let document_to_string ?indent e =
  Pool.contents_of (fun buf ->
      Buffer.add_string buf "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
      to_buffer ?indent buf (Node.Element e))

let to_channel ?indent oc e =
  let buf = Buffer.create 65536 in
  to_buffer ?indent buf (Node.Element e);
  Buffer.output_buffer oc buf

(* ---------------- streaming sink ---------------- *)

module Sink = struct
  let default_chunk_size = 64 * 1024

  type totals = { bytes : int; chunks : int }

  type t = {
    buf : Buffer.t;
    chunk_size : int;
    emit : string -> unit;
    flush_now : unit -> unit;
        (* [flush] of this sink, built once so the tree walk can flush
           between children without a closure per call *)
    (* a start-tag has been written up to its attributes; the closing
       [>] (or [/>]) is decided by the next event, which is what makes
       the stream byte-identical to [to_string] on empty elements *)
    mutable open_tag : bool;
    mutable bytes : int;
    mutable chunks : int;
    mutable peak_chunk : int;
    mutable live : bool;
  }

  let flush t =
    let len = Buffer.length t.buf in
    if len > 0 then begin
      let s = Buffer.contents t.buf in
      Buffer.clear t.buf;
      t.bytes <- t.bytes + len;
      t.chunks <- t.chunks + 1;
      if len > t.peak_chunk then t.peak_chunk <- len;
      t.emit s
    end

  let make buf ~chunk_size emit =
    let rec t =
      {
        buf;
        chunk_size;
        emit;
        flush_now = (fun () -> flush t);
        open_tag = false;
        bytes = 0;
        chunks = 0;
        peak_chunk = 0;
        live = true;
      }
    in
    t

  let create ?(chunk_size = default_chunk_size) emit =
    make (Pool.acquire ()) ~chunk_size:(max 1 chunk_size) emit

  let maybe_flush t = if Buffer.length t.buf >= t.chunk_size then flush t

  (* the pending [>] of an open start-tag, owed because content follows *)
  let seal t =
    if t.open_tag then begin
      Buffer.add_char t.buf '>';
      t.open_tag <- false
    end

  let event t = function
    | Sax.Start_document | Sax.End_document -> ()
    | Sax.Start_element (name, attrs) ->
      seal t;
      Buffer.add_char t.buf '<';
      Buffer.add_string t.buf name;
      add_attrs t.buf attrs;
      t.open_tag <- true;
      maybe_flush t
    | Sax.Characters s ->
      seal t;
      add_escaped t.buf ~attr:false s;
      maybe_flush t
    | Sax.Comment_event s ->
      seal t;
      Buffer.add_string t.buf "<!--";
      Buffer.add_string t.buf s;
      Buffer.add_string t.buf "-->";
      maybe_flush t
    | Sax.Pi_event (tgt, c) ->
      seal t;
      Buffer.add_string t.buf "<?";
      Buffer.add_string t.buf tgt;
      Buffer.add_char t.buf ' ';
      Buffer.add_string t.buf c;
      Buffer.add_string t.buf "?>";
      maybe_flush t
    | Sax.End_element name ->
      if t.open_tag then begin
        Buffer.add_string t.buf "/>";
        t.open_tag <- false
      end
      else begin
        Buffer.add_string t.buf "</";
        Buffer.add_string t.buf name;
        Buffer.add_char t.buf '>'
      end;
      maybe_flush t

  (* whole-subtree emission: the [to_string] walk, flushing between
     children (and inside a blit) so chunking stays fine-grained *)
  let node ?(image = no_image) t n =
    seal t;
    add_node t.buf ~image ~limit:t.chunk_size ~flush:t.flush_now ~indent:None ~level:0 n;
    maybe_flush t

  let element ?image t e = node ?image t (Node.Element e)

  let markup t s =
    seal t;
    Buffer.add_string t.buf s;
    maybe_flush t

  let close t =
    if t.live then begin
      seal t;
      flush t;
      t.live <- false;
      Pool.release ~shrink:(t.peak_chunk > Pool.shrink_above) t.buf
    end;
    { bytes = t.bytes; chunks = t.chunks }

  let abort t =
    if t.live then begin
      t.live <- false;
      Buffer.clear t.buf;
      Pool.release ~shrink:(t.peak_chunk > Pool.shrink_above) t.buf
    end
end

(* The sink's event writer straight into the caller's buffer: a chunk
   size no buffer reaches, so nothing is ever flushed or emitted. *)
let event_sink buf = Sink.event (Sink.make buf ~chunk_size:max_int ignore)
