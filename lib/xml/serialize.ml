(* How markup is spelled (escaping, attributes, the owed [>] of a
   start-tag) lives in [Writer], which the parser's copy mode shares. *)

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
  Writer.add_attrs buf e.Node.attrs

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
let pool_hits = Counter.declare "serialize_pool_hits"
let pool_misses = Counter.declare "serialize_pool_misses"
let image_builds = Counter.declare "serialize_image_builds"
let image_blit_bytes = Counter.declare "serialize_image_blit_bytes"

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
  | Node.Text s -> Writer.add_escaped buf ~attr:false s
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
      Counter.add image_blit_bytes len;
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
    Counter.bump image_builds;
    { bytes = Buffer.contents buf; index }
end

(* ---------------- buffer pool ---------------- *)

module Pool = struct
  let pool =
    Free_list.create ~max:32 ~hits:pool_hits ~misses:pool_misses (fun () ->
        Buffer.create 65536)

  (* a buffer that grew past this (a pathological single token in a
     sink, or a huge reply) is reset (storage freed) instead of parking
     megabytes in the pool *)
  let shrink_above = 4 * 1024 * 1024

  let acquire () = Free_list.acquire pool

  let release_shrunk ~shrink b =
    if shrink then Buffer.reset b else Buffer.clear b;
    Free_list.release pool b

  let release b = release_shrunk ~shrink:(Buffer.length b > shrink_above) b

  let contents_of f =
    let b = acquire () in
    match f b with
    | () ->
      let s = Buffer.contents b in
      release b;
      s
    | exception e ->
      release b;
      raise e
end

(* Whole strings serialize into a pooled buffer, already grown by
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
    w : Writer.t;
    flush_now : unit -> unit;
        (* [Writer.flush] of [w], built once so the tree walk can flush
           between children without a closure per call *)
    mutable live : bool;
  }

  let lending ?(chunk_size = default_chunk_size) emit =
    let w = Writer.create (Pool.acquire ()) ~chunk_size emit in
    { w; flush_now = (fun () -> Writer.flush w); live = true }

  let create ?chunk_size emit = lending ?chunk_size (fun b -> emit (Buffer.contents b))

  let writer t = t.w
  let event t ev = Sax.write t.w ev

  (* whole-subtree emission: the [to_string] walk, flushing between
     children (and inside a blit) so chunking stays fine-grained *)
  let node ?(image = no_image) t n =
    Writer.seal t.w;
    add_node t.w.buf ~image ~limit:t.w.chunk_size ~flush:t.flush_now ~indent:None ~level:0 n;
    Writer.maybe_flush t.w

  let element ?image t e = node ?image t (Node.Element e)
  let markup t s = Writer.markup t.w s

  let release t =
    t.live <- false;
    Pool.release_shrunk ~shrink:(t.w.peak_chunk > Pool.shrink_above) t.w.buf

  let close t =
    if t.live then begin
      Writer.seal t.w;
      Writer.flush t.w;
      release t
    end;
    { bytes = t.w.bytes; chunks = t.w.chunks }

  let abort t =
    if t.live then begin
      Buffer.clear t.w.buf;
      release t
    end
end

(* The sink's event writer straight into the caller's buffer: a chunk
   size no buffer reaches, so nothing is ever flushed or emitted. *)
let event_sink buf = Sax.write (Writer.create buf ~chunk_size:max_int ignore)
