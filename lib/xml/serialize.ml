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

(* [bytes] is one element's unindented serialization, and [ids] indexes
   every element in it ([Id_table], one word per slot): an element's
   bytes are its entry, their offset times [2^31] plus their length, so
   an image indexes at most [2^31] bytes.  An id names one immutable
   subtree, and serialization without indentation does not depend on
   context, so those bytes are that element's serialization in any tree
   that holds it.

   Every indexed id lies in [lo, hi], so any other id misses without a
   probe: the ids of a commit's rebuilt spine and of every reply's fresh
   elements are younger than the imaged tree's.  (See [Image] for how
   the table is homed.) *)
type image = { bytes : string; ids : Id_table.t; lo : int; hi : int }

let span_bits = 31
let no_image = { bytes = ""; ids = Id_table.create ~words:1 1; lo = max_int; hi = min_int }

let pool_hits = Counter.declare "serialize_pool_hits"
let pool_misses = Counter.declare "serialize_pool_misses"
let image_builds = Counter.declare "serialize_image_builds"
let image_blit_bytes = Counter.declare "serialize_image_blit_bytes"

(* The slot of [node] in [image] if it is an element the image
   indexes, else -1 *)
let indexed image = function
  | Node.Element e ->
    let id = e.Node.id in
    if id < image.lo || id > image.hi then -1 else Id_table.find image.ids id
  | Node.Text _ | Node.Comment _ | Node.Pi _ -> -1

let span_start image s = Array.unsafe_get image.ids.vals s lsr span_bits

let span_stop image s =
  let v = Array.unsafe_get image.ids.vals s in
  (v lsr span_bits) + (v land ((1 lsl span_bits) - 1))

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

(* The image's bytes from [off] to [stop] *)
let add_span buf ~image ~limit ~flush off stop =
  Counter.add image_blit_bytes (stop - off);
  add_blit buf ~limit ~flush image.bytes off (stop - off)

(* The one tree walk, behind [to_buffer], [to_string] and [Sink.node].
   It allocates nothing per node.  An element the [image] indexes is
   copied out of it whole, and so is each maximal run of consecutive
   siblings it indexes whose bytes lie end to end in it: under a rebuilt
   element whose children the rebuild kept, one blit covers them.  Between
   children it calls [flush] once [buf] holds [limit] bytes: the
   streaming sink's chunking.  Whole-reply callers pass [max_int], so
   they never flush; nor does indented output, which only whole replies
   ask for, and which is walked with [no_image]. *)
let rec add_node buf ~image ~limit ~flush ~indent ~level node =
  let s = indexed image node in
  if s >= 0 then add_span buf ~image ~limit ~flush (span_start image s) (span_stop image s)
  else add_walked buf ~image ~limit ~flush ~indent ~level node

(* [node] itself, its children through [add_children] *)
and add_walked buf ~image ~limit ~flush ~indent ~level node =
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
      add_end_tag buf e)

and add_children buf ~image ~limit ~flush = function
  | [] -> ()
  | c :: rest -> add_child buf ~image ~limit ~flush (indexed image c) c rest

(* [c], whose slot in [image] is [s] (-1: none), then [rest] *)
and add_child buf ~image ~limit ~flush s c rest =
  if s >= 0 then add_run buf ~image ~limit ~flush (span_start image s) (span_stop image s) rest
  else begin
    add_walked buf ~image ~limit ~flush ~indent:None ~level:0 c;
    if Buffer.length buf >= limit then flush ();
    add_children buf ~image ~limit ~flush rest
  end

(* A run of the image's bytes from [off] to [stop]: extended while the
   next sibling's bytes start at [stop], and blitted whole once they do
   not. *)
and add_run buf ~image ~limit ~flush off stop = function
  | [] -> add_span buf ~image ~limit ~flush off stop
  | c :: rest ->
    let s = indexed image c in
    if s >= 0 && span_start image s = stop then
      add_run buf ~image ~limit ~flush off (span_stop image s) rest
    else begin
      add_span buf ~image ~limit ~flush off stop;
      if Buffer.length buf >= limit then flush ();
      add_child buf ~image ~limit ~flush s c rest
    end

and add_lines buf ~indent n level = function
  | [] -> ()
  | c :: rest ->
    Buffer.add_char buf '\n';
    add_spaces buf (level * n);
    add_walked buf ~image:no_image ~limit:max_int ~flush:no_flush ~indent ~level c;
    add_lines buf ~indent n level rest

let to_buffer ?indent ?(image = no_image) buf node =
  let image = match indent with None -> image | Some _ -> no_image in
  add_node buf ~image ~limit:max_int ~flush:no_flush ~indent ~level:0 node

module Image = struct
  type t = image

  (* The least power of two above [n] *)
  let slots_above n =
    let s = ref 2 in
    while !s <= n do
      s := 2 * !s
    done;
    !s

  (* [add_walked]'s unindented walk, recording where each element's
     bytes start and end.  The table has the least power of two of
     slots above the root's element count, each id homed at its offset
     from [base], the id the first element would have if the tree's
     ids were consecutive: a parsed tree's are, in the post-order of
     the walk, so the walk writes the table in order, one id to a slot,
     and the siblings a reply looks up lie side by side.  The first id
     outside that window (the old ids under a committed root, say)
     moves the table to hashed homes, at most half full, where ids far
     apart cannot pile into one run.  An image whose bytes pass what a
     span can hold indexes nothing. *)
  let of_element root =
    let elements = Node.elements root in
    let n = slots_above elements in
    let base = Node.id root - elements + 1 in
    let buf = Buffer.create 65536 and ids = Id_table.create ~base ~words:1 n in
    let lo = ref max_int and hi = ref min_int in
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
        let id = e.Node.id in
        if id < !lo then lo := id;
        if id > !hi then hi := id;
        if ids.base <> Id_table.hashed && (id < base || id - base >= n) then
          Id_table.resize ids ~base:Id_table.hashed (slots_above (2 * elements));
        ids.vals.(Id_table.place ids id) <- (start lsl span_bits) lor (Buffer.length buf - start)
      | leaf -> to_buffer buf leaf
    in
    walk (Node.Element root);
    Counter.bump image_builds;
    let bytes = Buffer.contents buf in
    if String.length bytes >= 1 lsl span_bits then { no_image with bytes }
    else { bytes; ids; lo = !lo; hi = !hi }

  let longest_probe image = Id_table.longest_probe image.ids
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
