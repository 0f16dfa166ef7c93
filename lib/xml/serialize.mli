(** XML serialization. *)

(** {2 Reply image}

    A stored document's serialization, kept so replies can copy shared
    subtrees instead of walking and escaping them again. *)

module Image : sig
  type t

  val of_element : Node.element -> t
  (** The unindented serialization of the element (the bytes of
      {!element_to_string}) and an index from the id of every element in
      it to the (offset, length) of its bytes: an {!Id_table} sized
      once from the element count, each id homed at its offset from the
      root's, or by a hash once the ids spread wider than the table
      (the old ids under a committed root).  Element ids
      are unique and elements immutable ({!Node.element} and
      {!Node.with_children} give every new or rebuilt element a fresh
      id), and unindented serialization does not depend on the context,
      so an indexed id names exactly those bytes in any tree that holds
      the element: an image stays valid for every tree derived from this
      one, and for any other tree (where nothing matches).  An image of
      2 GiB or more indexes nothing.
      Counts [serialize_image_builds]; the serializers count the bytes
      they copy out of an image as [serialize_image_blit_bytes]
      ({!Counter}). *)

  val longest_probe : t -> int
  (** {!Id_table.longest_probe} of the index (instrumentation, for the
      tests of its homing). *)
end

val to_buffer : ?indent:int -> ?image:Image.t -> Buffer.t -> Node.t -> unit
(** Append the serialization of the node.  With [indent], children are
    placed on their own lines indented by [indent] spaces per level
    (mixed content is kept inline).  Without [indent], an element that
    [image] indexes is copied from it whole (a blit) instead of walked,
    and so is each maximal run of consecutive siblings it indexes whose
    bytes lie end to end in it (the kept children of a node a commit
    rebuilt): one blit per run.
    The bytes are the same.  Indented output never consults [image]. *)

val to_string : ?indent:int -> ?image:Image.t -> Node.t -> string
(** Serialized into a pooled buffer ({!Pool.contents_of}), so the one
    copy is the returned string.  The walk allocates nothing per node,
    nor per copy from [image].  A reply that is written out rather than
    kept is serialized with {!to_buffer} into a {!Pool.acquire}d buffer
    instead, and costs no copy at all. *)

val element_to_string : ?indent:int -> ?image:Image.t -> Node.element -> string

val document_to_string : ?indent:int -> Node.element -> string
(** Like {!element_to_string}, preceded by an XML declaration. *)

val to_channel : ?indent:int -> out_channel -> Node.element -> unit

(** {2 Buffer pool}

    Serialization scratch buffers, reused across requests so a serving
    hot loop does not re-grow a fresh [Buffer.t] per reply.  Domain-safe
    (a mutex-guarded free list), counted as [serialize_pool_hits] and
    [serialize_pool_misses] ({!Counter}).

    A pooled buffer can be lent: whoever acquired it hands it, filled,
    to a reader that takes the bytes where they lie (writes them to a
    socket, say), and releases it once that reader has returned.  A
    reader must not keep the buffer, nor read it after returning. *)

module Pool : sig
  val shrink_above : int
  (** 4 MiB: a buffer that held more than this has its storage freed
      before it returns to the pool. *)

  val acquire : unit -> Buffer.t
  (** An empty buffer: a pooled one, or a fresh one when the pool is
      empty. *)

  val release : Buffer.t -> unit
  (** Return an acquired buffer, once nothing reads it any more: it is
      cleared, and its storage freed when it holds more than
      {!shrink_above}.  A pool that is full drops it. *)

  val contents_of : (Buffer.t -> unit) -> string
  (** [contents_of f] runs [f] on an acquired buffer and returns what
      it wrote, releasing the buffer even when [f] raises: for a caller
      that keeps the bytes as a string. *)
end

(** {2 Chunked streaming sink}

    The zero-materialization result path: a push-based serializer that
    the streaming engines drive with SAX events (or whole shared
    subtrees), flushing the serialized bytes to a consumer in chunks of
    a configurable size.  The byte stream is exactly what
    [to_string] would produce on the materialized result — including
    self-closing empty elements, which the sink gets right by holding
    the closing [>] of a start-tag until the next event decides between
    [>] and [/>]. *)

module Sink : sig
  type t

  type totals = { bytes : int; chunks : int }

  val default_chunk_size : int
  (** 64 KiB. *)

  val lending : ?chunk_size:int -> (Buffer.t -> unit) -> t
  (** [lending emit] acquires a pooled buffer and lends it to [emit]
      each time it holds [chunk_size] (or more) bytes ({!Writer.flush}):
      the chunk is the buffer's contents, valid only until [emit]
      returns, after which the buffer is cleared and refilled.  Chunk
      boundaries are arbitrary byte positions: concatenating the chunks
      restores the document. *)

  val create : ?chunk_size:int -> (string -> unit) -> t
  (** {!lending} for a consumer that wants strings: each chunk is copied
      out once, into the string [emit] gets. *)

  val event : t -> Sax.event -> unit
  (** Serialize one SAX event ({!Sax.write} into {!writer}).
      [Start_document]/[End_document] are ignored. *)

  val writer : t -> Writer.t
  (** The writer the sink writes through: a parse steered to copy a
      subtree into it ({!Sax.steer}) writes the bytes and chunks that
      {!event} of the subtree's events would. *)

  val node : ?image:Image.t -> t -> Node.t -> unit
  (** Serialize a whole subtree (the shared-subtree fast path of the
      top-down emitters: no per-node event dispatch), copying the
      elements [image] indexes out of it as {!to_buffer} does.  A copy
      longer than the room left in the chunk is written in pieces, a
      flush after each full chunk, so chunks stay near [chunk_size]. *)

  val element : ?image:Image.t -> t -> Node.element -> unit

  val markup : t -> string -> unit
  (** Append content that is already serialized (by {!to_string}):
      written as it is, like {!node} of the tree it came from. *)

  val close : t -> totals
  (** Flush the final partial chunk, release the buffer to the pool and
      return the totals.  Idempotent. *)

  val abort : t -> unit
  (** Drop any buffered bytes (nothing more is emitted) and release the
      buffer — the error path. *)
end

val event_sink : Buffer.t -> Sax.event -> unit
(** [event_sink buf] is a SAX handler that appends the serialization of
    the events it receives to [buf] — {!Sax.write} straight into [buf],
    never flushing.  The bytes of a whole element stream
    are exactly [to_string] of that element, empty elements
    self-closing; the [>] of a start-tag is written only once the next
    event arrives.  Apply it once per stream: the handler carries that
    pending-tag state. *)
