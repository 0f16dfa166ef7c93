(** XML serialization. *)

val escape_text : string -> string
(** Escape [&], [<], [>] for character data.  Characters that need no
    escaping are blitted in whole runs (table-driven fast path). *)

val escape_attr : string -> string
(** Escape ampersand, less-than, greater-than and double-quote for
    attribute values. *)

val to_buffer : ?indent:int -> Buffer.t -> Node.t -> unit
(** Append the serialization of the node.  With [indent], children are
    placed on their own lines indented by [indent] spaces per level
    (mixed content is kept inline). *)

val to_string : ?indent:int -> Node.t -> string
(** Serialized into a pooled buffer ({!Pool.contents_of}), so the one
    copy is the returned string.  The walk allocates nothing per node. *)

val element_to_string : ?indent:int -> Node.element -> string

val document_to_string : ?indent:int -> Node.element -> string
(** Like {!element_to_string}, preceded by an XML declaration. *)

val to_channel : ?indent:int -> out_channel -> Node.element -> unit

(** {2 Buffer pool}

    Serialization scratch buffers, reused across requests so a serving
    hot loop does not re-grow a fresh [Buffer.t] per reply.  Domain-safe
    (a mutex-guarded free list); hit/miss counters feed the service
    metrics. *)

module Pool : sig
  val acquire : unit -> Buffer.t
  (** A cleared buffer: pooled if one is free (hit), fresh otherwise
      (miss). *)

  val release : ?shrink:bool -> Buffer.t -> unit
  (** Return a buffer to the pool (dropped silently when the pool is
      full).  [~shrink:true] frees its storage first — used when the
      buffer grew pathologically large. *)

  val shrink_above : int
  (** 4 MiB: a buffer that held more than this is released with
      [~shrink:true]. *)

  val contents_of : (Buffer.t -> unit) -> string
  (** [contents_of f] runs [f] on an acquired buffer and returns what
      it wrote, releasing the buffer (shrunk above {!shrink_above})
      even when [f] raises.  The whole-reply serializers use it. *)

  val hits : unit -> int
  val misses : unit -> int

  val stats : unit -> int * int
  (** [(hits, misses)], process-wide. *)
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

  val create : ?chunk_size:int -> (string -> unit) -> t
  (** [create emit] acquires a pooled buffer and flushes every
      [chunk_size] (or more) bytes to [emit].  Chunk boundaries are
      arbitrary byte positions: concatenating the chunks restores the
      document. *)

  val event : t -> Sax.event -> unit
  (** Serialize one SAX event.  [Start_document]/[End_document] are
      ignored. *)

  val node : t -> Node.t -> unit
  (** Serialize a whole subtree (the shared-subtree fast path of the
      top-down emitters: no per-node event dispatch). *)

  val element : t -> Node.element -> unit

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
    the events it receives to [buf] — {!Sink.event} writing straight
    into [buf], never flushing.  The bytes of a whole element stream
    are exactly [to_string] of that element, empty elements
    self-closing; the [>] of a start-tag is written only once the next
    event arrives.  Apply it once per stream: the handler carries that
    pending-tag state. *)
