(** Codec between {!Xut_service.Service} requests/responses and bytes.

    Two renderings of the same typed API:

    - {!Line}: the human-typeable protocol of [xut serve] over stdin —
      one request per line, so queries with embedded newlines are not
      expressible (that limitation is why the socket transport exists).
    - {!Binary}: the length-prefixed framing of the socket transport —
      every request is expressible, frames carry a request id so
      responses may complete out of order, and a version byte (always
      {!Binary.protocol_version}) leaves room for protocol evolution.

    Every decoder is total: malformed input is an [Error _], never an
    exception.  Each binary payload layout (a tag byte and its fields)
    is declared once inside {!Binary}, and its encoder and decoder are
    both derived from that one declaration; DESIGN.md's "Frame layout"
    lists every tag. *)

open Xut_service

type incoming = Service.incoming = Plain of Service.request | Stream of Service.stream_request
(** What either decoder reads: a plain request, or a streamed transform
    (a [TRANSFORM-STREAM] line, a tag-7 or tag-16 Request frame). *)

module Line : sig
  val decode_request : string -> (Service.request, string) result
  (** Parse one line:
      {v
      LOAD <name> <file> [SCHEMA <schema>]
      UNLOAD <name>
      TRANSFORM [DOC|VIEW] <name> <engine> <query text...>
      COUNT [DOC|VIEW] <name> <engine> <query text...>
      APPLY <name> <update query text...>
      COMMIT <name> <update query text...>
      DEFVIEW <name> := <transform query text...>
      UNDEFVIEW <name>
      LISTVIEWS
      STATS
      v}
      The APPLY/COMMIT query may be a full transform query or a bare
      update / parenthesized update sequence over [$a].  The literal
      (uppercase) keyword [VIEW] after TRANSFORM/COUNT addresses a
      stored view instead of a document; the [DOC] keyword forces
      document addressing, so a document literally named ["VIEW"] (or
      ["DOC"]) stays reachable: [TRANSFORM DOC VIEW td_bu ...].
      [LOAD ... SCHEMA s] validates the document against the registered
      schema [s] and binds it for admission checks and subtree pruning.
      DEFVIEW's [:=] is optional on input and always printed on
      output. *)

  val decode_incoming : string -> (incoming, string) result
  (** Parse one line of the stdin protocol including the streaming
      verb.  {!decode_request} alone rejects [TRANSFORM-STREAM] (a
      stream is not a [Service.request]).
      [TRANSFORM-STREAM [DOC] <name> <query>] transforms a stored
      document, [TRANSFORM-STREAM FILE <path> <query>] a (server-side)
      file, without materializing the input as a tree.  No engine word:
      the [Service.stream_request] has [engine = None], so the service
      picks the tier with byte-identical fallback for unstreamable
      shapes, and [chunk_size = Service.default_chunk_size].  As with
      TRANSFORM, the [DOC] keyword keeps documents literally named
      ["FILE"]/["DOC"] addressable. *)

  val render_response : Service.response -> string
  (** The reply text of the stdin protocol: ["OK <payload>"],
      ["ERR <code>: <message>"], or for the multi-line payloads (stats
      dump, view list) the payload followed by a line reading [OK]. *)
end

module Binary : sig
  val protocol_version : int
  (** 2: the one version this codec speaks.  Every frame it builds
      carries it, and {!decode_header} rejects any other. *)

  val magic : string
  (** Two bytes, ["XU"]. *)

  val header_size : int
  (** 16 bytes: magic (2) + version (1) + kind (1) + request id (8,
      big-endian) + payload length (4, big-endian). *)

  val default_max_frame : int
  (** 16 MiB. *)

  (** Frame kinds.  [Request]/[Response] are the plain round trip; the
      [Stream_*] kinds carry one streamed transform result:
      [Stream_begin] (empty payload), any number of [Stream_chunk]
      frames whose payload is raw result bytes, then exactly one of
      [Stream_end] (totals) or [Stream_error] (code + message, the
      mid-stream failure frame).  All frames of one stream share the
      request id.  [Notice] is the server-push invalidation frame on
      the reserved id-0 channel. *)
  type kind =
    | Request
    | Response
    | Stream_begin
    | Stream_chunk
    | Stream_end
    | Stream_error
    | Notice

  type header = { version : int; kind : kind; id : int64; length : int }

  val encode_header : header -> Bytes.t

  val decode_header : ?max_frame:int -> Bytes.t -> (header, string) result
  (** Validates magic, version (exactly {!protocol_version}), kind and
      payload length (rejecting anything above [max_frame], default
      {!default_max_frame}). *)

  (** {2 Payload codecs}

      Tag byte + fields; strings are 4-byte big-endian length-prefixed
      bytes, so any query text round-trips. *)

  val encode_request : Service.request -> string
  val decode_request : string -> (Service.request, string) result
  val encode_response : Service.response -> string
  val decode_response : string -> (Service.response, string) result

  val string_prefix_size : int
  (** 5: the tag byte and 4-byte length in front of the string of a
      response whose payload is one length-prefixed string. *)

  val string_response : int -> (string -> Service.response) option
  (** For the response tags whose payload is one length-prefixed string
      (3 tree, 5 stats-dump), the response that string makes; [None]
      for every other tag.  Lets a reader land the string directly in
      its final allocation. *)

  (** {2 Streamed transforms}

      A {!Service.stream_request} travels under one of two payload
      tags: 7 when [engine = Some _] (a stored document's result
      stream), 16 when [engine = None] (a streamed ingest of a stored
      document or a server-side file).  Replies use the [Stream_*]
      frames either way. *)

  val max_chunk_size : int
  (** [default_max_frame / 2] (8 MiB): the largest [chunk_size] a
      stream request may carry, so a chunk frame — at most one event
      past the chunk size — fits the peer's frame limit. *)

  type stream_request = {
    doc : string;
    engine : Core.Engine.algo;
    query : string;
    chunk_size : int;
  }
  (** The tag-7 fields: [{ source = From_doc doc; engine = Some engine; _ }]. *)

  type ingest_source = Ingest_doc of string | Ingest_file of string

  type ingest_request = {
    source : ingest_source;
    query : string;
    chunk_size : int;
  }
  (** The tag-16 fields: [engine = None]. *)

  val of_ingest_request : ingest_request -> Service.stream_request

  val encode_stream : Service.stream_request -> string
  (** The tag-7 or tag-16 payload.  Raises [Invalid_argument] for a
      [From_file] source with an engine, which no tag expresses. *)

  val decode_incoming : version:int -> string -> (incoming, string) result
  (** Decode a Request-frame payload.  The [version] argument is
      ignored: {!decode_header} has already checked it, and the label
      stays only because the serving benchmark (perfbench) passes it.  A
      [chunk_size] of 0 or above {!max_chunk_size} is an [Error _];
      either stream tag nested anywhere inside a batch is malformed. *)

  (** {2 Invalidation notices}

      Server-push frames on the reserved id-0 channel telling connected
      clients that a stored document was unloaded, replaced or committed
      over — or that a commit cost the document its schema binding.  The
      server sends them to every connection; a client that does not
      want them drops them. *)

  (** Wire-local reason (not {!Doc_store.reason}): [Schema_dropped] is
      an extra notice riding on a [Committed] event whose revalidation
      dropped the binding, not a store lifecycle transition. *)
  type notice_reason = Unloaded | Replaced | Committed | Schema_dropped

  type notice = {
    doc : string;
    reason : notice_reason;
    generation : int;
        (** of the new binding for [Replaced]/[Committed], of the
            removed one for [Unloaded] *)
  }

  val notices_of_event : Doc_store.event -> notice list
  (** All notices one event implies: the event's own notice, plus a
      [Schema_dropped] one when the event's [schema_dropped] flag is
      set.  What the server broadcasts. *)

  val encode_notice : notice -> string
  val decode_notice : string -> (notice, string) result

  val render_notice : notice -> string
  (** Human-readable one-liner ([NOTICE unloaded d generation=4]) for
      [xut client --notices]. *)

  val notice_frame : notice -> string

  (** {2 Whole frames}

      Every frame is built at {!protocol_version}. *)

  val request_frame : id:int64 -> Service.request -> string
  val response_frame : id:int64 -> Service.response -> string

  val tree_head : id:int64 -> int -> string
  (** [tree_head ~id n]: the head of the Response frame of a tree of [n]
      bytes — the 16-byte header, tag 3 and the 4-byte length — so that
      [tree_head ~id (String.length s) ^ s = response_frame ~id (Ok (Tree
      s))].  A writer sends it, then the tree's bytes where they lie
      ({!Service.Tree_bytes}). *)

  val stream_frame : id:int64 -> Service.stream_request -> string
  val stream_request_frame : id:int64 -> stream_request -> string
  val ingest_request_frame : id:int64 -> ingest_request -> string
  val stream_begin_frame : id:int64 -> string
  val stream_chunk_frame : id:int64 -> string -> string

  val stream_chunk_head : id:int64 -> int -> string
  (** [stream_chunk_head ~id n]: the 16-byte header of the chunk frame
      of [n] bytes, so that [stream_chunk_head ~id (String.length c) ^ c
      = stream_chunk_frame ~id c]; a writer sends a lent chunk
      ({!Service.Chunk}) after it. *)

  val stream_end_frame : id:int64 -> bytes:int -> chunks:int -> string
  val stream_error_frame : id:int64 -> code:Service.err_code -> string -> string

  val decode_stream_end : string -> (int * int, string) result
  (** [(bytes, chunks)] totals out of a [Stream_end] payload. *)

  val decode_stream_error : string -> (Service.err_code * string, string) result
end
