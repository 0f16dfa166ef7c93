(** Blocking client for the binary socket protocol — the library under
    [xut client], the transport tests and perfbench.

    Requests are framed with fresh ids starting at 1; the server may
    complete them out of order.  {!call} is the simple synchronous
    round trip; {!send}/{!recv} expose pipelining (keep several frames
    in flight, collect completions as they arrive).

    A server notice — a frame with request id 0, e.g. the [Overloaded]
    BUSY rejection at the connection limit — is returned by {!call} as
    if it answered the call, and by {!recv} with id 0. *)

open Xut_service

exception Transport_error of string
(** Connection lost, stream ended mid-frame, or an undecodable frame
    from the server.

    When a read timeout or error strikes {e mid-frame}, the byte stream
    is no longer frame-aligned and cannot be resynchronized, so the
    client marks the connection dead and closes the socket; every
    subsequent operation raises this immediately ("connection is dead")
    instead of misparsing leftover bytes as a header.  A timeout at a
    frame boundary (nothing read) leaves the connection usable. *)

type t

val connect : ?timeout:float -> ?on_notice:(Wire.Binary.notice -> unit) -> Addr.t -> t
(** Connect; [timeout] (default 30 s) bounds every read.

    The server pushes its invalidation notices to every connection:
    each id-0 [Notice] frame (a stored document was unloaded, replaced
    or committed over) is consumed by whichever read is in progress,
    without disturbing the response it was waiting for, and handed to
    the [on_notice] callback.  Without [on_notice] notices are read and
    dropped.  The callback changes nothing the client sends.
    @raise Unix.Unix_error when the endpoint does not accept. *)

val of_fd : ?timeout:float -> ?on_notice:(Wire.Binary.notice -> unit) -> Unix.file_descr -> t
(** {!connect} over an already connected stream socket (one end of a
    [socketpair], say), which the client now owns. *)

val close : t -> unit

val call : t -> Service.request -> Service.response
(** Send one request and wait for its response (or a server notice).
    Responses to other in-flight ids arriving first are stashed and
    later delivered by {!recv}. *)

val send : t -> Service.request -> int64
(** Frame and write the request, returning its id.  Does not wait. *)

val recv : t -> int64 * Service.response
(** Next available response: a stashed one if any, else the next frame
    off the wire. *)

val call_batch : t -> Service.request list -> Service.response list
(** Wrap the requests in one [Batch] frame; returns the per-item
    responses.  A non-batch reply (e.g. a BUSY notice or an error for
    the batch itself) is returned as a single-element list. *)

val stream : t -> Service.stream_request -> (string -> unit) -> Service.response
(** Streamed transform (protocol v2): send one stream request, call
    [on_chunk] with each [Stream_chunk] payload as it arrives, and
    return [Ok (Stream_done _)] on [Stream_end] or [Error _] on
    [Stream_error] — the latter possibly after chunks were already
    delivered (the mid-stream error case; the partial output is
    whatever [on_chunk] saw).  A plain response frame in place of the
    stream (a server that rejects the request, or a BUSY notice) is
    returned as-is.  Do not pipeline other requests while a stream is
    being read.  Raises [Invalid_argument] as {!Wire.Binary.encode_stream}. *)

val transform_stream :
  t ->
  doc:string ->
  engine:Core.Engine.algo ->
  query:string ->
  ?chunk_size:int ->
  (string -> unit) ->
  Service.response
(** {!stream} of a stored document's result under [engine] (tag 7). *)

val transform_ingest :
  t ->
  source:Wire.Binary.ingest_source ->
  query:string ->
  ?chunk_size:int ->
  (string -> unit) ->
  Service.response
(** {!stream} with [engine = None] ([TRANSFORM-STREAM], tag 16): a
    stored document ([Ingest_doc]) or a server-side file
    ([Ingest_file]), the tier chosen server-side with byte-identical
    output. *)
