(** TCP / Unix-socket front end over {!Xut_service.Service}.

    One accept thread plus one reader thread per connection, and no
    other threads: each decoded request is dispatched through
    {!Service.lend} (the domain worker pool), and the worker that
    served it writes the framed response back under the connection's
    write lock, as it already writes stream chunks and notices —
    responses may complete out of order, which is fine because frames
    carry the request id.  A serialized tree and each stream chunk
    arrive lent, in the pooled buffer they were written into: the
    worker writes the frame's head ({!Wire.Binary.tree_head},
    {!Wire.Binary.stream_chunk_head}) and then the buffer's bytes
    through the connection's channel, with no copy of the reply, and
    the buffer returns to the pool once the write is done (or has
    failed).  A reply the client does not read therefore holds its
    worker, and its buffer, until the write times out (see below).

    Robustness over features:
    - a per-connection read timeout closes idle or stalled clients;
      the same timeout bounds each socket write;
    - the first frame write that fails (a client that stopped reading
      past the timeout, or disconnected) shuts the connection down:
      part of that frame may be on the wire, so no later frame is
      written after it and the client sees the torn frame end in EOF;
    - frames above [max_frame], bad magic and unsupported versions get
      a [Bad_request] error frame and a connection close (the stream
      can no longer be trusted); a well-framed but undecodable payload
      gets an error frame and the connection stays up;
    - at [max_connections] live connections, new clients receive one
      [Overloaded] error frame (request id 0) and are closed;
    - nothing a client sends can raise out of the accept loop or a
      connection thread;
    - {!stop} stops accepting, stops reading, waits for every in-flight
      request's response to be written, then closes and joins.

    Every document UNLOAD, reload and COMMIT is pushed to every live
    connection as id-0 [Notice] frames ({!Wire.Binary.notice_frame});
    whether to act on them is the client's choice (see
    {!Client.connect}'s [on_notice]).

    Frame and connection counters are recorded in the service's
    {!Xut_service.Metrics}, so [STATS] reports the whole path. *)

open Xut_service

type config = {
  max_frame : int;        (** largest accepted payload, bytes (default 16 MiB) *)
  max_connections : int;  (** live-connection cap before BUSY (default 64) *)
  read_timeout : float;   (** seconds a read may stall before the
                              connection is dropped (default 30) *)
}

val default_config : config

type t

val start : ?config:config -> service:Service.t -> Addr.t -> t
(** Bind, listen and start accepting.  A Unix-socket path that already
    exists is unlinked first (stale socket of a dead server).  TCP port
    0 binds an ephemeral port — read it back with {!address}.
    Installs [Signal_ignore] on SIGPIPE (a dead client must surface as
    a write error, not kill the process).
    @raise Unix.Unix_error when the address cannot be bound. *)

val address : t -> Addr.t
(** The bound address, with the actual port for TCP port 0. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, shut down the read side of every
    connection, drain in-flight requests (their responses are still
    written), close everything, join all threads, and unlink the Unix
    socket path.  Idempotent.  The underlying service is NOT shut down
    — it belongs to the caller. *)
