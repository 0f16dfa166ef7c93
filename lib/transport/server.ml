open Xut_service

type config = {
  max_frame : int;
  max_connections : int;
  read_timeout : float;
}

let default_config =
  { max_frame = Wire.Binary.default_max_frame; max_connections = 64; read_timeout = 30. }

type conn = {
  fd : Unix.file_descr;
  oc : out_channel;
      (* every frame to the client goes out through this channel, under
         [wmu]; closing it, once, closes [fd] *)
  wmu : Mutex.t;  (* serializes frame writes (responses interleave) *)
  mutable failed : bool;
      (* a frame write failed part-way: the byte stream is torn, so the
         socket is shut down and every later write fails at once *)
  cmu : Mutex.t;
  drained : Condition.t;
  mutable in_flight : int;  (* submitted requests whose response is not yet written *)
}

type t = {
  svc : Service.t;
  cfg : config;
  addr : Addr.t;
  listen_fd : Unix.file_descr;
  mu : Mutex.t;
  conns : (int, conn) Hashtbl.t;
  threads : (int, Thread.t) Hashtbl.t;
  mutable next_key : int;
  mutable stopping : bool;
  mutable accept_thread : Thread.t option;
}

(* ---- low-level IO ---- *)

type read_outcome = Complete | Eof | Stalled

let rec read_exact fd buf off len =
  if len = 0 then Complete
  else
    match Unix.read fd buf off len with
    | 0 -> Eof
    | n -> read_exact fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_exact fd buf off len
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Stalled
    | exception Unix.Unix_error (_, _, _) -> Eof

let error_response code message = Service.Error { code; message }

(* A client turned away at once gets one frame, written straight to the
   socket; the caller closes it. *)
let turn_away t fd message =
  let frame = Wire.Binary.response_frame ~id:0L (error_response Service.Overloaded message) in
  Metrics.frame_out (Service.metrics t.svc) (String.length frame);
  let b = Bytes.unsafe_of_string frame in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (_, _, _) -> ()
  in
  go 0

(* The body of a frame that is all head: never written to. *)
let no_body = Buffer.create 1

(* Write one frame on [conn]: [head], then [body]'s bytes where they lie
   (a lent reply costs no copy), then flush; returns whether the client
   got it.  The frame is counted before its bytes go out: a client that
   has read the reply must be able to rely on the counter already
   reflecting it.  Under the connection's write lock, so no other frame
   splits it.  The first failed write may have left part of a frame on
   the wire, and no later frame could be parsed after it, so it shuts
   the connection down: the reader sees EOF and the client sees the
   torn frame end in EOF. *)
let write_frame t conn head body =
  Mutex.lock conn.wmu;
  let ok =
    (not conn.failed)
    &&
    (Metrics.frame_out (Service.metrics t.svc) (String.length head + Buffer.length body);
     match
       output_string conn.oc head;
       Buffer.output_buffer conn.oc body;
       flush conn.oc
     with
     | () -> true
     | exception Sys_error _ -> false)
  in
  if not (ok || conn.failed) then begin
    conn.failed <- true;
    try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
  end;
  Mutex.unlock conn.wmu;
  ok

let write_raw t conn frame = write_frame t conn frame no_body
let write_response t conn ~id resp = write_raw t conn (Wire.Binary.response_frame ~id resp)

(* ---- dispatch ---- *)

(* The last frame of a stream. *)
let stream_final ~id = function
  | Service.Ok (Service.Stream_done { bytes; chunks }) ->
    Wire.Binary.stream_end_frame ~id ~bytes ~chunks
  | Service.Error { code; message } -> Wire.Binary.stream_error_frame ~id ~code message
  | Service.Ok _ ->
    Wire.Binary.stream_error_frame ~id ~code:Service.Eval_error
      "stream produced a non-stream response"

(* A request's replies, delivered on the worker that served it: each
   chunk of a stream as a chunk frame (one the client did not get fails
   the stream), then the final reply — the lent tree's frame, the
   response frame, or a stream's STREAM_END / STREAM_ERROR — after which
   the request is no longer in flight: [conn_main] closes the socket
   only once every submitted request's final frame has been written. *)
let deliver t conn ~id ~stream d =
  let written =
    try
      match d with
      | Service.Chunk chunk ->
        write_frame t conn (Wire.Binary.stream_chunk_head ~id (Buffer.length chunk)) chunk
      | Service.Tree_bytes tree ->
        write_frame t conn (Wire.Binary.tree_head ~id (Buffer.length tree)) tree
      | Service.Response resp ->
        write_raw t conn ((if stream then stream_final else Wire.Binary.response_frame) ~id resp)
    with _ -> false
  in
  match d with
  | Service.Chunk _ -> if not written then failwith "client disconnected mid-stream"
  | Service.Tree_bytes _ | Service.Response _ ->
    Mutex.lock conn.cmu;
    conn.in_flight <- conn.in_flight - 1;
    if conn.in_flight = 0 then Condition.broadcast conn.drained;
    Mutex.unlock conn.cmu

(* Count the request in flight, then submit it; [Service.lend] blocks
   when the pool queue is full, so backpressure lands on this
   connection's reader, which stops consuming frames.  A streamed
   transform's STREAM_BEGIN goes out before the request is queued, so it
   precedes every chunk. *)
let dispatch t conn ~id work =
  let stream = match work with Wire.Stream _ -> true | Wire.Plain _ -> false in
  if stream then ignore (write_raw t conn (Wire.Binary.stream_begin_frame ~id));
  Mutex.lock conn.cmu;
  conn.in_flight <- conn.in_flight + 1;
  Mutex.unlock conn.cmu;
  Service.lend t.svc work (deliver t conn ~id ~stream)

(* ---- connection reader ---- *)

let serve_conn t conn =
  let m = Service.metrics t.svc in
  let hdr = Bytes.create Wire.Binary.header_size in
  let rec loop () =
    match read_exact conn.fd hdr 0 Wire.Binary.header_size with
    | Eof | Stalled -> () (* clean close, or idle past the read timeout *)
    | Complete -> begin
      match Wire.Binary.decode_header ~max_frame:t.cfg.max_frame hdr with
      | Error msg ->
        (* bad magic / version / oversized: after this the byte stream
           can't be re-synchronized, so answer and drop the connection *)
        Metrics.frame_malformed m;
        ignore (write_response t conn ~id:0L (error_response Service.Bad_request msg))
      | Ok { Wire.Binary.kind = Wire.Binary.Request; version; id; length } -> begin
        let payload = Bytes.create length in
        match read_exact conn.fd payload 0 length with
        | Eof | Stalled ->
          (* disconnected or stalled mid-frame *)
          Metrics.frame_malformed m
        | Complete -> begin
          Metrics.frame_in m (Wire.Binary.header_size + length);
          match Wire.Binary.decode_incoming ~version (Bytes.unsafe_to_string payload) with
          | Error msg ->
            (* well-framed but undecodable: the framing is still in
               sync, so answer and keep serving this connection *)
            Metrics.frame_malformed m;
            ignore (write_response t conn ~id (error_response Service.Bad_request msg));
            loop ()
          | Ok work ->
            dispatch t conn ~id work;
            loop ()
        end
      end
      | Ok { Wire.Binary.id; _ } ->
        (* Response or Stream_* from a client: never valid *)
        Metrics.frame_malformed m;
        ignore
          (write_response t conn ~id
             (error_response Service.Bad_request "clients must send request frames"))
    end
  in
  loop ()

let conn_main t key conn =
  (try serve_conn t conn with _ -> ());
  (* responses of already-submitted requests still go out *)
  Mutex.lock conn.cmu;
  while conn.in_flight > 0 do
    Condition.wait conn.drained conn.cmu
  done;
  Mutex.unlock conn.cmu;
  (* the socket's one close: an unflushed frame a failed write left in
     the channel is dropped here, never written at exit *)
  close_out_noerr conn.oc;
  Metrics.conn_closed (Service.metrics t.svc);
  Mutex.lock t.mu;
  Hashtbl.remove t.conns key;
  Hashtbl.remove t.threads key;
  Mutex.unlock t.mu

(* ---- accept loop ---- *)

let accept_loop t =
  let m = Service.metrics t.svc in
  let running = ref true in
  while !running do
    if t.stopping then running := false
    else begin
      match Unix.accept ~cloexec:true t.listen_fd with
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ETIMEDOUT), _, _)
        ->
        () (* the listen socket has a short receive timeout: this is the
              periodic stopping-flag check *)
      | exception Unix.Unix_error (_, _, _) -> running := false
      | exception _ -> running := false
      | fd, _peer ->
        if t.stopping then begin
          (try Unix.close fd with Unix.Unix_error _ -> ());
          running := false
        end
        else begin
          Mutex.lock t.mu;
          let active = Hashtbl.length t.conns in
          Mutex.unlock t.mu;
          if active >= t.cfg.max_connections then begin
            Metrics.conn_rejected m;
            turn_away t fd (Printf.sprintf "connection limit reached (%d active)" active);
            try Unix.close fd with Unix.Unix_error _ -> ()
          end
          else begin
            Metrics.conn_accepted m;
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.read_timeout;
            Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.read_timeout;
            (try Unix.setsockopt fd Unix.TCP_NODELAY true
             with Unix.Unix_error _ -> () (* Unix sockets have no Nagle *));
            let conn =
              {
                fd;
                oc = Unix.out_channel_of_descr fd;
                wmu = Mutex.create ();
                failed = false;
                cmu = Mutex.create ();
                drained = Condition.create ();
                in_flight = 0;
              }
            in
            Mutex.lock t.mu;
            let key = t.next_key in
            t.next_key <- key + 1;
            Hashtbl.replace t.conns key conn;
            (match Thread.create (fun () -> conn_main t key conn) () with
            | th -> Hashtbl.replace t.threads key th
            | exception _ ->
              (* could not spawn a reader: give the client a BUSY *)
              Hashtbl.remove t.conns key;
              turn_away t fd "out of threads";
              close_out_noerr conn.oc;
              Metrics.conn_closed m);
            Mutex.unlock t.mu
          end
        end
    end
  done

(* ---- lifecycle ---- *)

let start ?(config = default_config) ~service addr =
  (* a client disappearing mid-write must be an EPIPE, not a process kill *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let domain, sockaddr =
    match addr with
    | Addr.Unix_socket path ->
      if Sys.file_exists path then (try Unix.unlink path with Unix.Unix_error _ -> ());
      (Unix.PF_UNIX, Addr.sockaddr addr)
    | Addr.Tcp _ -> (Unix.PF_INET, Addr.sockaddr addr)
  in
  let listen_fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (match
     (try Unix.setsockopt listen_fd Unix.SO_REUSEADDR true with Unix.Unix_error _ -> ());
     Unix.bind listen_fd sockaddr;
     Unix.listen listen_fd 128
   with
  | () -> ()
  | exception e ->
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    raise e);
  (* short accept timeout = how often the loop notices [stop] *)
  Unix.setsockopt_float listen_fd Unix.SO_RCVTIMEO 0.2;
  let addr =
    match addr with
    | Addr.Tcp { host; port = 0 } -> begin
      match Unix.getsockname listen_fd with
      | Unix.ADDR_INET (_, port) -> Addr.Tcp { host; port }
      | _ -> addr
    end
    | _ -> addr
  in
  let t =
    {
      svc = service;
      cfg = config;
      addr;
      listen_fd;
      mu = Mutex.create ();
      conns = Hashtbl.create 16;
      threads = Hashtbl.create 16;
      next_key = 0;
      stopping = false;
      accept_thread = None;
    }
  in
  (* Push invalidation notices: on every UNLOAD/reload/COMMIT the
     service's lifecycle event fans out, as id-0 Notice frames, to every
     connection.  The event fires after the service's own cache
     eviction, so a client acting on the notice re-reads fresh state.
     Runs on the worker thread doing the LOAD/UNLOAD/COMMIT; a dead
     connection just fails its write. *)
  Service.on_invalidate service (fun ev ->
      if not t.stopping then begin
        (* usually one frame; two when a commit also dropped the
           document's schema binding (the extra Schema_dropped notice) *)
        let frames =
          List.map Wire.Binary.notice_frame (Wire.Binary.notices_of_event ev)
        in
        Mutex.lock t.mu;
        let conns = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
        Mutex.unlock t.mu;
        List.iter (fun c -> List.iter (fun frame -> ignore (write_raw t c frame)) frames) conns
      end);
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let address t = t.addr

let stop t =
  Mutex.lock t.mu;
  let already = t.stopping in
  t.stopping <- true;
  Mutex.unlock t.mu;
  if not already then begin
    (match t.accept_thread with
    | Some th -> Thread.join th
    | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* stop reading everywhere; readers see EOF, drain, close *)
    Mutex.lock t.mu;
    let conns = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
    let threads = Hashtbl.fold (fun _ th acc -> th :: acc) t.threads [] in
    Mutex.unlock t.mu;
    List.iter
      (fun c -> try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
      conns;
    List.iter Thread.join threads;
    match t.addr with
    | Addr.Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Addr.Tcp _ -> ()
  end
