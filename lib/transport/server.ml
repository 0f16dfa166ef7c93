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

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off >= len then true
    else
      match Unix.write fd b off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (_, _, _) -> false
  in
  go 0

(* A frame goes out as a head and a body, [head ^ body], in two writes:
   a reply's payload string is written where it lies, never copied into
   a frame. *)
let write_parts fd head body = write_all fd head && write_all fd body

let write_response fd ~id resp =
  let head, body = Wire.Binary.response_parts ~id resp in
  write_parts fd head body

(* Count one whole frame, then write it; returns whether the client got
   it.  Counted before the bytes go out: a client that has read the reply
   must be able to rely on the counter already reflecting it. *)
let send t fd head body =
  Metrics.frame_out (Service.metrics t.svc) (String.length head + String.length body);
  write_parts fd head body

(* [send] under the connection's write lock, so the two parts of a frame
   are never split by another frame.  The first failed write may have
   left part of a frame on the wire, and no later frame could be parsed
   after it, so it shuts the connection down: the reader sees EOF and
   the client sees the torn frame end in EOF. *)
let write_raw t conn head body =
  Mutex.lock conn.wmu;
  let ok = (not conn.failed) && send t conn.fd head body in
  if not (ok || conn.failed) then begin
    conn.failed <- true;
    try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
  end;
  Mutex.unlock conn.wmu;
  ok

let write_frame t conn ~id resp =
  let head, body = Wire.Binary.response_parts ~id resp in
  write_raw t conn head body

let error_response code message = Service.Error { code; message }

(* ---- dispatch ---- *)

(* Count a request in flight before it is submitted, and hand the pool a
   reply function that runs [complete] on the worker domain, then
   uncounts it: [conn_main] closes the socket only once every submitted
   request's final frame has been written. *)
let submit_tracked conn submit complete =
  Mutex.lock conn.cmu;
  conn.in_flight <- conn.in_flight + 1;
  Mutex.unlock conn.cmu;
  submit (fun resp ->
      Fun.protect
        (fun () -> complete resp)
        ~finally:(fun () ->
          Mutex.lock conn.cmu;
          conn.in_flight <- conn.in_flight - 1;
          if conn.in_flight = 0 then Condition.broadcast conn.drained;
          Mutex.unlock conn.cmu))

(* submit blocks when the pool queue is full: backpressure lands on
   this connection's reader, which stops consuming frames. *)
let dispatch t conn ~id req =
  submit_tracked conn (Service.submit t.svc req) (fun resp ->
      ignore (write_frame t conn ~id resp))

(* A streamed transform: STREAM_BEGIN goes out before the request is
   queued (so it precedes every chunk), chunk frames are written from
   the worker domain as the serializer sink fills, and the same worker
   finishes the exchange with STREAM_END or — if the engine failed
   after chunks went out — STREAM_ERROR. *)
let dispatch_stream t conn ~id sr =
  ignore (write_raw t conn (Wire.Binary.stream_begin_frame ~id) "");
  let emit chunk =
    if not (write_raw t conn (Wire.Binary.stream_chunk_head ~id chunk) chunk) then
      failwith "client disconnected mid-stream"
  in
  submit_tracked conn (Service.submit_stream t.svc sr emit) (fun resp ->
      let final =
        match resp with
        | Service.Ok (Service.Stream_done { bytes; chunks }) ->
          Wire.Binary.stream_end_frame ~id ~bytes ~chunks
        | Service.Error { code; message } -> Wire.Binary.stream_error_frame ~id ~code message
        | Service.Ok _ ->
          Wire.Binary.stream_error_frame ~id ~code:Service.Eval_error
            "stream produced a non-stream response"
      in
      ignore (write_raw t conn final ""))

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
        ignore (write_frame t conn ~id:0L (error_response Service.Bad_request msg))
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
            ignore (write_frame t conn ~id (error_response Service.Bad_request msg));
            loop ()
          | Ok (Wire.Plain req) ->
            dispatch t conn ~id req;
            loop ()
          | Ok (Wire.Stream sr) ->
            dispatch_stream t conn ~id sr;
            loop ()
        end
      end
      | Ok { Wire.Binary.id; _ } ->
        (* Response or Stream_* from a client: never valid *)
        Metrics.frame_malformed m;
        ignore
          (write_frame t conn ~id
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
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
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
            ignore
              (send t fd
                 (Wire.Binary.response_frame ~id:0L
                    (error_response Service.Overloaded
                       (Printf.sprintf "connection limit reached (%d active)" active)))
                 "");
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
              ignore
                (send t fd
                   (Wire.Binary.response_frame ~id:0L
                      (error_response Service.Overloaded "out of threads"))
                   "");
              (try Unix.close fd with Unix.Unix_error _ -> ());
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
        List.iter (fun c -> List.iter (fun frame -> ignore (write_raw t c frame "")) frames) conns
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
