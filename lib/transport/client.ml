open Xut_service

exception Transport_error of string

type t = {
  fd : Unix.file_descr;
  mutable next_id : int64;
  mutable dead : bool;
      (* the byte stream is no longer frame-aligned (a timeout or read
         error struck mid-frame): the fd is closed and every operation
         fails fast — reuse would misparse the next header *)
  stash : (int64, Service.response) Hashtbl.t;
  hdr : Bytes.t;
  prefix : Bytes.t;  (* a string response's tag byte and length *)
  on_notice : (Wire.Binary.notice -> unit) option;  (* fed every id-0 Notice frame *)
}

let of_fd ?(timeout = 30.) ?on_notice fd =
  if timeout > 0. then Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  {
    fd;
    next_id = 1L;
    dead = false;
    stash = Hashtbl.create 8;
    hdr = Bytes.create Wire.Binary.header_size;
    prefix = Bytes.create Wire.Binary.string_prefix_size;
    on_notice;
  }

let connect ?timeout ?on_notice addr =
  let domain =
    match addr with Addr.Unix_socket _ -> Unix.PF_UNIX | Addr.Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Addr.sockaddr addr) with
  | () -> ()
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e);
  of_fd ?timeout ?on_notice fd

let close t =
  if not t.dead then ( try Unix.close t.fd with Unix.Unix_error _ -> ())

let kill t msg =
  t.dead <- true;
  (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  raise (Transport_error msg)

let check_alive t =
  if t.dead then
    raise
      (Transport_error
         "connection is dead (closed after a mid-frame timeout or read error); reconnect")

let write_all t s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      match Unix.write t.fd b off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) ->
        raise (Transport_error ("write failed: " ^ Unix.error_message e))
  in
  go 0

(* [consumed] counts bytes of the current frame already read before this
   call (0 while waiting for a fresh header; the header size once the
   payload read starts).  A timeout after partial progress strands the
   connection mid-frame — the next read would misparse the remaining
   bytes as a header — so the connection is killed rather than left
   desynced; a timeout at a frame boundary leaves it usable.  EOF and
   read errors also kill: the fd has nothing more to give. *)
let rec read_exact t ~consumed buf off len =
  if len > 0 then
    match Unix.read t.fd buf off len with
    | 0 -> kill t "connection closed by server"
    | n -> read_exact t ~consumed buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_exact t ~consumed buf off len
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      if consumed + off > 0 then
        kill t "timed out mid-frame: connection desynced, closing it"
      else raise (Transport_error "timed out waiting for the server")
    | exception Unix.Unix_error (e, _, _) ->
      kill t ("read failed: " ^ Unix.error_message e)

let send t req =
  check_alive t;
  let id = t.next_id in
  t.next_id <- Int64.add id 1L;
  write_all t (Wire.Binary.request_frame ~id req);
  id

let read_payload t length =
  let payload = Bytes.create length in
  read_exact t ~consumed:Wire.Binary.header_size payload 0 length;
  Bytes.unsafe_to_string payload

(* The next frame's header, its payload still unread.  Server-push
   notices (the id-0 Notice frames of the invalidation channel) are
   consumed here — dispatched to [on_notice] and never surfaced to the
   callers, so they may arrive interleaved with any response or
   stream. *)
let rec read_header t =
  check_alive t;
  read_exact t ~consumed:0 t.hdr 0 Wire.Binary.header_size;
  match Wire.Binary.decode_header t.hdr with
  | Error msg -> raise (Transport_error ("bad frame from server: " ^ msg))
  | Ok { Wire.Binary.kind = Wire.Binary.Notice; length; _ } ->
    (match Wire.Binary.decode_notice (read_payload t length) with
    | Error msg -> raise (Transport_error ("bad notice payload: " ^ msg))
    | Ok n -> ( match t.on_notice with Some f -> f n | None -> ()));
    read_header t
  | Ok hdr -> hdr

let decode_response_exn payload =
  match Wire.Binary.decode_response payload with
  | Error msg -> raise (Transport_error ("bad response payload: " ^ msg))
  | Ok resp -> resp

(* A Response frame's payload.  A tree (or stats dump) is read straight
   into the string the caller gets: its tag and length first, then
   exactly that many bytes.  A length that disagrees with the frame's
   takes the general path, whose decoder rejects it. *)
let read_response t length =
  let p = Wire.Binary.string_prefix_size in
  if length < p then decode_response_exn (read_payload t length)
  else begin
    read_exact t ~consumed:Wire.Binary.header_size t.prefix 0 p;
    let n = Int32.to_int (Bytes.get_int32_be t.prefix 1) in
    let consumed = Wire.Binary.header_size + p in
    match Wire.Binary.string_response (Bytes.get_uint8 t.prefix 0) with
    | Some make when n = length - p ->
      let s = Bytes.create n in
      read_exact t ~consumed s 0 n;
      make (Bytes.unsafe_to_string s)
    | _ ->
      let payload = Bytes.create length in
      Bytes.blit t.prefix 0 payload 0 p;
      read_exact t ~consumed payload p (length - p);
      decode_response_exn (Bytes.unsafe_to_string payload)
  end

let read_frame t =
  let { Wire.Binary.kind; id; length; _ } = read_header t in
  match kind with
  | Wire.Binary.Response -> (id, read_response t length)
  | Wire.Binary.Notice -> assert false (* consumed by read_header *)
  | Wire.Binary.Request ->
    ignore (read_payload t length);
    raise (Transport_error "server sent a request frame")
  | Wire.Binary.Stream_begin | Wire.Binary.Stream_chunk | Wire.Binary.Stream_end
  | Wire.Binary.Stream_error ->
    ignore (read_payload t length);
    raise (Transport_error "unexpected stream frame (no stream in flight)")

let recv t =
  match Hashtbl.fold (fun id resp _ -> Some (id, resp)) t.stash None with
  | Some (id, resp) ->
    Hashtbl.remove t.stash id;
    (id, resp)
  | None -> read_frame t

let call t req =
  let id = send t req in
  match Hashtbl.find_opt t.stash id with
  | Some resp ->
    Hashtbl.remove t.stash id;
    resp
  | None ->
    let rec wait () =
      let rid, resp = read_frame t in
      if rid = id || rid = 0L (* server notice, e.g. BUSY *) then resp
      else begin
        Hashtbl.replace t.stash rid resp;
        wait ()
      end
    in
    wait ()

let call_batch t reqs =
  match call t (Service.Batch reqs) with
  | Service.Ok (Service.Batch_results rs) -> rs
  | other -> [ other ]

(* The reply loop of a stream request: consume the Stream_begin /
   chunks / terminal frame of request [id], stashing completions of
   other pipelined requests. *)
let stream_reply t ~id on_chunk =
  let rec wait () =
    let { Wire.Binary.kind; id = rid; length; _ } = read_header t in
    match kind with
    | Wire.Binary.Response when rid = id || rid = 0L ->
      (* a plain response instead of stream frames: the server's
         rejection of the stream request (or a BUSY notice) *)
      read_response t length
    | Wire.Binary.Response ->
      (* completion of some other pipelined request *)
      Hashtbl.replace t.stash rid (read_response t length);
      wait ()
    | Wire.Binary.Notice -> assert false (* consumed by read_header *)
    | Wire.Binary.Request ->
      ignore (read_payload t length);
      raise (Transport_error "server sent a request frame")
    | _ when rid <> id ->
      (* only one stream can be in flight per connection *)
      ignore (read_payload t length);
      raise (Transport_error "stream frame for a different request id")
    | Wire.Binary.Stream_begin ->
      ignore (read_payload t length);
      wait ()
    | Wire.Binary.Stream_chunk ->
      on_chunk (read_payload t length);
      wait ()
    | Wire.Binary.Stream_end -> begin
      match Wire.Binary.decode_stream_end (read_payload t length) with
      | Error msg -> raise (Transport_error ("bad stream-end payload: " ^ msg))
      | Ok (bytes, chunks) -> Service.Ok (Service.Stream_done { bytes; chunks })
    end
    | Wire.Binary.Stream_error -> begin
      match Wire.Binary.decode_stream_error (read_payload t length) with
      | Error msg -> raise (Transport_error ("bad stream-error payload: " ^ msg))
      | Ok (code, message) -> Service.Error { code; message }
    end
  in
  wait ()

let stream t sr on_chunk =
  check_alive t;
  let id = t.next_id in
  t.next_id <- Int64.add id 1L;
  write_all t (Wire.Binary.stream_frame ~id sr);
  stream_reply t ~id on_chunk

let transform_stream t ~doc ~engine ~query ?(chunk_size = Service.default_chunk_size) on_chunk =
  stream t
    { Service.source = Service.From_doc doc; engine = Some engine; query; chunk_size }
    on_chunk

let transform_ingest t ~source ~query ?(chunk_size = Service.default_chunk_size) on_chunk =
  stream t (Wire.Binary.of_ingest_request { source; query; chunk_size }) on_chunk
