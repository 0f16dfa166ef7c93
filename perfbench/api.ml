(* Every call the benchmark makes into the serving API — Service, Server
   and Client — lives here, so a change to that API is ported in this
   one file.  The rest of the benchmark speaks [Workload.op]. *)

open Xut_service
module Client = Xut_transport.Client
module Server = Xut_transport.Server
module Addr = Xut_transport.Addr
module Wire = Xut_transport.Wire

let engine = Core.Engine.Td_bu

(* The plain (non-streaming) request for [op]. *)
let request (op : Workload.op) =
  match op with
  | Count i ->
    Service.Count { target = Service.Doc Workload.doc; engine; query = Workload.queries.(i) }
  | Transform i ->
    Service.Transform
      { target = Service.Doc Workload.doc; engine; query = Workload.queries.(i) }
  | View k ->
    Service.Transform
      { target = Service.View (Workload.view_name k); engine; query = Workload.user_query }
  | Commit insert -> Service.Commit { doc = Workload.doc; query = Workload.commit_query insert }
  | Ingest _ | Stream _ -> invalid_arg "Api.request: a stream has no plain request"

type conn = { svc : Service.t; server : Server.t; client : Client.t }

(* The service in-process with one worker domain, behind a Unix-socket
   server, and one client connection to it. *)
let start ~socket =
  let svc = Service.create ~domains:1 () in
  let addr = Addr.Unix_socket socket in
  let server = Server.start ~service:svc addr in
  let client = Client.connect addr in
  { svc; server; client }

let stop c =
  Client.close c.client;
  Server.stop c.server;
  Service.shutdown c.svc

let load c ~file ~schema =
  Client.call c.client (Service.Load { name = Workload.doc; file; schema })

let defview c (name, query) = Client.call c.client (Service.Defview { name; query })

(* Pipelined plain requests over the socket. *)
let send c op = Client.send c.client (request op)
let recv c = Client.recv c.client

(* One synchronous request over the socket; a stream hands its chunks
   to [on_chunk]. *)
let client_call c ~file (op : Workload.op) on_chunk =
  match op with
  | Ingest i ->
    Client.transform_ingest c.client ~source:(Wire.Binary.Ingest_file file)
      ~query:Workload.queries.(i) on_chunk
  | Stream i ->
    Client.transform_stream c.client ~doc:Workload.doc ~engine ~query:Workload.queries.(i)
      on_chunk
  | op -> Client.call c.client (request op)

(* The same request in-process, without the transport. *)
let service_call svc ~file (op : Workload.op) on_chunk =
  match op with
  | Ingest i ->
    Service.transform_ingest svc ~source:(Service.From_file file) ~query:Workload.queries.(i)
      on_chunk
  | Stream i ->
    Service.transform_stream svc ~doc:Workload.doc ~engine ~query:Workload.queries.(i)
      on_chunk
  | op -> Service.call svc (request op)

let metrics c = Service.metrics c.svc

(* The frames the transport would exchange for one request and its
   reply, for the traced run's codec spans. *)
let request_frame ~file ~id (op : Workload.op) =
  match op with
  | Ingest i ->
    Wire.Binary.ingest_request_frame ~id
      { Wire.Binary.source = Wire.Binary.Ingest_file file;
        query = Workload.queries.(i);
        chunk_size = Service.default_chunk_size }
  | Stream i ->
    Wire.Binary.stream_request_frame ~id
      { Wire.Binary.doc = Workload.doc;
        engine;
        query = Workload.queries.(i);
        chunk_size = Service.default_chunk_size }
  | op -> Wire.Binary.request_frame ~id (request op)

let response_frame ~id resp = Wire.Binary.response_frame ~id resp
let chunk_frame ~id chunk = Wire.Binary.stream_chunk_frame ~id chunk
let stream_end_frame ~id ~bytes ~chunks = Wire.Binary.stream_end_frame ~id ~bytes ~chunks

let header frame =
  match Wire.Binary.decode_header (Bytes.unsafe_of_string (String.sub frame 0 Wire.Binary.header_size)) with
  | Ok h -> h
  | Error msg -> failwith ("bad frame header: " ^ msg)

let payload frame =
  String.sub frame Wire.Binary.header_size (String.length frame - Wire.Binary.header_size)

(* What the server does with a request frame and the client with the
   reply frames: header, then payload. *)
let decode_request frame =
  let h = header frame in
  match Wire.Binary.decode_incoming ~version:h.Wire.Binary.version (payload frame) with
  | Ok _ -> ()
  | Error msg -> failwith ("bad request payload: " ^ msg)

let decode_response frame =
  ignore (header frame);
  match Wire.Binary.decode_response (payload frame) with
  | Ok _ -> ()
  | Error msg -> failwith ("bad response payload: " ^ msg)

let decode_stream_end frame =
  ignore (header frame);
  match Wire.Binary.decode_stream_end (payload frame) with
  | Ok _ -> ()
  | Error msg -> failwith ("bad stream-end payload: " ^ msg)

let decode_chunk frame =
  ignore (header frame);
  ignore (payload frame)
