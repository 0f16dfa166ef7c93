(* The socket transport: Wire codecs (line + binary, with a qcheck
   round-trip property), the server's robustness against malformed /
   oversized / truncated frames, concurrency, error-code mapping, and
   the BUSY connection limit. *)

open Xut_service
open Xut_transport

let doc_xml =
  {|<site><people>
      <person id="p1"><name>Alice</name><age>30</age></person>
      <person id="p2"><name>Bob</name><age>17</age></person>
      <person id="p3"><name>Carol</name><age>45</age></person>
    </people><items>
      <item><name>kettle</name><price>12</price></item>
      <item><name>lamp</name><price>40</price></item>
    </items></site>|}

let q_del_adult_names =
  {|transform copy $a := doc("d") modify do delete $a/site/people/person[age > 20]/name return $a|}

let q_del_prices =
  {|transform copy $a := doc("d") modify do delete $a//price return $a|}

let q_rename_items =
  {|transform copy $a := doc("d") modify do rename $a/site/items/item as product return $a|}

let queries = [ q_del_adult_names; q_del_prices; q_rename_items ]

let reference_answer engine q =
  let root = Xut_xml.Dom.parse_string doc_xml in
  let query = Core.Transform_parser.parse q in
  Xut_xml.Serialize.element_to_string (Core.Engine.run engine query ~doc:root)

let with_doc_file f =
  let path = Filename.temp_file "xut_transport_test" ".xml" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc doc_xml);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let with_server ?config ?(domains = 1) f =
  let svc = Service.create ~domains () in
  let sock = Filename.temp_file "xut_transport_test" ".sock" in
  Sys.remove sock;
  let server = Server.start ?config ~service:svc (Addr.Unix_socket sock) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Service.shutdown svc)
    (fun () -> f svc sock)

let eventually ?(timeout = 5.) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    pred ()
    || (Unix.gettimeofday () -. t0 < timeout
       &&
       (Thread.delay 0.01;
        go ()))
  in
  go ()

(* raw socket access, for sending deliberately broken bytes *)

let raw_connect sock_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock_path);
  fd

let raw_write fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Every byte a raw client gets until the server closes or [timeout]
   passes; [true] when the read ended in EOF. *)
let raw_read ?(timeout = 5.) fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> true
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false
  in
  let eof = go () in
  (Buffer.contents buf, eof)

let raw_read_all ?timeout fd = fst (raw_read ?timeout fd)

(* Decode the single error frame a misbehaving client is sent. *)
let decode_error_frame bytes =
  if String.length bytes < Wire.Binary.header_size then
    Alcotest.fail "server reply shorter than a frame header";
  match
    Wire.Binary.decode_header (Bytes.of_string (String.sub bytes 0 Wire.Binary.header_size))
  with
  | Error msg -> Alcotest.fail ("server reply header: " ^ msg)
  | Ok { Wire.Binary.length; id; _ } -> begin
    if String.length bytes <> Wire.Binary.header_size + length then
      Alcotest.fail "server reply is not exactly one frame before close";
    match Wire.Binary.decode_response (String.sub bytes Wire.Binary.header_size length) with
    | Error msg -> Alcotest.fail ("server reply payload: " ^ msg)
    | Ok resp -> (id, resp)
  end

(* ---- line protocol ---- *)

let test_line_protocol () =
  let ok = function Ok r -> r | Error e -> Alcotest.fail e in
  (match ok (Wire.Line.decode_request "LOAD d /tmp/x.xml") with
  | Service.Load { name = "d"; file = "/tmp/x.xml"; schema = None } -> ()
  | _ -> Alcotest.fail "LOAD parse");
  (match ok (Wire.Line.decode_request "LOAD d /tmp/x.xml SCHEMA xmark") with
  | Service.Load { name = "d"; file = "/tmp/x.xml"; schema = Some "xmark" } -> ()
  | _ -> Alcotest.fail "LOAD SCHEMA parse");
  (match
     ok
       (Wire.Line.decode_request
          "TRANSFORM d td-bu transform copy $a := doc(\"d\") modify do delete $a//x return $a")
   with
  | Service.Transform { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query } ->
    Alcotest.(check bool) "query text survives" true
      (String.length query > 0 && String.sub query 0 9 = "transform")
  | _ -> Alcotest.fail "TRANSFORM parse");
  (match ok (Wire.Line.decode_request "stats") with
  | Service.Stats -> ()
  | _ -> Alcotest.fail "STATS parse (case-insensitive verb)");
  (match
     ok
       (Wire.Line.decode_request
          "COUNT d gentop transform copy $a := doc(\"d\") modify do delete $a//x return $a")
   with
  | Service.Count { target = Service.Doc "d"; engine = Core.Engine.Gentop; _ } -> ()
  | _ -> Alcotest.fail "COUNT parse");
  (match ok (Wire.Line.decode_request "APPLY d delete $a//price") with
  | Service.Apply { doc = "d"; query = "delete $a//price" } -> ()
  | _ -> Alcotest.fail "APPLY parse");
  (* the VIEW keyword re-targets TRANSFORM/COUNT at a stored view *)
  (match ok (Wire.Line.decode_request "TRANSFORM VIEW v td-bu for $x in a/b return $x") with
  | Service.Transform
      { target = Service.View "v"; engine = Core.Engine.Td_bu;
        query = "for $x in a/b return $x" } -> ()
  | _ -> Alcotest.fail "TRANSFORM VIEW parse");
  (match ok (Wire.Line.decode_request "COUNT VIEW v gentop for $x in a/b return $x") with
  | Service.Count { target = Service.View "v"; engine = Core.Engine.Gentop; _ } -> ()
  | _ -> Alcotest.fail "COUNT VIEW parse");
  (* ...but only the exact uppercase keyword: a lowercase name stays a doc *)
  (match ok (Wire.Line.decode_request "TRANSFORM view td-bu for $x in a/b return $x") with
  | Service.Transform { target = Service.Doc "view"; _ } -> ()
  | _ -> Alcotest.fail "lowercase view is a document name");
  (match ok (Wire.Line.decode_request "DEFVIEW v := transform copy $a := doc(\"d\") modify do delete $a//x return $a") with
  | Service.Defview { name = "v"; query } ->
    Alcotest.(check bool) ":= is stripped" true (String.sub query 0 9 = "transform")
  | _ -> Alcotest.fail "DEFVIEW parse");
  (match ok (Wire.Line.decode_request "DEFVIEW v transform copy $a := doc(\"d\") modify do delete $a//x return $a") with
  | Service.Defview { name = "v"; query } ->
    Alcotest.(check bool) ":= is optional" true (String.sub query 0 9 = "transform")
  | _ -> Alcotest.fail "DEFVIEW parse without :=");
  (match ok (Wire.Line.decode_request "UNDEFVIEW v") with
  | Service.Undefview { name = "v" } -> ()
  | _ -> Alcotest.fail "UNDEFVIEW parse");
  (match ok (Wire.Line.decode_request "listviews") with
  | Service.Listviews -> ()
  | _ -> Alcotest.fail "LISTVIEWS parse (case-insensitive verb)");
  (match ok (Wire.Line.decode_request "commit d insert <x/> into $a") with
  | Service.Commit { doc = "d"; query = "insert <x/> into $a" } -> ()
  | _ -> Alcotest.fail "COMMIT parse (case-insensitive verb)");
  List.iter
    (fun line ->
      match Wire.Line.decode_request line with
      | Ok _ -> Alcotest.fail ("should not parse: " ^ line)
      | Error _ -> ())
    [ ""; "LOAD d"; "TRANSFORM d"; "TRANSFORM d bogus-engine q"; "APPLY d"; "COMMIT d";
      "FROBNICATE x"; "TRANSFORM VIEW v"; "DEFVIEW v"; "UNDEFVIEW" ];
  (* literal lines decode to the expected requests *)
  List.iter
    (fun (line, req) ->
      Alcotest.(check bool) ("decodes: " ^ line) true (Wire.Line.decode_request line = Ok req))
    [
      ( "COUNT d TD-BU " ^ q_del_prices,
        Service.Count { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = q_del_prices }
      );
      ("APPLY d delete $a//price", Service.Apply { doc = "d"; query = "delete $a//price" });
      ( "COMMIT d (delete $a//price, rename $a/site as x)",
        Service.Commit { doc = "d"; query = "(delete $a//price, rename $a/site as x)" } );
      ( "TRANSFORM VIEW v TD-BU for $x in a/b return $x",
        Service.Transform
          { target = Service.View "v"; engine = Core.Engine.Td_bu;
            query = "for $x in a/b return $x" } );
      ( "COUNT VIEW v GENTOP for $x in a/b return $x",
        Service.Count
          { target = Service.View "v"; engine = Core.Engine.Gentop;
            query = "for $x in a/b return $x" } );
      ("DEFVIEW v := " ^ q_del_prices, Service.Defview { name = "v"; query = q_del_prices });
      ("UNDEFVIEW v", Service.Undefview { name = "v" });
      ("LISTVIEWS", Service.Listviews);
    ];
  (* a document literally named VIEW (or DOC) is addressed through the
     explicit DOC keyword *)
  (match Wire.Line.decode_request "TRANSFORM DOC VIEW TD-BU q" with
  | Ok (Service.Transform { target = Service.Doc "VIEW"; _ }) -> ()
  | _ -> Alcotest.fail "TRANSFORM DOC VIEW must address the document named VIEW");
  match Wire.Line.decode_request "COUNT DOC DOC td-bu q" with
  | Ok (Service.Count { target = Service.Doc "DOC"; _ }) -> ()
  | _ -> Alcotest.fail "COUNT DOC DOC must address the document named DOC"

(* ---- binary codec: qcheck round trip ---- *)

let gen_text =
  (* names and query texts with embedded spaces and newlines — the
     inputs the line protocol cannot carry *)
  QCheck.Gen.(
    string_size
      ~gen:(oneof [ printable; return '\n'; return ' '; return '"' ])
      (int_range 0 40))

let gen_engine = QCheck.Gen.oneofl Core.Engine.all

let gen_target =
  QCheck.Gen.(
    oneof [ map (fun d -> Service.Doc d) gen_text; map (fun v -> Service.View v) gen_text ])

let gen_simple_request =
  QCheck.Gen.(
    oneof
      [
        map3 (fun name file schema -> Service.Load { name; file; schema }) gen_text gen_text
          (opt gen_text);
        map (fun name -> Service.Unload { name }) gen_text;
        map3 (fun target engine query -> Service.Transform { target; engine; query }) gen_target
          gen_engine gen_text;
        map3 (fun target engine query -> Service.Count { target; engine; query }) gen_target
          gen_engine gen_text;
        map2 (fun doc query -> Service.Apply { doc; query }) gen_text gen_text;
        map2 (fun doc query -> Service.Commit { doc; query }) gen_text gen_text;
        map2 (fun name query -> Service.Defview { name; query }) gen_text gen_text;
        map (fun name -> Service.Undefview { name }) gen_text;
        return Service.Listviews;
        return Service.Stats;
      ])

let gen_request =
  QCheck.Gen.(
    oneof
      [
        gen_simple_request;
        map (fun l -> Service.Batch l) (list_size (int_range 0 5) gen_simple_request);
      ])

let gen_err_code =
  QCheck.Gen.oneofl
    [
      Service.Unknown_document;
      Service.Query_parse_error;
      Service.Eval_error;
      Service.Conflict;
      Service.Overloaded;
      Service.Bad_request;
      Service.View_compose_error;
      Service.Statically_empty;
    ]

let gen_simple_response =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun (name, reloaded) (elements, generation) schema ->
            Service.Ok (Service.Doc_loaded { name; elements; reloaded; generation; schema }))
          (pair gen_text bool) (pair small_nat small_nat) (opt gen_text);
        map (fun name -> Service.Ok (Service.Doc_unloaded { name })) gen_text;
        map (fun s -> Service.Ok (Service.Tree s)) gen_text;
        map (fun n -> Service.Ok (Service.Element_count n)) small_nat;
        map (fun s -> Service.Ok (Service.Stats_dump s)) gen_text;
        map2
          (fun bytes chunks -> Service.Ok (Service.Stream_done { bytes; chunks }))
          small_nat small_nat;
        map3
          (fun doc (primitives, collapsed) conflicts ->
            Service.Ok (Service.Applied { doc; primitives; collapsed; conflicts }))
          gen_text (pair small_nat small_nat)
          (list_size (int_range 0 3) gen_text);
        map3
          (fun doc (primitives, collapsed) (elements, generation) ->
            Service.Ok (Service.Committed { doc; primitives; collapsed; elements; generation }))
          gen_text (pair small_nat small_nat) (pair small_nat small_nat);
        map3
          (fun (name, base) (depth, generation) redefined ->
            Service.Ok (Service.View_defined { name; base; depth; generation; redefined }))
          (pair gen_text gen_text) (pair small_nat small_nat) bool;
        map (fun name -> Service.Ok (Service.View_undefined { name })) gen_text;
        map
          (fun views -> Service.Ok (Service.View_list views))
          (list_size (int_range 0 4)
             (map2
                (fun (v_name, v_base) (v_depth, v_generation) ->
                  { Service.v_name; v_base; v_depth; v_generation })
                (pair gen_text gen_text) (pair small_nat small_nat)));
        map2 (fun code message -> Service.Error { code; message }) gen_err_code gen_text;
      ])

let gen_response =
  QCheck.Gen.(
    oneof
      [
        gen_simple_response;
        map
          (fun l -> Service.Ok (Service.Batch_results l))
          (list_size (int_range 0 5) gen_simple_response);
      ])

let prop_request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"binary: decode (encode request) = Ok request"
    (QCheck.make gen_request) (fun r ->
      Wire.Binary.decode_request (Wire.Binary.encode_request r) = Ok r)

let prop_response_roundtrip =
  QCheck.Test.make ~count:500 ~name:"binary: decode (encode response) = Ok response"
    (QCheck.make gen_response) (fun r ->
      Wire.Binary.decode_response (Wire.Binary.encode_response r) = Ok r)

let prop_header_roundtrip =
  QCheck.Test.make ~count:200 ~name:"binary: header round trip"
    QCheck.(pair (map Int64.of_int small_nat) small_nat)
    (fun (id, length) ->
      let h =
        { Wire.Binary.version = Wire.Binary.protocol_version; kind = Wire.Binary.Request; id;
          length }
      in
      Wire.Binary.decode_header (Wire.Binary.encode_header h) = Ok h)

let test_header_validation () =
  let mk ?(version = Wire.Binary.protocol_version) ?(length = 0) () =
    Wire.Binary.encode_header
      { Wire.Binary.version; kind = Wire.Binary.Request; id = 9L; length }
  in
  (match Wire.Binary.decode_header (Bytes.of_string "0123456789abcdef") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic must be rejected");
  (match Wire.Binary.decode_header (mk ~version:(Wire.Binary.protocol_version + 1) ()) with
  | Error msg ->
    Alcotest.(check bool) "version error names both versions" true
      (String.length msg > 0
      && String.split_on_char ' ' msg |> List.exists (fun w -> w = "version"))
  | Ok _ -> Alcotest.fail "a future protocol version must be rejected");
  (match Wire.Binary.decode_header (mk ~version:1 ()) with
  | Error msg ->
    Alcotest.(check bool) "v1 error names the version" true
      (String.split_on_char ' ' msg |> List.exists (fun w -> w = "version"))
  | Ok _ -> Alcotest.fail "a v1 header must be rejected");
  (match Wire.Binary.decode_header ~max_frame:1024 (mk ~length:2048 ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a frame above max_frame must be rejected");
  match Wire.Binary.decode_header (Bytes.of_string "XU") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a short header must be rejected"

(* ---- socket round trips ---- *)

let load_over t path =
  match Client.call t (Service.Load { name = "d"; file = path; schema = None }) with
  | Service.Ok (Service.Doc_loaded { name = "d"; elements = 18; _ }) -> ()
  | Service.Ok _ -> Alcotest.fail "LOAD over the socket: wrong payload"
  | Service.Error { message; _ } -> Alcotest.fail message

let test_socket_matches_in_process () =
  with_doc_file (fun doc ->
      with_server (fun svc sock ->
          let cli = Client.connect (Addr.Unix_socket sock) in
          Fun.protect
            ~finally:(fun () -> Client.close cli)
            (fun () ->
              load_over cli doc;
              List.iter
                (fun q ->
                  let req =
                    Service.Transform { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = q }
                  in
                  let over_socket = Client.call cli req in
                  let in_process = Service.call svc req in
                  Alcotest.(check bool)
                    "socket response structurally equal to Service.call" true
                    (over_socket = in_process);
                  match over_socket with
                  | Service.Ok (Service.Tree t) ->
                    Alcotest.(check string) "payload byte-identical to the engine"
                      (reference_answer Core.Engine.Td_bu q)
                      t
                  | _ -> Alcotest.fail "expected a Tree")
                queries;
              (match
                 Client.call cli
                   (Service.Count { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = q_del_prices })
               with
              | Service.Ok (Service.Element_count 16) -> ()
              | _ -> Alcotest.fail "COUNT over the socket");
              (* transport counters flowed into the service metrics *)
              let m = Service.metrics svc in
              Alcotest.(check bool) "frames_in counted" true (Fixtures.stat m "frames_in" >= 5);
              Alcotest.(check bool) "frames_out counted" true (Fixtures.stat m "frames_out" >= 5);
              Alcotest.(check bool) "bytes flow both ways" true
                (Fixtures.stat m "bytes_in" > 0 && Fixtures.stat m "bytes_out" > 0);
              Alcotest.(check int) "one connection accepted" 1 (Fixtures.stat m "conns_accepted");
              match Service.call svc Service.Stats with
              | Service.Ok (Service.Stats_dump dump) ->
                Alcotest.(check bool) "STATS surfaces transport counters" true
                  (String.split_on_char '\n' dump
                  |> List.exists (fun l ->
                         String.length l >= 10 && String.sub l 0 10 = "frames_in "))
              | _ -> Alcotest.fail "STATS")))

let test_socket_concurrent_clients () =
  with_doc_file (fun doc ->
      with_server ~domains:2 (fun _svc sock ->
          let cli0 = Client.connect (Addr.Unix_socket sock) in
          load_over cli0 doc;
          Client.close cli0;
          let expected = List.map (reference_answer Core.Engine.Td_bu) queries in
          let n_clients = 4 and per_client = 12 in
          let failures = Array.make n_clients None in
          let worker k () =
            try
              let cli = Client.connect (Addr.Unix_socket sock) in
              Fun.protect
                ~finally:(fun () -> Client.close cli)
                (fun () ->
                  for i = 0 to per_client - 1 do
                    let which = (k + i) mod 3 in
                    match
                      Client.call cli
                        (Service.Transform
                           { target = Service.Doc "d";
                             engine = Core.Engine.Td_bu;
                             query = List.nth queries which
                           })
                    with
                    | Service.Ok (Service.Tree t) ->
                      if t <> List.nth expected which then
                        failwith "socket payload differs from single-threaded run"
                    | Service.Ok _ -> failwith "expected a Tree"
                    | Service.Error { message; _ } -> failwith message
                  done)
            with e -> failures.(k) <- Some (Printexc.to_string e)
          in
          let threads = List.init n_clients (fun k -> Thread.create (worker k) ()) in
          List.iter Thread.join threads;
          Array.iter (function Some e -> Alcotest.fail e | None -> ()) failures))

(* ---- abuse: malformed, oversized, truncated ---- *)

let assert_still_serving sock doc =
  let cli = Client.connect (Addr.Unix_socket sock) in
  Fun.protect
    ~finally:(fun () -> Client.close cli)
    (fun () ->
      load_over cli doc;
      match
        Client.call cli
          (Service.Count { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = q_del_prices })
      with
      | Service.Ok (Service.Element_count 16) -> ()
      | _ -> Alcotest.fail "server no longer serves after an abusive client")

let test_malformed_frame () =
  with_doc_file (fun doc ->
      with_server (fun svc sock ->
          let fd = raw_connect sock in
          raw_write fd "GARBAGE!NONSENSE";
          let reply = raw_read_all fd in
          Unix.close fd;
          let id, resp = decode_error_frame reply in
          Alcotest.(check bool) "protocol error frames carry id 0" true (id = 0L);
          (match resp with
          | Service.Error { code = Service.Bad_request; _ } -> ()
          | _ -> Alcotest.fail "malformed frame must answer bad-request");
          Alcotest.(check bool) "malformed counter" true
            (Fixtures.stat (Service.metrics svc) "frames_malformed" >= 1);
          assert_still_serving sock doc))

let test_oversized_frame () =
  with_doc_file (fun doc ->
      with_server
        ~config:{ Server.default_config with Server.max_frame = 1024 }
        (fun svc sock ->
          let fd = raw_connect sock in
          let header =
            Wire.Binary.encode_header
              { Wire.Binary.version = Wire.Binary.protocol_version;
                kind = Wire.Binary.Request;
                id = 7L;
                length = 1024 * 1024
              }
          in
          raw_write fd (Bytes.to_string header);
          let reply = raw_read_all fd in
          Unix.close fd;
          let _id, resp = decode_error_frame reply in
          (match resp with
          | Service.Error { code = Service.Bad_request; message } ->
            Alcotest.(check bool) "mentions the size" true
              (String.split_on_char ' ' message |> List.exists (fun w -> w = "oversized"))
          | _ -> Alcotest.fail "oversized frame must answer bad-request");
          Alcotest.(check bool) "malformed counter" true
            (Fixtures.stat (Service.metrics svc) "frames_malformed" >= 1);
          assert_still_serving sock doc))

let test_truncated_frame () =
  with_doc_file (fun doc ->
      with_server (fun svc sock ->
          let fd = raw_connect sock in
          let header =
            Wire.Binary.encode_header
              { Wire.Binary.version = Wire.Binary.protocol_version;
                kind = Wire.Binary.Request;
                id = 3L;
                length = 100
              }
          in
          raw_write fd (Bytes.to_string header);
          raw_write fd "only ten b";
          Unix.close fd;
          (* mid-frame disconnect: the server counts it and carries on *)
          Alcotest.(check bool) "malformed counter incremented" true
            (eventually (fun () -> Fixtures.stat (Service.metrics svc) "frames_malformed" >= 1));
          assert_still_serving sock doc))

let test_bad_payload_keeps_connection () =
  with_doc_file (fun doc ->
      with_server (fun svc sock ->
          let cli = Client.connect (Addr.Unix_socket sock) in
          Fun.protect
            ~finally:(fun () -> Client.close cli)
            (fun () ->
              load_over cli doc;
              (* a well-framed TRANSFORM naming an engine this build
                 does not have: decodable header, undecodable payload *)
              let fd = raw_connect sock in
              let payload = "\003" ^ "\000\000\000\001d" ^ "\000\000\000\004warp" ^ "\000\000\000\001q" in
              let header =
                Wire.Binary.encode_header
                  { Wire.Binary.version = Wire.Binary.protocol_version;
                    kind = Wire.Binary.Request;
                    id = 11L;
                    length = String.length payload
                  }
              in
              raw_write fd (Bytes.to_string header ^ payload);
              (* the error frame must name our request id, and the
                 connection must survive for a follow-up request *)
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
              let hdr = Bytes.create Wire.Binary.header_size in
              let rec read_exact off len =
                if len > 0 then begin
                  let n = Unix.read fd hdr off len in
                  if n = 0 then Alcotest.fail "connection closed on a bad payload";
                  read_exact (off + n) (len - n)
                end
              in
              read_exact 0 Wire.Binary.header_size;
              (match Wire.Binary.decode_header hdr with
              | Ok { Wire.Binary.id = 11L; length; _ } ->
                let p = Bytes.create length in
                let rec read_p off len =
                  if len > 0 then begin
                    let n = Unix.read fd p off len in
                    if n = 0 then Alcotest.fail "truncated error frame";
                    read_p (off + n) (len - n)
                  end
                in
                read_p 0 length;
                (match Wire.Binary.decode_response (Bytes.to_string p) with
                | Ok (Service.Error { code = Service.Bad_request; _ }) -> ()
                | _ -> Alcotest.fail "bad payload must answer bad-request")
              | _ -> Alcotest.fail "expected an error frame for id 11");
              (* same raw connection still answers a valid frame *)
              raw_write fd
                (Wire.Binary.request_frame ~id:12L Service.Stats);
              read_exact 0 Wire.Binary.header_size;
              (match Wire.Binary.decode_header ~max_frame:Wire.Binary.default_max_frame hdr with
              | Ok { Wire.Binary.id = 12L; length; _ } ->
                let p = Bytes.create length in
                let rec read_p off len =
                  if len > 0 then begin
                    let n = Unix.read fd p off len in
                    if n = 0 then Alcotest.fail "truncated STATS frame";
                    read_p (off + n) (len - n)
                  end
                in
                read_p 0 length
              | _ -> Alcotest.fail "connection must keep serving after a bad payload");
              Unix.close fd;
              Alcotest.(check bool) "malformed counter" true
                (Fixtures.stat (Service.metrics svc) "frames_malformed" >= 1))))

(* ---- error codes over the wire ---- *)

let test_error_codes_over_socket () =
  with_doc_file (fun doc ->
      with_server (fun _svc sock ->
          let cli = Client.connect (Addr.Unix_socket sock) in
          Fun.protect
            ~finally:(fun () -> Client.close cli)
            (fun () ->
              load_over cli doc;
              (match
                 Client.call cli
                   (Service.Transform
                      { target = Service.Doc "nope"; engine = Core.Engine.Td_bu; query = q_del_prices })
               with
              | Service.Error { code = Service.Unknown_document; _ } -> ()
              | _ -> Alcotest.fail "unknown document must map to unknown-document");
              (match
                 Client.call cli
                   (Service.Transform
                      { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = "not a query" })
               with
              | Service.Error { code = Service.Query_parse_error; _ } -> ()
              | _ -> Alcotest.fail "bad query must map to query-parse-error");
              match Client.call cli (Service.Batch [ Service.Batch [ Service.Stats ] ]) with
              | Service.Ok
                  (Service.Batch_results [ Service.Error { code = Service.Bad_request; _ } ]) ->
                ()
              | _ -> Alcotest.fail "nested batch must map to bad-request")))

let test_batch_over_socket () =
  with_doc_file (fun doc ->
      with_server (fun _svc sock ->
          let cli = Client.connect (Addr.Unix_socket sock) in
          Fun.protect
            ~finally:(fun () -> Client.close cli)
            (fun () ->
              load_over cli doc;
              let count =
                Service.Count { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = q_del_prices }
              in
              match Client.call_batch cli [ count; count; count ] with
              | [ Service.Ok (Service.Element_count 16);
                  Service.Ok (Service.Element_count 16);
                  Service.Ok (Service.Element_count 16)
                ] -> ()
              | _ -> Alcotest.fail "batch over the socket")))

(* ---- connection limit ---- *)

let test_busy_rejection () =
  with_doc_file (fun doc ->
      with_server
        ~config:{ Server.default_config with Server.max_connections = 1 }
        (fun svc sock ->
          let cli1 = Client.connect (Addr.Unix_socket sock) in
          Fun.protect
            ~finally:(fun () -> Client.close cli1)
            (fun () ->
              load_over cli1 doc;
              let m = Service.metrics svc in
              let frames0 = Fixtures.stat m "frames_out" and bytes0 = Fixtures.stat m "bytes_out" in
              let busy =
                Wire.Binary.response_frame ~id:0L
                  (Service.Error
                     { code = Service.Overloaded; message = "connection limit reached (1 active)" })
              in
              (* the slot is taken: the next client gets one BUSY frame *)
              let cli2 = Client.connect (Addr.Unix_socket sock) in
              (match Client.call cli2 Service.Stats with
              | Service.Error { code = Service.Overloaded; _ } -> ()
              | _ -> Alcotest.fail "expected an overloaded rejection"
              | exception Client.Transport_error _ ->
                (* the BUSY frame races the close; either is a rejection,
                   but the counter below must agree *)
                ());
              Client.close cli2;
              Alcotest.(check bool) "rejection counted" true
                (eventually (fun () -> Fixtures.stat m "conns_rejected" = 1));
              Alcotest.(check bool) "the BUSY frame counted as one frame out" true
                (eventually (fun () ->
                     Fixtures.stat m "frames_out" = frames0 + 1
                     && Fixtures.stat m "bytes_out" = bytes0 + String.length busy));
              (* the first connection is unaffected *)
              match
                Client.call cli1
                  (Service.Count { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = q_del_prices })
              with
              | Service.Ok (Service.Element_count 16) -> ()
              | _ -> Alcotest.fail "the admitted connection must keep working")))

(* ---- streamed transforms (protocol v2) ---- *)

let test_stream_frame_codecs () =
  (match
     Wire.Binary.decode_stream_end
       (String.sub
          (Wire.Binary.stream_end_frame ~id:5L ~bytes:123456 ~chunks:7)
          Wire.Binary.header_size
          (String.length (Wire.Binary.stream_end_frame ~id:5L ~bytes:123456 ~chunks:7)
          - Wire.Binary.header_size))
   with
  | Ok (123456, 7) -> ()
  | _ -> Alcotest.fail "stream-end totals round trip");
  (match
     (let f = Wire.Binary.stream_error_frame ~id:5L ~code:Service.Eval_error "boom > mid" in
      Wire.Binary.decode_stream_error
        (String.sub f Wire.Binary.header_size (String.length f - Wire.Binary.header_size)))
   with
  | Ok (Service.Eval_error, "boom > mid") -> ()
  | _ -> Alcotest.fail "stream-error round trip");
  let sr =
    { Service.source = Service.From_doc "d"; engine = Some Core.Engine.Gentop;
      query = "q\nwith newline"; chunk_size = 512 }
  in
  (match Wire.Binary.decode_incoming ~version:2 (Wire.Binary.encode_stream sr) with
  | Ok (Wire.Stream sr') ->
    Alcotest.(check bool) "stream request round trips" true (sr' = sr)
  | _ -> Alcotest.fail "stream request must decode");
  (* the tag-7 record frames to the same payload *)
  Alcotest.(check string) "stream_request_frame = stream_frame"
    (Wire.Binary.stream_frame ~id:3L sr)
    (Wire.Binary.stream_request_frame ~id:3L
       { Wire.Binary.doc = "d"; engine = Core.Engine.Gentop; query = "q\nwith newline";
         chunk_size = 512 });
  match
    Wire.Binary.decode_incoming ~version:2 (Wire.Binary.encode_request Service.Stats)
  with
  | Ok (Wire.Plain Service.Stats) -> ()
  | _ -> Alcotest.fail "plain requests must still decode"

let test_stream_over_socket () =
  with_doc_file (fun doc ->
      with_server (fun svc sock ->
          let cli = Client.connect (Addr.Unix_socket sock) in
          Fun.protect
            ~finally:(fun () -> Client.close cli)
            (fun () ->
              load_over cli doc;
              List.iter
                (fun q ->
                  let buf = Buffer.create 256 in
                  let n_chunks = ref 0 in
                  match
                    Client.transform_stream cli ~doc:"d" ~engine:Core.Engine.Td_bu ~query:q
                      ~chunk_size:64 (fun chunk ->
                        incr n_chunks;
                        Buffer.add_string buf chunk)
                  with
                  | Service.Ok (Service.Stream_done { bytes; chunks }) ->
                    let got = Buffer.contents buf in
                    Alcotest.(check string) "reassembled chunks = materialized payload"
                      (reference_answer Core.Engine.Td_bu q)
                      got;
                    Alcotest.(check int) "totals: bytes" (String.length got) bytes;
                    Alcotest.(check int) "totals: chunks" !n_chunks chunks;
                    Alcotest.(check bool) "chunk_size 64 really chunks" true (chunks > 1)
                  | Service.Ok _ -> Alcotest.fail "expected Stream_done"
                  | Service.Error { message; _ } -> Alcotest.fail message)
                queries;
              (* the connection still serves plain requests afterwards *)
              (match
                 Client.call cli
                   (Service.Count { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = q_del_prices })
               with
              | Service.Ok (Service.Element_count 16) -> ()
              | _ -> Alcotest.fail "plain request after a stream");
              (* streaming counters flowed into the service metrics *)
              let m = Service.metrics svc in
              Alcotest.(check int) "streams counted" (List.length queries)
                (Fixtures.stat m "streams");
              Alcotest.(check bool) "chunks counted" true
                (Fixtures.stat m "stream_chunks" > List.length queries);
              Alcotest.(check bool) "bytes counted" true (Metrics.stream_bytes m > 0))))

let test_stream_unknown_document () =
  with_server (fun _svc sock ->
      let cli = Client.connect (Addr.Unix_socket sock) in
      Fun.protect
        ~finally:(fun () -> Client.close cli)
        (fun () ->
          let chunks = ref 0 in
          match
            Client.transform_stream cli ~doc:"nope" ~engine:Core.Engine.Td_bu
              ~query:q_del_prices (fun _ -> incr chunks)
          with
          | Service.Error { code = Service.Unknown_document; _ } ->
            Alcotest.(check int) "no chunks before the error" 0 !chunks
          | _ -> Alcotest.fail "streaming an unknown document must fail with its code"))

(* The server speaks protocol version 2 only: a version-1 header,
   whatever its payload, gets one bad-request frame at id 0 naming the
   version, then the connection closes (the byte stream after a header
   it cannot read is not trusted), and counts in [frames_malformed]. *)
let check_v1_refused payload =
  with_server (fun svc sock ->
      let fd = raw_connect sock in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          raw_write fd
            (Bytes.to_string
               (Wire.Binary.encode_header
                  { Wire.Binary.version = 1; kind = Wire.Binary.Request; id = 21L;
                    length = String.length payload })
            ^ payload);
          let reply, eof = raw_read fd in
          Alcotest.(check bool) "the server closes the connection" true eof;
          match decode_error_frame reply with
          | 0L, Service.Error { code = Service.Bad_request; message } ->
            Alcotest.(check bool) "names the version" true
              (String.split_on_char ' ' message |> List.exists (fun w -> w = "version"))
          | _ -> Alcotest.fail "a v1 frame must answer bad-request at id 0");
      Alcotest.(check int) "counted malformed" 1
        (Fixtures.stat (Service.metrics svc) "frames_malformed"))

(* A v1 client has no fallback: its plain request is refused. *)
let test_v1_client_refused () = check_v1_refused (Wire.Binary.encode_request Service.Stats)

(* A tag-16 ingest payload in a v1 frame is refused the same way. *)
let test_ingest_v1_rejected () =
  check_v1_refused
    (Wire.Binary.encode_stream
       { Service.source = Service.From_doc "d"; engine = None; query = q_del_prices;
         chunk_size = 64 })

(* ---- invalidation notices ---- *)

let test_notice_codec () =
  List.iter
    (fun n ->
      match Wire.Binary.decode_notice (Wire.Binary.encode_notice n) with
      | Ok n' -> Alcotest.(check bool) "notice round trips" true (n' = n)
      | Error e -> Alcotest.fail e)
    [
      { Wire.Binary.doc = "d"; reason = Wire.Binary.Unloaded; generation = 4 };
      { Wire.Binary.doc = "name with\nnewline"; reason = Wire.Binary.Replaced; generation = 0 };
      { Wire.Binary.doc = "d"; reason = Wire.Binary.Committed; generation = 7 };
    ];
  Alcotest.(check string) "render: unloaded" "NOTICE unloaded d generation=4"
    (Wire.Binary.render_notice
       { Wire.Binary.doc = "d"; reason = Wire.Binary.Unloaded; generation = 4 });
  Alcotest.(check string) "render: replaced" "NOTICE replaced d generation=5"
    (Wire.Binary.render_notice
       { Wire.Binary.doc = "d"; reason = Wire.Binary.Replaced; generation = 5 });
  Alcotest.(check string) "render: committed" "NOTICE committed d generation=7"
    (Wire.Binary.render_notice
       { Wire.Binary.doc = "d"; reason = Wire.Binary.Committed; generation = 7 });
  (* the frame itself: id 0, kind Notice, version 2 *)
  let f =
    Wire.Binary.notice_frame
      { Wire.Binary.doc = "d"; reason = Wire.Binary.Unloaded; generation = 4 }
  in
  (match
     Wire.Binary.decode_header (Bytes.of_string (String.sub f 0 Wire.Binary.header_size))
   with
  | Ok { Wire.Binary.kind = Wire.Binary.Notice; id = 0L; version = 2; _ } -> ()
  | _ -> Alcotest.fail "notice frames carry kind Notice, id 0, version 2");
  (* a v1 header is rejected whatever its kind *)
  match
    Wire.Binary.decode_header
      (Wire.Binary.encode_header
         { Wire.Binary.version = 1; kind = Wire.Binary.Notice; id = 0L; length = 0 })
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a Notice kind in a v1 header must be rejected"

(* Server-push delivery: a subscribed client hears about UNLOAD and
   reload on the id-0 channel; a plain client reads and drops the same
   frames.  Ordering is deterministic: the store fires events
   synchronously on the worker before the triggering request's response
   is written, so the notice precedes the UNLOAD/LOAD reply on every
   connection, and [sub] connects first, so the server has accepted it
   before it accepts (and so serves) [plain]. *)
let test_notice_over_socket () =
  with_doc_file (fun doc ->
      with_server (fun _svc sock ->
          let notices = ref [] in
          let sub =
            Client.connect ~on_notice:(fun n -> notices := n :: !notices)
              (Addr.Unix_socket sock)
          in
          let plain = Client.connect (Addr.Unix_socket sock) in
          Fun.protect
            ~finally:(fun () ->
              Client.close sub;
              Client.close plain)
            (fun () ->
              load_over plain doc;
              Alcotest.(check bool) "a fresh LOAD pushes no notice" true (!notices = []);
              (* reload: the plain client LOADs over the live name *)
              (match Client.call plain (Service.Load { name = "d"; file = doc; schema = None }) with
              | Service.Ok (Service.Doc_loaded { reloaded = true; _ }) -> ()
              | _ -> Alcotest.fail "reload must report reloaded=true");
              (* unload from the plain client too *)
              (match Client.call plain (Service.Unload { name = "d" }) with
              | Service.Ok (Service.Doc_unloaded _) -> ()
              | _ -> Alcotest.fail "UNLOAD");
              (* both notices are already buffered on [sub]'s socket (the
                 broadcast precedes each response); any read drains them *)
              (match Client.call sub Service.Stats with
              | Service.Ok (Service.Stats_dump _) -> ()
              | _ -> Alcotest.fail "STATS after the notices");
              (match List.rev !notices with
              | [ { Wire.Binary.doc = "d"; reason = Wire.Binary.Replaced; generation = g1 };
                  { Wire.Binary.doc = "d"; reason = Wire.Binary.Unloaded; generation = g2 }
                ] ->
                Alcotest.(check int) "unload names the replacing generation" g1 g2;
                Alcotest.(check bool) "the reload advanced the generation" true (g1 >= 2)
              | l ->
                Alcotest.fail
                  (Printf.sprintf "expected [replaced; unloaded], got %d notice(s): %s"
                     (List.length l)
                     (String.concat "; " (List.map Wire.Binary.render_notice l))));
              (* the plain client dropped the same notices: its next
                 round trip still gets its own reply *)
              match Client.call plain Service.Stats with
              | Service.Ok (Service.Stats_dump _) -> ()
              | _ -> Alcotest.fail "the plain client must be unaffected by notices")))

(* Notices reach a connection from its first byte: a subscriber that
   has sent nothing still hears about a reload and a COMMIT, and its
   first call returns its own reply after both notices. *)
let test_notice_from_first_byte () =
  with_doc_file (fun doc ->
      with_server (fun _svc sock ->
          let notices = ref [] in
          (* connected before [writer], so accepted before it is served *)
          let sub =
            Client.connect ~on_notice:(fun n -> notices := n :: !notices)
              (Addr.Unix_socket sock)
          in
          let writer = Client.connect (Addr.Unix_socket sock) in
          Fun.protect
            ~finally:(fun () ->
              Client.close sub;
              Client.close writer)
            (fun () ->
              load_over writer doc;
              load_over writer doc;
              (match Client.call writer (Service.Commit { doc = "d"; query = "delete $a//price" }) with
              | Service.Ok (Service.Committed _) -> ()
              | _ -> Alcotest.fail "COMMIT over the socket");
              (match Client.call sub Service.Stats with
              | Service.Ok (Service.Stats_dump _) -> ()
              | _ -> Alcotest.fail "the subscriber's first call must return its own reply");
              match List.rev !notices with
              | [ { Wire.Binary.doc = "d"; reason = Wire.Binary.Replaced; generation = g1 };
                  { Wire.Binary.doc = "d"; reason = Wire.Binary.Committed; generation = g2 } ] ->
                Alcotest.(check int) "the commit follows the reload" (g1 + 1) g2
              | l ->
                Alcotest.failf "expected [replaced; committed], got %d notice(s): %s"
                  (List.length l)
                  (String.concat "; " (List.map Wire.Binary.render_notice l)))))

(* The write path over the socket: APPLY dry-runs, COMMIT swaps and
   pushes a [committed] notice to every connection, a conflicting
   list comes back as the [conflict] error code. *)
let test_commit_over_socket () =
  with_doc_file (fun doc ->
      with_server (fun svc sock ->
          let notices = ref [] in
          let sub =
            Client.connect ~on_notice:(fun n -> notices := n :: !notices)
              (Addr.Unix_socket sock)
          in
          let writer = Client.connect (Addr.Unix_socket sock) in
          Fun.protect
            ~finally:(fun () ->
              Client.close sub;
              Client.close writer)
            (fun () ->
              (match Client.call sub Service.Stats with
              | Service.Ok (Service.Stats_dump _) -> ()
              | _ -> Alcotest.fail "STATS on the subscribed client");
              load_over writer doc;
              (match Client.call writer (Service.Apply { doc = "d"; query = "delete $a//price" }) with
              | Service.Ok
                  (Service.Applied { doc = "d"; primitives = 2; collapsed = 0; conflicts = [] })
                -> ()
              | _ -> Alcotest.fail "APPLY over the socket");
              Alcotest.(check bool) "a dry run pushes no notice" true (!notices = []);
              (match Client.call writer (Service.Commit { doc = "d"; query = "delete $a//price" }) with
              | Service.Ok (Service.Committed { doc = "d"; primitives = 2; generation = 2; _ }) -> ()
              | _ -> Alcotest.fail "COMMIT over the socket");
              (* the notice is buffered ahead of any later reply on [sub] *)
              (match Client.call sub Service.Stats with
              | Service.Ok (Service.Stats_dump _) -> ()
              | _ -> Alcotest.fail "STATS after the commit");
              (match !notices with
              | [ { Wire.Binary.doc = "d"; reason = Wire.Binary.Committed; generation = 2 } ] -> ()
              | l ->
                Alcotest.fail
                  (Printf.sprintf "expected one committed notice, got %d: %s" (List.length l)
                     (String.concat "; " (List.map Wire.Binary.render_notice l))));
              (* a conflicting pending list travels back as the typed code *)
              (match
                 Client.call writer
                   (Service.Commit
                      { doc = "d"; query = "(replace $a/site with <x/>, replace $a/site with <y/>)" })
               with
              | Service.Error { code = Service.Conflict; _ } -> ()
              | _ -> Alcotest.fail "conflict must reach the client as the conflict code");
              Alcotest.(check int) "the rejected commit pushed nothing" 1 (List.length !notices);
              Alcotest.(check int) "metrics: one effective commit" 1
                (Metrics.commits (Service.metrics svc));
              Alcotest.(check int) "metrics: one conflict" 1
                (Fixtures.stat (Service.metrics svc) "commit_conflicts"))))

(* Mid-stream failure as the CLIENT sees it: a hand-rolled server sends
   BEGIN, two chunks, then a STREAM_ERROR (a real engine failing after
   output went out).  The client must deliver both chunks and return the
   error. *)
let test_mid_stream_error () =
  let path = Filename.temp_file "xut_transport_test" ".sock" in
  Sys.remove path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 1;
  let server =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listen_fd in
        (* read the stream request frame *)
        let hdr = Bytes.create Wire.Binary.header_size in
        let rec read_exact b off len =
          if len > 0 then begin
            let n = Unix.read fd b off len in
            if n > 0 then read_exact b (off + n) (len - n)
          end
        in
        read_exact hdr 0 Wire.Binary.header_size;
        (match Wire.Binary.decode_header hdr with
        | Ok { Wire.Binary.id; length; _ } ->
          let p = Bytes.create length in
          read_exact p 0 length;
          let send s = ignore (Unix.write fd (Bytes.of_string s) 0 (String.length s)) in
          send (Wire.Binary.stream_begin_frame ~id);
          send (Wire.Binary.stream_chunk_frame ~id "<r>first");
          send (Wire.Binary.stream_chunk_frame ~id " second");
          send (Wire.Binary.stream_error_frame ~id ~code:Service.Eval_error "engine fell over")
        | Error _ -> ());
        Unix.close fd)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join server;
      Unix.close listen_fd;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let cli = Client.connect (Addr.Unix_socket path) in
      Fun.protect
        ~finally:(fun () -> Client.close cli)
        (fun () ->
          let buf = Buffer.create 64 in
          match
            Client.transform_stream cli ~doc:"d" ~engine:Core.Engine.Td_bu ~query:"q"
              (Buffer.add_string buf)
          with
          | Service.Error { code = Service.Eval_error; message } ->
            Alcotest.(check string) "partial output was delivered" "<r>first second"
              (Buffer.contents buf);
            Alcotest.(check string) "error message survives" "engine fell over" message
          | _ -> Alcotest.fail "a mid-stream STREAM_ERROR must surface as an Error"))

(* ---- TCP ---- *)

let test_tcp_roundtrip () =
  with_doc_file (fun doc ->
      let svc = Service.create () in
      let server =
        Server.start ~service:svc (Addr.Tcp { host = "127.0.0.1"; port = 0 })
      in
      Fun.protect
        ~finally:(fun () ->
          Server.stop server;
          Service.shutdown svc)
        (fun () ->
          let addr = Server.address server in
          (match addr with
          | Addr.Tcp { port; _ } -> Alcotest.(check bool) "ephemeral port bound" true (port > 0)
          | _ -> Alcotest.fail "expected a TCP address");
          let cli = Client.connect addr in
          Fun.protect
            ~finally:(fun () -> Client.close cli)
            (fun () ->
              load_over cli doc;
              match
                Client.call cli
                  (Service.Count { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = q_del_prices })
              with
              | Service.Ok (Service.Element_count 16) -> ()
              | _ -> Alcotest.fail "COUNT over TCP")))

(* DEFVIEW and view-addressed queries over the socket: defined through
   one connection, served composed, byte-identical to the naive
   materialize-then-query answer computed in-process. *)
let test_views_over_socket () =
  let v1_def = {|transform copy $a := doc("d") modify do delete $a//price return $a|} in
  let v2_def =
    {|transform copy $a := doc("v1") modify do rename $a/site/items/item as product return $a|}
  in
  let uq_text = "for $x in site/items/product return $x" in
  with_doc_file (fun doc ->
      with_server (fun svc sock ->
          let cli = Client.connect (Addr.Unix_socket sock) in
          Fun.protect
            ~finally:(fun () -> Client.close cli)
            (fun () ->
              load_over cli doc;
              (match Client.call cli (Service.Defview { name = "v1"; query = v1_def }) with
              | Service.Ok (Service.View_defined { name = "v1"; base = "d"; depth = 1; _ }) ->
                ()
              | _ -> Alcotest.fail "DEFVIEW v1 over the socket");
              (match Client.call cli (Service.Defview { name = "v2"; query = v2_def }) with
              | Service.Ok (Service.View_defined { name = "v2"; base = "v1"; depth = 2; _ })
                -> ()
              | _ -> Alcotest.fail "DEFVIEW v2 over the socket");
              (* a rejected definition maps to the structured code *)
              (match
                 Client.call cli
                   (Service.Defview
                      {
                        name = "bad";
                        query =
                          {|transform copy $a := doc("d") modify do delete $a/site return $a|};
                      })
               with
              | Service.Error { code = Service.View_compose_error; _ } -> ()
              | _ -> Alcotest.fail "view-compose-error must survive the wire");
              let naive =
                let base = Xut_xml.Dom.parse_string doc_xml in
                let updates =
                  List.map
                    (fun s -> (Core.Transform_parser.parse s).Core.Transform_ast.update)
                    [ v1_def; v2_def ]
                in
                Core.Composition.naive_stack updates (Core.User_query.parse uq_text) ~doc:base
              in
              let expected =
                String.concat "\n"
                  (List.map
                     (fun item ->
                       match item with
                       | Xut_xquery.Xq_value.N n -> Xut_xml.Serialize.to_string n
                       | Xut_xquery.Xq_value.D e -> Xut_xml.Serialize.element_to_string e
                       | other -> Xut_xquery.Xq_value.string_of_item other)
                     naive)
              in
              let req =
                Service.Transform
                  { target = Service.View "v2"; engine = Core.Engine.Td_bu; query = uq_text }
              in
              (match Client.call cli req with
              | Service.Ok (Service.Tree t) ->
                Alcotest.(check string)
                  "TRANSFORM VIEW over the socket byte-identical to naive" expected t
              | _ -> Alcotest.fail "TRANSFORM VIEW over the socket");
              Alcotest.(check bool) "socket response = in-process response" true
                (Client.call cli req = Service.call svc req);
              (match Client.call cli Service.Listviews with
              | Service.Ok (Service.View_list [ a; b ]) ->
                Alcotest.(check string) "v1 listed" "v1" a.Service.v_name;
                Alcotest.(check string) "v2 listed" "v2" b.Service.v_name
              | _ -> Alcotest.fail "LISTVIEWS over the socket");
              let m = Service.metrics svc in
              Alcotest.(check bool) "served composed" true (Metrics.view_hits m > 0);
              Alcotest.(check int) "no fallback" 0 (Metrics.compose_fallbacks m);
              match Client.call cli (Service.Undefview { name = "v2" }) with
              | Service.Ok (Service.View_undefined { name = "v2" }) -> ()
              | _ -> Alcotest.fail "UNDEFVIEW over the socket")))

(* ---- streamed ingest (TRANSFORM-STREAM) ---- *)

let test_ingest_codec () =
  (* line syntax: bare name and DOC-keyword forms address the store,
     FILE addresses a server-side path *)
  (match Wire.Line.decode_incoming "TRANSFORM-STREAM d transform q" with
  | Ok
      (Wire.Stream
        { source = Service.From_doc "d"; engine = None; query = "transform q"; chunk_size })
    ->
    Alcotest.(check int) "default chunk size" Service.default_chunk_size chunk_size
  | _ -> Alcotest.fail "bare-name ingest parse");
  (match Wire.Line.decode_incoming "TRANSFORM-STREAM DOC FILE transform q" with
  | Ok (Wire.Stream { source = Service.From_doc "FILE"; engine = None; _ }) -> ()
  | _ -> Alcotest.fail "DOC keyword keeps \"FILE\" addressable as a name");
  (match Wire.Line.decode_incoming "TRANSFORM-STREAM FILE /tmp/x.xml transform q" with
  | Ok (Wire.Stream { source = Service.From_file "/tmp/x.xml"; engine = None; _ }) -> ()
  | _ -> Alcotest.fail "FILE ingest parse");
  (match Wire.Line.decode_incoming "STATS" with
  | Ok (Wire.Plain Service.Stats) -> ()
  | _ -> Alcotest.fail "plain requests pass through decode_incoming");
  List.iter
    (fun line ->
      match Wire.Line.decode_incoming line with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("should not parse: " ^ line))
    [ "TRANSFORM-STREAM"; "TRANSFORM-STREAM d"; "TRANSFORM-STREAM FILE /x" ];
  (* decode_request refuses the verb with a pointer at decode_incoming *)
  (match Wire.Line.decode_request "TRANSFORM-STREAM d transform q" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decode_request must not accept TRANSFORM-STREAM");
  (* binary codec round trips, both source shapes *)
  List.iter
    (fun ir ->
      let sr = Wire.Binary.of_ingest_request ir in
      Alcotest.(check bool) "ingest leaves the tier to the service" true (sr.engine = None);
      match Wire.Binary.decode_incoming ~version:2 (Wire.Binary.encode_stream sr) with
      | Ok (Wire.Stream sr') ->
        Alcotest.(check bool) "ingest request round trips" true (sr' = sr)
      | Ok _ -> Alcotest.fail "wrong incoming shape"
      | Error e -> Alcotest.fail e)
    [
      { Wire.Binary.source = Wire.Binary.Ingest_doc "d"; query = q_del_prices;
        chunk_size = 64 };
      { Wire.Binary.source = Wire.Binary.Ingest_file "/tmp/some file.xml";
        query = "transform q"; chunk_size = 65536 };
    ];
  (* schema-dropped notices: reason byte 4 round trips and renders *)
  let n = { Wire.Binary.doc = "d"; reason = Wire.Binary.Schema_dropped; generation = 9 } in
  (match Wire.Binary.decode_notice (Wire.Binary.encode_notice n) with
  | Ok n' -> Alcotest.(check bool) "schema-dropped round trips" true (n' = n)
  | Error e -> Alcotest.fail e);
  Alcotest.(check string) "render: schema-dropped" "NOTICE schema-dropped d generation=9"
    (Wire.Binary.render_notice n);
  (* a committed event with the drop flag fans out into two notices *)
  let ev ~dropped =
    { Doc_store.name = "d"; root_id = 1; generation = 3; reason = Doc_store.Committed;
      repair = None; schema_dropped = dropped }
  in
  (match Wire.Binary.notices_of_event (ev ~dropped:true) with
  | [ { Wire.Binary.reason = Wire.Binary.Committed; _ };
      { Wire.Binary.reason = Wire.Binary.Schema_dropped; doc = "d"; generation = 3 } ] -> ()
  | _ -> Alcotest.fail "drop events must carry the extra schema-dropped notice");
  match Wire.Binary.notices_of_event (ev ~dropped:false) with
  | [ { Wire.Binary.reason = Wire.Binary.Committed; _ } ] -> ()
  | _ -> Alcotest.fail "ordinary commits push exactly one notice"

let test_ingest_over_socket () =
  with_doc_file (fun doc ->
      with_server (fun svc sock ->
          let cli = Client.connect (Addr.Unix_socket sock) in
          Fun.protect
            ~finally:(fun () -> Client.close cli)
            (fun () ->
              load_over cli doc;
              let ingest source q =
                let buf = Buffer.create 256 in
                match
                  Client.transform_ingest cli ~source ~query:q ~chunk_size:32
                    (Buffer.add_string buf)
                with
                | Service.Ok (Service.Stream_done { bytes; chunks }) ->
                  Alcotest.(check int) "byte total" (Buffer.length buf) bytes;
                  Alcotest.(check bool) "chunked at size 32" true (chunks > 1);
                  Buffer.contents buf
                | Service.Ok _ -> Alcotest.fail "expected Stream_done"
                | Service.Error { message; _ } -> Alcotest.fail message
              in
              (* every test query, both source shapes, byte-identical to
                 the materialized engine answer *)
              List.iter
                (fun q ->
                  let expected = reference_answer Core.Engine.Gentop q in
                  Alcotest.(check string) "doc ingest = materialized" expected
                    (ingest (Wire.Binary.Ingest_doc "d") q);
                  Alcotest.(check string) "file ingest = materialized" expected
                    (ingest (Wire.Binary.Ingest_file doc) q))
                queries;
              let m = Service.metrics svc in
              (* only the file ingests count: the stored doc is walked
                 with GENTOP, and the qualifier shape over the file runs
                 the buffered pass within its budget, which counts as
                 fused *)
              Alcotest.(check int) "every file ingest ran fused" 3 (Metrics.streams_fused m);
              Alcotest.(check int) "no ingest fell back" 0 (Metrics.stream_fallbacks m);
              (* unknown document: typed error, no chunks *)
              (match
                 Client.transform_ingest cli ~source:(Wire.Binary.Ingest_doc "nope")
                   ~query:q_del_prices
                   (fun _ -> Alcotest.fail "no chunks for an unknown document")
               with
              | Service.Error { code = Service.Unknown_document; _ } -> ()
              | _ -> Alcotest.fail "unknown-document code");
              (* missing file: typed error, no chunks *)
              match
                Client.transform_ingest cli
                  ~source:(Wire.Binary.Ingest_file "/nonexistent/nope.xml")
                  ~query:q_del_prices
                  (fun _ -> Alcotest.fail "no chunks for a missing file")
              with
              | Service.Error { code = Service.Eval_error; _ } -> ()
              | _ -> Alcotest.fail "missing-file code")))

(* Malformed input failing MID-parse, over the real socket: the fused
   pipeline has already shipped chunks when the parser trips, so the
   client sees partial output then a STREAM_ERROR — and the connection
   stays usable. *)
let test_ingest_malformed_midparse () =
  with_server (fun _svc sock ->
      let bad = Filename.temp_file "xut_transport_bad" ".xml" in
      Out_channel.with_open_bin bad (fun oc ->
          Out_channel.output_string oc "<site><open>";
          for _ = 1 to 2000 do
            Out_channel.output_string oc "<b>x</b>"
          done;
          Out_channel.output_string oc "</mismatch></site>");
      Fun.protect
        ~finally:(fun () -> Sys.remove bad)
        (fun () ->
          let cli = Client.connect (Addr.Unix_socket sock) in
          Fun.protect
            ~finally:(fun () -> Client.close cli)
            (fun () ->
              let got = ref 0 in
              (match
                 Client.transform_ingest cli ~source:(Wire.Binary.Ingest_file bad)
                   ~query:q_del_prices ~chunk_size:64
                   (fun chunk -> got := !got + String.length chunk)
               with
              | Service.Error { code = Service.Eval_error; message } ->
                Alcotest.(check bool) "chunks flowed before the parse error" true (!got > 0);
                Alcotest.(check bool) "the error names the parse position" true
                  (String.split_on_char ' ' message |> List.exists (fun w -> w = "parse"))
              | _ -> Alcotest.fail "mid-parse failure must surface as a stream error");
              (* the connection survived: frames are still aligned *)
              match Client.call cli Service.Stats with
              | Service.Ok (Service.Stats_dump _) -> ()
              | _ -> Alcotest.fail "the connection must stay usable after the error")))

(* A nonconforming COMMIT drops the schema binding loudly: subscribed
   clients get the committed notice plus the schema-dropped one. *)
let test_schema_drop_notice () =
  Xut_xmark.Site_schema.register ();
  let doc = Filename.temp_file "xut_transport_xmark" ".xml" in
  Xut_xmark.Generator.to_file ~factor:0.001 doc;
  Fun.protect
    ~finally:(fun () -> Sys.remove doc)
    (fun () ->
      with_server (fun svc sock ->
          let notices = ref [] in
          let sub =
            Client.connect ~on_notice:(fun n -> notices := n :: !notices)
              (Addr.Unix_socket sock)
          in
          Fun.protect
            ~finally:(fun () -> Client.close sub)
            (fun () ->
              (match
                 Client.call sub (Service.Load { name = "d"; file = doc; schema = Some "xmark" })
               with
              | Service.Ok (Service.Doc_loaded { schema = Some "xmark"; _ }) -> ()
              | _ -> Alcotest.fail "LOAD ... SCHEMA over the socket");
              (match
                 Client.call sub
                   (Service.Commit { doc = "d"; query = "insert <bogus>1</bogus> into $a/site" })
               with
              | Service.Ok (Service.Committed _) -> ()
              | _ -> Alcotest.fail "the nonconforming COMMIT itself must succeed");
              (match Client.call sub Service.Stats with
              | Service.Ok (Service.Stats_dump dump) ->
                Alcotest.(check bool) "counter in STATS" true
                  (String.split_on_char '\n' dump
                  |> List.exists (fun l -> l = "schema_bindings_dropped 1"))
              | _ -> Alcotest.fail "STATS after the commit");
              (match List.rev !notices with
              | [ { Wire.Binary.reason = Wire.Binary.Committed; doc = "d"; _ };
                  { Wire.Binary.reason = Wire.Binary.Schema_dropped; doc = "d"; _ } ] -> ()
              | l ->
                Alcotest.fail
                  (Printf.sprintf "expected [committed; schema-dropped], got %d: %s"
                     (List.length l)
                     (String.concat "; " (List.map Wire.Binary.render_notice l))));
              Alcotest.(check int) "metrics count the drop" 1
                (Fixtures.stat (Service.metrics svc) "schema_bindings_dropped");
              match Doc_store.info (Service.store svc) "d" with
              | Some { Doc_store.schema = None; _ } -> ()
              | _ -> Alcotest.fail "the binding must have lost its schema")))

(* The desync fix: a timeout at a frame boundary is survivable, a
   timeout after partial frame progress is not — the client must close
   the connection and fail fast instead of misparsing leftover bytes. *)
let test_client_dead_after_midframe_timeout () =
  let path = Filename.temp_file "xut_transport_test" ".sock" in
  Sys.remove path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 1;
  let server =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listen_fd in
        let hdr = Bytes.create Wire.Binary.header_size in
        let rec read_exact b off len =
          if len > 0 then begin
            let n = Unix.read fd b off len in
            if n > 0 then read_exact b (off + n) (len - n)
          end
        in
        let eat_request () =
          read_exact hdr 0 Wire.Binary.header_size;
          match Wire.Binary.decode_header hdr with
          | Ok { Wire.Binary.length; _ } ->
            let p = Bytes.create length in
            read_exact p 0 length
          | Error _ -> ()
        in
        (* requests 1 and 2: no response at all (boundary timeouts) *)
        eat_request ();
        eat_request ();
        (* request 3: half a header, then silence (mid-frame timeout) *)
        eat_request ();
        ignore (Unix.write fd (Bytes.make 8 '\000') 0 8);
        Thread.delay 1.0;
        (try Unix.close fd with Unix.Unix_error _ -> ()))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join server;
      Unix.close listen_fd;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let cli = Client.connect ~timeout:0.25 (Addr.Unix_socket path) in
      let expect_timeout label =
        match Client.call cli Service.Stats with
        | exception Client.Transport_error msg ->
          Alcotest.(check bool) (label ^ ": a boundary timeout, not a dead connection")
            false
            (String.split_on_char ' ' msg |> List.exists (fun w -> w = "dead"))
        | _ -> Alcotest.fail (label ^ ": the server never answers")
      in
      (* boundary timeouts leave the connection usable: the second call
         still reaches the wire instead of failing fast *)
      expect_timeout "call 1";
      expect_timeout "call 2";
      (* the third read strands mid-header: the client must kill the
         connection rather than leave 8 stale bytes in the stream *)
      (match Client.call cli Service.Stats with
      | exception Client.Transport_error msg ->
        Alcotest.(check bool) "mid-frame timeout names the desync" true
          (String.split_on_char ' ' msg |> List.exists (fun w -> w = "mid-frame:"))
      | _ -> Alcotest.fail "the half-written frame must not parse");
      (* every further operation fails fast, before touching the wire *)
      (match Client.call cli Service.Stats with
      | exception Client.Transport_error msg ->
        Alcotest.(check bool) "dead connections fail fast" true
          (String.split_on_char ' ' msg |> List.exists (fun w -> w = "dead"))
      | _ -> Alcotest.fail "a dead connection must not accept requests");
      (* close after kill is a no-op, not a double-close *)
      Client.close cli)

(* ---- the stream chunk_size bound ---- *)

(* Both stream tags decode a chunk_size of exactly
   [Wire.Binary.max_chunk_size] and reject one byte more. *)
let test_chunk_size_bound () =
  let bound = Wire.Binary.max_chunk_size in
  Alcotest.(check int) "half the default frame limit" (Wire.Binary.default_max_frame / 2) bound;
  List.iter
    (fun (what, engine, source) ->
      let sr chunk_size = { Service.source; engine; query = q_del_prices; chunk_size } in
      (match Wire.Binary.decode_incoming ~version:2 (Wire.Binary.encode_stream (sr bound)) with
      | Ok (Wire.Stream sr') ->
        Alcotest.(check int) (what ^ ": decodes at the bound") bound sr'.chunk_size
      | _ -> Alcotest.fail (what ^ ": must decode at the bound"));
      match Wire.Binary.decode_incoming ~version:2 (Wire.Binary.encode_stream (sr (bound + 1))) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (what ^ ": must be rejected past the bound"))
    [ ("tag 7", Some Core.Engine.Td_bu, Service.From_doc "d");
      ("tag 16 doc", None, Service.From_doc "d");
      ("tag 16 file", None, Service.From_file "/tmp/x.xml") ]

(* Over a socket, an over-bound chunk_size is a bad-request reply and the
   same connection then streams at the bound. *)
let test_chunk_size_bound_over_socket () =
  with_doc_file (fun doc ->
      with_server (fun _svc sock ->
          let cli = Client.connect (Addr.Unix_socket sock) in
          Fun.protect
            ~finally:(fun () -> Client.close cli)
            (fun () ->
              load_over cli doc;
              let sr chunk_size =
                { Service.source = Service.From_doc "d"; engine = None; query = q_del_prices;
                  chunk_size }
              in
              (match
                 Client.stream cli
                   (sr (Wire.Binary.max_chunk_size + 1))
                   (fun _ -> Alcotest.fail "no chunks for a rejected request")
               with
              | Service.Error { code = Service.Bad_request; _ } -> ()
              | _ -> Alcotest.fail "an over-bound chunk_size must answer bad-request");
              let buf = Buffer.create 256 in
              match Client.stream cli (sr Wire.Binary.max_chunk_size) (Buffer.add_string buf) with
              | Service.Ok (Service.Stream_done { chunks = 1; _ }) ->
                Alcotest.(check string) "the connection still streams"
                  (reference_answer Core.Engine.Gentop q_del_prices) (Buffer.contents buf)
              | _ -> Alcotest.fail "a stream at the bound must be served")))

(* ---- replies the client does not read at once ---- *)

(* A document file of [n] filler elements (37 bytes each). *)
let with_wide_doc n f =
  let path = Filename.temp_file "xut_transport_test" ".xml" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "<r>";
      for i = 1 to n do
        Out_channel.output_string oc (Printf.sprintf "<b>%030d</b>" i)
      done;
      Out_channel.output_string oc "</r>");
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* An identity transform of a wide document: it has no price. *)
let wide_query name =
  Printf.sprintf {|transform copy $a := doc("%s") modify do delete $a//price return $a|} name

(* The whole frames at the front of [bytes], and the length of the
   incomplete tail after them. *)
let split_frames bytes =
  let hs = Wire.Binary.header_size in
  let rec go off acc =
    let rest = String.length bytes - off in
    if rest < hs then (List.rev acc, rest)
    else
      match Wire.Binary.decode_header (Bytes.of_string (String.sub bytes off hs)) with
      | Error msg -> Alcotest.fail ("frame header: " ^ msg)
      | Ok h when rest < hs + h.Wire.Binary.length -> (List.rev acc, rest)
      | Ok h ->
        go (off + hs + h.Wire.Binary.length)
          ((h, String.sub bytes (off + hs) h.Wire.Binary.length) :: acc)
  in
  go 0 []

(* A reply the client does not read times its write out part-way
   through the frame.  The server must shut the connection down there:
   a frame written after the torn one would parse as its payload. *)
let test_torn_frame_closes_connection () =
  let read_timeout = 0.3 in
  with_doc_file (fun doc ->
      with_wide_doc 40_000 (fun wide ->
          with_server
            ~config:{ Server.default_config with Server.read_timeout }
            (fun svc sock ->
              let cli = Client.connect (Addr.Unix_socket sock) in
              (match Client.call cli (Service.Load { name = "big"; file = wide; schema = None }) with
              | Service.Ok (Service.Doc_loaded _) -> ()
              | _ -> Alcotest.fail "LOAD big");
              Client.close cli;
              let transform =
                Service.Transform
                  { target = Service.Doc "big"; engine = Core.Engine.Td_bu; query = wide_query "big" }
              in
              let full =
                match Service.call svc transform with
                | Service.Ok (Service.Tree _) as r -> Wire.Binary.response_frame ~id:1L r
                | _ -> Alcotest.fail "in-process TRANSFORM"
              in
              let fd = raw_connect sock in
              raw_write fd (Wire.Binary.request_frame ~id:1L transform);
              (* keep asking without reading, past several write timeouts;
                 once the server has shut the socket these writes fail *)
              for i = 2 to 16 do
                Thread.delay 0.1;
                try
                  raw_write fd
                    (Wire.Binary.request_frame ~id:(Int64.of_int i)
                       (Service.Count
                          { target = Service.Doc "big"; engine = Core.Engine.Td_bu;
                            query = wide_query "big" }))
                with Unix.Unix_error _ -> ()
              done;
              (* the worker that wrote the reply is free again: a new
                 connection is served within a few read timeouts *)
              let t0 = Unix.gettimeofday () in
              assert_still_serving sock doc;
              Alcotest.(check bool) "another client served promptly" true
                (Unix.gettimeofday () -. t0 < 4. *. read_timeout);
              let got, eof = raw_read fd in
              Unix.close fd;
              Alcotest.(check bool) "the connection ends in EOF" true eof;
              Alcotest.(check bool) "the reply frame was torn" true
                (String.length got < String.length full);
              Alcotest.(check bool) "nothing follows the torn frame" true
                (got = String.sub full 0 (String.length got)))))

(* A client that pipelines requests and half-closes still gets every
   reply: the server stops reading at EOF but closes only after each
   submitted request's reply is written. *)
let test_pipelined_drain_before_close () =
  with_wide_doc 2_000 (fun wide ->
      with_server (fun _ sock ->
          let fd = raw_connect sock in
          raw_write fd
            (Wire.Binary.request_frame ~id:1L (Service.Load { name = "w"; file = wide; schema = None }));
          for i = 2 to 12 do
            raw_write fd
              (Wire.Binary.request_frame ~id:(Int64.of_int i)
                 (Service.Transform
                    { target = Service.Doc "w"; engine = Core.Engine.Td_bu; query = wide_query "w" }))
          done;
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          let got, eof = raw_read fd in
          Unix.close fd;
          Alcotest.(check bool) "EOF after the replies" true eof;
          let frames, tail = split_frames got in
          Alcotest.(check int) "no partial frame" 0 tail;
          let ids = List.map (fun (h, _) -> h.Wire.Binary.id) frames in
          Alcotest.(check (list int64)) "one reply per request id"
            (List.init 12 (fun i -> Int64.of_int (i + 1)))
            (List.sort compare ids);
          List.iter
            (fun (h, payload) ->
              match Wire.Binary.decode_response payload with
              | Ok (Service.Ok (Service.Doc_loaded _)) when h.Wire.Binary.id = 1L -> ()
              | Ok (Service.Ok (Service.Tree _)) when h.Wire.Binary.id > 1L -> ()
              | _ -> Alcotest.fail "a pipelined request was answered wrongly")
            frames))

(* ---- reply frames written around their payload ---- *)

(* [write fd] runs on its own thread against one end of a socketpair
   (a large frame outgrows the socket buffer) and closes that end;
   [read fd] runs here against the other. *)
let over_socketpair write read =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer =
    Thread.create
      (fun () ->
        Fun.protect ~finally:(fun () -> Unix.close a) (fun () -> ignore (write a : bool)))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join writer;
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> read b)

(* The frame the server writes for [resp], as the parts it writes: a
   tree is lent (the service hands it over as [Tree_bytes]), so it goes
   out as {!Wire.Binary.tree_head} and then the buffer's bytes; any other
   response is its frame.  The socket tests below check what the server
   itself writes. *)
let reply_parts ~id resp =
  match resp with
  | Service.Ok (Service.Tree s) -> [ Wire.Binary.tree_head ~id (String.length s); s ]
  | resp -> [ Wire.Binary.response_frame ~id resp ]

let write_parts parts fd =
  List.iter (raw_write fd) parts;
  true

(* What a client reads back from those parts. *)
let client_reads ~id resp =
  over_socketpair (write_parts (reply_parts ~id resp)) (fun fd ->
      Client.recv (Client.of_fd ~timeout:5. fd))

(* Golden frames, written out by hand from DESIGN.md's "Frame layout":
   "XU", version, kind 2 (response), 8-byte id, 4-byte payload length;
   then tag 3 (tree) or 5 (stats dump) and a 4-byte string length. *)
let big_tree = String.make (Xut_xml.Serialize.Pool.shrink_above + 1) 'x'

let golden_responses =
  [ ( "tree",
      258L,
      Service.Ok (Service.Tree "<a/>"),
      "XU\002\002\000\000\000\000\000\000\001\002\000\000\000\009\003\000\000\000\004<a/>" );
    ( "empty tree",
      1L,
      Service.Ok (Service.Tree ""),
      "XU\002\002\000\000\000\000\000\000\000\001\000\000\000\005\003\000\000\000\000" );
    ( "trees in a batch",
      3L,
      Service.Ok (Service.Batch_results [ Service.Ok (Service.Tree "<a/>"); Service.Ok (Service.Tree "") ]),
      "XU\002\002\000\000\000\000\000\000\000\003\000\000\000\019\007\000\000\000\002"
      ^ "\003\000\000\000\004<a/>\003\000\000\000\000" );
    ( "stats dump",
      2L,
      Service.Ok (Service.Stats_dump "s=1"),
      "XU\002\002\000\000\000\000\000\000\000\002\000\000\000\008\005\000\000\000\003s=1" );
    ( "tree above Pool.shrink_above",
      9L,
      Service.Ok (Service.Tree big_tree),
      "XU\002\002\000\000\000\000\000\000\000\009\000\064\000\006\003\000\064\000\001" ^ big_tree )
  ]

let test_golden_frames () =
  List.iter
    (fun (name, id, resp, golden) ->
      let same what got =
        (* no Alcotest diff of a 4 MiB string *)
        if got <> golden then Alcotest.failf "%s: %s differs from the golden frame" name what
      in
      same "response_frame" (Wire.Binary.response_frame ~id resp);
      same "the reply's parts" (String.concat "" (reply_parts ~id resp));
      match client_reads ~id resp with
      | id', resp' when id' = id && resp' = resp -> ()
      | _ -> Alcotest.failf "%s: the client read back a different response" name)
    golden_responses;
  let golden_chunk = "XU\002\004\000\000\000\000\000\000\000\005\000\000\000\005chunk" in
  Alcotest.(check string) "stream_chunk_frame" golden_chunk
    (Wire.Binary.stream_chunk_frame ~id:5L "chunk");
  Alcotest.(check string) "stream_chunk_head ^ chunk" golden_chunk
    (Wire.Binary.stream_chunk_head ~id:5L 5 ^ "chunk")

let prop_tree_reply_bytes =
  QCheck2.Test.make ~count:60
    ~name:"server's tree reply bytes = response_frame, and the client reads the tree back"
    QCheck2.Gen.(pair Test_properties.gen_root (map Int64.of_int (int_range 1 (1 lsl 40))))
    (fun (doc, id) ->
      let resp = Service.Ok (Service.Tree (Xut_xml.Serialize.element_to_string doc)) in
      String.concat "" (reply_parts ~id resp) = Wire.Binary.response_frame ~id resp
      && client_reads ~id resp = (id, resp))

(* The server dies part-way through a 3 MB tree reply: the client
   raises, and never hands out a short string. *)
let test_tree_reply_torn_mid_body () =
  let tree = String.init 3_000_000 (fun i -> Char.chr (97 + (i mod 26))) in
  let frame = Wire.Binary.response_frame ~id:4L (Service.Ok (Service.Tree tree)) in
  List.iter
    (fun cut ->
      match
        over_socketpair
          (fun fd ->
            raw_write fd (String.sub frame 0 cut);
            true)
          (fun fd -> Client.recv (Client.of_fd ~timeout:5. fd))
      with
      | exception Client.Transport_error _ -> ()
      | _, Service.Ok (Service.Tree s) ->
        Alcotest.failf "cut at %d: a %d-byte tree came back" cut (String.length s)
      | _ -> Alcotest.failf "cut at %d: a response came back" cut)
    [ Wire.Binary.header_size + 2; Wire.Binary.header_size + 5; 1_500_000; String.length frame - 1 ]

(* A string length that disagrees with the frame length is a transport
   error, and the frame is consumed whole: the next reply still reads. *)
let test_tree_length_mismatch () =
  let bad = "XU\002\002\000\000\000\000\000\000\000\001\000\000\000\009\003\000\000\000\003<a/>" in
  let good = Wire.Binary.response_frame ~id:2L (Service.Ok (Service.Tree "<b/>")) in
  over_socketpair
    (fun fd ->
      raw_write fd (bad ^ good);
      true)
    (fun fd ->
      let cli = Client.of_fd ~timeout:5. fd in
      (match Client.recv cli with
      | exception Client.Transport_error _ -> ()
      | _ -> Alcotest.fail "a mismatched tree length must be a transport error");
      match Client.recv cli with
      | 2L, Service.Ok (Service.Tree "<b/>") -> ()
      | _ -> Alcotest.fail "the next frame must still read")

(* Golden payloads: one fixed value per payload layout and its exact
   bytes, taken from the codec before it was rebuilt from descriptors.
   Round trips cannot see a tag or a field order that changed in both
   directions at once; this table can.  Every number in a value is
   distinct, so swapping two fields of a layout changes its bytes. *)

type layout =
  | Req of Service.request
  | Resp of Service.response
  | Stream of Service.stream_request
  | Note of Wire.Binary.notice
  | End of int * int
  | Err of Service.err_code * string

let frame_payload f =
  String.sub f Wire.Binary.header_size (String.length f - Wire.Binary.header_size)

let encode_layout = function
  | Req r -> Wire.Binary.encode_request r
  | Resp r -> Wire.Binary.encode_response r
  | Stream sr -> Wire.Binary.encode_stream sr
  | Note n -> Wire.Binary.encode_notice n
  | End (bytes, chunks) -> frame_payload (Wire.Binary.stream_end_frame ~id:1L ~bytes ~chunks)
  | Err (code, m) -> frame_payload (Wire.Binary.stream_error_frame ~id:1L ~code m)

let decode_layout like s =
  match like with
  | Req _ -> Result.map (fun r -> Req r) (Wire.Binary.decode_request s)
  | Resp _ -> Result.map (fun r -> Resp r) (Wire.Binary.decode_response s)
  | Stream _ -> begin
    match Wire.Binary.decode_incoming ~version:2 s with
    | Ok (Wire.Stream sr) -> Ok (Stream sr)
    | Ok (Wire.Plain _) -> Error "decoded as a plain request"
    | Error e -> Error e
  end
  | Note _ -> Result.map (fun n -> Note n) (Wire.Binary.decode_notice s)
  | End _ -> Result.map (fun (b, c) -> End (b, c)) (Wire.Binary.decode_stream_end s)
  | Err _ -> Result.map (fun (c, m) -> Err (c, m)) (Wire.Binary.decode_stream_error s)

let notice reason generation = Note { Wire.Binary.doc = "d"; reason; generation }

let golden_layouts =
  [ ( "request 1 load",
      Req (Service.Load { name = "n"; file = "f.xml"; schema = None }),
      "\001\000\000\000\001n\000\000\000\005f.xml" );
    ("request 2 unload", Req (Service.Unload { name = "n" }), "\002\000\000\000\001n");
    ( "request 3 transform doc",
      Req (Service.Transform { target = Service.Doc "d"; engine = Core.Engine.Td_bu; query = "q" }),
      "\003\000\000\000\001d\000\000\000\005TD-BU\000\000\000\001q" );
    ( "request 4 count doc",
      Req (Service.Count { target = Service.Doc "d"; engine = Core.Engine.Gentop; query = "q" }),
      "\004\000\000\000\001d\000\000\000\006GENTOP\000\000\000\001q" );
    ("request 5 stats", Req Service.Stats, "\005");
    ( "request 6 batch",
      Req (Service.Batch [ Service.Stats; Service.Unload { name = "n" } ]),
      "\006\000\000\000\002\005\002\000\000\000\001n" );
    ( "request 8 apply",
      Req (Service.Apply { doc = "d"; query = "u" }),
      "\008\000\000\000\001d\000\000\000\001u" );
    ( "request 9 commit",
      Req (Service.Commit { doc = "d"; query = "u" }),
      "\009\000\000\000\001d\000\000\000\001u" );
    ( "request 10 transform view",
      Req
        (Service.Transform
           { target = Service.View "v"; engine = Core.Engine.Naive; query = "q" }),
      "\010\000\000\000\001v\000\000\000\005NAIVE\000\000\000\001q" );
    ( "request 11 count view",
      Req
        (Service.Count
           { target = Service.View "v"; engine = Core.Engine.Two_pass_sax; query = "q" }),
      "\011\000\000\000\001v\000\000\000\010twoPassSAX\000\000\000\001q" );
    ( "request 12 defview",
      Req (Service.Defview { name = "v"; query = "q" }),
      "\012\000\000\000\001v\000\000\000\001q" );
    ("request 13 undefview", Req (Service.Undefview { name = "v" }), "\013\000\000\000\001v");
    ("request 14 listviews", Req Service.Listviews, "\014");
    ( "request 15 load with schema",
      Req (Service.Load { name = "n"; file = "f.xml"; schema = Some "xmark" }),
      "\015\000\000\000\001n\000\000\000\005f.xml\000\000\000\005xmark" );
    ( "request 7 result stream",
      Stream
        { Service.source = Service.From_doc "d"; engine = Some Core.Engine.Gentop; query = "q";
          chunk_size = 512 },
      "\007\000\000\000\001d\000\000\000\006GENTOP\000\000\000\001q\000\000\002\000" );
    ( "request 16 ingest doc",
      Stream { Service.source = Service.From_doc "d"; engine = None; query = "q"; chunk_size = 64 },
      "\016\001\000\000\000\001d\000\000\000\001q\000\000\000\064" );
    ( "request 16 ingest file",
      Stream
        { Service.source = Service.From_file "/x.xml"; engine = None; query = "q";
          chunk_size = 65536 },
      "\016\002\000\000\000\006/x.xml\000\000\000\001q\000\001\000\000" );
    ( "response 1 loaded",
      Resp
        (Service.Ok
           (Service.Doc_loaded
              { name = "n"; elements = 7; reloaded = true; generation = 3; schema = None })),
      "\001\000\000\000\001n\000\000\000\007\001\000\000\000\003" );
    ( "response 2 unloaded",
      Resp (Service.Ok (Service.Doc_unloaded { name = "n" })),
      "\002\000\000\000\001n" );
    ("response 3 tree", Resp (Service.Ok (Service.Tree "<a/>")), "\003\000\000\000\004<a/>");
    ("response 4 count", Resp (Service.Ok (Service.Element_count 42)), "\004\000\000\000\042");
    ( "response 5 stats dump",
      Resp (Service.Ok (Service.Stats_dump "s=1")),
      "\005\000\000\000\003s=1" );
    ( "response 6 error",
      Resp (Service.Error { code = Service.Conflict; message = "m" }),
      "\006\006\000\000\000\001m" );
    ( "response 7 batch",
      Resp
        (Service.Ok
           (Service.Batch_results
              [ Service.Ok (Service.Element_count 1); Service.Ok (Service.Tree "") ])),
      "\007\000\000\000\002\004\000\000\000\001\003\000\000\000\000" );
    ( "response 8 stream done",
      Resp (Service.Ok (Service.Stream_done { bytes = 300; chunks = 2 })),
      "\008\000\000\001\044\000\000\000\002" );
    ( "response 9 applied",
      Resp
        (Service.Ok
           (Service.Applied
              { doc = "d"; primitives = 3; collapsed = 1; conflicts = [ "c1"; "c2" ] })),
      "\009\000\000\000\001d\000\000\000\003\000\000\000\001"
      ^ "\000\000\000\002\000\000\000\002c1\000\000\000\002c2" );
    ( "response 10 committed",
      Resp
        (Service.Ok
           (Service.Committed
              { doc = "d"; primitives = 3; collapsed = 1; elements = 9; generation = 4 })),
      "\010\000\000\000\001d\000\000\000\003\000\000\000\001\000\000\000\009\000\000\000\004" );
    ( "response 11 view defined",
      Resp
        (Service.Ok
           (Service.View_defined
              { name = "v"; base = "d"; depth = 2; generation = 5; redefined = true })),
      "\011\000\000\000\001v\000\000\000\001d\000\000\000\002\000\000\000\005\001" );
    ( "response 12 view undefined",
      Resp (Service.Ok (Service.View_undefined { name = "v" })),
      "\012\000\000\000\001v" );
    ( "response 13 view list",
      Resp
        (Service.Ok
           (Service.View_list
              [ { Service.v_name = "v"; v_base = "d"; v_depth = 1; v_generation = 6 } ])),
      "\013\000\000\000\001\000\000\000\001v\000\000\000\001d\000\000\000\001\000\000\000\006" );
    ( "response 14 loaded with schema",
      Resp
        (Service.Ok
           (Service.Doc_loaded
              { name = "n"; elements = 7; reloaded = false; generation = 3;
                schema = Some "xmark" })),
      "\014\000\000\000\001n\000\000\000\007\000\000\000\000\003\000\000\000\005xmark" );
    ("notice unloaded", notice Wire.Binary.Unloaded 1, "\001\000\000\000\001d\000\000\000\001");
    ("notice replaced", notice Wire.Binary.Replaced 2, "\002\000\000\000\001d\000\000\000\002");
    ("notice committed", notice Wire.Binary.Committed 3, "\003\000\000\000\001d\000\000\000\003");
    ( "notice schema-dropped",
      notice Wire.Binary.Schema_dropped 4,
      "\004\000\000\000\001d\000\000\000\004" );
    ("stream end", End (300, 2), "\000\000\001\044\000\000\000\002");
    ("stream error unknown-document", Err (Service.Unknown_document, "m"), "\001\000\000\000\001m");
    ( "stream error query-parse-error",
      Err (Service.Query_parse_error, "m"),
      "\002\000\000\000\001m" );
    ("stream error eval-error", Err (Service.Eval_error, "m"), "\003\000\000\000\001m");
    ("stream error overloaded", Err (Service.Overloaded, "m"), "\004\000\000\000\001m");
    ("stream error bad-request", Err (Service.Bad_request, "m"), "\005\000\000\000\001m");
    ("stream error conflict", Err (Service.Conflict, "m"), "\006\000\000\000\001m");
    ( "stream error view-compose-error",
      Err (Service.View_compose_error, "m"),
      "\007\000\000\000\001m" );
    ( "stream error statically-empty",
      Err (Service.Statically_empty, "m"),
      "\008\000\000\000\001m" ) ]

let test_golden_payloads () =
  List.iter
    (fun (name, v, golden) ->
      Alcotest.(check string) (name ^ ": encoded bytes") golden (encode_layout v);
      match decode_layout v golden with
      | Ok v' when v' = v -> ()
      | Ok _ -> Alcotest.failf "%s: the golden bytes decode to another value" name
      | Error e -> Alcotest.failf "%s: the golden bytes do not decode: %s" name e)
    golden_layouts

(* ---- decoders are total: garbage is an [Error _], never an exception ---- *)

let decoders =
  [ ("Binary.decode_header", fun s -> Result.is_ok (Wire.Binary.decode_header (Bytes.of_string s)));
    ("Binary.decode_incoming", fun s -> Result.is_ok (Wire.Binary.decode_incoming ~version:2 s));
    ("Binary.decode_response", fun s -> Result.is_ok (Wire.Binary.decode_response s));
    ("Binary.decode_notice", fun s -> Result.is_ok (Wire.Binary.decode_notice s));
    ("Binary.decode_stream_end", fun s -> Result.is_ok (Wire.Binary.decode_stream_end s));
    ("Binary.decode_stream_error", fun s -> Result.is_ok (Wire.Binary.decode_stream_error s));
    ("Line.decode_incoming", fun s -> Result.is_ok (Wire.Line.decode_incoming s)) ]

let decoders_total s =
  List.for_all
    (fun (name, decode) ->
      match decode s with
      | (_ : bool) -> true
      | exception e -> QCheck.Test.fail_reportf "%s raised %s on %S" name (Printexc.to_string e) s)
    decoders

(* Random bytes: bare, behind a small tag byte (so the payload decoders
   get past their first switch), and as 16-byte headers that pass the
   magic and version checks. *)
let gen_garbage =
  QCheck.Gen.(
    oneof
      [ string_size ~gen:char (int_range 0 48);
        map2 (fun tag s -> String.make 1 (Char.chr tag) ^ s) (int_range 0 17)
          (string_size ~gen:char (int_range 0 48));
        map (fun s -> "XU\002" ^ s) (string_size ~gen:char (return 13)) ])

let gen_stream_request =
  QCheck.Gen.(
    map3
      (fun (source, engine) query chunk_size -> { Service.source; engine; query; chunk_size })
      (oneof
         [ map2 (fun d e -> (Service.From_doc d, Some e)) gen_text gen_engine;
           map (fun d -> (Service.From_doc d, None)) gen_text;
           map (fun p -> (Service.From_file p, None)) gen_text ])
      gen_text (int_range 1 Wire.Binary.max_chunk_size))

let gen_notice =
  QCheck.Gen.(
    map3
      (fun doc reason generation -> { Wire.Binary.doc; reason; generation })
      gen_text
      (oneofl
         [ Wire.Binary.Unloaded; Wire.Binary.Replaced; Wire.Binary.Committed;
           Wire.Binary.Schema_dropped ])
      small_nat)

let gen_encoding =
  QCheck.Gen.(
    oneof
      [ map Wire.Binary.encode_request gen_request;
        map Wire.Binary.encode_response gen_response;
        map Wire.Binary.encode_stream gen_stream_request;
        map Wire.Binary.encode_notice gen_notice;
        map2 (fun bytes chunks -> encode_layout (End (bytes, chunks))) small_nat small_nat;
        map2 (fun code m -> encode_layout (Err (code, m))) gen_err_code gen_text ])

(* A valid encoding, whole, truncated, extended or with one byte
   replaced. *)
let gen_mutated =
  QCheck.Gen.(
    gen_encoding >>= fun s ->
    let n = String.length s in
    oneof
      [ return s;
        map (fun k -> String.sub s 0 k) (int_range 0 n);
        map (fun t -> s ^ t) (string_size ~gen:char (int_range 1 8));
        map2
          (fun i c ->
            if n = 0 then s
            else String.mapi (fun j c' -> if j = i mod n then c else c') s)
          nat char ])

let prop_decoders_total_garbage =
  QCheck.Test.make ~count:2000 ~name:"wire: decoders never raise on random bytes"
    (QCheck.make ~print:String.escaped gen_garbage) decoders_total

let prop_decoders_total_mutated =
  QCheck.Test.make ~count:2000
    ~name:"wire: decoders never raise on truncated, extended or flipped encodings"
    (QCheck.make ~print:String.escaped gen_mutated) decoders_total

(* ---- lent replies over the socket ---- *)

(* A file holding [text], removed after [f]. *)
let with_file text f =
  let path = Filename.temp_file "xut_transport_lent" ".xml" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* An XMark f=0.01 file (seed 1), removed after [f]. *)
let with_xmark f =
  let path = Filename.temp_file "xut_transport_xmark" ".xml" in
  Xut_xmark.Generator.to_file ~factor:0.01 path;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* [<r><t>x…x</t></r>], [n] bytes: an identity transform's reply is the
   document itself. *)
let padded_doc n = "<r><t>" ^ String.make (n - 14) 'x' ^ "</t></r>"

(* A document whose one [r/t] item, a view read's reply, is [n] bytes. *)
let padded_item_doc n = "<r><t>" ^ String.make (n - 7) 'x' ^ "</t></r>"

let identity doc =
  Printf.sprintf {|transform copy $a := doc("%s") modify do delete $a//zz return $a|} doc

let u1 doc =
  Printf.sprintf {|transform copy $a := doc("%s") modify do delete $a/site/people/person return $a|}
    doc

let call_ok cli req what =
  match Client.call cli req with
  | Service.Ok _ -> ()
  | Service.Error { message; _ } -> Alcotest.failf "%s: %s" what message

(* Every engine's TRANSFORM of [query] (TD-BU and twoPassSAX for a
   document, TD-BU for a view) read over the socket is Service.call's
   string, and its length passes [size_ok]. *)
let same_over_socket cli svc target query size_ok =
  List.iter
    (fun engine ->
      let req = Service.Transform { target; engine; query } in
      match (Client.call cli req, Service.call svc req) with
      | Service.Ok (Service.Tree lent), Service.Ok (Service.Tree kept) ->
        if lent <> kept then
          Alcotest.failf "%s: the socket reply differs from Service.call" (Core.Engine.name engine);
        if not (size_ok (String.length lent)) then
          Alcotest.failf "%s: a reply of %d bytes" (Core.Engine.name engine) (String.length lent)
      | _ -> Alcotest.fail "TRANSFORM over the socket and in process")
    (match target with
    | Service.Doc _ -> [ Core.Engine.Td_bu; Core.Engine.Two_pass_sax ]
    | Service.View _ -> [ Core.Engine.Td_bu ])

(* The lent reply a client reads is Service.call's string, for Doc, View
   and twoPassSAX replies under one chunk, larger than the socket buffer
   (U1 over XMark f=0.01), of exactly 64 KiB, and above the pool's
   shrink threshold; STATS has the same lines (its numbers move between
   two reads). *)
let test_lent_replies_match_call () =
  with_xmark (fun xmark ->
      with_doc_file (fun small ->
          with_server (fun svc sock ->
              let cli = Client.connect ~timeout:60. (Addr.Unix_socket sock) in
              Fun.protect
                ~finally:(fun () -> Client.close cli)
                (fun () ->
                  let load name file =
                    call_ok cli (Service.Load { name; file; schema = None }) "LOAD"
                  and defview name base =
                    call_ok cli (Service.Defview { name; query = identity base }) "DEFVIEW"
                  in
                  load "d" small;
                  load "x" xmark;
                  defview "vx" "x";
                  let any _ = true in
                  same_over_socket cli svc (Service.Doc "d") q_del_prices any;
                  same_over_socket cli svc (Service.Doc "x") (u1 "x") (fun n -> n > 262144);
                  same_over_socket cli svc (Service.View "vx") "for $x in site/people return $x"
                    any;
                  List.iter
                    (fun n ->
                      with_file (padded_doc n) (fun doc_file ->
                          with_file (padded_item_doc n) (fun item_file ->
                              let d = Printf.sprintf "p%d" n and i = Printf.sprintf "i%d" n in
                              load d doc_file;
                              load i item_file;
                              defview ("v" ^ i) i;
                              same_over_socket cli svc (Service.Doc d) (identity d) (( = ) n);
                              same_over_socket cli svc
                                (Service.View ("v" ^ i))
                                "for $x in r/t return $x" (( = ) n))))
                    [ 65536; Xut_xml.Serialize.Pool.shrink_above + 1 ];
                  let masked = function
                    | Service.Ok (Service.Stats_dump s) ->
                      (* each run of digits and points as one # *)
                      let b = Buffer.create (String.length s) in
                      let digit c = (c >= '0' && c <= '9') || c = '.' in
                      String.iteri
                        (fun i c ->
                          if not (digit c) then Buffer.add_char b c
                          else if i = 0 || not (digit s.[i - 1]) then Buffer.add_char b '#')
                        s;
                      Buffer.contents b
                    | _ -> Alcotest.fail "STATS"
                  in
                  Alcotest.(check string) "STATS lines over the socket = Service.call's"
                    (masked (Service.call svc Service.Stats))
                    (masked (Client.call cli Service.Stats))))))

(* TRANSFORM-STREAM chunks and result-stream chunks over the socket are
   the string-callback path's chunks, one for one, at chunk sizes 1, 61
   and 65536. *)
let test_lent_chunks_match_callback () =
  with_xmark (fun xmark ->
      with_doc_file (fun small ->
          with_server (fun svc sock ->
              let cli = Client.connect ~timeout:60. (Addr.Unix_socket sock) in
              Fun.protect
                ~finally:(fun () -> Client.close cli)
                (fun () ->
                  call_ok cli (Service.Load { name = "d"; file = small; schema = None }) "LOAD";
                  call_ok cli (Service.Load { name = "x"; file = xmark; schema = None }) "LOAD";
                  (* the chunks [run] hands its consumer, as many as its totals say *)
                  let chunks run =
                    let got = ref [] in
                    (match run (fun c -> got := c :: !got) with
                    | Service.Ok (Service.Stream_done { chunks; _ }) ->
                      Alcotest.(check int) "chunk count" chunks (List.length !got)
                    | _ -> Alcotest.fail "stream");
                    List.rev !got
                  in
                  List.iter
                    (fun (doc, query) ->
                      List.iter
                        (fun chunk_size ->
                          let same what socket callback =
                            if chunks socket <> chunks callback then
                              Alcotest.failf "%s of %s, chunk size %d: the socket's chunks differ"
                                what doc chunk_size
                          in
                          same "TRANSFORM-STREAM"
                            (Client.transform_ingest cli ~source:(Wire.Binary.Ingest_doc doc)
                               ~query ~chunk_size)
                            (Service.transform_ingest svc ~source:(Service.From_doc doc) ~query
                               ~chunk_size);
                          same "a result stream"
                            (Client.transform_stream cli ~doc ~engine:Core.Engine.Td_bu ~query
                               ~chunk_size)
                            (Service.transform_stream svc ~doc ~engine:Core.Engine.Td_bu ~query
                               ~chunk_size))
                        [ 1; 61; 65536 ])
                    [ ("d", q_del_prices); ("x", u1 "x") ]))))

(* Clients that close part-way through a lent reply: the worker's write
   fails, and the buffer still goes back to the pool.  Forty torn
   replies, more than the pool keeps, and not one acquire misses: a
   buffer lost to a torn write would leave the pool empty.  The worker
   survives, and another connection's next reply is Service.call's. *)
let test_torn_lent_reply_returns_buffer () =
  with_file (padded_doc (1 lsl 20)) (fun file ->
      with_server (fun svc sock ->
          let cli = Client.connect ~timeout:30. (Addr.Unix_socket sock) in
          Fun.protect
            ~finally:(fun () -> Client.close cli)
            (fun () ->
              call_ok cli (Service.Load { name = "p"; file; schema = None }) "LOAD";
              let req =
                Service.Transform
                  { target = Service.Doc "p"; engine = Core.Engine.Td_bu; query = identity "p" }
              in
              let expected =
                match Service.call svc req with
                | Service.Ok (Service.Tree t) -> t
                | _ -> Alcotest.fail "TRANSFORM in process"
              in
              call_ok cli req "warm-up TRANSFORM";
              let misses = Fixtures.counter "serialize_pool_misses"
              and hits = Fixtures.counter "serialize_pool_hits" in
              for i = 1 to 40 do
                let fd = raw_connect sock in
                raw_write fd (Wire.Binary.request_frame ~id:(Int64.of_int i) req);
                (* the reply has started: its header is here *)
                let hdr = Bytes.create Wire.Binary.header_size in
                let rec read off =
                  if off < Wire.Binary.header_size then
                    read (off + Unix.read fd hdr off (Wire.Binary.header_size - off))
                in
                read 0;
                Unix.close fd
              done;
              (match Client.call cli req with
              | Service.Ok (Service.Tree t) ->
                if t <> expected then Alcotest.fail "the next reply differs from Service.call"
              | _ -> Alcotest.fail "the worker died with a torn reply");
              Alcotest.(check int) "no pool miss" 0
                (Fixtures.counter "serialize_pool_misses" - misses);
              Alcotest.(check bool) "every reply a pool hit" true
                (Fixtures.counter "serialize_pool_hits" - hits >= 41))))

let suite =
  [
    Alcotest.test_case "wire: line protocol" `Quick test_line_protocol;
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    QCheck_alcotest.to_alcotest prop_response_roundtrip;
    QCheck_alcotest.to_alcotest prop_header_roundtrip;
    Alcotest.test_case "wire: header validation" `Quick test_header_validation;
    Alcotest.test_case "socket: round trip matches in-process" `Quick
      test_socket_matches_in_process;
    Alcotest.test_case "socket: 4 concurrent clients" `Quick test_socket_concurrent_clients;
    Alcotest.test_case "socket: malformed frame" `Quick test_malformed_frame;
    Alcotest.test_case "socket: oversized frame" `Quick test_oversized_frame;
    Alcotest.test_case "socket: truncated frame" `Quick test_truncated_frame;
    Alcotest.test_case "socket: bad payload keeps the connection" `Quick
      test_bad_payload_keeps_connection;
    Alcotest.test_case "socket: error-code mapping" `Quick test_error_codes_over_socket;
    Alcotest.test_case "socket: batch round trip" `Quick test_batch_over_socket;
    Alcotest.test_case "socket: BUSY at the connection limit" `Quick test_busy_rejection;
    Alcotest.test_case "wire: stream frame codecs" `Quick test_stream_frame_codecs;
    Alcotest.test_case "socket: streamed transform reassembles" `Quick test_stream_over_socket;
    Alcotest.test_case "socket: stream error before chunks" `Quick test_stream_unknown_document;
    Alcotest.test_case "socket: v1 client fallback" `Quick test_v1_client_refused;
    Alcotest.test_case "socket: v1-framed ingest rejected cleanly" `Quick
      test_ingest_v1_rejected;
    Alcotest.test_case "wire: notice codec" `Quick test_notice_codec;
    Alcotest.test_case "socket: invalidation notices" `Quick test_notice_over_socket;
    Alcotest.test_case "socket: notices before any request" `Quick
      test_notice_from_first_byte;
    Alcotest.test_case "socket: APPLY/COMMIT write path" `Quick test_commit_over_socket;
    Alcotest.test_case "socket: mid-stream error frame" `Quick test_mid_stream_error;
    Alcotest.test_case "tcp: round trip on an ephemeral port" `Quick test_tcp_roundtrip;
    Alcotest.test_case "socket: DEFVIEW and view queries" `Quick test_views_over_socket;
    Alcotest.test_case "wire: ingest codecs (line + binary + notices)" `Quick
      test_ingest_codec;
    Alcotest.test_case "socket: streamed ingest reassembles" `Quick test_ingest_over_socket;
    Alcotest.test_case "socket: malformed input mid-parse" `Quick
      test_ingest_malformed_midparse;
    Alcotest.test_case "socket: schema-dropped notice on commit" `Quick
      test_schema_drop_notice;
    Alcotest.test_case "client: dead after mid-frame timeout" `Quick
      test_client_dead_after_midframe_timeout;
    Alcotest.test_case "wire: stream chunk_size bound" `Quick test_chunk_size_bound;
    Alcotest.test_case "socket: over-bound chunk_size keeps the connection" `Quick
      test_chunk_size_bound_over_socket;
    Alcotest.test_case "socket: torn reply frame closes the connection" `Quick
      test_torn_frame_closes_connection;
    Alcotest.test_case "socket: pipelined replies drain before close" `Quick
      test_pipelined_drain_before_close;
    Alcotest.test_case "wire: golden reply frames" `Quick test_golden_frames;
    Alcotest.test_case "wire: golden payload per layout" `Quick test_golden_payloads;
    QCheck_alcotest.to_alcotest prop_decoders_total_garbage;
    QCheck_alcotest.to_alcotest prop_decoders_total_mutated;
    QCheck_alcotest.to_alcotest prop_tree_reply_bytes;
    Alcotest.test_case "client: tree reply torn mid-body" `Quick test_tree_reply_torn_mid_body;
    Alcotest.test_case "client: tree length mismatch" `Quick test_tree_length_mismatch;
    Alcotest.test_case "socket: lent replies = Service.call at every size" `Quick
      test_lent_replies_match_call;
    Alcotest.test_case "socket: lent stream chunks = the string callback's" `Quick
      test_lent_chunks_match_callback;
    Alcotest.test_case "socket: a torn lent reply returns its buffer" `Quick
      test_torn_lent_reply_returns_buffer;
  ]
