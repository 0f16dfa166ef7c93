open Xut_service

type incoming = Service.incoming = Plain of Service.request | Stream of Service.stream_request

module Line = struct
  let split2 s =
    match String.index_opt s ' ' with
    | None -> (s, "")
    | Some i ->
      (String.sub s 0 i, String.trim (String.sub s (i + 1) (String.length s - i - 1)))

  (* [[DOC|<kw>] <name> <rest>]: the literal keyword [kw] claims the
     first word and addresses through [keyword]; a bare name, or one
     behind the explicit [DOC] escape, addresses a document, so one
     literally named like a keyword stays reachable.  [None] when the
     name is missing. *)
  let address rest kw ~keyword ~doc =
    let word, rest' = split2 rest in
    let named make =
      match split2 rest' with
      | name, rest'' when name <> "" -> (Some (make name), rest'')
      | _ -> (None, rest')
    in
    if word = kw then named keyword
    else if word = "DOC" then named doc
    else if word = "" then (None, rest')
    else (Some (doc word), rest')

  let decode_request line =
    let line = String.trim line in
    let verb, rest = split2 line in
    match String.uppercase_ascii verb with
    | "LOAD" -> begin
      (* LOAD <name> <file> [SCHEMA <schema>] *)
      let usage = "usage: LOAD <name> <file> [SCHEMA <schema>]" in
      match split2 rest with
      | "", _ -> Error usage
      | name, rest' when rest' <> "" -> begin
        match split2 rest' with
        | file, "" -> Ok (Service.Load { name; file; schema = None })
        | file, tail -> begin
          match split2 tail with
          | kw, s when String.uppercase_ascii kw = "SCHEMA" && s <> "" ->
            Ok (Service.Load { name; file; schema = Some s })
          | _ -> Error usage
        end
      end
      | _ -> Error usage
    end
    | "UNLOAD" ->
      if rest = "" then Error "usage: UNLOAD <name>"
      else Ok (Service.Unload { name = rest })
    | ("TRANSFORM" | "COUNT") as verb -> begin
      (* TRANSFORM [DOC] <doc> <engine> <query>
         TRANSFORM VIEW <name> <engine> <query> *)
      let target, rest' =
        address rest "VIEW" ~keyword:(fun v -> Service.View v) ~doc:(fun d -> Service.Doc d)
      in
      match target with
      | Some target when rest' <> "" -> begin
        let engine_s, query = split2 rest' in
        match Core.Engine.of_string engine_s with
        | None -> Error (Printf.sprintf "unknown engine %S" engine_s)
        | Some engine ->
          if query = "" then
            Error (Printf.sprintf "usage: %s [DOC|VIEW] <name> <engine> <query>" verb)
          else if verb = "COUNT" then Ok (Service.Count { target; engine; query })
          else Ok (Service.Transform { target; engine; query })
      end
      | _ -> Error (Printf.sprintf "usage: %s [DOC|VIEW] <name> <engine> <query>" verb)
    end
    | ("APPLY" | "COMMIT") as verb -> begin
      match split2 rest with
      | doc, query when doc <> "" && query <> "" ->
        if verb = "APPLY" then Ok (Service.Apply { doc; query })
        else Ok (Service.Commit { doc; query })
      | _ -> Error (Printf.sprintf "usage: %s <name> <query>" verb)
    end
    | "DEFVIEW" -> begin
      (* DEFVIEW <name> := <transform query>  (the ":=" is optional) *)
      match split2 rest with
      | name, rest' when name <> "" && rest' <> "" ->
        let query =
          match split2 rest' with ":=", q when q <> "" -> q | _ -> rest'
        in
        Ok (Service.Defview { name; query })
      | _ -> Error "usage: DEFVIEW <name> := <transform query>"
    end
    | "UNDEFVIEW" ->
      if rest = "" then Error "usage: UNDEFVIEW <name>"
      else Ok (Service.Undefview { name = rest })
    | "LISTVIEWS" -> Ok Service.Listviews
    | "STATS" -> Ok Service.Stats
    | "TRANSFORM-STREAM" ->
      Error "TRANSFORM-STREAM is a streaming request: decode it with Line.decode_incoming"
    | "" -> Error "empty request"
    | v ->
      Error
        (Printf.sprintf
           "unknown request %S \
            (LOAD|UNLOAD|TRANSFORM|TRANSFORM-STREAM|COUNT|APPLY|COMMIT|DEFVIEW|UNDEFVIEW|LISTVIEWS|STATS)"
           v)

  (* TRANSFORM-STREAM [DOC] <name> <query> — streamed ingest of a stored
     document; TRANSFORM-STREAM FILE <path> <query> — of a file, never
     building the tree.  No engine word: the streaming SAX machinery is
     the engine, with automatic fallback. *)
  let decode_incoming line =
    let trimmed = String.trim line in
    let verb, rest = split2 trimmed in
    if String.uppercase_ascii verb <> "TRANSFORM-STREAM" then
      Result.map (fun r -> Plain r) (decode_request line)
    else begin
      let usage = "usage: TRANSFORM-STREAM [DOC|FILE] <name|path> <query>" in
      let source, rest' =
        address rest "FILE"
          ~keyword:(fun p -> Service.From_file p)
          ~doc:(fun d -> Service.From_doc d)
      in
      match source with
      | Some source when rest' <> "" ->
        Ok
          (Stream
             { source; engine = None; query = rest'; chunk_size = Service.default_chunk_size })
      | _ -> Error usage
    end

  let render_response resp =
    match resp with
    | Service.Ok (Service.Stats_dump dump) -> dump ^ "\nOK"
    | Service.Ok (Service.View_list _) -> begin
      (* multi-line payload, trailer style like STATS *)
      match Service.render_response resp with
      | Ok payload -> payload ^ "\nOK"
      | Error message -> "ERR " ^ message
    end
    | _ -> begin
      match Service.render_response resp with
      | Ok payload -> "OK " ^ payload
      | Error message -> "ERR " ^ message
    end
end

module Binary = struct
  let protocol_version = 2
  let magic = "XU"
  let header_size = 16
  let default_max_frame = 16 * 1024 * 1024

  type kind =
    | Request
    | Response
    | Stream_begin
    | Stream_chunk
    | Stream_end
    | Stream_error
    | Notice

  type header = { version : int; kind : kind; id : int64; length : int }

  (* a kind's byte is its index here plus one *)
  let kinds = [| Request; Response; Stream_begin; Stream_chunk; Stream_end; Stream_error; Notice |]

  let kind_byte k =
    let rec go i = if kinds.(i) == k then Char.chr (i + 1) else go (i + 1) in
    go 0

  let kind_of_byte c =
    let i = Char.code c - 1 in
    if i >= 0 && i < Array.length kinds then Some kinds.(i) else None

  let set_header b { version; kind; id; length } =
    Bytes.set b 0 magic.[0];
    Bytes.set b 1 magic.[1];
    Bytes.set b 2 (Char.chr (version land 0xff));
    Bytes.set b 3 (kind_byte kind);
    Bytes.set_int64_be b 4 id;
    Bytes.set_int32_be b 12 (Int32.of_int length)

  let encode_header h =
    let b = Bytes.create header_size in
    set_header b h;
    b

  let decode_header ?(max_frame = default_max_frame) b =
    if Bytes.length b <> header_size then
      Error (Printf.sprintf "short header (%d bytes, want %d)" (Bytes.length b) header_size)
    else if Bytes.get b 0 <> magic.[0] || Bytes.get b 1 <> magic.[1] then
      Error "bad magic (not an xut frame)"
    else begin
      let version = Char.code (Bytes.get b 2) in
      if version <> protocol_version then
        Error
          (Printf.sprintf "unsupported protocol version %d (this side speaks %d)" version
             protocol_version)
      else begin
        match kind_of_byte (Bytes.get b 3) with
        | None -> Error (Printf.sprintf "bad frame kind 0x%02x" (Char.code (Bytes.get b 3)))
        | Some kind ->
          let id = Bytes.get_int64_be b 4 in
          let length = Int32.to_int (Bytes.get_int32_be b 12) in
          if length < 0 || length > max_frame then
            Error (Printf.sprintf "oversized frame (%d bytes > max %d)" length max_frame)
          else Ok { version; kind; id; length }
      end
    end

  (* ---- payload codecs ----

     A codec writes a value to a buffer and reads it back from a cursor.
     Reading raises [Malformed] on bad input, which [decode_with] turns
     into an [Error _], so every decoder is total.  Strings are 4-byte
     big-endian length-prefixed bytes, so any query text round-trips. *)

  exception Malformed of string

  type cursor = { s : string; mutable pos : int }
  type 'a codec = { put : Buffer.t -> 'a -> unit; get : cursor -> 'a }

  let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

  let need c n =
    if n < 0 || c.pos + n > String.length c.s then raise (Malformed "truncated payload")

  let u8 =
    { put = (fun b n -> Buffer.add_char b (Char.chr (n land 0xff)));
      get =
        (fun c ->
          need c 1;
          let v = Char.code c.s.[c.pos] in
          c.pos <- c.pos + 1;
          v) }

  let u32 =
    { put = (fun b n -> Buffer.add_int32_be b (Int32.of_int n));
      get =
        (fun c ->
          need c 4;
          let v = Int32.to_int (String.get_int32_be c.s c.pos) in
          c.pos <- c.pos + 4;
          if v < 0 then malformed "negative length";
          v) }

  let str =
    { put =
        (fun b s ->
          u32.put b (String.length s);
          Buffer.add_string b s);
      get =
        (fun c ->
          let n = u32.get c in
          need c n;
          let s = String.sub c.s c.pos n in
          c.pos <- c.pos + n;
          s) }

  let unit = { put = (fun _ () -> ()); get = (fun _ -> ()) }
  let map inj proj c = { put = (fun b v -> c.put b (proj v)); get = (fun cur -> inj (c.get cur)) }

  let engine =
    map
      (fun s ->
        match Core.Engine.of_string s with Some e -> e | None -> malformed "unknown engine %S" s)
      Core.Engine.name str

  let pair a b =
    { put =
        (fun buf (x, y) ->
          a.put buf x;
          b.put buf y);
      get =
        (fun c ->
          let x = a.get c in
          (x, b.get c)) }

  let t3 a b c =
    map (fun (x, (y, z)) -> (x, y, z)) (fun (x, y, z) -> (x, (y, z))) (pair a (pair b c))

  let t4 a b c d =
    map (fun ((w, x), (y, z)) -> (w, x, y, z)) (fun (w, x, y, z) -> ((w, x), (y, z)))
      (pair (pair a b) (pair c d))

  let t5 a b c d e =
    map (fun (v, (w, x, y, z)) -> (v, w, x, y, z)) (fun (v, w, x, y, z) -> (v, (w, x, y, z)))
      (pair a (t4 b c d e))

  (* Every list element consumes at least one byte, so bounding the
     count by the remaining bytes rejects absurd lengths before any
     allocation. *)
  let list c =
    { put =
        (fun b l ->
          u32.put b (List.length l);
          List.iter (c.put b) l);
      get =
        (fun cur ->
          let n = u32.get cur in
          need cur n;
          List.init n (fun _ -> c.get cur)) }

  (* ---- layouts: a tag byte, then the tag's fields ----

     Each layout is declared once, as a [Case]: its tag, the codec of its
     fields, and its constructor in both directions.  A [union] of cases
     is one codec: the encoder tries each case's destructor in turn, the
     decoder indexes an array by the tag byte and reports an unknown tag
     as [bad tag]. *)

  type 'v case = Case : int * 'a codec * ('a -> 'v) * ('v -> 'a option) -> 'v case

  let union bad cases =
    let by_tag = Array.make 256 None in
    List.iter (fun (Case (tag, _, _, _) as case) -> by_tag.(tag) <- Some case) cases;
    let rec put b v = function
      | [] -> invalid_arg "Wire.Binary: no payload layout encodes this value"
      | Case (tag, c, _, proj) :: rest -> (
        match proj v with
        | Some x ->
          u8.put b tag;
          c.put b x
        | None -> put b v rest)
    in
    { put = (fun b v -> put b v cases);
      get =
        (fun cur ->
          let tag = u8.get cur in
          match by_tag.(tag) with
          | Some (Case (_, c, inj, _)) -> inj (c.get cur)
          | None -> raise (Malformed (bad tag))) }

  (* a union of field-less cases: one byte per value *)
  let enum bad values =
    union bad
      (List.map
         (fun (byte, v) ->
           Case (byte, unit, (fun () -> v), fun v' -> if v' = v then Some () else None))
         values)

  let flag name = enum (Printf.sprintf "bad %s flag %d" name) [ (0, false); (1, true) ]

  (* a codec that recurses into itself, as a batch does *)
  let fix f =
    let self = ref None in
    let c =
      f
        { put = (fun b v -> (Option.get !self).put b v);
          get = (fun cur -> (Option.get !self).get cur) }
    in
    self := Some c;
    c

  let err_code =
    enum (Printf.sprintf "unknown error code %d")
      Service.
        [ (1, Unknown_document); (2, Query_parse_error); (3, Eval_error); (4, Overloaded);
          (5, Bad_request); (6, Conflict); (7, View_compose_error); (8, Statically_empty) ]

  (* the fields of an error reply, and of a Stream_error frame *)
  let error = pair err_code str

  (* the totals of a Stream_done reply, and of a Stream_end frame *)
  let totals = pair u32 u32

  (* Requests.  A constructor's shapes are layouts of their own: a
     view-addressed Transform/Count, or a Load with a schema, has its
     own tag. *)
  let request_cases request =
    let open Service in
    [ Case (1, pair str str, (fun (name, file) -> Load { name; file; schema = None }),
        function Load { name; file; schema = None } -> Some (name, file) | _ -> None);
      Case (2, str, (fun name -> Unload { name }),
        function Unload { name } -> Some name | _ -> None);
      Case (3, t3 str engine str,
        (fun (d, engine, query) -> Transform { target = Doc d; engine; query }),
        function
        | Transform { target = Doc d; engine; query } -> Some (d, engine, query) | _ -> None);
      Case (4, t3 str engine str,
        (fun (d, engine, query) -> Count { target = Doc d; engine; query }),
        function Count { target = Doc d; engine; query } -> Some (d, engine, query) | _ -> None);
      Case (5, unit, (fun () -> Stats), function Stats -> Some () | _ -> None);
      Case (6, list request, (fun l -> Batch l), function Batch l -> Some l | _ -> None);
      Case (8, pair str str, (fun (doc, query) -> Apply { doc; query }),
        function Apply { doc; query } -> Some (doc, query) | _ -> None);
      Case (9, pair str str, (fun (doc, query) -> Commit { doc; query }),
        function Commit { doc; query } -> Some (doc, query) | _ -> None);
      Case (10, t3 str engine str,
        (fun (v, engine, query) -> Transform { target = View v; engine; query }),
        function
        | Transform { target = View v; engine; query } -> Some (v, engine, query) | _ -> None);
      Case (11, t3 str engine str,
        (fun (v, engine, query) -> Count { target = View v; engine; query }),
        function Count { target = View v; engine; query } -> Some (v, engine, query) | _ -> None);
      Case (12, pair str str, (fun (name, query) -> Defview { name; query }),
        function Defview { name; query } -> Some (name, query) | _ -> None);
      Case (13, str, (fun name -> Undefview { name }),
        function Undefview { name } -> Some name | _ -> None);
      Case (14, unit, (fun () -> Listviews), function Listviews -> Some () | _ -> None);
      Case (15, t3 str str str, (fun (name, file, s) -> Load { name; file; schema = Some s }),
        function Load { name; file; schema = Some s } -> Some (name, file, s) | _ -> None) ]

  let unknown_request = Printf.sprintf "unknown request tag %d"
  let request = fix (fun request -> union unknown_request (request_cases request))

  (* the response tags whose payload is one length-prefixed string, so
     a frame can be written, and read, around the string itself *)
  let tree_tag = 3
  let stats_tag = 5

  let response =
    let open Service in
    fix (fun response ->
        union (Printf.sprintf "unknown response tag %d")
          [ Case (1, t4 str u32 (flag "reloaded") u32,
              (fun (name, elements, reloaded, generation) ->
                Ok (Doc_loaded { name; elements; reloaded; generation; schema = None })),
              function
              | Ok (Doc_loaded { name; elements; reloaded; generation; schema = None }) ->
                Some (name, elements, reloaded, generation)
              | _ -> None);
            Case (2, str, (fun name -> Ok (Doc_unloaded { name })),
              function Ok (Doc_unloaded { name }) -> Some name | _ -> None);
            Case (tree_tag, str, (fun s -> Ok (Tree s)),
              function Ok (Tree s) -> Some s | _ -> None);
            Case (4, u32, (fun n -> Ok (Element_count n)),
              function Ok (Element_count n) -> Some n | _ -> None);
            Case (stats_tag, str, (fun s -> Ok (Stats_dump s)),
              function Ok (Stats_dump s) -> Some s | _ -> None);
            Case (6, error, (fun (code, message) -> Error { code; message }),
              function Error { code; message } -> Some (code, message) | _ -> None);
            Case (7, list response, (fun rs -> Ok (Batch_results rs)),
              function Ok (Batch_results rs) -> Some rs | _ -> None);
            Case (8, totals, (fun (bytes, chunks) -> Ok (Stream_done { bytes; chunks })),
              function Ok (Stream_done { bytes; chunks }) -> Some (bytes, chunks) | _ -> None);
            Case (9, t4 str u32 u32 (list str),
              (fun (doc, primitives, collapsed, conflicts) ->
                Ok (Applied { doc; primitives; collapsed; conflicts })),
              function
              | Ok (Applied { doc; primitives; collapsed; conflicts }) ->
                Some (doc, primitives, collapsed, conflicts)
              | _ -> None);
            Case (10, t5 str u32 u32 u32 u32,
              (fun (doc, primitives, collapsed, elements, generation) ->
                Ok (Committed { doc; primitives; collapsed; elements; generation })),
              function
              | Ok (Committed { doc; primitives; collapsed; elements; generation }) ->
                Some (doc, primitives, collapsed, elements, generation)
              | _ -> None);
            Case (11, t5 str str u32 u32 (flag "redefined"),
              (fun (name, base, depth, generation, redefined) ->
                Ok (View_defined { name; base; depth; generation; redefined })),
              function
              | Ok (View_defined { name; base; depth; generation; redefined }) ->
                Some (name, base, depth, generation, redefined)
              | _ -> None);
            Case (12, str, (fun name -> Ok (View_undefined { name })),
              function Ok (View_undefined { name }) -> Some name | _ -> None);
            Case (13,
              list
                (map
                   (fun (v_name, v_base, v_depth, v_generation) ->
                     { v_name; v_base; v_depth; v_generation })
                   (fun { v_name; v_base; v_depth; v_generation } ->
                     (v_name, v_base, v_depth, v_generation))
                   (t4 str str u32 u32)),
              (fun views -> Ok (View_list views)),
              function Ok (View_list views) -> Some views | _ -> None);
            Case (14, t5 str u32 (flag "reloaded") u32 str,
              (fun (name, elements, reloaded, generation, s) ->
                Ok (Doc_loaded { name; elements; reloaded; generation; schema = Some s })),
              function
              | Ok (Doc_loaded { name; elements; reloaded; generation; schema = Some s }) ->
                Some (name, elements, reloaded, generation, s)
              | _ -> None) ])

  let encode c v =
    let b = Buffer.create 128 in
    c.put b v;
    Buffer.contents b

  let decode_with get s =
    let c = { s; pos = 0 } in
    match get c with
    | v ->
      if c.pos <> String.length s then
        Error (Printf.sprintf "%d trailing bytes after payload" (String.length s - c.pos))
      else Ok v
    | exception Malformed msg -> Error msg

  let encode_request = encode request
  let decode_request = decode_with request.get
  let encode_response = encode response
  let decode_response = decode_with response.get

  let string_prefix_size = 5

  let string_response tag =
    if tag = tree_tag then Some (fun s -> Service.Ok (Service.Tree s))
    else if tag = stats_tag then Some (fun s -> Service.Ok (Service.Stats_dump s))
    else None

  (* ---- streamed transforms ----

     A streamed transform is NOT a [Service.request] constructor: the
     service's request type stays pure data shared with the line
     protocol, while streaming exists only where there is somewhere for
     the chunks to go.  On the wire it has two payload tags, valid only
     at the top level of a Request frame — never inside a batch: 7, a
     stored document's result stream under a named engine, and 16, a
     streamed ingest of a stored document (source byte 1) or a
     server-side file (2) with the tier left to the service.  Both
     decode to one [Service.stream_request] and get the same reply:
     Stream_begin / Stream_chunk* / Stream_end or Stream_error. *)

  (* A sink flush may overshoot the chunk size by one event; half a
     frame leaves room for that within the peer's frame limit. *)
  let max_chunk_size = default_max_frame / 2

  type stream_request = {
    doc : string;
    engine : Core.Engine.algo;
    query : string;
    chunk_size : int;
  }

  type ingest_source = Ingest_doc of string | Ingest_file of string

  type ingest_request = {
    source : ingest_source;
    query : string;
    chunk_size : int;
  }

  let chunk_size =
    { u32 with
      get =
        (fun c ->
          let n = u32.get c in
          if n = 0 then malformed "stream chunk_size must be positive";
          if n > max_chunk_size then
            malformed "stream chunk_size %d exceeds the maximum %d" n max_chunk_size;
          n) }

  let stream_cases =
    let open Service in
    let from =
      union (Printf.sprintf "unknown ingest source %d")
        [ Case (1, str, (fun d -> From_doc d), function From_doc d -> Some d | _ -> None);
          Case (2, str, (fun p -> From_file p), function From_file p -> Some p | _ -> None) ]
    in
    [ Case (7, t4 str engine str chunk_size,
        (fun (doc, e, query, chunk_size) ->
          { source = From_doc doc; engine = Some e; query; chunk_size }),
        function
        | { source = From_doc doc; engine = Some e; query; chunk_size } ->
          Some (doc, e, query, chunk_size)
        | _ -> None);
      Case (16, t3 from str chunk_size,
        (fun (source, query, chunk_size) -> { source; engine = None; query; chunk_size }),
        function
        | { source; engine = None; query; chunk_size } -> Some (source, query, chunk_size)
        | _ -> None) ]

  (* A Request-frame payload: a plain request or either stream tag *)
  let incoming =
    let lift inj proj (Case (tag, c, i, p)) =
      Case (tag, c, (fun a -> inj (i a)), fun v -> Option.bind (proj v) p)
    in
    union unknown_request
      (List.map (lift (fun r -> Plain r) (function Plain r -> Some r | _ -> None))
         (request_cases request)
      @ List.map (lift (fun s -> Stream s) (function Stream s -> Some s | _ -> None)) stream_cases)

  let encode_stream sr = encode incoming (Stream sr)

  let of_ingest_request ({ source; query; chunk_size } : ingest_request) =
    let source =
      match source with Ingest_doc d -> Service.From_doc d | Ingest_file p -> Service.From_file p
    in
    { Service.source; engine = None; query; chunk_size }

  let decode_incoming ~version:_ s = decode_with incoming.get s

  (* ---- invalidation notices ----

     Server-push frames on the reserved id-0 notice channel: a stored
     document was unloaded, replaced by a reload, committed, or lost its
     schema binding at a commit.  Sent to every connection.  The reason
     is a wire-local type (not {!Doc_store.reason}): [Schema_dropped] is
     an extra notice riding on a commit event, not a store lifecycle
     transition of its own. *)

  type notice_reason = Unloaded | Replaced | Committed | Schema_dropped

  type notice = {
    doc : string;
    reason : notice_reason;
    generation : int;  (** of the new binding for [Replaced], of the
                           removed one for [Unloaded] *)
  }

  let reason_of_store = function
    | Doc_store.Unloaded -> Unloaded
    | Doc_store.Replaced -> Replaced
    | Doc_store.Committed -> Committed

  let notice_of_event ev =
    {
      doc = ev.Doc_store.name;
      reason = reason_of_store ev.Doc_store.reason;
      generation = ev.Doc_store.generation;
    }

  (* A commit that dropped the document's schema binding yields two
     notices: the usual [Committed] (cache invalidation) plus a
     [Schema_dropped] so operators see the conformance loss. *)
  let notices_of_event ev =
    let base = notice_of_event ev in
    if ev.Doc_store.schema_dropped then [ base; { base with reason = Schema_dropped } ]
    else [ base ]

  (* the reason byte, then the document and generation *)
  let notice =
    map
      (fun (reason, doc, generation) -> { doc; reason; generation })
      (fun { doc; reason; generation } -> (reason, doc, generation))
      (t3
         (enum (Printf.sprintf "unknown notice reason %d")
            [ (1, Unloaded); (2, Replaced); (3, Committed); (4, Schema_dropped) ])
         str u32)

  let encode_notice = encode notice
  let decode_notice = decode_with notice.get

  let render_notice { doc; reason; generation } =
    Printf.sprintf "NOTICE %s %s generation=%d"
      (match reason with
      | Unloaded -> "unloaded"
      | Replaced -> "replaced"
      | Committed -> "committed"
      | Schema_dropped -> "schema-dropped")
      doc generation

  (* ---- frame builders: every frame carries [protocol_version] ---- *)

  let frame_head ~kind ~id length =
    Bytes.unsafe_to_string (encode_header { version = protocol_version; kind; id; length })

  let frame ~kind ~id payload = frame_head ~kind ~id (String.length payload) ^ payload
  let request_frame ~id req = frame ~kind:Request ~id (encode_request req)

  let notice_id = 0L
  let notice_frame n = frame ~kind:Notice ~id:notice_id (encode_notice n)

  (* A Tree or Stats_dump reply's frame is a head — the header, tag byte
     and length — and then the string's bytes, so it is built, or
     written, around the string without re-encoding it. *)
  let string_head_size = header_size + string_prefix_size

  let set_string_head b ~id tag n =
    set_header b
      { version = protocol_version; kind = Response; id; length = string_prefix_size + n };
    Bytes.set_uint8 b header_size tag;
    Bytes.set_int32_be b (header_size + 1) (Int32.of_int n)

  let string_frame ~id tag s =
    let n = String.length s in
    let b = Bytes.create (string_head_size + n) in
    set_string_head b ~id tag n;
    Bytes.blit_string s 0 b string_head_size n;
    Bytes.unsafe_to_string b

  let response_frame ~id resp =
    match resp with
    | Service.Ok (Service.Tree s) -> string_frame ~id tree_tag s
    | Service.Ok (Service.Stats_dump s) -> string_frame ~id stats_tag s
    | resp -> frame ~kind:Response ~id (encode_response resp)

  let tree_head ~id n =
    let b = Bytes.create string_head_size in
    set_string_head b ~id tree_tag n;
    Bytes.unsafe_to_string b

  let stream_frame ~id sr = frame ~kind:Request ~id (encode_stream sr)

  let stream_request_frame ~id ({ doc; engine; query; chunk_size } : stream_request) =
    stream_frame ~id
      { Service.source = Service.From_doc doc; engine = Some engine; query; chunk_size }

  let ingest_request_frame ~id ir = stream_frame ~id (of_ingest_request ir)
  let stream_begin_frame ~id = frame ~kind:Stream_begin ~id ""
  let stream_chunk_head ~id n = frame_head ~kind:Stream_chunk ~id n
  let stream_chunk_frame ~id chunk = stream_chunk_head ~id (String.length chunk) ^ chunk

  let stream_end_frame ~id ~bytes ~chunks =
    frame ~kind:Stream_end ~id (encode totals (bytes, chunks))

  let decode_stream_end = decode_with totals.get

  let stream_error_frame ~id ~code message =
    frame ~kind:Stream_error ~id (encode error (code, message))

  let decode_stream_error = decode_with error.get
end
