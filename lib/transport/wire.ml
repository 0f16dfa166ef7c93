open Xut_service

type incoming = Plain of Service.request | Stream of Service.stream_request

module Line = struct
  let split2 s =
    match String.index_opt s ' ' with
    | None -> (s, "")
    | Some i ->
      (String.sub s 0 i, String.trim (String.sub s (i + 1) (String.length s - i - 1)))

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
         TRANSFORM VIEW <name> <engine> <query>
         The literal keyword VIEW claims the first word; the DOC keyword
         is the explicit escape hatch, so a document literally named
         "VIEW" (or "DOC") stays addressable: TRANSFORM DOC VIEW ... *)
      let name, rest' = split2 rest in
      let target, rest' =
        match name with
        | "VIEW" -> (
          match split2 rest' with
          | vname, rest'' when vname <> "" -> (Some (Service.View vname), rest'')
          | _ -> (None, rest'))
        | "DOC" -> (
          match split2 rest' with
          | dname, rest'' when dname <> "" -> (Some (Service.Doc dname), rest'')
          | _ -> (None, rest'))
        | "" -> (None, rest')
        | name -> (Some (Service.Doc name), rest')
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
      let name, rest' = split2 rest in
      let source, rest' =
        match name with
        | "FILE" -> (
          match split2 rest' with
          | path, rest'' when path <> "" -> (Some (Service.From_file path), rest'')
          | _ -> (None, rest'))
        | "DOC" -> (
          match split2 rest' with
          | dname, rest'' when dname <> "" -> (Some (Service.From_doc dname), rest'')
          | _ -> (None, rest'))
        | "" -> (None, rest')
        | name -> (Some (Service.From_doc name), rest')
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

  let kind_byte = function
    | Request -> '\001'
    | Response -> '\002'
    | Stream_begin -> '\003'
    | Stream_chunk -> '\004'
    | Stream_end -> '\005'
    | Stream_error -> '\006'
    | Notice -> '\007'

  let kind_of_byte = function
    | '\001' -> Some Request
    | '\002' -> Some Response
    | '\003' -> Some Stream_begin
    | '\004' -> Some Stream_chunk
    | '\005' -> Some Stream_end
    | '\006' -> Some Stream_error
    | '\007' -> Some Notice
    | _ -> None

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

  (* ---- payload encoding: tag byte + length-prefixed fields ---- *)

  let put_u8 b n = Buffer.add_char b (Char.chr (n land 0xff))
  let put_u32 b n = Buffer.add_int32_be b (Int32.of_int n)

  let put_str b s =
    put_u32 b (String.length s);
    Buffer.add_string b s

  (* the response tags whose payload is one length-prefixed string, so
     a frame can be written, and read, around the string itself *)
  let tree_tag = 3
  let stats_tag = 5

  let rec put_request b = function
    | Service.Load { name; file; schema = None } ->
      put_u8 b 1;
      put_str b name;
      put_str b file
    | Service.Load { name; file; schema = Some s } ->
      put_u8 b 15;
      put_str b name;
      put_str b file;
      put_str b s
    | Service.Unload { name } ->
      put_u8 b 2;
      put_str b name
    | Service.Transform { target; engine; query } ->
      let tag, name = match target with Service.Doc d -> (3, d) | Service.View v -> (10, v) in
      put_u8 b tag;
      put_str b name;
      put_str b (Core.Engine.name engine);
      put_str b query
    | Service.Count { target; engine; query } ->
      let tag, name = match target with Service.Doc d -> (4, d) | Service.View v -> (11, v) in
      put_u8 b tag;
      put_str b name;
      put_str b (Core.Engine.name engine);
      put_str b query
    | Service.Stats -> put_u8 b 5
    | Service.Batch reqs ->
      put_u8 b 6;
      put_u32 b (List.length reqs);
      List.iter (put_request b) reqs
    (* tag 7 is the stream request, which is not a [Service.request] *)
    | Service.Apply { doc; query } ->
      put_u8 b 8;
      put_str b doc;
      put_str b query
    | Service.Commit { doc; query } ->
      put_u8 b 9;
      put_str b doc;
      put_str b query
    (* tags 10/11 are the view-addressed Transform/Count above *)
    | Service.Defview { name; query } ->
      put_u8 b 12;
      put_str b name;
      put_str b query
    | Service.Undefview { name } ->
      put_u8 b 13;
      put_str b name
    | Service.Listviews -> put_u8 b 14
  (* tag 15 is the schema-carrying Load above *)

  let err_code_byte = function
    | Service.Unknown_document -> 1
    | Service.Query_parse_error -> 2
    | Service.Eval_error -> 3
    | Service.Overloaded -> 4
    | Service.Bad_request -> 5
    | Service.Conflict -> 6
    | Service.View_compose_error -> 7
    | Service.Statically_empty -> 8

  let err_code_of_byte = function
    | 1 -> Some Service.Unknown_document
    | 2 -> Some Service.Query_parse_error
    | 3 -> Some Service.Eval_error
    | 4 -> Some Service.Overloaded
    | 5 -> Some Service.Bad_request
    | 6 -> Some Service.Conflict
    | 7 -> Some Service.View_compose_error
    | 8 -> Some Service.Statically_empty
    | _ -> None

  let rec put_response b = function
    | Service.Ok (Service.Doc_loaded { name; elements; reloaded; generation; schema = None })
      ->
      put_u8 b 1;
      put_str b name;
      put_u32 b elements;
      put_u8 b (if reloaded then 1 else 0);
      put_u32 b generation
    | Service.Ok
        (Service.Doc_loaded { name; elements; reloaded; generation; schema = Some s }) ->
      put_u8 b 14;
      put_str b name;
      put_u32 b elements;
      put_u8 b (if reloaded then 1 else 0);
      put_u32 b generation;
      put_str b s
    | Service.Ok (Service.Doc_unloaded { name }) ->
      put_u8 b 2;
      put_str b name
    | Service.Ok (Service.Tree s) ->
      put_u8 b tree_tag;
      put_str b s
    | Service.Ok (Service.Element_count n) ->
      put_u8 b 4;
      put_u32 b n
    | Service.Ok (Service.Stats_dump s) ->
      put_u8 b stats_tag;
      put_str b s
    | Service.Error { code; message } ->
      put_u8 b 6;
      put_u8 b (err_code_byte code);
      put_str b message
    | Service.Ok (Service.Batch_results rs) ->
      put_u8 b 7;
      put_u32 b (List.length rs);
      List.iter (put_response b) rs
    | Service.Ok (Service.Stream_done { bytes; chunks }) ->
      put_u8 b 8;
      put_u32 b bytes;
      put_u32 b chunks
    | Service.Ok (Service.Applied { doc; primitives; collapsed; conflicts }) ->
      put_u8 b 9;
      put_str b doc;
      put_u32 b primitives;
      put_u32 b collapsed;
      put_u32 b (List.length conflicts);
      List.iter (put_str b) conflicts
    | Service.Ok (Service.Committed { doc; primitives; collapsed; elements; generation }) ->
      put_u8 b 10;
      put_str b doc;
      put_u32 b primitives;
      put_u32 b collapsed;
      put_u32 b elements;
      put_u32 b generation
    | Service.Ok (Service.View_defined { name; base; depth; generation; redefined }) ->
      put_u8 b 11;
      put_str b name;
      put_str b base;
      put_u32 b depth;
      put_u32 b generation;
      put_u8 b (if redefined then 1 else 0)
    | Service.Ok (Service.View_undefined { name }) ->
      put_u8 b 12;
      put_str b name
    | Service.Ok (Service.View_list views) ->
      put_u8 b 13;
      put_u32 b (List.length views);
      List.iter
        (fun { Service.v_name; v_base; v_depth; v_generation } ->
          put_str b v_name;
          put_str b v_base;
          put_u32 b v_depth;
          put_u32 b v_generation)
        views

  let encode_request req =
    let b = Buffer.create 128 in
    put_request b req;
    Buffer.contents b

  let encode_response resp =
    let b = Buffer.create 128 in
    put_response b resp;
    Buffer.contents b

  (* ---- payload decoding: a cursor that raises on malformed input,
     caught at the [decode_*] boundary ---- *)

  exception Malformed of string

  type cursor = { s : string; mutable pos : int }

  let need c n =
    if n < 0 || c.pos + n > String.length c.s then raise (Malformed "truncated payload")

  let get_u8 c =
    need c 1;
    let v = Char.code c.s.[c.pos] in
    c.pos <- c.pos + 1;
    v

  let get_u32 c =
    need c 4;
    let v = Int32.to_int (String.get_int32_be c.s c.pos) in
    c.pos <- c.pos + 4;
    if v < 0 then raise (Malformed "negative length");
    v

  let get_str c =
    let n = get_u32 c in
    need c n;
    let s = String.sub c.s c.pos n in
    c.pos <- c.pos + n;
    s

  let get_engine c =
    let s = get_str c in
    match Core.Engine.of_string s with
    | Some e -> e
    | None -> raise (Malformed (Printf.sprintf "unknown engine %S" s))

  (* Every list element consumes at least one byte, so bounding the
     count by the remaining bytes rejects absurd lengths before any
     allocation. *)
  let get_count c =
    let n = get_u32 c in
    need c n;
    n

  let rec get_request c =
    match get_u8 c with
    | 1 ->
      let name = get_str c in
      let file = get_str c in
      Service.Load { name; file; schema = None }
    | 2 -> Service.Unload { name = get_str c }
    | (3 | 4 | 10 | 11) as tag ->
      let name = get_str c in
      let engine = get_engine c in
      let query = get_str c in
      let target = if tag >= 10 then Service.View name else Service.Doc name in
      if tag = 3 || tag = 10 then Service.Transform { target; engine; query }
      else Service.Count { target; engine; query }
    | 5 -> Service.Stats
    | 6 ->
      let n = get_count c in
      Service.Batch (List.init n (fun _ -> get_request c))
    | 8 ->
      let doc = get_str c in
      let query = get_str c in
      Service.Apply { doc; query }
    | 9 ->
      let doc = get_str c in
      let query = get_str c in
      Service.Commit { doc; query }
    | 12 ->
      let name = get_str c in
      let query = get_str c in
      Service.Defview { name; query }
    | 13 -> Service.Undefview { name = get_str c }
    | 14 -> Service.Listviews
    | 15 ->
      let name = get_str c in
      let file = get_str c in
      let schema = get_str c in
      Service.Load { name; file; schema = Some schema }
    | t -> raise (Malformed (Printf.sprintf "unknown request tag %d" t))

  let rec get_response c =
    match get_u8 c with
    | 1 ->
      let name = get_str c in
      let elements = get_u32 c in
      let reloaded =
        match get_u8 c with
        | 0 -> false
        | 1 -> true
        | b -> raise (Malformed (Printf.sprintf "bad reloaded flag %d" b))
      in
      let generation = get_u32 c in
      Service.Ok (Service.Doc_loaded { name; elements; reloaded; generation; schema = None })
    | 2 -> Service.Ok (Service.Doc_unloaded { name = get_str c })
    | 3 -> Service.Ok (Service.Tree (get_str c))
    | 4 -> Service.Ok (Service.Element_count (get_u32 c))
    | 5 -> Service.Ok (Service.Stats_dump (get_str c))
    | 6 -> begin
      let code_byte = get_u8 c in
      match err_code_of_byte code_byte with
      | None -> raise (Malformed (Printf.sprintf "unknown error code %d" code_byte))
      | Some code -> Service.Error { code; message = get_str c }
    end
    | 7 ->
      let n = get_count c in
      Service.Ok (Service.Batch_results (List.init n (fun _ -> get_response c)))
    | 8 ->
      let bytes = get_u32 c in
      let chunks = get_u32 c in
      Service.Ok (Service.Stream_done { bytes; chunks })
    | 9 ->
      let doc = get_str c in
      let primitives = get_u32 c in
      let collapsed = get_u32 c in
      let n = get_count c in
      let conflicts = List.init n (fun _ -> get_str c) in
      Service.Ok (Service.Applied { doc; primitives; collapsed; conflicts })
    | 10 ->
      let doc = get_str c in
      let primitives = get_u32 c in
      let collapsed = get_u32 c in
      let elements = get_u32 c in
      let generation = get_u32 c in
      Service.Ok (Service.Committed { doc; primitives; collapsed; elements; generation })
    | 11 ->
      let name = get_str c in
      let base = get_str c in
      let depth = get_u32 c in
      let generation = get_u32 c in
      let redefined =
        match get_u8 c with
        | 0 -> false
        | 1 -> true
        | b -> raise (Malformed (Printf.sprintf "bad redefined flag %d" b))
      in
      Service.Ok (Service.View_defined { name; base; depth; generation; redefined })
    | 12 -> Service.Ok (Service.View_undefined { name = get_str c })
    | 13 ->
      let n = get_count c in
      let views =
        List.init n (fun _ ->
            let v_name = get_str c in
            let v_base = get_str c in
            let v_depth = get_u32 c in
            let v_generation = get_u32 c in
            { Service.v_name; v_base; v_depth; v_generation })
      in
      Service.Ok (Service.View_list views)
    | 14 ->
      let name = get_str c in
      let elements = get_u32 c in
      let reloaded =
        match get_u8 c with
        | 0 -> false
        | 1 -> true
        | b -> raise (Malformed (Printf.sprintf "bad reloaded flag %d" b))
      in
      let generation = get_u32 c in
      let schema = get_str c in
      Service.Ok
        (Service.Doc_loaded { name; elements; reloaded; generation; schema = Some schema })
    | t -> raise (Malformed (Printf.sprintf "unknown response tag %d" t))

  let decode_with get s =
    let c = { s; pos = 0 } in
    match get c with
    | v ->
      if c.pos <> String.length s then
        Error (Printf.sprintf "%d trailing bytes after payload" (String.length s - c.pos))
      else Ok v
    | exception Malformed msg -> Error msg

  let decode_request s = decode_with get_request s
  let decode_response s = decode_with get_response s

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

  let encode_stream ({ source; engine; query; chunk_size } : Service.stream_request) =
    let b = Buffer.create 128 in
    (match (source, engine) with
    | Service.From_doc doc, Some engine ->
      put_u8 b 7;
      put_str b doc;
      put_str b (Core.Engine.name engine)
    | Service.From_doc doc, None ->
      put_u8 b 16;
      put_u8 b 1;
      put_str b doc
    | Service.From_file path, None ->
      put_u8 b 16;
      put_u8 b 2;
      put_str b path
    | Service.From_file _, Some _ ->
      invalid_arg "Wire.Binary.encode_stream: an engine stream needs a stored document");
    put_str b query;
    put_u32 b chunk_size;
    Buffer.contents b

  let get_stream c : Service.stream_request =
    let source, engine =
      match get_u8 c with
      | 7 ->
        let doc = get_str c in
        (Service.From_doc doc, Some (get_engine c))
      | 16 -> begin
        match get_u8 c with
        | 1 -> (Service.From_doc (get_str c), None)
        | 2 -> (Service.From_file (get_str c), None)
        | b -> raise (Malformed (Printf.sprintf "unknown ingest source %d" b))
      end
      | t -> raise (Malformed (Printf.sprintf "not a stream request (tag %d)" t))
    in
    let query = get_str c in
    let chunk_size = get_u32 c in
    if chunk_size = 0 then raise (Malformed "stream chunk_size must be positive");
    if chunk_size > max_chunk_size then
      raise
        (Malformed
           (Printf.sprintf "stream chunk_size %d exceeds the maximum %d" chunk_size
              max_chunk_size));
    { source; engine; query; chunk_size }

  let of_ingest_request ({ source; query; chunk_size } : ingest_request) =
    let source =
      match source with Ingest_doc d -> Service.From_doc d | Ingest_file p -> Service.From_file p
    in
    { Service.source; engine = None; query; chunk_size }

  let decode_incoming ~version:_ s =
    match if s = "" then 0 else Char.code s.[0] with
    | 7 | 16 -> Result.map (fun sr -> Stream sr) (decode_with get_stream s)
    | _ -> Result.map (fun r -> Plain r) (decode_with get_request s)

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

  let reason_byte = function
    | Unloaded -> 1
    | Replaced -> 2
    | Committed -> 3
    | Schema_dropped -> 4

  let reason_of_byte = function
    | 1 -> Some Unloaded
    | 2 -> Some Replaced
    | 3 -> Some Committed
    | 4 -> Some Schema_dropped
    | _ -> None

  let encode_notice { doc; reason; generation } =
    let b = Buffer.create 32 in
    put_u8 b (reason_byte reason);
    put_str b doc;
    put_u32 b generation;
    Buffer.contents b

  let decode_notice s =
    decode_with
      (fun c ->
        let reason_b = get_u8 c in
        match reason_of_byte reason_b with
        | None -> raise (Malformed (Printf.sprintf "unknown notice reason %d" reason_b))
        | Some reason ->
          let doc = get_str c in
          let generation = get_u32 c in
          { doc; reason; generation })
      s

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

  (* A Tree or Stats_dump reply is split around its string: the header,
     tag byte and length go in the head, and the body is the string
     itself, so the server writes the frame without re-encoding it.
     Any other response is all head. *)
  let string_response_head ~id tag s =
    let n = String.length s in
    let b = Bytes.create (header_size + string_prefix_size) in
    set_header b
      { version = protocol_version; kind = Response; id; length = string_prefix_size + n };
    Bytes.set_uint8 b header_size tag;
    Bytes.set_int32_be b (header_size + 1) (Int32.of_int n);
    Bytes.unsafe_to_string b

  let response_parts ~id resp =
    match resp with
    | Service.Ok (Service.Tree s) -> (string_response_head ~id tree_tag s, s)
    | Service.Ok (Service.Stats_dump s) -> (string_response_head ~id stats_tag s, s)
    | resp -> (frame ~kind:Response ~id (encode_response resp), "")

  let response_frame ~id resp =
    match response_parts ~id resp with
    | head, "" -> head
    | head, body -> head ^ body

  let stream_frame ~id sr = frame ~kind:Request ~id (encode_stream sr)

  let stream_request_frame ~id ({ doc; engine; query; chunk_size } : stream_request) =
    stream_frame ~id
      { Service.source = Service.From_doc doc; engine = Some engine; query; chunk_size }

  let ingest_request_frame ~id ir = stream_frame ~id (of_ingest_request ir)
  let stream_begin_frame ~id = frame ~kind:Stream_begin ~id ""
  let stream_chunk_head ~id chunk = frame_head ~kind:Stream_chunk ~id (String.length chunk)
  let stream_chunk_frame ~id chunk = stream_chunk_head ~id chunk ^ chunk

  let stream_end_frame ~id ~bytes ~chunks =
    let b = Buffer.create 8 in
    put_u32 b bytes;
    put_u32 b chunks;
    frame ~kind:Stream_end ~id (Buffer.contents b)

  let decode_stream_end s =
    decode_with
      (fun c ->
        let bytes = get_u32 c in
        let chunks = get_u32 c in
        (bytes, chunks))
      s

  let stream_error_frame ~id ~code message =
    let b = Buffer.create 32 in
    put_u8 b (err_code_byte code);
    put_str b message;
    frame ~kind:Stream_error ~id (Buffer.contents b)

  let decode_stream_error s =
    decode_with
      (fun c ->
        let code_byte = get_u8 c in
        match err_code_of_byte code_byte with
        | None -> raise (Malformed (Printf.sprintf "unknown error code %d" code_byte))
        | Some code -> (code, get_str c))
      s
end
