(* xut — command-line front end for the transform-query engines.

   Subcommands:
     transform    evaluate a transform query against a document
     compose      compose a transform query with a user query
     rewrite      print the standard-XQuery rewriting (Fig. 2)
     query        evaluate an XQuery (subset) against a document
     xmark        generate an XMark-style document
     serve        request loop over the xut_service layer: stdin lines, or the
                  framed binary protocol on a Unix socket / TCP port
     client       send framed requests to a running socket server

   Serving performance is measured by perfbench (perfbench/README.md). *)

open Cmdliner
open Core

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let load_doc path = Xut_xml.Dom.parse_file path

(* ---------------- shared arguments ---------------- *)

let doc_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "d"; "doc" ] ~docv:"FILE" ~doc:"Input XML document.")

let engine_arg =
  let parse s =
    match Engine.of_string s with
    | Some a -> Ok a
    | None ->
      Error (`Msg (Printf.sprintf "unknown engine %S (naive|gentop|td-bu|sax|copy|reference)" s))
  in
  let print ppf a = Format.pp_print_string ppf (Engine.name a) in
  Arg.(
    value
    & opt (conv (parse, print)) Engine.Gentop
    & info [ "e"; "engine" ] ~docv:"ENGINE"
        ~doc:"Evaluation engine: naive, gentop, td-bu, sax, copy or reference.")

let indent_arg =
  Arg.(value & flag & info [ "pretty" ] ~doc:"Indent the output document.")

let query_pos =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"QUERY" ~doc:"The query text, or @FILE to read it from a file.")

let read_query q = if String.length q > 0 && q.[0] = '@' then read_file (String.sub q 1 (String.length q - 1)) else q

let print_doc ~pretty root =
  print_endline
    (if pretty then Xut_xml.Serialize.element_to_string ~indent:2 root
     else Xut_xml.Serialize.element_to_string root)

(* ---------------- transform ---------------- *)

(* " name=delta" for every process-wide counter that moved since
   [before], a reading of [Counter.values]. *)
let counters_moved before =
  String.concat ""
    (List.filter_map
       (fun (name, v) ->
         let d = v - Option.value ~default:0 (List.assoc_opt name before) in
         if d = 0 then None else Some (Printf.sprintf " %s=%d" name d))
       (Xut_xml.Counter.values ()))

let transform_cmd =
  let run query doc engine pretty stats stream =
    let q = Transform_parser.parse (read_query query) in
    if stream then begin
      (* Constant-memory path: SAX parse straight through the selecting
         NFA into the chunked serializer, never building a tree.  The
         tier is the service's TRANSFORM-STREAM FILE one: the
         single-parse driver, fused for a qualifier-free plan (no region
         opens) and buffered otherwise (one parse, re-reading the bytes
         of each subtree a qualifier leaves undecided), and a GENTOP walk
         of the parsed tree for a context qualifier or a FIFO.  Output is
         byte-identical either way. *)
      if pretty then begin
        Printf.eprintf "xut transform: --stream does not indent; drop --pretty\n";
        exit 2
      end;
      let update = q.Transform_ast.update in
      let nfa = Xut_automata.Selecting_nfa.of_path (Transform_ast.path update) in
      let c0 = Xut_xml.Counter.values () in
      let t0 = Unix.gettimeofday () in
      let w0 = Gc.minor_words () in
      let sink = Xut_xml.Serialize.Sink.create print_string in
      let events = Xut_xml.Serialize.Sink.event sink in
      let input = Xut_xml.Reader.file doc in
      let rs =
        try
          match Sax_transform.tier nfa input with
          | Sax_transform.Streamed ->
            (* the parses copy what the run only copies straight into
               the sink *)
            Some
              (Sax_transform.run_buffered ~copy_to:(Xut_xml.Serialize.Sink.writer sink) nfa update
                 ~input ~sink:events)
          | Sax_transform.Materialized ->
            Xut_xml.Serialize.Sink.element sink (Top_down.run nfa update (load_doc doc));
            None
        with e ->
          Xut_xml.Serialize.Sink.abort sink;
          raise e
      in
      ignore (Xut_xml.Serialize.Sink.close sink);
      print_newline ();
      let dt = Unix.gettimeofday () -. t0 in
      let alloc_kw = (Gc.minor_words () -. w0) /. 1000. in
      (if stats then
         match rs with
         | Some rs ->
           Format.eprintf
             "engine=%s time=%.4fs alloc_kw=%.1f depth=%d truth=%d elements=%d regions=%d \
              parses=%d reread=%d%s@."
             (if Sax_transform.one_pass nfa then "fusedSAX" else "bufferedSAX")
             dt alloc_kw rs.Sax_transform.max_stack_depth rs.Sax_transform.truth_entries
             rs.Sax_transform.elements_seen rs.Sax_transform.regions rs.Sax_transform.parses
             rs.Sax_transform.reread_bytes (counters_moved c0)
         | None -> Format.eprintf "engine=gentop time=%.4fs%s@." dt (counters_moved c0));
      0
    end
    else begin
      let root = load_doc doc in
      let c0 = Xut_xml.Counter.values () in
      let t0 = Unix.gettimeofday () in
      let out = Engine.run engine q ~doc:root in
      let dt = Unix.gettimeofday () -. t0 in
      print_doc ~pretty out;
      if stats then
        Format.eprintf "engine=%s time=%.4fs%s@." (Engine.name engine) dt (counters_moved c0);
      0
    end
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print timing and the counters that moved to stderr.") in
  let stream =
    Arg.(value & flag
         & info [ "stream" ]
             ~doc:"Constant-memory streaming: drive the SAX parse of the document straight \
                   through the compiled plan into the serializer, never materializing a tree \
                   (one parse, holding only the subtrees a qualifier leaves undecided; \
                   a context qualifier walks a parsed tree; ignores --engine).")
  in
  Cmd.v
    (Cmd.info "transform" ~doc:"Evaluate a transform query (update syntax) without touching the store.")
    Term.(const run $ query_pos $ doc_arg $ engine_arg $ indent_arg $ stats $ stream)

(* One line per item of a query answer: nodes serialized, atoms as text. *)
let print_value v =
  List.iter
    (fun item ->
      print_endline
        (match item with
        | Xut_xquery.Xq_value.N n -> Xut_xml.Serialize.to_string n
        | Xut_xquery.Xq_value.D e -> Xut_xml.Serialize.element_to_string e
        | other -> Xut_xquery.Xq_value.string_of_item other))
    v

(* ---------------- compose ---------------- *)

let compose_cmd =
  let run tq uq doc_opt show naive_flag =
    let q = Transform_parser.parse (read_query tq) in
    let user = User_query.parse (read_query uq) in
    (match Composition.compose q.Transform_ast.update user with
    | Ok composed ->
      if show then begin
        print_endline "-- composed query (xut:* are runtime topDown helpers) --";
        print_endline (Composition.to_string composed)
      end;
      Option.iter
        (fun path ->
          let root = load_doc path in
          print_value
            (if naive_flag then Composition.naive q.Transform_ast.update user ~doc:root
             else Composition.run_composed composed ~doc:root))
        doc_opt
    | Error reason ->
      Printf.eprintf "not statically composable (%s); falling back to naive composition\n" reason;
      Option.iter
        (fun path -> print_value (Composition.naive q.Transform_ast.update user ~doc:(load_doc path)))
        doc_opt);
    0
  in
  let tq =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRANSFORM" ~doc:"Transform query (or @FILE).")
  in
  let uq =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"USER" ~doc:"User query (or @FILE).")
  in
  let doc_opt =
    Arg.(value & opt (some file) None & info [ "d"; "doc" ] ~docv:"FILE" ~doc:"Evaluate against this document.")
  in
  let show = Arg.(value & flag & info [ "show" ] ~doc:"Print the composed query.") in
  let naive_flag =
    Arg.(value & flag & info [ "naive" ] ~doc:"Use the Naive Composition method instead.")
  in
  Cmd.v
    (Cmd.info "compose" ~doc:"Compose a user query with a transform query (Section 4).")
    Term.(const run $ tq $ uq $ doc_opt $ show $ naive_flag)

(* ---------------- rewrite ---------------- *)

let rewrite_cmd =
  let run query method_ =
    let q = Transform_parser.parse (read_query query) in
    (match method_ with
    | "naive" -> print_endline (Xquery_rewrite.rewrite_to_string q)
    | "gentop" -> print_endline (Xquery_compile.compile_to_string q)
    | m -> Printf.eprintf "unknown method %S (naive|gentop)\n" m);
    0
  in
  let method_ =
    Arg.(value & opt string "naive"
         & info [ "m"; "method" ] ~docv:"METHOD"
             ~doc:"Rewriting: 'naive' (Fig. 2 template) or 'gentop' (compiled automaton).")
  in
  Cmd.v
    (Cmd.info "rewrite"
       ~doc:"Print a transform query as standard XQuery (Fig. 2 template or compiled automaton).")
    Term.(const run $ query_pos $ method_)

(* ---------------- query ---------------- *)

let query_cmd =
  let run query doc =
    let root = load_doc doc in
    let env = Xut_xquery.Xq_eval.env ~context:root ~docs:[ ("doc", root) ] () in
    print_value (Xut_xquery.Xq_eval.run_query env (read_query query));
    0
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate an XQuery (engine subset) against a document.")
    Term.(const run $ query_pos $ doc_arg)

(* ---------------- xmark ---------------- *)

let xmark_cmd =
  let run factor seed output =
    Xut_xmark.Generator.to_file ~seed:(Int64.of_int seed) ~factor output;
    if output <> "-" then Printf.printf "wrote %s (factor %g)\n" output factor;
    0
  in
  let factor =
    Arg.(value & opt float 0.01 & info [ "f"; "factor" ] ~docv:"F" ~doc:"XMark scaling factor.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.") in
  let output =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Output path (\"-\" for stdout).")
  in
  Cmd.v
    (Cmd.info "xmark" ~doc:"Generate an XMark-style auction document.")
    Term.(const run $ factor $ seed $ output)

(* ---------------- serve ---------------- *)

(* One reply per request, printed on the worker as it is delivered: a
   tree or a stream chunk straight from the pooled buffer it was
   written into.  A stream's chunks are its raw payload, and its final
   reply follows on a line of its own. *)
let stdin_serve_loop svc =
  let deliver ~stream = function
    | Xut_service.Service.Tree_bytes b ->
      print_string "OK ";
      Buffer.output_buffer stdout b;
      print_newline ()
    | Xut_service.Service.Chunk b -> Buffer.output_buffer stdout b
    | Xut_service.Service.Response resp ->
      if stream then print_newline ();
      Printf.printf "%s\n%!" (Xut_transport.Wire.Line.render_response resp)
  in
  let rec loop () =
    match In_channel.input_line stdin with
    | None -> ()
    | Some line when String.trim line = "" -> loop ()
    | Some line ->
      (match Xut_transport.Wire.Line.decode_incoming line with
      | Error msg -> Printf.printf "ERR %s\n%!" msg
      | Ok work ->
        let stream = match work with Xut_service.Service.Stream _ -> true | Plain _ -> false in
        Xut_service.Service.call_lent svc work (deliver ~stream));
      loop ()
  in
  loop ()

let socket_serve_loop svc addr max_conns read_timeout max_frame =
  let config =
    {
      Xut_transport.Server.max_frame;
      max_connections = max_conns;
      read_timeout;
    }
  in
  let server = Xut_transport.Server.start ~config ~service:svc addr in
  Printf.eprintf "xut serve: listening on %s\n%!"
    (Xut_transport.Addr.to_string (Xut_transport.Server.address server));
  let stop_requested = Atomic.make false in
  let request_stop _ = Atomic.set stop_requested true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  while not (Atomic.get stop_requested) do
    Thread.delay 0.2
  done;
  Printf.eprintf "xut serve: draining and shutting down\n%!";
  Xut_transport.Server.stop server

let serve_cmd =
  let run domains socket_opt tcp_opt max_conns read_timeout max_frame_mib =
    if domains < 1 then begin
      Printf.eprintf "xut serve: need --domains >= 1\n";
      exit 2
    end;
    let addr_opt =
      match (socket_opt, tcp_opt) with
      | Some _, Some _ ->
        Printf.eprintf "xut serve: give --socket or --tcp, not both\n";
        exit 2
      | Some path, None -> Some (Xut_transport.Addr.Unix_socket path)
      | None, Some port -> Some (Xut_transport.Addr.Tcp { host = "0.0.0.0"; port })
      | None, None -> None
    in
    let svc = Xut_service.Service.create ~domains () in
    Printf.eprintf "xut serve: %d domain%s\n%!" domains (if domains = 1 then "" else "s");
    (match addr_opt with
    | Some addr ->
      socket_serve_loop svc addr max_conns read_timeout (max_frame_mib * 1024 * 1024)
    | None ->
      Printf.eprintf
        "LOAD / UNLOAD / TRANSFORM / TRANSFORM-STREAM / COUNT / APPLY / COMMIT / DEFVIEW / \
         UNDEFVIEW / LISTVIEWS / STATS on stdin\n%!";
      stdin_serve_loop svc);
    Xut_service.Service.shutdown svc;
    0
  in
  let domains =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let socket_opt =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on a Unix socket at PATH.")
  in
  let tcp_opt =
    Arg.(value & opt (some int) None
         & info [ "tcp" ] ~docv:"PORT" ~doc:"Listen on TCP port PORT (all interfaces).")
  in
  let max_conns =
    Arg.(value & opt int 64
         & info [ "max-conns" ] ~docv:"N"
             ~doc:"Connection limit; further clients get a BUSY error frame.")
  in
  let read_timeout =
    Arg.(value & opt float 30.
         & info [ "read-timeout" ] ~docv:"SECONDS"
             ~doc:"Drop a connection whose read stalls this long.")
  in
  let max_frame =
    Arg.(value & opt int 16
         & info [ "max-frame" ] ~docv:"MIB" ~doc:"Largest accepted frame payload, MiB.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve transform queries: stdin line protocol by default, or the framed binary \
             protocol on a Unix socket (--socket) / TCP port (--tcp).")
    Term.(
      const run $ domains $ socket_opt $ tcp_opt $ max_conns $ read_timeout $ max_frame)

(* ---------------- client ---------------- *)

let client_cmd =
  let run socket_opt tcp_opt batch stream chunk_size timeout notices requests =
    if batch && stream then begin
      Printf.eprintf "xut client: --batch and --stream do not combine\n";
      exit 2
    end;
    if chunk_size < 1 || chunk_size > Xut_transport.Wire.Binary.max_chunk_size then begin
      Printf.eprintf "xut client: need 1 <= --chunk-size <= %d\n"
        Xut_transport.Wire.Binary.max_chunk_size;
      exit 2
    end;
    let addr =
      match (socket_opt, tcp_opt) with
      | Some _, Some _ | None, None ->
        Printf.eprintf "xut client: give exactly one of --socket PATH or --tcp HOST:PORT\n";
        exit 2
      | Some path, None -> Xut_transport.Addr.Unix_socket path
      | None, Some spec -> begin
        match Xut_transport.Addr.parse_tcp spec with
        | Ok addr -> addr
        | Error msg ->
          Printf.eprintf "xut client: %s\n" msg;
          exit 2
      end
    in
    (* requests from the command line, or lines from stdin *)
    let lines =
      if requests <> [] then requests
      else
        let rec slurp acc =
          match In_channel.input_line stdin with
          | None -> List.rev acc
          | Some l when String.trim l = "" -> slurp acc
          | Some l -> slurp (l :: acc)
        in
        slurp []
    in
    let parsed =
      List.map
        (fun line ->
          match Xut_transport.Wire.Line.decode_incoming line with
          | Ok incoming -> incoming
          | Error msg ->
            Printf.eprintf "xut client: %s\n" msg;
            exit 2)
        lines
    in
    if parsed = [] then begin
      Printf.eprintf "xut client: nothing to send\n";
      exit 2
    end;
    (* the server pushes an id-0 notice frame to every connection
       whenever a stored document is unloaded, replaced or committed
       over; --notices prints each as it is consumed (interleaved with
       replies), and without it they are dropped *)
    let on_notice =
      if notices then
        Some
          (fun n ->
            print_endline (Xut_transport.Wire.Binary.render_notice n);
            flush stdout)
      else None
    in
    let cli =
      try Xut_transport.Client.connect ~timeout ?on_notice addr with
      | Unix.Unix_error (e, _, _) ->
        Printf.eprintf "xut client: cannot connect to %s: %s\n"
          (Xut_transport.Addr.to_string addr) (Unix.error_message e);
        exit 3
      | Xut_transport.Client.Transport_error msg ->
        Printf.eprintf "xut client: %s\n" msg;
        exit 3
    in
    let failed = ref false in
    let print_resp resp =
      (match resp with Xut_service.Service.Error _ -> failed := true | _ -> ());
      print_endline (Xut_transport.Wire.Line.render_response resp)
    in
    (* A streamed TRANSFORM (--stream) or a TRANSFORM-STREAM line writes
       raw result bytes to stdout as the chunk frames arrive, instead of
       buffering the whole document in a response frame; a completed
       payload ends with a newline, and only an error is printed. *)
    let stream_one sr =
      match
        Xut_transport.Client.stream cli { sr with Xut_service.Service.chunk_size } print_string
      with
      | Xut_service.Service.Ok (Xut_service.Service.Stream_done _) -> print_newline ()
      | resp -> print_resp resp
    in
    let run_one = function
      | Xut_transport.Wire.Stream sr -> stream_one sr
      | Xut_transport.Wire.Plain
          (Xut_service.Service.Transform { target = Xut_service.Service.Doc doc; engine; query })
        when stream ->
        stream_one
          { source = Xut_service.Service.From_doc doc; engine = Some engine; query; chunk_size }
      | Xut_transport.Wire.Plain _ when stream ->
        Printf.eprintf
          "xut client: --stream applies only to document-targeted TRANSFORM requests\n";
        failed := true
      | Xut_transport.Wire.Plain req -> print_resp (Xut_transport.Client.call cli req)
    in
    (try
       if batch then
         let plain =
           List.map
             (function
               | Xut_transport.Wire.Plain req -> req
               | Xut_transport.Wire.Stream _ ->
                 Printf.eprintf "xut client: TRANSFORM-STREAM cannot ride in a BATCH frame\n";
                 exit 2)
             parsed
         in
         List.iter print_resp (Xut_transport.Client.call_batch cli plain)
       else List.iter run_one parsed
     with Xut_transport.Client.Transport_error msg ->
       Printf.eprintf "xut client: %s\n" msg;
       Xut_transport.Client.close cli;
       exit 3);
    Xut_transport.Client.close cli;
    if !failed then 1 else 0
  in
  let socket_opt =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH" ~doc:"Connect to the Unix socket at PATH.")
  in
  let tcp_opt =
    Arg.(value & opt (some string) None
         & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Connect over TCP (HOST:PORT, or bare PORT).")
  in
  let batch =
    Arg.(value & flag
         & info [ "batch" ]
             ~doc:"Send all requests as one BATCH frame (one response frame back).")
  in
  let stream =
    Arg.(value & flag
         & info [ "stream" ]
             ~doc:"Stream TRANSFORM results: the server sends the serialized document as \
                   chunked frames written to stdout as they arrive, never holding the whole \
                   result in one frame.")
  in
  let chunk_size =
    Arg.(value & opt int Xut_service.Service.default_chunk_size
         & info [ "chunk-size" ] ~docv:"BYTES"
             ~doc:"Requested stream chunk size (with --stream or TRANSFORM-STREAM), at most \
                   8 MiB.")
  in
  let timeout =
    Arg.(value & opt float 30.
         & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Read timeout waiting for responses.")
  in
  let notices =
    Arg.(value & flag
         & info [ "notices" ]
             ~doc:"Print the server's invalidation notices: a NOTICE line whenever a stored \
                   document is unloaded, replaced or committed over while this client is \
                   connected.  Without it the client drops them.")
  in
  let requests =
    Arg.(value & pos_all string []
         & info [] ~docv:"REQUEST"
             ~doc:"Requests in the line syntax (e.g. 'STATS', 'TRANSFORM d td-bu ...', \
                   'APPLY d delete \\$a/site/regions', 'COMMIT d ...'); read from stdin when \
                   none are given.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send requests to a running xut socket server and print the replies (exit 0 when \
             all succeed, 1 on any ERR).")
    Term.(
      const run $ socket_opt $ tcp_opt $ batch $ stream $ chunk_size $ timeout $ notices
      $ requests)

let main =
  let info = Cmd.info "xut" ~version:"1.0.0" ~doc:"Querying XML with update syntax (SIGMOD 2007)." in
  Cmd.group info
    [ transform_cmd; compose_cmd; rewrite_cmd; query_cmd; xmark_cmd; serve_cmd; client_cmd ]

let () =
  (* the built-in XMark schemas are available to every subcommand
     (serve validates LOAD ... SCHEMA against the registry) *)
  Xut_xmark.Site_schema.register ();
  (* a malformed query or document is the caller's error, not an
     internal one: its message and exit code 2 *)
  exit
    (match Cmd.eval' ~catch:false main with
    | code -> code
    | exception (Transform_parser.Parse_error msg | Xut_xquery.Xq_parser.Parse_error msg) ->
      Printf.eprintf "xut: query parse error: %s\n" msg;
      2
    | exception Xut_xml.Sax.Parse_error { line; col; msg } ->
      Printf.eprintf "xut: parse error at %d:%d: %s\n" line col msg;
      2
    | exception Sys_error msg ->
      Printf.eprintf "xut: %s\n" msg;
      2
    | exception e ->
      Printf.eprintf "xut: internal error, uncaught exception:\n%s\n" (Printexc.to_string e);
      Cmd.Exit.internal_error)
