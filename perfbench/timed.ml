(* The timed run: a closed loop from one client over one Unix-socket
   connection, 2 requests in flight (1 for streams, which own the
   connection), for a fixed wall time.  Every reply is checked against
   the reference; latencies are raw client-side samples. *)

type tally = {
  mutable attempted : int;
  mutable completed : int;
  mutable error_replies : int;
  mutable busy : int;
  mutable transport_errors : int;
  mutable wrong : int;
}

let failed t = t.error_replies + t.busy + t.transport_errors + t.wrong

type result = {
  tally : tally;
  wall_s : float;
  read_ms : Report.samples;  (** every non-COMMIT request *)
  write_ms : Report.samples;
  payload_bytes : int;
  minor_words : float;
  peak_rss_mb : float;
}

let ms_since t0 = float_of_int (Spans.now_ns () - t0) /. 1e6

let run (env : Setup.env) conn reference ~seconds =
  let seq = Workload.sequence env.Setup.workload ~seed:env.Setup.seed in
  let t =
    { attempted = 0; completed = 0; error_replies = 0; busy = 0; transport_errors = 0; wrong = 0 }
  in
  let read_ms = Report.samples () and write_ms = Report.samples () in
  let payload = ref 0 in
  let collected = Reference.collector () in
  let record ~state op ?collected resp t_sent =
    let dt = ms_since t_sent in
    t.completed <- t.completed + 1;
    Report.push (if Workload.is_write op then write_ms else read_ms) dt;
    (match resp with
    | Xut_service.Service.Ok (Xut_service.Service.Tree s) ->
      payload := !payload + String.length s
    | _ -> ());
    match Reference.check reference ~state op ?collected resp with
    | Reference.Good -> ()
    | Reference.Error_reply -> t.error_replies <- t.error_replies + 1
    | Reference.Busy -> t.busy <- t.busy + 1
    | Reference.Wrong ->
      t.wrong <- t.wrong + 1;
      if t.wrong <= 5 then
        Printf.eprintf "wrong reply: %s in state %d\n%!" (Workload.op_to_string op) state
  in
  Gc.full_major ();
  ignore (Report.reset_peak_rss ());
  let gc0 = Gc.quick_stat () in
  let t0 = Setup.now () in
  let deadline = t0 +. seconds in
  let state = ref 0 in
  (try
     if List.exists Workload.is_stream (Workload.distinct env.Setup.workload) then
       while Setup.now () < deadline do
         let op = Workload.next seq in
         collected.Reference.len <- 0;
         t.attempted <- t.attempted + 1;
         let t_sent = Spans.now_ns () in
         let resp =
           Api.client_call conn ~file:env.Setup.file op (fun chunk ->
               payload := !payload + String.length chunk;
               Reference.add collected chunk)
         in
         record ~state:!state op ~collected resp t_sent
       done
     else begin
       let in_flight = Hashtbl.create 4 in
       let fill () =
         while Hashtbl.length in_flight < 2 && Setup.now () < deadline do
           let op = Workload.next seq in
           let st = !state in
           state := Reference.next_state st op;
           t.attempted <- t.attempted + 1;
           let t_sent = Spans.now_ns () in
           let id = Api.send conn op in
           Hashtbl.replace in_flight id (op, st, t_sent)
         done
       in
       fill ();
       while Hashtbl.length in_flight > 0 do
         let id, resp = Api.recv conn in
         (match Hashtbl.find_opt in_flight id with
         | Some (op, st, t_sent) ->
           Hashtbl.remove in_flight id;
           record ~state:st op resp t_sent
         | None ->
           (* a server notice (BUSY) answers no request of ours: the
              connection is being refused *)
           t.busy <- t.busy + 1;
           raise Exit);
         fill ()
       done
     end
   with
  | Exit -> ()
  | Xut_transport.Client.Transport_error _ | Unix.Unix_error _ ->
    t.transport_errors <- t.transport_errors + (t.attempted - t.completed));
  let wall_s = Setup.now () -. t0 in
  let gc1 = Gc.quick_stat () in
  { tally = t;
    wall_s;
    read_ms;
    write_ms;
    payload_bytes = !payload;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    peak_rss_mb = Report.peak_rss_mb () }

(* Every end-to-end metric: the ones [BENCHMARK.json] bounds go into the
   result line; the others are printed for the reader. *)
let metrics ~streams ~setup_s r =
  let t = r.tally in
  let n = float_of_int (max 1 t.completed) in
  let reads = Report.sorted r.read_ms and writes = Report.sorted r.write_ms in
  let q a p = Report.quantile_sorted a p in
  let m name unit_ value = { Report.name; unit_; value } in
  let bounded =
    [ m "setup_s" "s" setup_s;
      m "throughput_rps" "req/s" (float_of_int t.completed /. r.wall_s);
      m "read_p50_ms" "ms" (q reads 0.50);
      m "read_p90_ms" "ms" (q reads 0.90);
      m "alloc_kw_per_req" "kwords" (r.minor_words /. n /. 1e3);
      m "peak_rss_mb" "MB" r.peak_rss_mb ]
  in
  let extra =
    [ m "read_p95_ms" "ms" (q reads 0.95);
      m "read_p99_ms" "ms" (q reads 0.99);
      m "read_samples" "count" (float_of_int (Array.length reads)) ]
    @ (if Array.length writes > 0 then
         [ m "write_p50_ms" "ms" (q writes 0.50);
           m "write_p99_ms" "ms" (q writes 0.99);
           m "write_samples" "count" (float_of_int (Array.length writes)) ]
       else [])
    @ (if streams then [ m "stream_p50_ms" "ms" (q reads 0.50); m "stream_p90_ms" "ms" (q reads 0.90) ]
       else [])
    @ [ m "payload_mb_s" "MB/s" (float_of_int r.payload_bytes /. 1e6 /. r.wall_s);
        m "failed_frac" "ratio" (float_of_int (failed t) /. float_of_int (max 1 t.attempted)) ]
  in
  (bounded, extra)
