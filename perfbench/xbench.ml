(* The serving benchmark.

     xbench --workload NAME --seed N --seconds S --trace 0|1

   Run from the root of a checkout (perfbench/run.sh builds and runs
   it).  With --trace 0 it sets the workload up, then measures the
   end-to-end metrics for S seconds; with --trace 1 it measures the
   per-layer metrics instead (see Traced).  Every reply is checked
   against a cache-free reference.  The last line of standard output is
   the JSON result; the lines before it name every metric with its
   unit.  Exit code 2 on bad arguments or a failed set-up, with no
   result line. *)

let usage = "xbench --workload read_count|mixed_rw|stream_ingest --seed N --seconds S --trace 0|1"

(* Median of this many set-ups is [setup_s]. *)
let setup_reps = 7

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured wall time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match Workload.of_string !workload with
    | Some w when !seconds > 0 && (!trace = 0 || !trace = 1) -> w
    | _ ->
      prerr_endline usage;
      exit 2
  in
  Xut_xmark.Site_schema.register ();
  let env = Setup.env w !seed in
  Printf.printf "workload %s seed %d seconds %d trace %d\n%!" !workload !seed !seconds !trace;
  let conn, setup_s = Setup.timed_bring_up ~reps:(if !trace = 1 then 1 else setup_reps) env in
  let root = Xut_xml.Dom.parse_file env.Setup.file in
  let reference = Reference.compute w root in
  if !trace = 0 then begin
    let r = Timed.run env conn reference ~seconds:(float_of_int !seconds) in
    Api.stop conn;
    let bounded, extra =
      Timed.metrics ~streams:(w = Workload.Stream_ingest) ~setup_s r
    in
    List.iter Report.print_metric (bounded @ extra);
    let t = r.Timed.tally in
    Printf.printf "failures error_replies=%d busy=%d transport_errors=%d wrong=%d\n"
      t.Timed.error_replies t.Timed.busy t.Timed.transport_errors t.Timed.wrong;
    let failed = Timed.failed t in
    Report.print_result ~correct:(failed = 0) ~attempted:t.Timed.attempted ~failed bounded
  end
  else begin
    let metrics, span_counts, counts, mismatches, failed, n =
      Traced.run env conn reference root
    in
    Api.stop conn;
    List.iter Report.print_metric metrics;
    List.iter (fun (nm, k) -> Printf.printf "spans %-34s %d\n" nm k) span_counts;
    List.iter (fun (k, v) -> Printf.printf "count %-34s %d (seed %d)\n" k v !seed) counts;
    List.iter (fun l -> Printf.printf "NONDETERMINISTIC %s (seed %d)\n" l !seed) mismatches;
    Report.print_result
      ~correct:(failed = 0 && mismatches = [])
      ~attempted:n ~failed:(failed + List.length mismatches) metrics
  end

let () =
  match main () with
  | () -> ()
  | exception e ->
    Printf.eprintf "xbench: %s\n%!" (Printexc.to_string e);
    exit 2
