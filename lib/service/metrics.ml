(* Every metric is one registry declaration, made once at module
   initialisation in STATS order.  A counter or gauge owns a cell of
   [t.cells]; a derived line renders from a histogram or a process-wide
   counter; one declaration stands for every process-wide counter.
   [create], [reset] and [dump] iterate the registry and name no
   metric. *)

let rec raise_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then raise_max cell v

(* Power-of-two histogram: bucket [i] counts observations in
   [2^i, 2^(i+1)) (bucket 0 also takes 0 and 1).  32 buckets reach ~71
   minutes of microseconds, far beyond any request this service answers.
   [peak] is exact and may be kept in a finer unit than the buckets. *)
module Hist = struct
  let n_buckets = 32

  type t = { buckets : int Atomic.t array; count : int Atomic.t; peak : int Atomic.t }

  let create () =
    {
      buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
      count = Atomic.make 0;
      peak = Atomic.make 0;
    }

  let bucket_of v =
    let rec go i v = if v <= 1 || i = n_buckets - 1 then i else go (i + 1) (v lsr 1) in
    go 0 v

  let observe h ~bucket ~exact =
    Atomic.incr h.buckets.(bucket_of bucket);
    Atomic.incr h.count;
    raise_max h.peak exact

  let clear h =
    Array.iter (fun b -> Atomic.set b 0) h.buckets;
    Atomic.set h.count 0;
    Atomic.set h.peak 0

  let count h = Atomic.get h.count
  let peak h = Atomic.get h.peak

  (* The bucket holding the observation of rank ceil(q * count); [None]
     when empty. *)
  let quantile_bucket h q =
    let total = count h in
    if total = 0 then None
    else
      let rank = max 1 (int_of_float (ceil (q *. float_of_int total))) in
      let rec go i seen =
        let seen = seen + Atomic.get h.buckets.(i) in
        if seen >= rank || i = n_buckets - 1 then Some i else go (i + 1) seen
      in
      go 0 0
end

type t = {
  cells : int Atomic.t array;
  depth_max : int Atomic.t;  (* queue high-water mark *)
  latency : Hist.t;  (* buckets in us, peak in ns *)
  pending : Hist.t;  (* surviving pending-list length per effective commit *)
}

(* Representative latency of bucket i: its geometric middle, 2^i*sqrt(2) us. *)
let quantile m q =
  match Hist.quantile_bucket m.latency q with
  | None -> 0.
  | Some i -> float_of_int (1 lsl i) *. 1.4142 *. 1e-6

let max_latency m = float_of_int (Hist.peak m.latency) *. 1e-9
let latency_count m = Hist.count m.latency

(* Representative primitive count of bucket i: its lower bound. *)
let pending_quantile m q =
  match Hist.quantile_bucket m.pending q with None -> 0 | Some 0 -> 1 | Some i -> 1 lsl i

let pending_primitives_count m = Hist.count m.pending
let pending_primitives_max m = Hist.peak m.pending

(* A process-wide counter ({!Xut_xml.Counter}) by its STATS name. *)
let process_wide name = List.assoc name (Xut_xml.Counter.values ())
let nfa_memo_stats () = (process_wide "nfa_memo_hits", process_wide "nfa_memo_misses")
let serialize_pool_stats () =
  (process_wide "serialize_pool_hits", process_wide "serialize_pool_misses")

type kind = Counter of int | Gauge of int | Derived of (t -> string) | Process_wide

let declared = ref []
let n_cells = ref 0
let declare name kind = declared := (name, kind) :: !declared

let cell make name =
  let i = !n_cells in
  incr n_cells;
  declare name (make i);
  i

let get i m = Atomic.get m.cells.(i)

(* Each declaration returns the metric's reader and one writer: a gauge
   its atomic, a counter [incr], a summed counter [add n]. *)
let gauge name =
  let i = cell (fun i -> Gauge i) name in
  (get i, fun m -> m.cells.(i))

let counter name =
  let i = cell (fun i -> Counter i) name in
  (get i, fun m -> Atomic.incr m.cells.(i))

let summed name =
  let i = cell (fun i -> Counter i) name in
  (get i, fun m n -> if n > 0 then ignore (Atomic.fetch_and_add m.cells.(i) n))

let int_line name f = declare name (Derived (fun m -> string_of_int (f m)))
let ms_line name f = declare name (Derived (fun m -> Printf.sprintf "%.3f" (f m *. 1e3)))

(* The STATS layout: one line per declaration, in this order. *)

let requests, incr_requests = counter "requests"
let errors, incr_errors = counter "errors"
let cache_hits, incr_cache_hits = counter "cache_hits"
let cache_misses, incr_cache_misses = counter "cache_misses"
let queue_depth, depth = gauge "queue_depth"
let max_queue_depth m = Atomic.get m.depth_max
let () = int_line "queue_depth_max" max_queue_depth
let () = int_line "latency_count" latency_count
let () = ms_line "latency_p50_ms" (fun m -> quantile m 0.50)
let () = ms_line "latency_p95_ms" (fun m -> quantile m 0.95)
let () = ms_line "latency_max_ms" max_latency
let _, incr_conns_accepted = counter "conns_accepted"
let _, active = gauge "conns_active"
let _, conn_rejected = counter "conns_rejected"
let _, incr_frames_in = counter "frames_in"
let _, incr_frames_out = counter "frames_out"
let _, frame_malformed = counter "frames_malformed"
let _, add_bytes_in = summed "bytes_in"
let _, add_bytes_out = summed "bytes_out"
let _, stream_started = counter "streams"
let _, incr_stream_chunks = counter "stream_chunks"
let stream_bytes, add_stream_bytes = summed "stream_bytes"
let streams_fused, incr_streams_fused = counter "streams_fused"
let stream_fallbacks, incr_stream_fallbacks = counter "stream_fallbacks"
let _, incr_schema_bindings_dropped = counter "schema_bindings_dropped"
let _, add_doc_invalidations = summed "doc_invalidations"
let annotation_repairs, add_annotation_repairs = summed "annotation_repairs"
let repair_fallbacks, add_repair_fallbacks = summed "repair_fallbacks"
let repair_recomputed_nodes, add_repair_recomputed = summed "repair_recomputed_nodes"
let repair_reused_nodes, add_repair_reused = summed "repair_reused_nodes"
let _, add_repair_rekeyed = summed "repair_rekeyed"
let _, incr_view_defs = counter "view_defs"
let view_hits, incr_view_hits = counter "view_hits"
let composed_plans, incr_composed_plans = counter "composed_plans"
let _, add_view_invalidations = summed "view_invalidations"
let compose_fallbacks, incr_compose_fallbacks = counter "compose_fallbacks"
let skipped_subtrees, add_skipped_subtrees = summed "skipped_subtrees"
let skipped_nodes, add_skipped_nodes = summed "skipped_nodes"
let _, incr_statically_empty = counter "statically_empty_rejections"
let _, incr_schema_products = counter "schema_products"
let commits, incr_commits = counter "commits"
let _, commit_conflict = counter "commit_conflicts"
let commit_noops, commit_noop = counter "commit_noops"
let () = int_line "pending_primitives_count" pending_primitives_count
let () = int_line "pending_primitives_p50" (fun m -> pending_quantile m 0.50)
let () = int_line "pending_primitives_p95" (fun m -> pending_quantile m 0.95)
let () = int_line "pending_primitives_max" pending_primitives_max
(* every process-wide counter, one line each, in declaration order *)
let () = declare "" Process_wide

let () =
  declare "nfa_memo_hit_rate"
    (Derived
       (fun _ ->
         let hits, misses = nfa_memo_stats () in
         Printf.sprintf "%.3f"
           (if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses))))

let () = int_line "sym_symbols" (fun _ -> Xut_xml.Sym.count ())

let registry = List.rev !declared
let n_cells = !n_cells

let create () =
  {
    cells = Array.init n_cells (fun _ -> Atomic.make 0);
    depth_max = Atomic.make 0;
    latency = Hist.create ();
    pending = Hist.create ();
  }

(* Counters restart at zero and both histograms clear; gauges follow live
   state (queued requests, open connections) and survive, and the
   high-water mark restarts at the live depth. *)
let reset m =
  List.iter (function _, Counter i -> Atomic.set m.cells.(i) 0 | _ -> ()) registry;
  Hist.clear m.latency;
  Hist.clear m.pending;
  Atomic.set m.depth_max (queue_depth m)

let dump m =
  let line name v = name ^ " " ^ v in
  registry
  |> List.concat_map (fun (name, kind) ->
         match kind with
         | Counter i | Gauge i -> [ line name (string_of_int (get i m)) ]
         | Derived f -> [ line name (f m) ]
         | Process_wide ->
           List.map (fun (name, v) -> line name (string_of_int v)) (Xut_xml.Counter.values ()))
  |> String.concat "\n"

(* Compound events *)

let queue_enter m = raise_max m.depth_max (Atomic.fetch_and_add (depth m) 1 + 1)
let queue_leave m = Atomic.decr (depth m)

let record_latency m seconds =
  let ns = int_of_float (seconds *. 1e9) in
  Hist.observe m.latency ~bucket:(ns / 1_000) ~exact:ns

let conn_accepted m =
  incr_conns_accepted m;
  Atomic.incr (active m)

let conn_closed m = Atomic.decr (active m)

let frame_in m bytes =
  incr_frames_in m;
  add_bytes_in m bytes

let frame_out m bytes =
  incr_frames_out m;
  add_bytes_out m bytes

let stream_chunk m bytes =
  incr_stream_chunks m;
  add_stream_bytes m bytes

let add_repairs m ~repaired ~fallbacks ~recomputed ~reused ~rekeyed =
  add_annotation_repairs m repaired;
  add_repair_fallbacks m fallbacks;
  add_repair_recomputed m recomputed;
  add_repair_reused m reused;
  add_repair_rekeyed m rekeyed

let add_skipped m ~subtrees ~nodes =
  add_skipped_subtrees m subtrees;
  add_skipped_nodes m nodes

let commit_recorded m ~primitives =
  incr_commits m;
  Hist.observe m.pending ~bucket:primitives ~exact:primitives
