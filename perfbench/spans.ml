(* The traced run's span recorder: name, start, end, parent span and
   request id for every call the benchmark makes into a layer.  Spans
   stay in memory until the run ends.  Recording is off unless [on] is
   set, and then costs one clock read at each end. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let on = ref false

(* Span names are interned once, at module initialisation. *)
let names : string array ref = ref [||]

let name s =
  let id = Array.length !names in
  names := Array.append !names [| s |];
  id

let name_of id = !names.(id)

type store = {
  mutable n : int;
  mutable nm : int array;
  mutable rid : int array;
  mutable parent : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable work : float array;
}

let st =
  let cap = 1024 in
  { n = 0;
    nm = Array.make cap 0;
    rid = Array.make cap 0;
    parent = Array.make cap 0;
    t0 = Array.make cap 0;
    t1 = Array.make cap 0;
    work = Array.make cap 0. }

let current = ref (-1)
let request = ref 0

let clear () =
  st.n <- 0;
  current := -1

let grow () =
  let cap = 2 * Array.length st.nm in
  let ext a z =
    let b = Array.make cap z in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  st.nm <- ext st.nm 0;
  st.rid <- ext st.rid 0;
  st.parent <- ext st.parent 0;
  st.t0 <- ext st.t0 0;
  st.t1 <- ext st.t1 0;
  st.work <- ext st.work 0.

let open_span nm =
  if st.n = Array.length st.nm then grow ();
  let i = st.n in
  st.n <- i + 1;
  st.nm.(i) <- nm;
  st.rid.(i) <- !request;
  st.parent.(i) <- !current;
  st.work.(i) <- 0.;
  current := i;
  st.t0.(i) <- now_ns ();
  i

let close_span i =
  st.t1.(i) <- now_ns ();
  current := st.parent.(i)

(* [span nm f] records the call [f ()] under [nm]; [work] (nodes or
   bytes) is read off the result, for per-node and per-byte rates. *)
let span ?work nm f =
  if not !on then f ()
  else begin
    let i = open_span nm in
    match f () with
    | v ->
      close_span i;
      (match work with Some w -> st.work.(i) <- w v | None -> ());
      v
    | exception e ->
      close_span i;
      raise e
  end

(* ---------------- analysis ---------------- *)

(* Self time: a span's duration minus the time its direct children
   cover. *)
let self_times () =
  let self = Array.init st.n (fun i -> st.t1.(i) - st.t0.(i)) in
  for i = 0 to st.n - 1 do
    let p = st.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (st.t1.(i) - st.t0.(i))
  done;
  self

(* Per request id, the summed self time (ns) and work of the spans
   named [nm], restricted to requests accepted by [keep]. *)
let per_request ?(keep = fun _ -> true) self nm =
  let tbl = Hashtbl.create 64 in
  for i = 0 to st.n - 1 do
    if st.nm.(i) = nm && keep st.rid.(i) then begin
      let ns, w = Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl st.rid.(i)) in
      Hashtbl.replace tbl st.rid.(i) (ns + self.(i), w +. st.work.(i))
    end
  done;
  tbl

(* Summed self time per request over every span accepted by [pick]. *)
let request_totals ?(keep = fun _ -> true) self pick =
  let tbl = Hashtbl.create 64 in
  for i = 0 to st.n - 1 do
    if pick st.nm.(i) && keep st.rid.(i) then
      Hashtbl.replace tbl st.rid.(i)
        (self.(i) + Option.value ~default:0 (Hashtbl.find_opt tbl st.rid.(i)))
  done;
  tbl

let write path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "span\tparent\trequest\tname\tstart_ns\tend_ns\twork\n";
      for i = 0 to st.n - 1 do
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\t%g\n" i st.parent.(i) st.rid.(i)
          (name_of st.nm.(i)) st.t0.(i) st.t1.(i) st.work.(i)
      done)
