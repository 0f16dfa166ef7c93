(* Statistics from raw samples, process-memory probes, and the result
   lines the benchmark prints. *)

(* A growable array of float samples. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 4096 0.; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; [nan] when empty. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  quantile_sorted a 0.5

(* ---------------- process memory ---------------- *)

let status_kb key =
  match
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> None
          | Some line when String.starts_with ~prefix:key line ->
            Scanf.sscanf_opt (String.sub line (String.length key) (String.length line - String.length key))
              " %d" Fun.id
          | Some _ -> go ()
        in
        go ())
  with
  | v -> v
  | exception Sys_error _ -> None

(* Resets VmHWM to the current RSS, so the peak covers only what runs
   after this call. *)
let reset_peak_rss () =
  match Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5") with
  | () -> true
  | exception Sys_error _ -> false

let peak_rss_mb () =
  match status_kb "VmHWM:" with Some kb -> float_of_int kb /. 1024. | None -> Float.nan

(* ---------------- output ---------------- *)

type metric = { name : string; unit_ : string; value : float }

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* The human-readable line for one metric. *)
let print_metric m = Printf.printf "metric %-34s %18.6f %s\n" m.name m.value m.unit_

(* The result: the last line of standard output. *)
let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name (json_number m.value)
             m.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed body
