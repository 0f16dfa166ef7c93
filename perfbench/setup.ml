(* Bringing a workload up: generate the document, start the service
   behind its socket, LOAD, DEFVIEW, and warm every plan and memo by
   sending each distinct request once. *)

type env = {
  workload : Workload.name;
  seed : int;
  file : string;  (** the generated XMark document *)
  socket : string;
}

(* Everything a run writes goes under this directory of the checkout. *)
let work_dir = ".perfbench_work"

let env workload seed =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let base = Filename.concat work_dir (Workload.to_string workload) in
  { workload; seed; file = base ^ ".xml"; socket = base ^ ".sock" }

let now () = Unix.gettimeofday ()

let expect_ok what (resp : Xut_service.Service.response) =
  match resp with
  | Xut_service.Service.Ok _ -> ()
  | Xut_service.Service.Error { message; _ } -> failwith (what ^ ": " ^ message)

let bring_up ?(socket_suffix = "") env =
  let s = Workload.setup env.workload in
  Xut_xmark.Generator.to_file ~seed:(Int64.of_int env.seed) ~factor:s.Workload.factor env.file;
  let conn = Api.start ~socket:(env.socket ^ socket_suffix) in
  expect_ok "LOAD" (Api.load conn ~file:env.file ~schema:s.Workload.schema);
  if s.Workload.views then
    List.iter (fun d -> expect_ok ("DEFVIEW " ^ fst d) (Api.defview conn d)) Workload.view_defs;
  List.iter
    (fun op -> expect_ok "warm-up" (Api.client_call conn ~file:env.file op ignore))
    (Workload.distinct env.workload);
  conn

(* Set up [reps] times; keep the last service running.  Returns it with
   the median set-up time. *)
let timed_bring_up ~reps env =
  let rec go k times =
    let t0 = now () in
    let conn = bring_up env in
    let times = (now () -. t0) :: times in
    if k = reps then (conn, Report.median_list times)
    else begin
      Api.stop conn;
      go (k + 1) times
    end
  in
  go 1 []
