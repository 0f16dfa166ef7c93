(* Shared documents and queries for the test suites. *)
open Xut_xml

(* The running example of the paper (Fig. 1): a parts/suppliers catalog. *)
let parts_doc_text =
  {|<db>
  <part>
    <pname>keyboard</pname>
    <supplier>
      <sname>HP</sname><price>12</price><country>A</country>
    </supplier>
    <supplier>
      <sname>Logi</sname><price>20</price><country>B</country>
    </supplier>
    <part>
      <pname>key</pname>
      <supplier>
        <sname>Acme</sname><price>20</price><country>A</country>
      </supplier>
    </part>
  </part>
  <part>
    <pname>mouse</pname>
    <supplier>
      <sname>Logi</sname><price>25</price><country>C</country>
    </supplier>
    <part>
      <pname>wheel</pname>
      <supplier>
        <sname>Acme</sname><price>3</price><country>B</country>
      </supplier>
      <part>
        <pname>axle</pname>
        <supplier>
          <sname>Tiny</sname><price>1</price><country>A</country>
        </supplier>
      </part>
    </part>
  </part>
</db>|}

let parts_doc () = Dom.parse_string parts_doc_text

(* p1 of Example 3.1: //part[pname='keyboard']//part[not(...)]. *)
let p1_text =
  "//part[pname = 'keyboard']//part[not(supplier/sname = 'HP') and not(supplier/price < 15)]"

let node_testable = Alcotest.testable Node.pp Node.equal

let element_testable =
  Alcotest.testable Node.pp_element Node.equal_element

let check_tree = Alcotest.check element_testable

let parse_path = Xut_xpath.Parser.parse

let names es = List.map Node.name es

let pnames doc path =
  (* part names of the parts selected by [path] in the parts doc *)
  Xut_xpath.Eval.select_doc doc (parse_path path)
  |> List.map (fun e ->
         match Xut_xpath.Eval.select e (parse_path "pname") with
         | n :: _ -> Node.text_content n
         | [] -> "?")

(* Spine nodes plus the element children of spine nodes, in the new tree of a
   commit whose diff maps fresh spine ids in [spine]. *)
let rec spine_extent spine e =
  List.fold_left
    (fun n c ->
      match c with
      | Node.Element c when Hashtbl.mem spine (Node.id c) -> n + spine_extent spine c
      | Node.Element _ -> n + 1
      | Node.Text _ | Node.Comment _ | Node.Pi _ -> n)
    1 (Node.children e)

(* Replies of callback-style submissions ([Service.submit],
   [Worker_pool.submit]): [expect ()] is the reply function for one more
   request, and [all ()] waits until every expected reply has arrived
   and returns them in [expect] order (failing after [timeout] seconds,
   so a lost reply fails the test instead of hanging it). *)
let replies () =
  let mu = Mutex.create () and slots = ref [] in
  let expect () =
    let slot = ref None in
    Mutex.protect mu (fun () -> slots := slot :: !slots);
    fun v -> Mutex.protect mu (fun () -> slot := Some v)
  in
  let all ?(timeout = 30.) () =
    let deadline = Unix.gettimeofday () +. timeout in
    let rec wait () =
      match Mutex.protect mu (fun () -> List.map ( ! ) !slots) with
      | got when List.for_all Option.is_some got -> List.rev_map Option.get got
      | _ when Unix.gettimeofday () > deadline -> Alcotest.fail "a submitted request never replied"
      | _ ->
        Thread.delay 0.001;
        wait ()
    in
    wait ()
  in
  (expect, all)

(* One integer line of [m]'s STATS dump, by its name. *)
let stat m name =
  let prefix = name ^ " " in
  let lines = String.split_on_char '\n' (Xut_service.Metrics.dump m) in
  match List.find_opt (String.starts_with ~prefix) lines with
  | Some l -> int_of_string (List.nth (String.split_on_char ' ' l) 1)
  | None -> Alcotest.fail ("no STATS line " ^ name)

(* A process-wide counter's value, by its STATS name. *)
let counter name = List.assoc name (Counter.values ())

(* The element count of [e]'s subtree by a walk, ignoring the counts the
   elements store. *)
let rec recount (e : Node.element) =
  List.fold_left
    (fun acc -> function Node.Element c -> acc + recount c | _ -> acc)
    1 (Node.children e)

(* Does every element of [e]'s subtree store the count and the label
   summary a walk gives? *)
let counts_exact (e : Node.element) =
  let rec walk e =
    let n, labels =
      List.fold_left
        (fun (n, labels) -> function
          | Node.Element c ->
            let n', labels' = walk c in
            (n + n', labels lor labels')
          | _ -> (n, labels))
        (1, 1 lsl (Node.sym e mod 63))
        (Node.children e)
    in
    if n <> Node.elements e || labels <> Node.labels e then raise Exit;
    (n, labels)
  in
  match walk e with _ -> true | exception Exit -> false

(* [f fifo] with a FIFO that serves [text] to each reader that opens it
   while [f] runs, one reader after another, and the number of readers
   served: a run that opens it twice reads the text twice instead of
   waiting forever for a writer.  After serving a reader the feeder
   waits for it to close (an open for writing then finds no reader)
   before it serves again, so no reader is sent the text twice.  A
   reader that closes early fails the write (EPIPE), not the test
   process. *)
let with_fifo text f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fifo = Filename.temp_file "xut_fifo" "" in
  Sys.remove fifo;
  Unix.mkfifo fifo 0o600;
  let stop = Atomic.make false and served = Atomic.make 0 in
  let rec feed ~draining =
    if not (Atomic.get stop) then
      match Unix.openfile fifo [ Unix.O_WRONLY; Unix.O_NONBLOCK ] 0 with
      | fd when draining ->
        Unix.close fd;
        Thread.delay 0.001;
        feed ~draining
      | fd ->
        Unix.clear_nonblock fd;
        let oc = Unix.out_channel_of_descr fd in
        (try Out_channel.output_string oc text with Sys_error _ -> ());
        (try Out_channel.close oc with Sys_error _ -> ());
        Atomic.incr served;
        feed ~draining:true
      | exception Unix.Unix_error (Unix.ENXIO, _, _) ->
        Thread.delay 0.001;
        feed ~draining:false
  in
  let feeder = Thread.create (fun () -> feed ~draining:false) () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join feeder;
      Sys.remove fifo)
    (fun () ->
      let r = f fifo in
      (r, Atomic.get served))
