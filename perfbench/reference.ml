(* Reference answers on the cache-free path, one per (request, document
   state), and the reply check that compares every reply against them
   by digest.

   - Doc reads: the conceptual semantics, [Core.Engine.Reference].
   - View reads: [Core.Composition.naive_stack], which materializes the
     chain level by level.
   - Streams: the GENTOP result, materialized and serialized.

   [mixed_rw]'s document alternates between two states: marker out (0)
   and marker in (1).  The other workloads only ever see state 0. *)

open Xut_xml
open Xut_service

type t = {
  counts : int array;  (** [query] *)
  trees : (Digest.t * int) array array;  (** [state][query]: digest, length *)
  views : (Digest.t * int) array array;  (** [state][chain] *)
  elements : int array;  (** [state]: element count of the document *)
  targets : int;  (** marker parents: primitives of every commit *)
  streams : (Digest.t * int) array;  (** [query] *)
}

let update_of query = (Core.Transform_parser.parse query).Core.Transform_ast.update
let fingerprint s = (Digest.string s, String.length s)

(* The service renders a view answer as one serialized item per line. *)
let render_value (v : Xut_xquery.Xq_value.t) =
  String.concat "\n"
    (List.map
       (function
         | Xut_xquery.Xq_value.N n -> Serialize.to_string n
         | Xut_xquery.Xq_value.D e -> Serialize.element_to_string e
         | other -> Xut_xquery.Xq_value.string_of_item other)
       v)

let reference_tree update root = Core.Engine.transform Core.Engine.Reference update root

let view_answer root k =
  let updates = List.map update_of (Workload.chain_defs k) in
  let uq = Core.User_query.parse Workload.user_query in
  render_value (Core.Composition.naive_stack ~algo:Core.Engine.Reference updates uq ~doc:root)

let count root = Node.element_count (Node.Element root)

let compute (w : Workload.name) root =
  let nq = Array.length Workload.queries in
  let doc_trees state_root =
    Array.init nq (fun i ->
        fingerprint
          (Serialize.element_to_string (reference_tree (update_of Workload.queries.(i)) state_root)))
  in
  let empty = { counts = [||]; trees = [||]; views = [||]; elements = [| count root |];
                targets = 0; streams = [||] } in
  match w with
  | Read_count ->
    { empty with
      counts =
        Array.init nq (fun i -> count (reference_tree (update_of Workload.queries.(i)) root)) }
  | Mixed_rw ->
    let insert =
      match Core.Transform_parser.parse_updates (Workload.commit_query true) with
      | [ u ] -> u
      | _ -> failwith "the marker insert is one update"
    in
    let marked = reference_tree insert root in
    let states = [| root; marked |] in
    let targets =
      List.length (Xut_xpath.Eval.select_doc root (Core.Transform_ast.path insert))
    in
    { empty with
      trees = Array.map doc_trees states;
      views =
        Array.map
          (fun r ->
            Array.init (Array.length Workload.view_levels) (fun k -> fingerprint (view_answer r k)))
          states;
      elements = Array.map count states;
      targets }
  | Stream_ingest ->
    { empty with
      streams =
        Array.init nq (fun i ->
            fingerprint
              (Serialize.element_to_string
                 (Core.Engine.transform Core.Engine.Gentop (update_of Workload.queries.(i)) root))) }

(* ---------------- checking replies ---------------- *)

(* A stream's chunks are gathered into one reusable buffer and digested
   at the end, so checking allocates nothing per chunk. *)
type collector = { mutable buf : Bytes.t; mutable len : int }

let collector () = { buf = Bytes.create (1 lsl 20); len = 0 }

let add c chunk =
  let n = String.length chunk in
  if c.len + n > Bytes.length c.buf then begin
    let nb = Bytes.create (max (2 * Bytes.length c.buf) (c.len + n)) in
    Bytes.blit c.buf 0 nb 0 c.len;
    c.buf <- nb
  end;
  Bytes.blit_string chunk 0 c.buf c.len n;
  c.len <- c.len + n

(* Why a reply counts as failed. *)
type outcome = Good | Error_reply | Busy | Wrong

let error_outcome (code : Service.err_code) =
  match code with Service.Overloaded -> Busy | _ -> Error_reply

(* [state] is the document state the request was served against. *)
let check r ~state (op : Workload.op) ?(collected : collector option) (resp : Service.response) =
  let same fp s = if fingerprint s = fp then Good else Wrong in
  match (op, resp) with
  | _, Service.Error { code; _ } -> error_outcome code
  | Count i, Service.Ok (Service.Element_count n) -> if n = r.counts.(i) then Good else Wrong
  | Transform i, Service.Ok (Service.Tree s) -> same r.trees.(state).(i) s
  | View k, Service.Ok (Service.Tree s) -> same r.views.(state).(k) s
  | Commit insert, Service.Ok (Service.Committed { primitives; elements; _ }) ->
    let state' = if insert then 1 else 0 in
    if primitives = r.targets && elements = r.elements.(state') then Good else Wrong
  | (Ingest i | Stream i), Service.Ok (Service.Stream_done { bytes; _ }) -> begin
    match collected with
    | Some c ->
      let d, n = r.streams.(i) in
      if bytes = n && c.len = n && Digest.subbytes c.buf 0 c.len = d then Good else Wrong
    | None -> Wrong
  end
  | _, Service.Ok _ -> Wrong

(* The state after [op], given the state before it. *)
let next_state state (op : Workload.op) =
  match op with Commit insert -> if insert then 1 else 0 | _ -> state
