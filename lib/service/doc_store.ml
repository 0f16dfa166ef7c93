open Xut_xml

type info = {
  name : string;
  file : string option;
  elements : int;
  generation : int;
  schema : string option;
}

type reason = Unloaded | Replaced | Committed

type repair_hint = { new_root : Node.element; spine : (int, Node.element) Hashtbl.t }

type event = {
  name : string;
  root_id : int;
  generation : int;
  reason : reason;
  repair : repair_hint option;
  schema_dropped : bool;
}

(* The reply image's cell, built by the first serialized read of
   [of_root] and kept across commits: the ids the new root shares with
   the old one still name the same bytes. *)
type image_cell = { of_root : Node.element; image : Serialize.Image.t option Atomic.t }

(* A binding: the tree, its info, and its reply image's cell. *)
type entry = { root : Node.element; einfo : info; cell : image_cell }

(* [cmu] serializes writers (commit/register/evict) so a commit's
   read-evaluate-swap is atomic with respect to every other binding
   change; [mu] alone still protects readers, which never block on a
   commit in progress.  Lock order: cmu before mu. *)
type t = {
  mu : Mutex.t;
  cmu : Mutex.t;
  tbl : (string, entry) Hashtbl.t;
  generations : int Atomic.t;
  lmu : Mutex.t;  (* guards [listeners] only; never held while firing *)
  mutable listeners : (event -> unit) list;
}

let create () =
  {
    mu = Mutex.create ();
    cmu = Mutex.create ();
    tbl = Hashtbl.create 16;
    generations = Atomic.make 0;
    lmu = Mutex.create ();
    listeners = [];
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let as_writer t f =
  Mutex.lock t.cmu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.cmu) f

let subscribe t f =
  Mutex.lock t.lmu;
  t.listeners <- t.listeners @ [ f ];
  Mutex.unlock t.lmu

(* Fired outside both table locks, so a listener may freely re-enter the
   store (or take other locks: the plan cache, a connection's write
   mutex) without inversion. *)
let fire t event =
  Mutex.lock t.lmu;
  let listeners = t.listeners in
  Mutex.unlock t.lmu;
  List.iter (fun f -> f event) listeners

(* Validation happens here, before the binding is published, so a LOAD
   under a schema either yields a fully conformant binding or fails
   without touching the store. *)
let check_schema ~name root = function
  | None -> Stdlib.Ok None
  | Some sname -> begin
    match Xut_schema.Schema.find sname with
    | None -> Stdlib.Error (Printf.sprintf "unknown schema %S (not registered)" sname)
    | Some s -> begin
      match Xut_schema.Schema.validate s root with
      | Stdlib.Ok () -> Stdlib.Ok (Some sname)
      | Stdlib.Error msg ->
        Stdlib.Error
          (Printf.sprintf "document %S does not conform to schema %S: %s" name sname msg)
    end
  end

let register t ~name ?file ?schema root =
  match check_schema ~name root schema with
  | Stdlib.Error _ as e -> e
  | Stdlib.Ok schema ->
    let generation = Atomic.fetch_and_add t.generations 1 + 1 in
    let info = { name; file; elements = Node.elements root; generation; schema } in
    let previous =
      as_writer t (fun () ->
          locked t (fun () ->
              let prev = Hashtbl.find_opt t.tbl name in
              Hashtbl.replace t.tbl name
                { root; einfo = info; cell = { of_root = root; image = Atomic.make None } };
              prev))
    in
    (match previous with
    | Some prev ->
      fire t
        {
          name;
          root_id = Node.id prev.root;
          generation;
          reason = Replaced;
          repair = None;
          schema_dropped = false;
        }
    | None -> ());
    Stdlib.Ok (info, previous <> None)

let load_file t ~name ?schema path =
  match Dom.parse_file path with
  | root -> register t ~name ~file:path ?schema root
  | exception Sax.Parse_error { line; col; msg } ->
    Error (Printf.sprintf "parse error in %s at %d:%d: %s" path line col msg)
  | exception Sys_error msg -> Error msg
  | exception Dom.No_document_element ->
    Error (Printf.sprintf "no document element in %s" path)

let find t name =
  locked t (fun () -> Option.map (fun e -> e.root) (Hashtbl.find_opt t.tbl name))

let info t name =
  locked t (fun () -> Option.map (fun e -> e.einfo) (Hashtbl.find_opt t.tbl name))

let snapshot t name =
  locked t (fun () ->
      Option.map (fun e -> (e.root, e.einfo, e.cell)) (Hashtbl.find_opt t.tbl name))

(* Racing builders build identical images (or, across a commit, images
   equally valid for both roots); the first to publish wins. *)
let reply_image { of_root; image } =
  match Atomic.get image with
  | Some built -> built
  | None ->
    let built = Serialize.Image.of_element of_root in
    if Atomic.compare_and_set image None (Some built) then built
    else Option.get (Atomic.get image)

let evict t name =
  let removed =
    as_writer t (fun () ->
        locked t (fun () ->
            match Hashtbl.find_opt t.tbl name with
            | None -> None
            | Some entry ->
              Hashtbl.remove t.tbl name;
              Some entry))
  in
  match removed with
  | None -> false
  | Some e ->
    fire t
      {
        name;
        root_id = Node.id e.root;
        generation = e.einfo.generation;
        reason = Unloaded;
        repair = None;
        schema_dropped = false;
      };
    true

type ('a, 'e) commit_result =
  | Swapped of info * 'a
  | Unchanged of info * 'a
  | Rejected of 'e
  | No_document

(* Revalidate the post-commit tree against the binding's schema: only
   the rebuilt spine and fresh content when the diff supplied the spine
   map, a full walk otherwise.  A nonconforming result does not reject
   the commit — updates are the system's point — it {e drops} the
   schema binding, turning pruning off for the document from the swap
   onward.  The second component reports that drop so the event can
   carry it (a [schema_dropped] notice + counter). *)
let revalidated (info : info) root' spine =
  match Option.map (fun sname -> (sname, Xut_schema.Schema.find sname)) info.schema with
  | None -> (None, false)
  | Some (_, None) -> (None, true)
  | Some (sname, Some s) -> (
    let verdict =
      match spine with
      | Some spine -> Xut_schema.Schema.validate_commit s ~spine root'
      | None -> Xut_schema.Schema.validate s root'
    in
    match verdict with Stdlib.Ok () -> (Some sname, false) | Stdlib.Error _ -> (None, true))

let commit t ~name f =
  let departed = ref None in
  let outcome =
    as_writer t (fun () ->
        match locked t (fun () -> Hashtbl.find_opt t.tbl name) with
        | None -> No_document
        | Some { root; einfo = info; cell } -> begin
          (* [f] runs under the writer lock only: readers proceed against
             the current binding while the new tree is built. *)
          match f info root with
          | Error e -> Rejected e
          | Ok (None, a) -> Unchanged (info, a)
          | Ok (Some (root', spine), a) ->
            let generation = Atomic.fetch_and_add t.generations 1 + 1 in
            let schema', dropped = revalidated info root' spine in
            let info' =
              { info with elements = Node.elements root'; generation; schema = schema' }
            in
            locked t (fun () ->
                Hashtbl.replace t.tbl name
                  { root = root'; einfo = info'; cell = { cell with of_root = root' } });
            departed :=
              Some
                ( Node.id root,
                  Option.map (fun spine -> { new_root = root'; spine }) spine,
                  dropped );
            Swapped (info', a)
        end)
  in
  (match (outcome, !departed) with
  | Swapped (info', _), Some (old_root_id, repair, schema_dropped) ->
    fire t
      {
        name;
        root_id = old_root_id;
        generation = info'.generation;
        reason = Committed;
        repair;
        schema_dropped;
      }
  | _ -> ());
  outcome

let names t =
  locked t (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [])
  |> List.sort String.compare
