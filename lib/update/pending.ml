open Xut_xml

type op =
  | Insert of Node.t
  | Insert_first of Node.t
  | Delete
  | Replace of Node.t
  | Rename of string

let op_kind = function
  | Insert _ -> "insert"
  | Insert_first _ -> "insert-first"
  | Delete -> "delete"
  | Replace _ -> "replace"
  | Rename _ -> "rename"

let render_op = function
  | Insert e -> Printf.sprintf "insert %s" (Serialize.to_string e)
  | Insert_first e -> Printf.sprintf "insert %s as first" (Serialize.to_string e)
  | Delete -> "delete"
  | Replace e -> Printf.sprintf "replace with %s" (Serialize.to_string e)
  | Rename l -> Printf.sprintf "rename as %s" l

type conflict = { target : int; kept : string; dropped : string }

let render_conflict { target; kept; dropped } =
  Printf.sprintf "node %d: %s conflicts with earlier %s" target dropped kept

type resolved =
  | Dead
  | Swap of Node.t
  | Edit of { rename : string option; firsts : Node.t list; lasts : Node.t list }

type prim = { target : int; op : op }

type t = { mutable prims : prim list; mutable count : int; ancestors : (int, unit) Hashtbl.t }
(* [prims] is kept newest-first; [normalize] reverses back to
   submission order. *)

let create () = { prims = []; count = 0; ancestors = Hashtbl.create 64 }

let add t ~target op =
  t.prims <- { target; op } :: t.prims;
  t.count <- t.count + 1

let mark_ancestor t id = Hashtbl.replace t.ancestors id ()

let added t = t.count

type normalized = {
  table : (int, resolved) Hashtbl.t;
  ancestors : (int, unit) Hashtbl.t;
  targets : int;
  primitives : int;
  collapsed : int;
  conflicts : conflict list;
}

(* Number of surviving primitives a resolved state stands for. *)
let weight = function
  | Dead | Swap _ -> 1
  | Edit { rename; firsts; lasts } ->
    (match rename with Some _ -> 1 | None -> 0) + List.length firsts + List.length lasts

(* Merge one primitive into the target's current state.  The hierarchy:
   Dead absorbs everything; Swap absorbs renames and inserts but
   conflicts with a second Swap and yields to Dead; Edit accumulates.
   Returns the new state plus how many primitives the merge absorbed
   ([`Collapsed n]) or dropped as unresolvable ([`Conflict]). *)
let merge state op =
  match (state, op) with
  | None, Delete -> (Dead, `Fresh)
  | None, Replace e -> (Swap e, `Fresh)
  | None, Rename l -> (Edit { rename = Some l; firsts = []; lasts = [] }, `Fresh)
  | None, Insert e -> (Edit { rename = None; firsts = []; lasts = [ e ] }, `Fresh)
  | None, Insert_first e -> (Edit { rename = None; firsts = [ e ]; lasts = [] }, `Fresh)
  | Some Dead, _ -> (Dead, `Collapsed 1)
  | Some (Swap _), Delete -> (Dead, `Collapsed 1) (* the replace is absorbed *)
  | Some (Swap _ as s), Replace _ -> (s, `Conflict)
  | Some (Swap _ as s), (Rename _ | Insert _ | Insert_first _) -> (s, `Collapsed 1)
  | Some (Edit _ as s), Delete -> (Dead, `Collapsed (weight s))
  | Some (Edit _ as s), Replace e -> (Swap e, `Collapsed (weight s))
  | Some (Edit ({ rename = None; _ } as ed)), Rename l ->
    (Edit { ed with rename = Some l }, `Fresh)
  | Some (Edit ({ rename = Some l0; _ }) as s), Rename l ->
    if String.equal l0 l then (s, `Collapsed 1) else (s, `Conflict)
  | Some (Edit ed), Insert e -> (Edit { ed with lasts = ed.lasts @ [ e ] }, `Fresh)
  | Some (Edit ed), Insert_first e -> (Edit { ed with firsts = ed.firsts @ [ e ] }, `Fresh)

(* Rendering of what a state "kept", for conflict reports. *)
let kept_of state op =
  match (state, op) with
  | Swap e, Replace _ -> render_op (Replace e)
  | Edit { rename = Some l; _ }, Rename _ -> render_op (Rename l)
  | _, _ -> op_kind op (* unreachable: only the two cases above conflict *)

let normalize t =
  let table = Hashtbl.create (max 16 t.count) in
  let collapsed = ref 0 in
  let conflicts = ref [] in
  List.iter
    (fun { target; op } ->
      let state = Hashtbl.find_opt table target in
      let state', outcome = merge state op in
      (match outcome with
      | `Fresh -> ()
      | `Collapsed n -> collapsed := !collapsed + n
      | `Conflict ->
        conflicts :=
          { target; kept = kept_of state' op; dropped = render_op op } :: !conflicts);
      Hashtbl.replace table target state')
    (List.rev t.prims);
  let primitives = Hashtbl.fold (fun _ s n -> n + weight s) table 0 in
  {
    table;
    ancestors = t.ancestors;
    targets = Hashtbl.length table;
    primitives;
    collapsed = !collapsed;
    conflicts = List.rev !conflicts;
  }
