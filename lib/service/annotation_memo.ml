open Xut_automata

(* Entries carry a recency stamp from a per-memo clock; overflow evicts
   only the least-recently-used document's table, and store-driven
   invalidation removes exactly the named document's. *)
type entry = { table : Annotator.table; mutable stamp : int }

type t = {
  mu : Mutex.t;
  docs : (int, entry) Hashtbl.t;
  mutable clock : int;
}

let create () = { mu = Mutex.create (); docs = Hashtbl.create 4; clock = 0 }

(* At most this many documents' annotation tables per memo; crossing the
   bound evicts the least recently used one, so the hot documents'
   tables survive a cold document passing through. *)
let capacity = 8

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun id e acc ->
        match acc with
        | Some (_, stamp) when stamp <= e.stamp -> acc
        | _ -> Some (id, e.stamp))
      t.docs None
  in
  match victim with Some (id, _) -> Hashtbl.remove t.docs id | None -> ()

let find ?skip t nfa root =
  let id = Xut_xml.Node.id root in
  Mutex.lock t.mu;
  let cached =
    match Hashtbl.find_opt t.docs id with
    | Some e ->
      t.clock <- t.clock + 1;
      e.stamp <- t.clock;
      Some e.table
    | None -> None
  in
  Mutex.unlock t.mu;
  match cached with
  | Some table -> table
  | None ->
    (* Built outside the lock: concurrent misses on the same document may
       annotate twice; one insert wins and both tables are valid. *)
    let table = Annotator.annotate ?skip nfa root in
    Mutex.lock t.mu;
    if not (Hashtbl.mem t.docs id) then begin
      if Hashtbl.length t.docs >= capacity then evict_lru t;
      t.clock <- t.clock + 1;
      Hashtbl.add t.docs id { table; stamp = t.clock }
    end;
    Mutex.unlock t.mu;
    table

let count t =
  Mutex.lock t.mu;
  let n = Hashtbl.length t.docs in
  Mutex.unlock t.mu;
  n

let invalidate t ~root_id =
  Mutex.lock t.mu;
  let present = Hashtbl.mem t.docs root_id in
  if present then Hashtbl.remove t.docs root_id;
  Mutex.unlock t.mu;
  present

(* Maintenance across a commit: the new root's table from the old
   root's table and the rebuilt-spine map, instead of letting the commit
   evict it.  The old entry is deliberately LEFT
   IN PLACE — readers that picked up the pre-commit snapshot before the
   swap still resolve its table (immutable, never repaired in place);
   the LRU drops it once younger roots push it out. *)
let repair ?footprint t nfa ~old_root_id ~spine new_root =
  Mutex.lock t.mu;
  let old_entry = Hashtbl.find_opt t.docs old_root_id in
  Mutex.unlock t.mu;
  match old_entry with
  | None -> `Absent (* nothing cached for the departing tree: no work *)
  | Some { table = old_table; _ } -> begin
    (* Repair runs outside the lock, like [find]'s build: a racing
       reader of the old snapshot still hits the old entry meanwhile. *)
    match Annotator.repair ?footprint nfa ~old_table ~spine new_root with
    | None ->
      (* degenerate diff (root replaced): fall back to eviction *)
      ignore (invalidate t ~root_id:old_root_id);
      `Fallback
    | Some (table, st) ->
      let new_id = Xut_xml.Node.id new_root in
      Mutex.lock t.mu;
      if not (Hashtbl.mem t.docs new_id) then begin
        if Hashtbl.length t.docs >= capacity then evict_lru t;
        t.clock <- t.clock + 1;
        Hashtbl.add t.docs new_id { table; stamp = t.clock }
      end;
      Mutex.unlock t.mu;
      `Repaired st
  end
