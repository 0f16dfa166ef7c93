open Xut_automata

type plan = {
  source : string;
  query : Core.Transform_ast.t;
  nfa : Selecting_nfa.t;
  annotations : Annotation_memo.t;
  products : Product_memo.t;
}

let compile source =
  let query = Core.Transform_parser.parse source in
  let nfa = Selecting_nfa.of_path (Core.Transform_ast.path query.Core.Transform_ast.update) in
  {
    source;
    query;
    nfa;
    annotations = Annotation_memo.create ();
    products = Product_memo.create ();
  }

let max_annotated_docs = Annotation_memo.capacity
let annotation ?skip plan root = Annotation_memo.find ?skip plan.annotations plan.nfa root
let product plan schema = Product_memo.get plan.products schema plan.nfa

(* Recency is a stamp per entry from a monotone clock; eviction scans for
   the minimum.  The scan is O(capacity) but runs only on insertion into
   a full cache, and plan caches are small (tens of entries). *)

type 'a entry = { value : 'a; mutable last_used : int }

(* A composed plan for a (view chain, user query) pair.  [deps] names
   everything the entry depends on: the chain's base document and every
   view along it, so dependency-graph invalidation can address the entry
   by any one of them.  Compose {e failures} are cached too — a query
   outside the fragment stays outside it until a view on the chain is
   redefined, and recomputing the failure per request would defeat the
   cache exactly where serving falls back to materialization. *)
type composed = { result : (Core.Composition.composed, string) result; deps : string list }

type t = {
  capacity : int;
  mu : Mutex.t;
  tbl : (string, plan entry) Hashtbl.t;
  ctbl : (string, composed entry) Hashtbl.t;
  wtbl : (string, Xut_update.Apply.plan entry) Hashtbl.t;
  mutable clock : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity must be at least 1";
  {
    capacity;
    mu = Mutex.create ();
    tbl = Hashtbl.create (max 16 capacity);
    ctbl = Hashtbl.create (max 16 capacity);
    wtbl = Hashtbl.create 16;
    clock = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let evict_lru t tbl =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, stamp) when stamp <= e.last_used -> acc
        | _ -> Some (key, e.last_used))
      tbl None
  in
  Option.iter
    (fun (key, _) ->
      Hashtbl.remove tbl key;
      t.evictions <- t.evictions + 1)
    victim

type outcome = Hit | Miss

(* Lookups are single-flight: a miss runs [make] while still holding the
   cache mutex, so concurrent requests for the same uncached key block
   briefly and then hit the fresh entry rather than compiling (and
   counting a miss) once per domain.  Compiling and composing are pure
   CPU work in the microsecond range, so holding the lock across them is
   cheaper than duplicate work.  [make] may raise; nothing is stored
   then. *)
let find_or_add t tbl key make =
  locked t (fun () ->
      match Hashtbl.find_opt tbl key with
      | Some e ->
        e.last_used <- tick t;
        (e.value, Hit)
      | None ->
        let value = make () in
        if Hashtbl.length tbl >= t.capacity then evict_lru t tbl;
        Hashtbl.replace tbl key { value; last_used = tick t };
        (value, Miss))

let find_or_compile t source = find_or_add t t.tbl source (fun () -> compile source)

let write_plan t text =
  fst
    (find_or_add t t.wtbl text (fun () ->
         Xut_update.Apply.plan (Core.Transform_parser.parse_updates text)))

(* [key] must capture everything the compose output depends on — the
   serving layer uses the chain signature (base name plus every view's
   name@generation) and the query text. *)
let find_or_compose t ~key ~deps f =
  let c, outcome = find_or_add t t.ctbl key (fun () -> { result = f (); deps }) in
  (c.result, outcome)

let invalidate_composed t ~dep =
  locked t (fun () ->
      let victims =
        Hashtbl.fold
          (fun key e acc -> if List.mem dep e.value.deps then key :: acc else acc)
          t.ctbl []
      in
      List.iter (Hashtbl.remove t.ctbl) victims;
      List.length victims)

let composed_entries t = locked t (fun () -> Hashtbl.length t.ctbl)

(* Snapshot the cached plans, then walk them outside the cache mutex:
   per-plan annotation mutexes never nest inside it. *)
let plans t = locked t (fun () -> Hashtbl.fold (fun _ e acc -> e.value :: acc) t.tbl [])

let invalidate t ~root_id =
  List.fold_left
    (fun n plan ->
      if Annotation_memo.invalidate plan.annotations ~root_id then n + 1 else n)
    0 (plans t)

type repair_totals = {
  repaired : int;
  fallbacks : int;
  recomputed_nodes : int;
  reused_nodes : int;
  rekeyed : int;
}

let repair ?footprint t ~old_root_id ~spine new_root =
  let footprint =
    match footprint with
    | Some fp -> fp
    | None -> lazy (Annotator.commit_footprint ~spine new_root)
  in
  List.fold_left
    (fun acc plan ->
      match
        Annotation_memo.repair ~footprint plan.annotations plan.nfa ~old_root_id ~spine new_root
      with
      | `Absent -> acc
      | `Fallback -> { acc with fallbacks = acc.fallbacks + 1 }
      | `Repaired (st : Annotator.repair_stats) ->
        {
          acc with
          repaired = acc.repaired + 1;
          recomputed_nodes = acc.recomputed_nodes + st.Annotator.recomputed;
          reused_nodes = acc.reused_nodes + st.Annotator.reused;
          rekeyed = (acc.rekeyed + if st.Annotator.rekeyed then 1 else 0);
        })
    { repaired = 0; fallbacks = 0; recomputed_nodes = 0; reused_nodes = 0; rekeyed = 0 }
    (plans t)

let annotation_entries t =
  List.fold_left (fun n plan -> n + Annotation_memo.count plan.annotations) 0 (plans t)

type stats = {
  evictions : int;
  entries : int;
  capacity : int;
  annotation_entries : int;
  composed_entries : int;
}

let stats t =
  let annotation_entries = annotation_entries t in
  locked t (fun () ->
      {
        evictions = t.evictions;
        entries = Hashtbl.length t.tbl;
        capacity = t.capacity;
        annotation_entries;
        composed_entries = Hashtbl.length t.ctbl;
      })
