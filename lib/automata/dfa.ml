open Xut_xml
open Xut_xpath
module Nfa = Selecting_nfa

type demand = {
  seeds : Lq.set;
  candidates : Lq.set;
  own : int array;
  reads_text : bool;
}

type config = {
  id : int;
  states : Nfa.set;
  cands : Lq.set;
  accepts : bool;
  empty : bool;
  moves : bool;
}

type step = {
  child : config;
  plain : config;
  unmet : config;
  demand : demand;
  reaches : bool;
  tr : Nfa.transition;
  gated : bool;
  mutable checked : config list;
}

(* ---- the table ----

   A step from configuration [id] on letter [l] sits in slot
   [id * letters + l] of one array, published through an atomic; a slot
   nobody computed yet holds the plan's [absent] step.  Reads take no
   lock.  A miss computes the step under the plan's mutex, interning the
   configurations it reaches, and only then stores it: interning a
   configuration first makes room for its row, so the table is grown
   and republished before any step naming the new id is written, and
   the step is written into the array that is current under the mutex.
   A reader that finds a step in an array therefore finds that array
   long enough for its target's row, and every later [Atomic.get]
   returns that array or a longer one.  Steps are immutable but for
   their list of checked targets, which is replaced whole under the
   mutex, so a racy read sees an older list or the new one, never a
   torn one; a read of an old list misses and takes the mutex.  Every
   read of a slot is bounds-checked all the same, so a configuration
   past the cap, whose id is -1, or a table older than an id, costs a
   miss and never an unsafe read. *)

let id_cap = 1024
let initial_ids = 4

let hits = Counter.declare "nfa_memo_hits"
let misses = Counter.declare "nfa_memo_misses"

type t = {
  nfa : Nfa.t;
  lq : Lq.t;
  quals : Nfa.set;
  letter : int array;  (* symbol -> letter, for the symbols below its length *)
  letters : int;  (* the last is every other symbol's *)
  none : demand;
  absent : step;  (* physically, the empty slot *)
  start : config;
  table : step array Atomic.t;
  mu : Mutex.t;
  (* the rest is read and written under [mu] only *)
  index : (Nfa.set * Lq.set, config) Hashtbl.t;
  mutable size : int;
  mutable computed : int;
}

(* Expressions to evaluate at a node ("active" set), expanded from the
   seeds with short-circuiting on label guards, plus the seeds each child
   must evaluate (the Child/Desc sub-expressions reachable here). *)
let expand lq ~name seeds =
  let n = Lq.length lq in
  let active = Array.make n false in
  let child_candidates = ref [] in
  let rec activate i =
    if not active.(i) then begin
      active.(i) <- true;
      match Lq.expr lq i with
      | Lq.Seq (a, b) ->
        activate a;
        if not (Lq.label_blocked lq a name) then activate b
      | Lq.And_ (a, b) | Lq.Or_ (a, b) ->
        activate a;
        activate b
      | Lq.Not_ a -> activate a
      | Lq.Child p -> child_candidates := p :: !child_candidates
      | Lq.Desc p ->
        (* //p holds here iff p holds here or //p holds at a child *)
        activate p;
        child_candidates := i :: !child_candidates
      | Lq.True_ | Lq.Label_is _ | Lq.Text_cmp _ | Lq.Attr_cmp _ | Lq.Attr_exists _ -> ()
    end
  in
  List.iter activate seeds;
  (active, List.sort_uniq compare !child_candidates)

(* The demand at an element in [states] named [name] whose parent passes
   down [cands]: the candidates its name does not block and its own
   states' qualifiers, then [expand] of those. *)
let demand_at t cands states name =
  let lq = t.lq in
  let own =
    List.sort_uniq compare
      (Nfa.set_fold (fun s acc -> Nfa.state_lq t.nfa s :: acc) (Nfa.set_inter states t.quals) [])
  in
  let inherited i = Lq.set_mem cands i && not (Lq.label_blocked lq i name) in
  match List.sort_uniq compare (List.filter inherited (List.init (Lq.length lq) Fun.id) @ own) with
  | [] -> t.none
  | seeds ->
    let active, candidates = expand lq ~name seeds in
    let reads_text = ref false in
    Array.iteri
      (fun i a -> if a then match Lq.expr lq i with Lq.Text_cmp _ -> reads_text := true | _ -> ())
      active;
    { seeds = Lq.set_of_list lq seeds; candidates = Lq.set_of_list lq candidates;
      own = Array.of_list own; reads_text = !reads_text }

let make nfa id states cands =
  { id; states; cands; accepts = Nfa.accepts_set nfa states; empty = Nfa.set_is_empty states;
    moves = not (Nfa.set_is_empty (Nfa.next_on_any_set nfa states)) }

(* The configuration [(states, cands)], interned while ids last. *)
let intern t states cands =
  match Hashtbl.find_opt t.index (states, cands) with
  | Some c -> c
  | None when t.size >= id_cap -> make t.nfa (-1) states cands
  | None ->
    let c = make t.nfa t.size states cands in
    let table = Atomic.get t.table in
    if (c.id + 1) * t.letters > Array.length table then begin
      let longer = Array.make (2 * Array.length table) t.absent in
      Array.blit table 0 longer 0 (Array.length table);
      Atomic.set t.table longer
    end;
    Hashtbl.add t.index (states, cands) c;
    t.size <- c.id + 1;
    c

(* The alphabet: each symbol the NFA names its own letter, and one
   letter, the last, for every other symbol. *)
let alphabet nfa =
  let named = Nfa.named nfa in
  let letter = Array.make (List.fold_left max (-1) named + 1) (-1) in
  let other =
    List.fold_left
      (fun n sym ->
        if letter.(sym) >= 0 then n
        else begin
          letter.(sym) <- n;
          n + 1
        end)
      0 named
  in
  (Array.map (fun l -> if l < 0 then other else l) letter, other + 1)

let create nfa =
  let lq = Nfa.lq nfa and start = Nfa.start nfa in
  let empty = Lq.set_of_list lq [] in
  let none = { seeds = empty; candidates = empty; own = [||]; reads_text = false } in
  let nowhere = make nfa (-1) start empty in
  let absent =
    { child = nowhere; plain = nowhere; unmet = nowhere; demand = none; reaches = false;
      tr = Nfa.transition nfa start (-1); gated = false; checked = [] }
  in
  let (letter, letters), start = (alphabet nfa, make nfa 0 start empty) in
  let index = Hashtbl.create 16 in
  Hashtbl.add index (start.states, empty) start;
  { nfa; lq; quals = Nfa.qual_states nfa; letter; letters; none; absent; start;
    table = Atomic.make (Array.make (initial_ids * letters) absent); mu = Mutex.create ();
    index; size = 1; computed = 0 }

type Nfa.attached += Dfa of t

let of_nfa nfa =
  match Nfa.attached nfa with
  | Dfa t -> t
  | _ -> (match Nfa.attach nfa (Dfa (create nfa)) with Dfa t -> t | _ -> assert false)

let nfa t = t.nfa
let unused t = t.absent
let start t = t.start

let config t ?(cands = t.none.candidates) states =
  Mutex.protect t.mu (fun () -> intern t states cands)

let start_checked t ~checkp x =
  if Nfa.checks_document t.nfa then config t (Nfa.start_checked t.nfa ~checkp x) else start t

let document_demand t ~name =
  let start = Nfa.start t.nfa in
  if Nfa.set_intersects start t.quals then demand_at t t.none.candidates start name else t.none

let letter t sym = if sym < Array.length t.letter then Array.unsafe_get t.letter sym else t.letters - 1

(* the step in [c]'s row at [letter], or [absent] *)
let find t c letter =
  let table = Atomic.get t.table in
  let i = (c.id * t.letters) + letter in
  if c.id >= 0 && i < Array.length table then Array.unsafe_get table i else t.absent

let compute t c letter sym =
  Mutex.protect t.mu (fun () ->
      let e = find t c letter in
      if e != t.absent then e
      else begin
        let tr = Nfa.transition t.nfa c.states sym in
        let states = tr.closed in
        let demand =
          if Lq.set_is_empty c.cands && not (Nfa.set_intersects states t.quals) then t.none
          else demand_at t c.cands states (Sym.name sym)
        in
        (* a qualifier state strictly below: one or more any-label steps *)
        let reaches =
          (not (Nfa.set_is_empty t.quals))
          && Nfa.set_intersects (Nfa.next_on_desc_set t.nfa (Nfa.next_on_any_set t.nfa states)) t.quals
        in
        let gated = not (Nfa.set_is_empty tr.checks) in
        let plain = intern t states t.none.candidates in
        let e =
          { child = intern t states demand.candidates; plain;
            unmet = (if gated then intern t tr.closed_nq t.none.candidates else plain); demand;
            reaches; tr; gated; checked = [] }
        in
        t.computed <- t.computed + 1;
        if c.id >= 0 then (Atomic.get t.table).((c.id * t.letters) + letter) <- e;
        e
      end)

let step t here c sym =
  let letter = letter t sym in
  let e = find t c letter in
  if e != t.absent then begin
    Counter.bump_local here hits;
    e
  end
  else begin
    Counter.bump_local here misses;
    compute t c letter sym
  end

(* the target among [cs] holding [states], or [absent.child]; a
   top-level loop, so a found one allocates nothing *)
let rec find_checked t states = function
  | c :: rest -> if Nfa.set_equal c.states states then c else find_checked t states rest
  | [] -> t.absent.child

let add_checked t e states =
  Mutex.protect t.mu (fun () ->
      let c = find_checked t states e.checked in
      if c != t.absent.child then c
      else begin
        let c = intern t states t.none.candidates in
        e.checked <- c :: e.checked;
        c
      end)

let next t here ~checkp x c sym =
  let e = step t here c sym in
  if not e.gated then e.plain
  else
    let states = Nfa.checked t.nfa e.tr ~checkp x in
    if states == e.tr.closed then e.plain
    else if states == e.tr.closed_nq then e.unmet
    else
      let c = find_checked t states e.checked in
      if c != t.absent.child then c else add_checked t e states

let computed t = Mutex.protect t.mu (fun () -> t.computed)
let size t = Mutex.protect t.mu (fun () -> t.size)
let configs t =
  Mutex.protect t.mu (fun () ->
      List.sort (fun a b -> compare a.id b.id) (Hashtbl.fold (fun _ c acc -> c :: acc) t.index []))
