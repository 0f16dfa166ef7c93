open Xut_xml
open Xut_xpath

type table = { sat : (int, bool array) Hashtbl.t; lq : Lq.t }

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

let has_any_qual nfa = not (Selecting_nfa.set_is_empty (Selecting_nfa.qual_states nfa))

(* ---- the step into an element, memoized ----

   What bottomUp needs at an element follows from three things only: the
   candidates its parent passes down, its parent's unchecked state set
   and its label.  A plan meets few distinct triples, so it computes each
   once (the transition and [compute]); every later element
   with the same triple, in any pass and any run of the plan, reads the
   stored step and allocates nothing: the memo is attached to the
   automaton.

   It is bounded and shared as the transition memo is: a fixed table,
   a triple probed in [step_probes] slots from its hash, a full window
   overwriting its first slot, so input that brings many names costs
   recomputation, never memory.  Entries are immutable, so a racy read
   sees a whole entry or the free slot, and a store racing with another
   may be lost, which costs one more computation later. *)

type demand = {
  seeds : Lq.set;
  candidates : Lq.set;
  own : int array;
  reads_text : bool;
}

type step = { states : Selecting_nfa.set; demand : demand; reaches : bool }

let step_slots = 512 (* power of two *)
let step_probes = 3

type slot = { k_cands : Lq.set; k_parent : Selecting_nfa.set; k_sym : Sym.t; step : step }

type demands = {
  d_nfa : Selecting_nfa.t;
  quals : Selecting_nfa.set;
  none : demand;
  free : slot;  (* physically, the empty slot *)
  slots : slot array;
  mutable computed : int;
}

let create nfa =
  let lq = Selecting_nfa.lq nfa in
  let empty = Lq.set_of_list lq [] in
  let none = { seeds = empty; candidates = empty; own = [||]; reads_text = false } in
  let start = Selecting_nfa.start nfa in
  let free =
    { k_cands = empty; k_parent = start; k_sym = -1;
      step = { states = start; demand = none; reaches = false } }
  in
  { d_nfa = nfa; quals = Selecting_nfa.qual_states nfa; none; free;
    slots = Array.make step_slots free; computed = 0 }

type Selecting_nfa.attached += Steps of demands

let steps nfa =
  match Selecting_nfa.attached nfa with
  | Steps m -> m
  | _ ->
    let m = create nfa in
    Selecting_nfa.attach nfa (Steps m);
    m

let no_demand m = m.none
let computed m = m.computed

let slot_hash cands parent sym =
  (Lq.set_hash cands * 31) lxor Selecting_nfa.set_hash parent lxor (sym * 0x85ebca6b) land max_int

let holds e cands parent sym =
  e.k_sym = sym && Selecting_nfa.set_equal e.k_parent parent && Lq.set_equal e.k_cands cands

(* the slot holding the triple, or the first free one in its window, or
   -1; a top-level loop, so a hit allocates nothing *)
let rec probe m h cands parent sym i =
  if i >= step_probes then -1
  else
    let j = (h + i) land (step_slots - 1) in
    let e = Array.unsafe_get m.slots j in
    if e == m.free || holds e cands parent sym then j else probe m h cands parent sym (i + 1)

(* The demand at an element in [states] named [name]: the candidates
   its name does not block and its own states' qualifiers, then
   [expand] of those. *)
let compute m cands states name =
  let nfa = m.d_nfa in
  let lq = Selecting_nfa.lq nfa in
  let own =
    List.sort_uniq compare
      (Selecting_nfa.set_fold
         (fun s acc -> Selecting_nfa.state_lq nfa s :: acc)
         (Selecting_nfa.set_inter states m.quals) [])
  in
  let inherited i = Lq.set_mem cands i && not (Lq.label_blocked lq i name) in
  match List.sort_uniq compare (List.filter inherited (List.init (Lq.length lq) Fun.id) @ own) with
  | [] -> m.none
  | seeds ->
    let active, candidates = expand lq ~name seeds in
    let reads_text = ref false in
    Array.iteri
      (fun i a -> if a then match Lq.expr lq i with Lq.Text_cmp _ -> reads_text := true | _ -> ())
      active;
    { seeds = Lq.set_of_list lq seeds; candidates = Lq.set_of_list lq candidates;
      own = Array.of_list own; reads_text = !reads_text }

let document_demand m ~name =
  let start = Selecting_nfa.start m.d_nfa in
  if Selecting_nfa.set_intersects start m.quals then compute m m.none.candidates start name else m.none

let step m here cands parent sym =
  let h = slot_hash cands parent sym in
  let j = probe m h cands parent sym 0 in
  let e = if j >= 0 then Array.unsafe_get m.slots j else m.free in
  if e != m.free then e.step
  else begin
    let nfa = m.d_nfa in
    let states = Selecting_nfa.next_unchecked nfa here parent sym in
    let demand =
      if Lq.set_is_empty cands && not (Selecting_nfa.set_intersects states m.quals) then m.none
      else compute m cands states (Sym.name sym)
    in
    (* a qualifier state strictly below: one or more any-label steps *)
    let below = Selecting_nfa.(next_on_desc_set nfa here (next_on_any_set nfa here states)) in
    let step = { states; demand; reaches = Selecting_nfa.set_intersects below m.quals } in
    m.computed <- m.computed + 1;
    m.slots.(if j >= 0 then j else h land (step_slots - 1)) <-
      { k_cands = cands; k_parent = parent; k_sym = sym; step };
    step
  end

let iter_kids f (e : Node.element) =
  List.iter
    (function Node.Element c -> f c | Node.Text _ | Node.Comment _ | Node.Pi _ -> ())
    (Node.children e)

let entry tbl id = Hashtbl.find_opt tbl.sat id

let seeded d = not (Lq.set_is_empty d.seeds)

(* bottomUp prunes an element entered with no states and no seeds *)
let live s = seeded s.demand || not (Selecting_nfa.set_is_empty s.states)

(* One walk's state: the plan's step memo, the walk's counter cells and
   one QualDP scratch.  [csat] reads the entries of [kids], the children
   of the element [record] evaluates, so one closure serves the walk. *)
type run = {
  m : demands;
  here : Counter.local;
  tbl : table;
  sc : Lq.scratch;
  skip : Node.element -> bool;
      (* a schema skip-set oracle: every configuration at or below a
         [true] element is seed-free, so the unpruned pass would write
         no entries there either *)
  mutable kids : Node.t list;
  csat : int -> bool;
  mutable written : int;
}

let rec csat r i = function
  | Node.Element c :: rest ->
    (match Hashtbl.find r.tbl.sat (Node.id c) with
    | arr -> arr.(i)
    | exception Not_found -> false)
    || csat r i rest
  | (Node.Text _ | Node.Comment _ | Node.Pi _) :: rest -> csat r i rest
  | [] -> false

let run ~skip nfa tbl =
  let m = steps nfa and here = Counter.local () and sc = Lq.scratch tbl.lq in
  let rec r =
    { m; here; tbl; sc; skip; kids = []; csat = (fun i -> csat r i r.kids); written = 0 }
  in
  r

let step_into r cands parent (e : Node.element) = step r.m r.here cands parent (Node.sym e)

(* [e]'s entry, from its children's entries already in the table. *)
let record r (e : Node.element) d =
  r.kids <- Node.children e;
  Lq.eval r.tbl.lq r.sc ~name:(Node.name e) ~attrs:(Node.attrs e)
    ~text:(if d.reads_text then Node.text_content e else "")
    ~csat:r.csat ~wanted:d.seeds;
  Hashtbl.replace r.tbl.sat (Node.id e) (Array.init (Lq.length r.tbl.lq) (Lq.holds r.sc));
  r.written <- r.written + 1

(* The bottomUp recursion, writing entries into the table.  [cands] are
   the candidates [e]'s parent passes down and [parent] its state set;
   both are functions of the ancestor names only, so an entry depends on
   nothing but the node's subtree and its demand — the
   subtree-locality that [repair] exploits. *)
let rec annotate_subtree r (e : Node.element) cands parent =
  if not (r.skip e) then begin
    let s = step_into r cands parent e in
    if live s then begin
      annotate_kids r s.demand.candidates s.states (Node.children e);
      if seeded s.demand then record r e s.demand
    end
  end

and annotate_kids r cands parent = function
  | Node.Element c :: rest ->
    annotate_subtree r c cands parent;
    annotate_kids r cands parent rest
  | (Node.Text _ | Node.Comment _ | Node.Pi _) :: rest -> annotate_kids r cands parent rest
  | [] -> ()

let never _ = false

let annotate ?(skip = never) nfa root =
  let tbl = { sat = Hashtbl.create 1024; lq = Selecting_nfa.lq nfa } in
  if has_any_qual nfa then begin
    let r = run ~skip nfa tbl in
    annotate_subtree r root r.m.none.candidates (Selecting_nfa.start nfa)
  end;
  tbl

type repair_stats = { recomputed : int; reused : int; dropped : int; rekeyed : bool }

(* Same text children, physically, in the same order: the two elements'
   [Node.text_content] agree. *)
let rec same_text a b =
  match (a, b) with
  | (Node.Element _ | Node.Comment _ | Node.Pi _) :: a, b
  | a, (Node.Element _ | Node.Comment _ | Node.Pi _) :: b ->
    same_text a b
  | Node.Text x :: a, Node.Text y :: b -> x == y && same_text a b
  | [], [] -> true
  | Node.Text _ :: _, [] | [], Node.Text _ :: _ -> false

(* Sort [e]'s children against [oe]'s in one ordered pass.
   [Apply.materialize] keeps the old order: each new child is the old
   child itself ([shared]), a rebuild of the old child the spine map
   names ([rebuilt]), or inserted/replacement content ([fresh]); old
   children passed over are [departed].  Matching the head of the old
   list settles every shared or rebuilt child of an insert; an index of
   the remaining old ids is built only when a child does not match it
   (fresh content, or a deletion before it). *)
let align spine (oe : Node.element) (e : Node.element) ~shared ~rebuilt ~fresh ~departed =
  let olds = ref (Node.children oe) in
  let rec at_head id =
    match !olds with
    | Node.Element oc :: _ -> Node.id oc = id
    | (Node.Text _ | Node.Comment _ | Node.Pi _) :: rest ->
      olds := rest;
      at_head id
    | [] -> false
  in
  (* ids of the old children not yet consumed, built on first need *)
  let index = ref None in
  let old_ids () =
    match !index with
    | Some ix -> ix
    | None ->
      let ix = Hashtbl.create 16 in
      List.iter
        (function
          | Node.Element oc -> Hashtbl.replace ix (Node.id oc) ()
          | Node.Text _ | Node.Comment _ | Node.Pi _ -> ())
        !olds;
      index := Some ix;
      ix
  in
  let remaining id = at_head id || (!olds <> [] && Hashtbl.mem (old_ids ()) id) in
  (* consume old children up to and including [id], which [remaining]
     vouched for *)
  let rec take id =
    match !olds with
    | [] -> ()
    | n :: rest -> (
      olds := rest;
      match n with
      | Node.Element oc ->
        (match !index with Some ix -> Hashtbl.remove ix (Node.id oc) | None -> ());
        if Node.id oc <> id then begin
          departed oc;
          take id
        end
      | Node.Text _ | Node.Comment _ | Node.Pi _ -> take id)
  in
  iter_kids
    (fun c ->
      let id = Node.id c in
      if at_head id then begin
        take id;
        shared c
      end
      else
        match Hashtbl.find_opt spine id with
        | Some oc when remaining (Node.id oc) ->
          take (Node.id oc);
          rebuilt oc c
        | _ ->
          if remaining id then begin
            take id;
            shared c
          end
          else fresh c)
    e;
  List.iter
    (function Node.Element oc -> departed oc | Node.Text _ | Node.Comment _ | Node.Pi _ -> ())
    !olds

(* What one commit touched, by label, from its diff: the labels of the
   inserted, replacement and departed material and both names of each
   rename ([touched]), and the labels of the rebuilt spine
   ([spine_labels]).  One [align] pass over the spine pairs; shared
   children are passed over, material is walked whole. *)
type commit_footprint = {
  touched : (Sym.t, unit) Hashtbl.t;
  spine_labels : (Sym.t, unit) Hashtbl.t;
}

let commit_footprint ~spine new_root =
  let fp = { touched = Hashtbl.create 16; spine_labels = Hashtbl.create 16 } in
  let add tbl (e : Node.element) = Hashtbl.replace tbl (Node.sym e) () in
  let material e = Node.iter_elements (add fp.touched) e in
  let rec pair oe e =
    add fp.spine_labels e;
    if Node.sym oe <> Node.sym e then begin
      add fp.touched oe;
      add fp.touched e
    end;
    align spine oe e ~shared:ignore ~rebuilt:pair ~fresh:material ~departed:material
  in
  (match Hashtbl.find_opt spine (Node.id new_root) with
  | Some old_root -> pair old_root new_root
  | None -> material new_root);
  fp

(* A plan cannot observe the commit when no label it tables entries at
   was inserted, removed or renamed, and no label it compares text at
   lies on the rebuilt spine (text inserted or replaced under a spine
   node changes only that node's string value).  Then every entry is
   what it was: shared nodes keep their subtrees and demand (a renamed
   ancestor's old and new names are both outside the plan's labels, so
   they drive the automaton and the label guards alike), material holds
   no entries on either side, and a spine node differs from its old
   counterpart only by children without entries and by a string value
   no qualifier reads there.  [compared] is a subset of [labels], so
   the touched labels need checking against [labels] only. *)
let independent nfa fp =
  match Selecting_nfa.footprint nfa with
  | None -> false
  | Some { Selecting_nfa.labels; compared } ->
    let fp = Lazy.force fp in
    not
      (List.exists (Hashtbl.mem fp.touched) labels
      || List.exists (Hashtbl.mem fp.spine_labels) compared)

(* The old table with each spine entry moved from its old id to its
   fresh one: the whole repair of an independent plan. *)
let rekey old_table ~spine =
  let sat = Hashtbl.rebuild old_table.sat in
  Hashtbl.iter
    (fun fresh_id oe ->
      match Hashtbl.find_opt old_table.sat (Node.id oe) with
      | Some arr ->
        Hashtbl.remove sat (Node.id oe);
        Hashtbl.replace sat fresh_id arr
      | None -> ())
    spine;
  ( { sat; lq = old_table.lq },
    { recomputed = 0; reused = Hashtbl.length sat; dropped = 0; rekeyed = true } )

(* Incremental repair after a commit: the new tree shares every untouched
   subtree with the old one (same element ids), and entries are
   subtree-local, so the old entries for shared subtrees are still valid
   wherever the demand reaching them is unchanged.  We copy the old table
   (a flat id -> array copy, no tree traversal and no qualifier
   evaluation), then walk the rebuilt spine pairing each fresh element
   with its old counterpart.  Work stays on the spine and its direct
   children: a shared child under a spine pair that propagates the same
   demand as its old counterpart is cut off without a look; fresh
   elements are annotated; a shared subtree whose demand changed (a
   rename above it) is re-annotated; a spine element evaluated from the
   same inputs as its old counterpart takes over the old entry; and
   stale entries are scrubbed by replaying the old run's walk, which
   visits exactly the nodes it wrote and stops where it pruned. *)
let repair ?footprint nfa ~old_table ~spine new_root =
  match Hashtbl.find_opt spine (Node.id new_root) with
  | None -> None (* degenerate diff: the document element was replaced *)
  | Some old_root ->
    let lq = Selecting_nfa.lq nfa in
    let footprint =
      match footprint with Some fp -> fp | None -> lazy (commit_footprint ~spine new_root)
    in
    if not (has_any_qual nfa) then
      Some
        ( { sat = Hashtbl.create 16; lq },
          { recomputed = 0; reused = 0; dropped = 0; rekeyed = false } )
    else if independent nfa footprint then Some (rekey old_table ~spine)
    else begin
      (* [rebuild], not [copy]: [copy]'s [Array.map] seeds the new
         bucket array with the copy of bucket 0, a young block, and the
         runtime answers a young initial value for an array too large
         for the minor heap (over 256 buckets) with a forced minor
         collection. *)
      let r = run ~skip:never nfa { sat = Hashtbl.rebuild old_table.sat; lq } in
      let dropped = ref 0 in
      let drop id =
        if Hashtbl.mem r.tbl.sat id then begin
          Hashtbl.remove r.tbl.sat id;
          incr dropped
        end
      in
      (* The old run's walk over an old subtree it reached with the
         candidates [cands] from a parent in states [parent], dropping
         what it wrote. *)
      let rec scrub cands parent oe =
        let s = step_into r cands parent oe in
        if live s then begin
          drop (Node.id oe);
          iter_kids (scrub s.demand.candidates s.states) oe
        end
      in
      (* Fresh material is annotated unpruned: a skip-set changes what
         a build visits, never what it writes (see [annotate]). *)
      let fresh cands parent e = annotate_subtree r e cands parent in
      (* A shared node reached from the old and the new parent: its
         entries stand iff both runs enter it in the same configuration. *)
      let reuse (old_cands, old_parent) (cands, parent) e =
        let s = step_into r cands parent e and os = step_into r old_cands old_parent e in
        if
          not
            (Selecting_nfa.set_equal s.states os.states
            && Lq.set_equal s.demand.seeds os.demand.seeds)
        then begin
          scrub old_cands old_parent e;
          fresh cands parent e
        end
      in
      (* [oe] is an old spine element and [e] its fresh rebuild; the two
         (candidates, parent states) pairs are what the old and new runs
         pass down to them, which diverge only below a renamed spine
         node. *)
      let rec pair (old_cands, old_parent) (cands, parent) oe e =
        drop (Node.id oe) (* [oe]'s id left the tree with it *);
        let os = step_into r old_cands old_parent oe and s = step_into r cands parent e in
        let od = os.demand and d = s.demand in
        let departed = scrub od.candidates os.states in
        if not (live s) then begin
          (* The fresh run prunes here: whatever the old run wrote below
             [oe] must go (shared children included — they are in the
             new tree, unneeded); if it pruned here too, it wrote
             nothing. *)
          if live os then iter_kids departed oe
        end
        else begin
          let old_down = (od.candidates, os.states) and down = (d.candidates, s.states) in
          (* Every child's demand is a function of (candidates, states)
             and its own label, so when both match the old side's, the
             shared children's entries all stand. *)
          let cut_off =
            Selecting_nfa.set_equal s.states os.states
            && Lq.set_equal d.candidates od.candidates
          in
          (* [e] evaluates exactly as [oe] did — same seeds, label,
             attributes and text — until some child's entry changes *)
          let same_eval =
            ref
              (Node.sym oe = Node.sym e
              && Lq.set_equal od.seeds d.seeds
              && Node.attrs oe == Node.attrs e
              && same_text (Node.children oe) (Node.children e))
          in
          let changed old_id id =
            if entry old_table old_id <> entry r.tbl id then same_eval := false
          in
          align spine oe e
            ~departed:(fun oc ->
              departed oc;
              if Hashtbl.mem old_table.sat (Node.id oc) then same_eval := false)
            ~shared:(fun c ->
              if not cut_off then begin
                reuse old_down down c;
                changed (Node.id c) (Node.id c)
              end)
            ~rebuilt:(fun oc c ->
              pair old_down down oc c;
              changed (Node.id oc) (Node.id c))
            ~fresh:(fun c ->
              fresh d.candidates s.states c;
              if Hashtbl.mem r.tbl.sat (Node.id c) then same_eval := false);
          if seeded d then
            match entry old_table (Node.id oe) with
            | Some sat when !same_eval ->
              Hashtbl.replace r.tbl.sat (Node.id e) sat;
              r.written <- r.written + 1
            | _ -> record r e d
        end
      in
      let start = (r.m.none.candidates, Selecting_nfa.start nfa) in
      pair start start old_root new_root;
      Some
        ( r.tbl,
          {
            recomputed = r.written;
            reused = Hashtbl.length r.tbl.sat - r.written;
            dropped = !dropped;
            rekeyed = false;
          } )
    end

(* [Hashtbl.find], not [entry]: a lookup per qualifier check, so no
   [Some] per lookup *)
let sat tbl n i =
  match Hashtbl.find tbl.sat (Node.id n) with arr -> arr.(i) | exception Not_found -> false

let checkp tbl nfa s n = sat tbl n (Selecting_nfa.state_lq nfa s)

let annotated_count tbl = Hashtbl.length tbl.sat
