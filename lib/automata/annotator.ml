open Xut_xml
open Xut_xpath

(* ---- the table ----

   An [Id_table] over element ids: slot [s] holds an element's entry,
   [words] ints from [s * words]: the LQ expressions true there as a
   bitset, [word_bits] to a word, so a list of up to 62 expressions
   (every Fig. 11 plan) takes one word.  A table is written only while
   it is built or repaired, by the one domain doing it, and read only
   once published: a lookup is one probe and one bit test, and a copy is
   two array copies.

   A re-key's table is an overlay: its own arrays hold only the moved
   spine entries, under their fresh ids, and every other lookup goes to
   the table [below], shared and never written again.  Fresh ids are
   allocated after every element of the old tree, so an id at or above
   the overlay's [floor] (its least fresh id) is the overlay's to
   answer, present or not, and one below it is [below]'s: a lookup
   takes one comparison per overlay it passes, and still one probe.
   [gone] lists the old ids whose entries moved up, for [flatten]. *)

type table = { lq : Lq.t; ids : Id_table.t; under : under }

and under =
  | Flat
  | Over of {
      floor : int;
      below : table;
      depth : int;
      gone : int array; (* [Id_table.absent]-padded *)
    }

let word_bits = 62

(* Overlays a chain may stack before a re-key flattens it: a lookup
   passes at most this many comparisons before its probe. *)
let max_overlay_depth = 8

let create lq =
  { lq; ids = Id_table.create ~words:(max 1 ((Lq.length lq + word_bits - 1) / word_bits)) 1;
    under = Flat }

(* A flat table of [t]'s own entries *)
let copy t = { t with ids = Id_table.copy t.ids; under = Flat }

(* [id]'s slot in [t]'s own arrays, or -1 *)
let find t id = Id_table.find t.ids id

(* The table along [t]'s chain whose own arrays answer for [id]: [t]
   itself unless it is an overlay and [id] lies below its floor. *)
let rec holder t id =
  match t.under with Over o when id < o.floor -> holder o.below id | Flat | Over _ -> t

let remove t id = Id_table.remove t.ids id

(* Expression [i] at the entry in slot [s] of [t]'s own arrays (-1:
   none) *)
let bit t s i =
  let ids = t.ids in
  s >= 0
  && Array.unsafe_get ids.vals ((s * ids.words) + (i / word_bits)) land (1 lsl (i mod word_bits)) <> 0

(* Expression [i] at [id], through the chain *)
let bit_at t id i =
  let h = holder t id in
  bit h (find h id) i

(* Copy [src]'s entry at [ids] to [dst]'s own arrays at [id]; [false]
   when there is none. *)
let take_entry ~src ids dst id =
  let src = holder src ids in
  let ss = find src ids in
  ss >= 0
  &&
  let s = Id_table.claim dst.ids id (* may grow [dst]: taken before its arrays are read *) in
  Id_table.copy_entry ~src:src.ids ss dst.ids s;
  true

(* One flat table of the entries [t] answers for: its base's arrays
   copied, then each overlay's moves replayed, from the bottom up. *)
let rec flatten t =
  match t.under with
  | Flat -> copy t
  | Over o ->
    let f = flatten o.below in
    Array.iter (fun id -> if id <> Id_table.absent then ignore (remove f id : bool)) o.gone;
    Id_table.iter
      (fun id s ->
        let d = Id_table.claim f.ids id (* may grow [f]: taken before its arrays are read *) in
        Id_table.copy_entry ~src:t.ids s f.ids d)
      t.ids;
    f

let has_any_qual nfa = not (Selecting_nfa.set_is_empty (Selecting_nfa.qual_states nfa))

let seeded (d : Dfa.demand) = not (Lq.set_is_empty d.seeds)

(* bottomUp prunes an element entered with no states and no seeds *)
let live (s : Dfa.step) = seeded s.demand || not s.child.empty

(* One walk's state: the plan's DFA, the walk's counter cells and
   one QualDP scratch.  [csat] reads the entries of [kids], the children
   of the element [record] evaluates, so one closure serves the walk. *)
type run = {
  dfa : Dfa.t;
  here : Counter.local;
  tbl : table;
  sc : Lq.scratch;
  skip : Node.element -> bool;
      (* a schema skip-set oracle: every configuration at or below a
         [true] element is seed-free, so the unpruned pass would write
         no entries there either *)
  mutable kids : Node.t list;
  csat : int -> bool;
}

let rec csat r i = function
  | Node.Element c :: rest -> bit r.tbl (find r.tbl c.Node.id) i || csat r i rest
  | (Node.Text _ | Node.Comment _ | Node.Pi _) :: rest -> csat r i rest
  | [] -> false

let run ~skip nfa tbl =
  let dfa = Dfa.of_nfa nfa and here = Counter.local () and sc = Lq.scratch tbl.lq in
  let rec r =
    { dfa; here; tbl; sc; skip; kids = []; csat = (fun i -> csat r i r.kids) }
  in
  r

(* [e]'s entry, from its children's entries already in the table. *)
let record r (e : Node.element) (d : Dfa.demand) =
  r.kids <- e.Node.children;
  let t = r.tbl in
  Lq.eval t.lq r.sc ~name:e.Node.name ~attrs:e.Node.attrs
    ~text:(if d.reads_text then Node.text_content e else "")
    ~csat:r.csat ~wanted:d.seeds;
  let ids = t.ids in
  let base = Id_table.claim ids e.Node.id * ids.words in
  for i = 0 to Lq.length t.lq - 1 do
    if Lq.holds r.sc i then begin
      let j = base + (i / word_bits) in
      ids.vals.(j) <- ids.vals.(j) lor (1 lsl (i mod word_bits))
    end
  done

(* The bottomUp recursion, writing entries into the table.  [parent]
   is the configuration of [e]'s parent, its states and the candidates
   it passes down: a function of the ancestor names only, so an entry
   depends on nothing but the node's subtree and its demand — the
   subtree-locality that [repair]'s re-key relies on. *)
let rec annotate_subtree r (e : Node.element) parent =
  if not (r.skip e) then begin
    let s = Dfa.step r.dfa r.here parent e.Node.sym in
    if live s then begin
      annotate_kids r s.child e.Node.children;
      if seeded s.demand then record r e s.demand
    end
  end

and annotate_kids r parent = function
  | Node.Element c :: rest ->
    annotate_subtree r c parent;
    annotate_kids r parent rest
  | (Node.Text _ | Node.Comment _ | Node.Pi _) :: rest -> annotate_kids r parent rest
  | [] -> ()

let never _ = false

let annotate ?(skip = never) nfa root =
  let tbl = create (Selecting_nfa.lq nfa) in
  if has_any_qual nfa then begin
    let r = run ~skip nfa tbl in
    annotate_subtree r root (Dfa.start r.dfa)
  end;
  tbl

type repair_stats = { recomputed : int; reused : int; rekeyed : bool }

(* An overlay holds one entry for each entry it took from below *)
let rec annotated_count t =
  match t.under with
  | Flat -> Id_table.length t.ids
  | Over o -> annotated_count o.below

(* What one commit touched, by label, from its diff: the labels of the
   inserted, replacement and departed material and both names of each
   rename ([touched]), and the labels of the rebuilt spine
   ([spine_labels]), each a bitset over symbols, 63 to a word.  One
   pass over the spine pairs' child lists ([Node.align]); shared children
   are passed over, material is walked whole. *)
type commit_footprint = { touched : int array; spine_labels : int array }

let label_set () = Array.make ((Sym.count () / 63) + 1) 0

let add_label set sym =
  let w = sym / 63 in
  set.(w) <- set.(w) lor (1 lsl (sym mod 63))

(* Symbols interned after the set was made are in no commit's trees *)
let has set sym =
  let w = sym / 63 in
  w < Array.length set && Array.unsafe_get set w land (1 lsl (sym mod 63)) <> 0

let commit_footprint ~spine new_root =
  let touched = label_set () and spine_labels = label_set () in
  let add set (e : Node.element) = add_label set e.Node.sym in
  let rec material (e : Node.element) =
    add touched e;
    materials e.Node.children
  and materials = function
    | Node.Element c :: rest ->
      material c;
      materials rest
    | (Node.Text _ | Node.Comment _ | Node.Pi _) :: rest -> materials rest
    | [] -> ()
  in
  let rec pair oe e =
    add spine_labels e;
    if Node.sym oe <> Node.sym e then begin
      add touched oe;
      add touched e
    end;
    Node.align spine oe e ~shared:ignore ~rebuilt:pair ~fresh:material ~departed:material
  in
  (match Hashtbl.find_opt spine (Node.id new_root) with
  | Some old_root -> pair old_root new_root
  | None -> material new_root);
  { touched; spine_labels }

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
    not (List.exists (has fp.touched) labels || List.exists (has fp.spine_labels) compared)

(* The old table with each spine entry moved from its old id to its
   fresh one: the whole repair of an independent plan.  The moved
   entries make an overlay on the old table (see the table's comment);
   past [max_overlay_depth] overlays the chain is flattened into one
   flat table, the entries moved in place. *)
let rekey nfa old ~spine =
  (* only an element of a plan label holds an entry *)
  let tabled =
    match Selecting_nfa.footprint nfa with
    | Some fp ->
      let labels = label_set () in
      List.iter (add_label labels) fp.Selecting_nfa.labels;
      fun (oe : Node.element) -> has labels oe.Node.sym
    | None -> fun _ -> true
  in
  let depth = match old.under with Flat -> 1 | Over o -> o.depth + 1 in
  let t =
    if depth > max_overlay_depth then begin
      let t = flatten old in
      Hashtbl.iter
        (fun fresh_id oe ->
          if tabled oe && remove t oe.Node.id then
            ignore (take_entry ~src:old oe.Node.id t fresh_id : bool))
        spine;
      t
    end
    else begin
      (* allocated at the first entry that moves, sized once: at most
         one entry per spine element *)
      let t = create old.lq and gone = ref [||] and moved = ref 0 and floor = ref max_int in
      Hashtbl.iter
        (fun fresh_id oe ->
          if fresh_id < !floor then floor := fresh_id;
          if tabled oe then begin
            let id = oe.Node.id in
            let src = holder old id in
            let si = find src id in
            if si >= 0 then begin
              if !moved = 0 then begin
                let n = Hashtbl.length spine and slots = ref 64 in
                while !slots < 2 * (n + 1) do
                  slots := 2 * !slots
                done;
                Id_table.resize t.ids !slots;
                gone := Array.make n Id_table.absent
              end;
              (* sized for the whole spine: no growth, and every word
                 of the entry is written *)
              Id_table.copy_entry ~src:src.ids si t.ids (Id_table.place t.ids fresh_id);
              !gone.(!moved) <- id;
              incr moved
            end
          end)
        spine;
      (* no spine element held an entry: every entry is where it was *)
      if Id_table.length t.ids = 0 then old
      else { t with under = Over { floor = !floor; below = old; depth; gone = !gone } }
    end
  in
  (t, { recomputed = 0; reused = annotated_count t; rekeyed = true })

(* A table for the committed tree: the old one re-keyed when the plan
   cannot observe the commit, and otherwise the new root annotated
   afresh, with no skip-set (a skip-set changes what a build visits,
   never what it writes). *)
let repair ?footprint nfa ~old_table ~spine new_root =
  if not (Hashtbl.mem spine (Node.id new_root)) then
    None (* degenerate diff: the document element was replaced *)
  else if not (has_any_qual nfa) then
    Some (create (Selecting_nfa.lq nfa), { recomputed = 0; reused = 0; rekeyed = false })
  else
    let footprint =
      match footprint with Some fp -> fp | None -> lazy (commit_footprint ~spine new_root)
    in
    if independent nfa footprint then Some (rekey nfa old_table ~spine)
    else
      let t = annotate nfa new_root in
      Some (t, { recomputed = annotated_count t; reused = 0; rekeyed = false })

let sat tbl (n : Node.element) i = bit_at tbl n.Node.id i

(* A flat table's checker probes its own arrays directly *)
let checkp tbl nfa =
  let lqs = Selecting_nfa.state_lqs nfa in
  match tbl.under with
  | Flat -> fun s (n : Node.element) -> bit tbl (find tbl n.Node.id) lqs.(s)
  | Over _ -> fun s (n : Node.element) -> bit_at tbl n.Node.id lqs.(s)

let overlay_depth tbl = match tbl.under with Flat -> 0 | Over o -> o.depth

let wrapped tbl = Id_table.wrapped tbl.ids
