open Xut_xml
open Xut_xpath
open Xut_automata

exception Unsupported_streaming of string

type source = (Sax.event -> unit) -> unit

type run_stats = {
  max_stack_depth : int;
  truth_entries : int;
  elements_seen : int;
  skipped_subtrees : int;
  skipped_elements : int;
  regions : int;
  parses : int;
  peak_held_bytes : int;
}

(* Ld: truth of top-level qualifier [lq] at the element with document-order
   number [seq].  Both passes number start-tags identically, so (seq, lq)
   is a faithful replacement for the paper's cursor ids.  An
   open-addressing table over the int key [seq * nlq + lq] (seq is -1 at
   the document node, so keys start at [-nlq]): [set] and [get] allocate
   nothing, and [clear] resets only the slots in use, listed in [used]. *)
module Truth = struct
  type t = {
    nlq : int;
    mutable keys : int array;  (* [absent] where free *)
    mutable values : Bytes.t;
    mutable used : int array;  (* the taken slots, [count] of them *)
    mutable count : int;
  }

  let absent = min_int

  let create ~nlq =
    { nlq = max 1 nlq; keys = Array.make 16 absent; values = Bytes.make 16 '\000';
      used = Array.make 16 0; count = 0 }

  let rec slot keys key j =
    let k = Array.unsafe_get keys j in
    if k = key || k = absent then j else slot keys key ((j + 1) land (Array.length keys - 1))

  let find t key =
    let h = key * 0x9e3779b97f4a7c1 in
    slot t.keys key ((h lxor (h lsr 29)) land (Array.length t.keys - 1))

  let grow t =
    let keys = t.keys and values = t.values in
    t.keys <- Array.make (2 * Array.length keys) absent;
    t.values <- Bytes.make (2 * Array.length keys) '\000';
    t.used <- Array.make (2 * Array.length keys) 0;
    t.count <- 0;
    for j = 0 to Array.length keys - 1 do
      let key = keys.(j) in
      if key <> absent then begin
        let s = find t key in
        t.keys.(s) <- key;
        Bytes.unsafe_set t.values s (Bytes.unsafe_get values j);
        t.used.(t.count) <- s;
        t.count <- t.count + 1
      end
    done

  let set t seq lq v =
    let key = (seq * t.nlq) + lq in
    let s = find t key in
    if t.keys.(s) = key then Bytes.unsafe_set t.values s (if v then '\001' else '\000')
    else begin
      t.keys.(s) <- key;
      Bytes.unsafe_set t.values s (if v then '\001' else '\000');
      t.used.(t.count) <- s;
      t.count <- t.count + 1;
      if 2 * t.count > Array.length t.keys then grow t
    end

  let get t seq lq =
    let key = (seq * t.nlq) + lq in
    let s = find t key in
    t.keys.(s) = key && Bytes.unsafe_get t.values s <> '\000'

  let length t = t.count

  let clear t =
    for i = 0 to t.count - 1 do
      t.keys.(t.used.(i)) <- absent
    done;
    t.count <- 0
end

(* Both passes keep their open-element frames in parallel arrays indexed
   by depth, which double when full: a start-tag writes slots instead of
   allocating a frame and a cons. *)
let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let initial_depth = 16

(* ---------------- pass 1: SAX bottomUp ---------------- *)

module Pass1 = struct
  (* What a seeded frame keeps beyond its states and demand.  One per
     depth, made at the first seeded frame there and reused by every
     later one. *)
  type seeded = {
    csat : bool array;
    (* the element's text: [first] while it came in one piece, [text]
       once a second piece came *)
    text : Buffer.t;
    mutable first : string;
    mutable pieces : int;
    mutable attrs : (string * string) list;
    mutable name : string;
    mutable at : int;  (* the element's seq *)
  }

  type t = {
    nfa : Selecting_nfa.t;
    here : Counter.local;
    lq : Lq.t;
    nlq : int;
    sskip : (Sym.t -> bool) option;  (* {!run}'s schema skip-set *)
    truth : Truth.t;
    memo : Annotator.demands;
    none : Annotator.demand;
    scratch : Lq.scratch;
    (* the [csat] of the frame being evaluated, read through [csat], a
       closure built once per run *)
    mutable current : bool array;
    csat : int -> bool;
    (* the unfiltered states of the parent of the bottom frame: the start
       set for a whole-document pass, the saved pass-2 states inside an
       undecided region *)
    mutable base : Selecting_nfa.set;
    (* the depth of the bottom frame: 0, or pass 2's depth at the parent
       of an undecided region; the slots below it are not pass 1's *)
    mutable bottom : int;
    (* the frame at depth [d]: its unfiltered NFA states after its
       start-tag, what bottomUp evaluates there ([none] for a seedless
       frame), and, when that is something, [seeded.(d)] *)
    mutable states : Selecting_nfa.set array;
    mutable demand : Annotator.demand array;
    mutable seeded : seeded array;
    mutable skip : int;
    (* was the current skip episode opened by the schema oracle (as
       opposed to an empty state set)?  Episodes never nest, so one flag
       suffices. *)
    mutable schema_mode : bool;
    mutable skipped_subtrees : int;
    mutable skipped_elements : int;
    mutable seq : int;
    mutable depth : int;
    mutable max_depth : int;
    (* the virtual document node's demand, for a path that begins with
       [//.[q]], and what the document element satisfies.  Its truths go
       to seq -1. *)
    doc : Annotator.demand;
    doc_csat : bool array;
  }

  let document = "#document"

  (* the placeholder in [seeded] at depths no seeded frame reached yet *)
  let unused =
    { csat = [||]; text = Buffer.create 0; first = ""; pieces = 0; attrs = []; name = ""; at = -1 }

  let seeds (d : Annotator.demand) = not (Lq.set_is_empty d.Annotator.seeds)

  let create ?sskip nfa truth =
    let lq = Selecting_nfa.lq nfa in
    let base = Selecting_nfa.start nfa in
    let memo = Annotator.demands nfa in
    let none = Annotator.no_demand memo in
    let doc = Annotator.document_demand memo ~name:document in
    let rec p =
      { nfa; here = Counter.local (); lq; nlq = Lq.length lq; sskip; truth; memo; none;
        scratch = Lq.scratch lq; current = [||]; csat = (fun i -> Array.unsafe_get p.current i); base; bottom = 0;
        states = Array.make initial_depth base; demand = Array.make initial_depth none;
        seeded = Array.make initial_depth unused; skip = 0; schema_mode = false;
        skipped_subtrees = 0; skipped_elements = 0; seq = -1; depth = 0; max_depth = 0; doc;
        doc_csat = Array.make (if seeds doc then Lq.length lq else 0) false }
    in
    p

  (* Room for a frame at depth [d].  Inside a region the first frame
     sits at [bottom], which may be past the arrays' end. *)
  let rec reserve p d =
    if d >= Array.length p.states then begin
      p.states <- grow p.states p.base;
      p.demand <- grow p.demand p.none;
      p.seeded <- grow p.seeded unused;
      reserve p d
    end

  (* The frames below depth [n] become seedless frames over [states]:
     the elements above an undecided region, whose pass-2 states carry
     no qualifier. *)
  let set_seedless_below p states n =
    reserve p n;
    Array.blit states 0 p.states 0 n;
    Array.fill p.demand 0 n p.none;
    p.bottom <- 0

  (* A seeded frame at depth [d], its [csat] and text emptied. *)
  let set_seeded p d name attrs =
    let f = p.seeded.(d) in
    if f == unused then
      p.seeded.(d) <-
        { csat = Array.make p.nlq false; text = Buffer.create 16; first = ""; pieces = 0; attrs;
          name; at = p.seq }
    else begin
      Array.fill f.csat 0 p.nlq false;
      f.first <- "";
      f.pieces <- 0;
      f.attrs <- attrs;
      f.name <- name;
      f.at <- p.seq
    end

  let add_text f t =
    if f.pieces = 0 then f.first <- t
    else begin
      if f.pieces = 1 then begin
        Buffer.clear f.text;
        Buffer.add_string f.text f.first
      end;
      Buffer.add_string f.text t
    end;
    f.pieces <- f.pieces + 1

  let text_of f = if f.pieces <= 1 then f.first else Buffer.contents f.text

  (* A start-tag; whether it opened a skip episode for an empty state
     set: neither the element nor anything below it is pass 1's. *)
  let start p sym name attrs =
    p.seq <- p.seq + 1;
    if p.skip > 0 then begin
      p.skip <- p.skip + 1;
      if p.schema_mode then p.skipped_elements <- p.skipped_elements + 1;
      false
    end
    else if match p.sskip with Some skip -> skip sym | None -> false then begin
      (* schema skip-set: seed-free below, so no truth entry the second
         pass could ask for originates here *)
      p.skip <- 1;
      p.schema_mode <- true;
      p.skipped_subtrees <- p.skipped_subtrees + 1;
      p.skipped_elements <- p.skipped_elements + 1;
      false
    end
    else begin
      let d = p.depth in
      let states =
        Selecting_nfa.next_unchecked p.nfa p.here
          (if d = p.bottom then p.base else p.states.(d - 1))
          sym
      in
      let candidates =
        if d > p.bottom then p.demand.(d - 1).Annotator.candidates
        else if d = 0 then p.doc.Annotator.candidates
        else p.none.Annotator.candidates
      in
      let demand = Annotator.demand p.memo candidates states sym in
      if Selecting_nfa.set_is_empty states && not (seeds demand) then begin
        p.skip <- 1;
        true
      end
      else begin
        reserve p d;
        p.states.(d) <- states;
        p.demand.(d) <- demand;
        if seeds demand then set_seeded p d name attrs;
        p.depth <- d + 1;
        if p.depth > p.max_depth then p.max_depth <- p.depth;
        false
      end
    end

  (* The element whose start-tag opened a skip episode was consumed whole
     without events; its rest held [starts] start-tags. *)
  let consumed p starts =
    p.skip <- 0;
    p.seq <- p.seq + starts

  (* QualDP at a frame: its truths go to Ld, and what it satisfies to
     its parent's [csat] (a parent without seeds never reads it). *)
  let evaluate p (demand : Annotator.demand) ~name ~attrs ~text ~csat ~at parent =
    p.current <- csat;
    Lq.eval p.lq p.scratch ~name ~attrs ~text ~csat:p.csat ~wanted:demand.Annotator.seeds;
    let own = demand.Annotator.own in
    for k = 0 to Array.length own - 1 do
      let i = own.(k) in
      Truth.set p.truth at i (Lq.holds p.scratch i)
    done;
    if Array.length parent > 0 then
      for i = 0 to p.nlq - 1 do
        if Lq.holds p.scratch i then parent.(i) <- true
      done

  let end_ p =
    if p.skip > 0 then begin
      p.skip <- p.skip - 1;
      if p.skip = 0 then p.schema_mode <- false
    end
    else if p.depth > p.bottom then begin
      let d = p.depth - 1 in
      p.depth <- d;
      let demand = p.demand.(d) in
      if seeds demand then begin
        let f = p.seeded.(d) in
        let parent =
          if d > p.bottom then if seeds p.demand.(d - 1) then p.seeded.(d - 1).csat else [||]
          else if d = 0 then p.doc_csat
          else [||]
        in
        evaluate p demand ~name:f.name ~attrs:f.attrs
          ~text:(if demand.Annotator.reads_text then text_of f else "")
          ~csat:f.csat ~at:f.at parent
      end
    end

  (* The document node's truths, once the document element has ended:
     no name a step can carry, no attributes and no text of its own. *)
  let end_document p =
    if seeds p.doc then
      evaluate p p.doc ~name:document ~attrs:[] ~text:"" ~csat:p.doc_csat ~at:(-1) [||]

  let handle p = function
    | Sax.End_document -> end_document p
    | Sax.Start_document | Sax.Comment_event _ | Sax.Pi_event _ -> ()
    | Sax.Start_element (name, attrs) -> ignore (start p (Sym.intern p.here name) name attrs : bool)
    | Sax.Characters t ->
      let d = p.depth - 1 in
      if p.skip = 0 && d >= p.bottom && p.demand.(d).Annotator.reads_text then
        add_text p.seeded.(d) t
    | Sax.End_element _ -> end_ p
end

(* ---------------- pass 2: SAX topDown ---------------- *)

module Pass2 = struct
  type t = {
    nfa : Selecting_nfa.t;
    here : Counter.local;
    update : Transform_ast.update;
    sskip : (Sym.t -> bool) option;
    truth : Truth.t;
    sink : Sax.event -> unit;
    root_matched : bool;
    (* the states at the document node *)
    start : Selecting_nfa.set;
    (* the frame at depth [d], in slot [d] of each array: its filtered
       states, the name its end-tag is written with, and whether the
       update selected it *)
    mutable fstates : Selecting_nfa.set array;
    mutable out_names : string array;
    mutable matched : bool array;
    mutable skip : int;
    (* schema-skipped subtree being copied to the output verbatim: nothing
       below can match, so the events pass through with no transition run *)
    mutable verbatim : int;
    mutable depth : int;
    mutable max_depth : int;
    mutable seq : int;
    (* elements a steered parse consumed as bytes (skipped, copied or
       held), which no transition entered *)
    mutable as_bytes : int;
    mutable produced_root : bool;
    (* the parse's steering handle, when the run was given one *)
    steer : Sax.steer option;
  }

  (* [truth] holds the document node's truths, if the path tests it,
     before the pass starts. *)
  let create ?steer ?sskip nfa update truth sink =
    let start =
      Selecting_nfa.start_checked nfa
        ~checkp:(fun s truth -> Truth.get truth (-1) (Selecting_nfa.state_lq nfa s))
        truth
    in
    { nfa; here = Counter.local (); update; sskip; truth; sink; steer;
      root_matched = Selecting_nfa.selects_context nfa; start;
      fstates = Array.make initial_depth start; out_names = Array.make initial_depth "";
      matched = Array.make initial_depth false; skip = 0; verbatim = 0; depth = 0;
      max_depth = 0; seq = -1; as_bytes = 0; produced_root = false }

  (* The qualifier check at the start-tag numbered [seq]. *)
  let checkp s p = Truth.get p.truth p.seq (Selecting_nfa.state_lq p.nfa s)

  (* Elements the parse consumed as bytes: counted, never entered. *)
  let consumed p n =
    p.seq <- p.seq + n;
    p.as_bytes <- p.as_bytes + n

  (* Neither inside a deleted or replaced subtree nor copying one
     verbatim: the next start-tag runs a transition. *)
  let walking p = p.skip = 0 && p.verbatim = 0

  let states p = if p.depth = 0 then p.start else p.fstates.(p.depth - 1)

  let push p fstates out_name matched =
    let d = p.depth in
    if d = 0 then p.produced_root <- true;
    if d = Array.length p.fstates then begin
      p.fstates <- grow p.fstates fstates;
      p.out_names <- grow p.out_names "";
      p.matched <- grow p.matched false
    end;
    p.fstates.(d) <- fstates;
    p.out_names.(d) <- out_name;
    p.matched.(d) <- matched;
    p.depth <- d + 1;
    if p.depth > p.max_depth then p.max_depth <- p.depth

  (* The handle through which the parse that gives pass 2 its current
     start-tag can consume the element's rest: [Some] only for a live
     start-tag of a steered parse, never for a held or replayed one. *)
  let steerable p =
    match p.steer with Some h when Sax.offered h -> p.steer | _ -> None

  (* Drop the rest of a deleted or replaced element: skipped in the parse
     when it can be steered, otherwise counted through event by event. *)
  let drop p =
    match steerable p with
    | Some h -> consumed p (Sax.skip_rest h)
    | None -> p.skip <- 1

  (* A start-tag [ev] = [Start_element (name, attrs)] while [walking], its
     number already counted and its filtered states [fstates] known.  An
     element written under its own name is written as [ev] itself.  One
     that is unmatched with no state left can match nothing below it:
     its rest is copied in the parse when it can be steered, its frame
     never pushed (but counted in the peak depth). *)
  let admit p ev name attrs fstates =
    let sink = p.sink in
    let at_root = p.depth = 0 in
    let matched = Selecting_nfa.accepts_set p.nfa fstates || (at_root && p.root_matched) in
    match p.update, matched with
    | Transform_ast.Delete _, true ->
      if at_root then
        raise (Transform_ast.Invalid_update "update deletes the document element");
      drop p
    | Transform_ast.Replace (_, enew), true ->
      (match enew, at_root with
      | Node.Element _, _ | _, false -> ()
      | (Node.Text _ | Node.Comment _ | Node.Pi _), true ->
        raise
          (Transform_ast.Invalid_update
             "update replaces the document element with a non-element"));
      if at_root then p.produced_root <- true;
      Sax.events_of_node enew sink;
      drop p
    | Transform_ast.Rename (_, l), true ->
      sink (Sax.Start_element (l, attrs));
      push p fstates l matched
    | Transform_ast.Insert_first (_, enew), true ->
      sink ev;
      Sax.events_of_node enew sink;
      push p fstates name matched
    | (Transform_ast.Insert _ | Transform_ast.Insert_first _ | Transform_ast.Delete _
      | Transform_ast.Replace _ | Transform_ast.Rename _), _ -> (
      sink ev;
      match if matched then None else steerable p with
      | Some h when Selecting_nfa.set_is_empty fstates ->
        if at_root then p.produced_root <- true;
        consumed p (Sax.copy_rest h);
        p.max_depth <- max p.max_depth (p.depth + 1 + Sax.rest_depth h)
      | _ -> push p fstates name matched)

  (* A start-tag while [walking], its number already counted. *)
  let enter p ev name attrs sym =
    if match p.sskip with Some skip -> skip sym | None -> false then begin
      if p.depth = 0 then p.produced_root <- true;
      p.sink ev;
      p.verbatim <- 1
    end
    else admit p ev name attrs (Selecting_nfa.next p.nfa p.here ~checkp p (states p) sym)

  (* A start-tag; [sym] is its name's symbol, or -1 when the caller has
     not interned it (interned here only if a transition needs it). *)
  let start p ev name attrs sym =
    p.seq <- p.seq + 1;
    if p.skip > 0 then p.skip <- p.skip + 1
    else if p.verbatim > 0 then begin
      p.verbatim <- p.verbatim + 1;
      p.sink ev
    end
    else enter p ev name attrs (if sym >= 0 then sym else Sym.intern p.here name)

  (* An element pass 1 left unread, replayed from the bytes held for it:
     its start-tag and [starts] more, the deepest [depth] levels below
     it.  Its filtered states are a subset of the unchecked ones, which
     are empty, so a walking pass copies it whole; whether the pass
     walks, and so must write the bytes. *)
  let unread p ~starts ~depth =
    consumed p (1 + starts);
    walking p
    && begin
         p.max_depth <- max p.max_depth (p.depth + 1 + depth);
         true
       end

  let handle p = function
    | Sax.Start_document -> p.sink Sax.Start_document
    | Sax.End_document ->
      if not p.produced_root then
        raise (Transform_ast.Invalid_update "update deletes the document element");
      p.sink Sax.End_document
    | (Sax.Comment_event _ | Sax.Pi_event _ | Sax.Characters _) as ev ->
      if p.verbatim > 0 || (p.skip = 0 && p.depth > 0) then p.sink ev
    | Sax.Start_element (name, attrs) as ev -> start p ev name attrs (-1)
    | Sax.End_element name as ev ->
      if p.skip > 0 then p.skip <- p.skip - 1
      else if p.verbatim > 0 then begin
        p.verbatim <- p.verbatim - 1;
        p.sink ev
      end
      else if p.depth > 0 then begin
        let d = p.depth - 1 in
        p.depth <- d;
        (match p.update with
        | Transform_ast.Insert (_, enew) when p.matched.(d) -> Sax.events_of_node enew p.sink
        | _ -> ());
        let out_name = p.out_names.(d) in
        p.sink (if String.equal out_name name then ev else Sax.End_element out_name)
      end
end

let check_ctx_qual nfa =
  match Selecting_nfa.ctx_qual nfa with
  | Ast.Q_true -> ()
  | q ->
    raise
      (Unsupported_streaming
         ("context qualifier [" ^ Ast.qual_to_string q ^ "] cannot be checked in streaming mode"))

let run ?skip nfa update ~source ~sink =
  check_ctx_qual nfa;
  let truth = Truth.create ~nlq:(Lq.length (Selecting_nfa.lq nfa)) in
  let p1 = Pass1.create ?sskip:skip nfa truth in
  source (Pass1.handle p1);
  let p2 = Pass2.create ?sskip:skip nfa update truth sink in
  source (Pass2.handle p2);
  Counter.add Stats.nodes_visited (p2.Pass2.seq + 1);
  {
    max_stack_depth = p1.Pass1.max_depth;
    truth_entries = Truth.length truth;
    elements_seen = p1.Pass1.seq + 1;
    skipped_subtrees = p1.Pass1.skipped_subtrees;
    skipped_elements = p1.Pass1.skipped_elements;
    regions = 0;
    parses = 2;
    peak_held_bytes = 0;
  }

(* ---------------- the buffered one-pass driver ----------------

   Pass 2 runs over the one parse.  At a start-tag whose unchecked
   transition enters a qualifier-bearing state, the element's selection
   waits on a truth pass 1 learns only at its end-tag: it opens an
   undecided region.  The region's events are held in [held] while pass 1
   runs over them alone, from pass 2's states at the region's parent.
   Every qualifier of fragment X is downward, so at the region's end-tag
   each truth pass 2 can ask for inside it is known; the held events then
   replay through pass 2, whose state has not moved since the region
   opened, and the region's truths are dropped.

   A steered parse holds less.  A live start-tag inside a region that
   pass 1 skips (an empty state set and no seeds) opens a subtree pass 2
   is bound to copy, if it walks there at all: its filtered states are a
   subset of the empty unchecked ones.  The parse copies that subtree
   into [bytes], a recorder, and [held] keeps a [Start_document] in its
   place (no region holds a real one), with its numbers in [spans].  The
   replay writes the bytes where the events would have gone.

   Past [buffer_budget] bytes of held markup (counted as the events'
   [Sax.markup_bytes], whether they are held as events or as bytes) the
   run turns into the two-parse algorithm from that point: the live
   parse goes on as pass 1 alone (the region's frames over frames for
   the elements above it) to the end of the input, and a second parse
   skips to the region's first start-tag and resumes pass 2 there.
   Everything already written stays valid.  A subtree being held as bytes
   is dropped by the recorder as soon as it passes the budget, so the
   copy never holds more than the budget either. *)

let buffer_budget = 1 lsl 19

type region =
  | Outside
  | Held of {
      first : int;
      mutable open_elements : int;
      mutable bytes : int;
      mutable open_tag : bool;  (* the last held event was a start-tag *)
    }
  | Overflowed of { first : int }  (* the seq of the region's first element *)

(* What a region holds: its events, with the symbol of each start-tag
   beside it, and the subtrees held as bytes.  Kept across the regions
   of a run. *)
type held = {
  mutable events : Sax.event array;
  mutable syms : Sym.t array;
  mutable n : int;
  (* per subtree held as bytes: its start-tags after the first, the
     levels below it, and [Writer.recorded bytes] after it *)
  mutable spans : int array;
  mutable nspans : int;
  mutable bytes : Writer.t option;  (* made at the first subtree *)
}

let hold h ev sym =
  if h.n = Array.length h.events then begin
    let size = max 256 (2 * h.n) in
    let events = Array.make size Sax.End_document and syms = Array.make size 0 in
    Array.blit h.events 0 events 0 h.n;
    Array.blit h.syms 0 syms 0 h.n;
    h.events <- events;
    h.syms <- syms
  end;
  Array.unsafe_set h.events h.n ev;
  Array.unsafe_set h.syms h.n sym;
  h.n <- h.n + 1

let recorder h =
  match h.bytes with
  | Some w -> w
  | None ->
    let w = Writer.recorder () in
    h.bytes <- Some w;
    w

let hold_span h ~starts ~depth =
  if 3 * (h.nspans + 1) > Array.length h.spans then h.spans <- grow h.spans 0;
  let k = 3 * h.nspans in
  h.spans.(k) <- starts;
  h.spans.(k + 1) <- depth;
  h.spans.(k + 2) <- Writer.recorded (recorder h);
  h.nspans <- h.nspans + 1;
  hold h Sax.Start_document 0

let drop_held h =
  h.n <- 0;
  h.nspans <- 0;
  Option.iter Writer.reset h.bytes

let drive ?steer nfa update ~source ~sink =
  let truth = Truth.create ~nlq:(Lq.length (Selecting_nfa.lq nfa)) in
  let p1 = Pass1.create nfa truth in
  let p2 = Pass2.create ?steer nfa update truth sink in
  let quals = Selecting_nfa.qual_states nfa in
  let held =
    { events = [||]; syms = [||]; n = 0; spans = Array.make 3 0; nspans = 0; bytes = None }
  in
  let region = ref Outside in
  let regions = ref 0 and peak_truth = ref 0 and peak_held = ref 0 in
  let open_region ev name attrs sym parent =
    incr regions;
    region :=
      Held
        { first = p2.Pass2.seq + 1; open_elements = 1; bytes = Sax.markup_bytes ~open_tag:false ev;
          open_tag = true };
    p1.Pass1.base <- parent;
    p1.Pass1.seq <- p2.Pass2.seq;
    p1.Pass1.depth <- p2.Pass2.depth;
    p1.Pass1.bottom <- p2.Pass2.depth;
    hold held ev sym;
    ignore (Pass1.start p1 sym name attrs : bool)
  in
  let close_region bytes =
    region := Outside;
    peak_truth := max !peak_truth (Truth.length truth);
    peak_held := max !peak_held bytes;
    let span = ref 0 in
    for i = 0 to held.n - 1 do
      match Array.unsafe_get held.events i with
      | Sax.Start_element (name, attrs) as ev -> Pass2.start p2 ev name attrs held.syms.(i)
      | Sax.Start_document ->
        let k = 3 * !span in
        if Pass2.unread p2 ~starts:held.spans.(k) ~depth:held.spans.(k + 1) then
          Writer.replay (Sax.writer (Option.get steer)) (recorder held)
            ~from:(if k = 0 then 0 else held.spans.(k - 1))
            ~upto:held.spans.(k + 2);
        incr span
      | ev -> Pass2.handle p2 ev
    done;
    drop_held held;
    Truth.clear truth
  in
  let overflow first =
    region := Overflowed { first };
    peak_held := max !peak_held buffer_budget;
    drop_held held;
    (* pass 1 goes on to the end of the input: the elements above the
       region get seedless frames over pass 2's states, which no
       qualifier filtered *)
    Pass1.set_seedless_below p1 p2.Pass2.fstates p2.Pass2.depth
  in
  (* An element pass 1 skips, inside a region holding [held_bytes]: its
     subtree as bytes, and their count, past the budget once the
     recorder held more than the room left (it then holds nothing). *)
  let hold_unread h ~held_bytes name attrs =
    let w = recorder held in
    let before = Buffer.length w.Writer.buf and room = buffer_budget - held_bytes in
    Writer.limit w (before + room);
    Writer.start_element w name attrs;
    let starts = Sax.copy_rest_to h w in
    Pass1.consumed p1 starts;
    hold_span held ~starts ~depth:(Sax.rest_depth h);
    if Writer.overflowed w then room + 1 else Buffer.length w.Writer.buf - before
  in
  let handle ev =
    match !region with
    | Outside -> (
      match ev with
      | Sax.Start_element (name, attrs) ->
        let sym = Sym.intern p2.Pass2.here name in
        if Pass2.walking p2 then begin
          let parent = Pass2.states p2 in
          let states = Selecting_nfa.next_unchecked nfa p2.Pass2.here parent sym in
          if Selecting_nfa.set_intersects states quals then open_region ev name attrs sym parent
          else begin
            (* no qualifier-bearing state entered: the filtered
               transition is the unchecked one *)
            p2.Pass2.seq <- p2.Pass2.seq + 1;
            Pass2.admit p2 ev name attrs states
          end
        end
        else Pass2.start p2 ev name attrs sym
      | ev -> Pass2.handle p2 ev)
    | Held r ->
      let open_tag = r.open_tag in
      r.open_tag <- false;
      (match ev with
      | Sax.Start_element (name, attrs) -> (
        let sym = Sym.intern p2.Pass2.here name in
        let unread = Pass1.start p1 sym name attrs in
        match steer with
        | Some h when unread && Sax.offered h ->
          r.bytes <- r.bytes + hold_unread h ~held_bytes:r.bytes name attrs
        | _ ->
          r.bytes <- r.bytes + Sax.markup_bytes ~open_tag ev;
          r.open_elements <- r.open_elements + 1;
          r.open_tag <- true;
          hold held ev sym)
      | Sax.End_element _ ->
        r.bytes <- r.bytes + Sax.markup_bytes ~open_tag ev;
        r.open_elements <- r.open_elements - 1;
        Pass1.end_ p1;
        hold held ev 0
      | ev ->
        r.bytes <- r.bytes + Sax.markup_bytes ~open_tag ev;
        Pass1.handle p1 ev;
        hold held ev 0);
      if r.open_elements = 0 then close_region r.bytes
      else if r.bytes > buffer_budget then overflow r.first
    | Overflowed _ -> Pass1.handle p1 ev
  in
  source handle;
  let parses =
    match !region with
    | Overflowed { first } ->
      peak_truth := max !peak_truth (Truth.length truth);
      let n = ref (-1) and resumed = ref false in
      source (fun ev ->
          if !resumed then Pass2.handle p2 ev
          else
            match ev with
            | Sax.Start_element _ ->
              incr n;
              if !n = first then begin
                resumed := true;
                Pass2.handle p2 ev
              end
            | _ -> ());
      2
    | Outside | Held _ -> 1
  in
  Counter.add Stats.nodes_visited (p2.Pass2.seq + 1 - p2.Pass2.as_bytes);
  {
    max_stack_depth = max p1.Pass1.max_depth p2.Pass2.max_depth;
    truth_entries = !peak_truth;
    elements_seen = p2.Pass2.seq + 1;
    skipped_subtrees = 0;
    skipped_elements = 0;
    regions = !regions;
    parses;
    peak_held_bytes = !peak_held;
  }

(* A path that begins with [//.[q]] tests the document node, whose truth
   is known only at the end of the input: {!run}'s two reads. *)
let run_buffered ?steer nfa update ~source ~sink =
  check_ctx_qual nfa;
  if Selecting_nfa.checks_document nfa then run nfa update ~source ~sink
  else drive ?steer nfa update ~source ~sink

(* A plan is one-pass streamable iff the top-down run never needs the
   bottom-up truth table: no context qualifier and no qualifier-bearing
   NFA state.  Then the buffered driver never opens a region: pass 2
   alone, over a single forward read of the input, is the whole
   transform — O(depth) memory. *)
let one_pass nfa =
  (match Selecting_nfa.ctx_qual nfa with Ast.Q_true -> true | _ -> false)
  && Selecting_nfa.set_is_empty (Selecting_nfa.qual_states nfa)

let run_once ?steer nfa update ~source ~sink =
  if not (one_pass nfa) then
    raise
      (Unsupported_streaming
         "plan has qualifiers: one-pass streaming needs the bottom-up pass");
  drive ?steer nfa update ~source ~sink

type tier = Streamed | Materialized

let tier nfa =
  match Selecting_nfa.ctx_qual nfa with Ast.Q_true -> Streamed | _ -> Materialized

let transform update root =
  let nfa = Selecting_nfa.of_path (Transform_ast.path update) in
  let b = Dom.Builder.create () in
  let _ = run nfa update ~source:(Sax.events_of_tree root) ~sink:(Dom.Builder.handler b) in
  Dom.Builder.result b

let transform_file update ~src ~out =
  let nfa = Selecting_nfa.of_path (Transform_ast.path update) in
  run nfa update ~source:(fun h -> Sax.parse_file src h) ~sink:(Serialize.event_sink out)
