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
  reread_bytes : int;
}

(* Ld: truth of top-level qualifier [lq] at the element with document-order
   number [seq].  Both passes number start-tags identically, so (seq, lq)
   is a faithful replacement for the paper's cursor ids.  An [Id_table]
   of keys alone: a pair set to [v] is held as the key
   [2 * (seq * nlq + lq) + v] (seq is -1 at the document node, so keys
   start at [-2 * nlq]).  [set] and [get] allocate nothing, and [clear]
   removes only the keys in [used], every key added since the last
   clear. *)
module Truth = struct
  type t = { nlq : int; ids : Id_table.t; mutable used : int array; mutable added : int }

  let create ~nlq =
    { nlq = max 1 nlq; ids = Id_table.create ~words:0 16; used = Array.make 16 0; added = 0 }

  let key t seq lq v = (2 * ((seq * t.nlq) + lq)) + Bool.to_int v

  let set t seq lq v =
    ignore (Id_table.remove t.ids (key t seq lq (not v)) : bool);
    let k = key t seq lq v in
    if Id_table.find t.ids k < 0 then begin
      if t.added = Array.length t.used then begin
        let used = Array.make (2 * t.added) 0 in
        Array.blit t.used 0 used 0 t.added;
        t.used <- used
      end;
      t.used.(t.added) <- k;
      t.added <- t.added + 1;
      ignore (Id_table.claim t.ids k : int)
    end

  let get t seq lq = Id_table.find t.ids (key t seq lq true) >= 0
  let length t = Id_table.length t.ids

  let clear t =
    for i = 0 to t.added - 1 do
      ignore (Id_table.remove t.ids t.used.(i) : bool)
    done;
    t.added <- 0
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
    here : Counter.local;
    lq : Lq.t;
    nlq : int;
    sskip : (Sym.t -> bool) option;  (* {!run}'s schema skip-set *)
    (* a subtree with nothing to evaluate is one no qualifier state is
       reachable in (the buffered driver), or, for {!run}'s pass as the
       paper runs it, one whose state set is empty *)
    reach : bool;
    truth : Truth.t;
    dfa : Dfa.t;
    scratch : Lq.scratch;
    (* the [csat] of the frame being evaluated, read through [csat], a
       closure built once per run *)
    mutable current : bool array;
    csat : int -> bool;
    (* the configuration of the parent of the bottom frame: the start
       set and the document node's candidates for a whole-document pass,
       the saved pass-2 configuration inside an undecided region *)
    mutable base : Dfa.config;
    (* the depth of the bottom frame: 0, or pass 2's depth at the parent
       of an undecided region; the slots below it are not pass 1's *)
    mutable bottom : int;
    (* the frame at depth [d]: the DFA step that entered it, which holds
       its unfiltered configuration and what bottomUp evaluates there
       ([none] for a seedless frame), and, when that is something,
       [seeded.(d)] *)
    mutable frames : Dfa.step array;
    mutable seeded : seeded array;
    mutable skip : int;
    (* was the current skip episode opened by the schema oracle (as
       opposed to a subtree with nothing to evaluate)?  Episodes never
       nest, so one flag suffices. *)
    mutable schema_mode : bool;
    mutable skipped_subtrees : int;
    mutable skipped_elements : int;
    mutable seq : int;
    mutable depth : int;
    mutable max_depth : int;
    (* the virtual document node's demand, for a path that begins with
       [//.[q]], and what the document element satisfies.  Its truths go
       to seq -1. *)
    doc : Dfa.demand;
    doc_csat : bool array;
  }

  let document = "#document"

  (* the placeholder in [seeded] at depths no seeded frame reached yet *)
  let unused =
    { csat = [||]; text = Buffer.create 0; first = ""; pieces = 0; attrs = []; name = ""; at = -1 }

  let seeds (d : Dfa.demand) = not (Lq.set_is_empty d.seeds)

  (* The configuration at the document node over [states]: the
     candidates the document node passes down with them. *)
  let at_document dfa (doc : Dfa.demand) (states : Dfa.config) =
    if seeds doc then Dfa.config dfa ~cands:doc.candidates states.states else states

  let create ?sskip ?(reach = false) nfa truth =
    let lq = Selecting_nfa.lq nfa in
    let dfa = Dfa.of_nfa nfa in
    let doc = Dfa.document_demand dfa ~name:document in
    let base = at_document dfa doc (Dfa.start dfa) in
    let rec p =
      { here = Counter.local (); lq; nlq = Lq.length lq; sskip; reach; truth; dfa;
        scratch = Lq.scratch lq; current = [||]; csat = (fun i -> Array.unsafe_get p.current i); base; bottom = 0;
        frames = Array.make initial_depth (Dfa.unused dfa);
        seeded = Array.make initial_depth unused; skip = 0; schema_mode = false;
        skipped_subtrees = 0; skipped_elements = 0; seq = -1; depth = 0; max_depth = 0; doc;
        doc_csat = Array.make (if seeds doc then Lq.length lq else 0) false }
    in
    p

  (* Room for a frame at depth [d].  Inside a region the first frame
     sits at [bottom], which may be past the arrays' end. *)
  let rec reserve p d =
    if d >= Array.length p.frames then begin
      p.frames <- grow p.frames (Dfa.unused p.dfa);
      p.seeded <- grow p.seeded unused;
      reserve p d
    end

  (* A seeded frame at depth [d], its [csat] and text emptied. *)
  let set_seeded p d =
    let f = p.seeded.(d) in
    if f == unused then
      p.seeded.(d) <-
        { csat = Array.make p.nlq false; text = Buffer.create 16; first = ""; pieces = 0; attrs = [];
          name = ""; at = p.seq }
    else begin
      Array.fill f.csat 0 p.nlq false;
      f.first <- "";
      f.pieces <- 0;
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

  (* The start-tag numbered [seq] of [sym], outside a skip episode: a
     frame for it, unless neither it nor anything below it has something
     to evaluate (it seeds nothing, and [reach] says so of its subtree);
     whether it got one. *)
  let enter p seq sym =
    p.seq <- seq;
    let d = p.depth in
    let step = Dfa.step p.dfa p.here (if d > p.bottom then p.frames.(d - 1).child else p.base) sym in
    let demand = step.demand in
    if (not (seeds demand)) && if p.reach then not step.reaches else step.child.empty then false
    else begin
      reserve p d;
      p.frames.(d) <- step;
      if seeds demand then set_seeded p d;
      p.depth <- d + 1;
      if p.depth > p.max_depth then p.max_depth <- p.depth;
      true
    end

  (* The event of the start-tag [enter] just gave a frame. *)
  let label p name attrs =
    let d = p.depth - 1 in
    if seeds p.frames.(d).demand then begin
      let f = p.seeded.(d) in
      f.name <- name;
      f.attrs <- attrs
    end

  (* A start-tag of a parse steered where [steerable]: [Skip] when pass 1
     has nothing to do in its subtree, or, when the parse cannot skip it,
     a skip episode over its events. *)
  let decide p ~steerable seq sym =
    if p.skip > 0 then begin
      p.skip <- p.skip + 1;
      Sax.Walk
    end
    else if enter p seq sym then Sax.Walk
    else if steerable then Sax.Skip
    else begin
      p.skip <- 1;
      Sax.Walk
    end

  (* QualDP at a frame: its truths go to Ld, and what it satisfies to
     its parent's [csat] (a parent without seeds never reads it). *)
  let evaluate p (demand : Dfa.demand) ~name ~attrs ~text ~csat ~at parent =
    p.current <- csat;
    Lq.eval p.lq p.scratch ~name ~attrs ~text ~csat:p.csat ~wanted:demand.seeds;
    let own = demand.own in
    for k = 0 to Array.length own - 1 do
      let i = own.(k) in
      Truth.set p.truth at i (Lq.holds p.scratch i)
    done;
    if Array.length parent > 0 then
      for i = 0 to p.nlq - 1 do
        if Lq.holds p.scratch i then parent.(i) <- true
      done

  let text p t =
    let d = p.depth - 1 in
    if p.skip = 0 && d >= p.bottom && p.frames.(d).demand.reads_text then add_text p.seeded.(d) t

  let end_ p =
    if p.skip > 0 then begin
      p.skip <- p.skip - 1;
      if p.skip = 0 then p.schema_mode <- false
    end
    else if p.depth > p.bottom then begin
      let d = p.depth - 1 in
      p.depth <- d;
      let demand = p.frames.(d).demand in
      if seeds demand then begin
        let f = p.seeded.(d) in
        let parent =
          if d > p.bottom then if seeds p.frames.(d - 1).demand then p.seeded.(d - 1).csat else [||]
          else if d = 0 then p.doc_csat
          else [||]
        in
        evaluate p demand ~name:f.name ~attrs:f.attrs
          ~text:(if demand.reads_text then text_of f else "")
          ~csat:f.csat ~at:f.at parent
      end
    end

  (* The document node's truths, once the document element has ended:
     no name a step can carry, no attributes and no text of its own. *)
  let end_document p =
    if seeds p.doc then
      evaluate p p.doc ~name:document ~attrs:[] ~text:"" ~csat:p.doc_csat ~at:(-1) [||]

  (* {!run}'s pass over events, which may prune with the schema
     skip-set. *)
  let handle p = function
    | Sax.End_document -> end_document p
    | Sax.Start_document | Sax.Comment_event _ | Sax.Pi_event _ -> ()
    | Sax.Start_element (name, attrs) ->
      let sym = Sym.intern p.here name in
      if p.skip > 0 then begin
        p.seq <- p.seq + 1;
        p.skip <- p.skip + 1;
        if p.schema_mode then p.skipped_elements <- p.skipped_elements + 1
      end
      else if match p.sskip with Some skip -> skip sym | None -> false then begin
        (* schema skip-set: seed-free below, so no truth entry the second
           pass could ask for originates here *)
        p.seq <- p.seq + 1;
        p.skip <- 1;
        p.schema_mode <- true;
        p.skipped_subtrees <- p.skipped_subtrees + 1;
        p.skipped_elements <- p.skipped_elements + 1
      end
      else if enter p (p.seq + 1) sym then label p name attrs
      else p.skip <- 1
    | Sax.Characters t -> text p t
    | Sax.End_element _ -> end_ p
end

(* ---------------- pass 2: SAX topDown ---------------- *)

module Pass2 = struct
  (* What the event of the start-tag just decided does: nothing (inside
     a dropped subtree), write itself (a subtree the schema skip-set
     copies), write and push a frame, or fail. *)
  type act = Quiet | Echo | Push | Fail of string

  type t = {
    nfa : Selecting_nfa.t;
    dfa : Dfa.t;
    here : Counter.local;
    update : Transform_ast.update;
    sskip : (Sym.t -> bool) option;
    truth : Truth.t;
    sink : Sax.event -> unit;
    root_matched : bool;
    (* the configuration at the document node *)
    start : Dfa.config;
    (* the frame at depth [d], in slot [d] of each array: its filtered
       configuration and the name its end-tag is written with *)
    mutable fstates : Dfa.config array;
    mutable out_names : string array;
    mutable skip : int;
    (* schema-skipped subtree being copied to the output verbatim: nothing
       below can match, so the events pass through with no transition run *)
    mutable verbatim : int;
    mutable depth : int;
    mutable max_depth : int;
    mutable seq : int;
    (* start-tags decided: every one the pass was given, not those a
       steered parse copied or skipped inside another *)
    mutable visited : int;
    mutable produced_root : bool;
    mutable act : act;
    (* with [Push]: the frame's filtered configuration *)
    mutable next_states : Dfa.config;
  }

  (* [truth] holds the document node's truths, if the path tests it,
     before the pass starts. *)
  let create ?sskip nfa update truth sink =
    let dfa = Dfa.of_nfa nfa in
    let start =
      Dfa.start_checked dfa
        ~checkp:(fun s truth -> Truth.get truth (-1) (Selecting_nfa.state_lq nfa s))
        truth
    in
    { nfa; dfa; here = Counter.local (); update; sskip; truth; sink;
      root_matched = Selecting_nfa.selects_context nfa; start;
      fstates = Array.make initial_depth start; out_names = Array.make initial_depth "";
      skip = 0; verbatim = 0; depth = 0; max_depth = 0; seq = -1; visited = 0;
      produced_root = false; act = Quiet; next_states = start }

  (* The qualifier check at the start-tag numbered [seq]. *)
  let checkp s p = Truth.get p.truth p.seq (Selecting_nfa.state_lq p.nfa s)

  (* Neither inside a deleted or replaced subtree nor copying one
     verbatim: the next start-tag runs a transition. *)
  let walking p = p.skip = 0 && p.verbatim = 0

  let states p = if p.depth = 0 then p.start else p.fstates.(p.depth - 1)

  (* Did the update select the element at depth [d] in [fstates]? *)
  let matched p d (fstates : Dfa.config) = fstates.accepts || (d = 0 && p.root_matched)

  let push p fstates out_name =
    let d = p.depth in
    if d = 0 then p.produced_root <- true;
    if d = Array.length p.fstates then begin
      p.fstates <- grow p.fstates fstates;
      p.out_names <- grow p.out_names ""
    end;
    p.fstates.(d) <- fstates;
    p.out_names.(d) <- out_name;
    p.depth <- d + 1;
    if p.depth > p.max_depth then p.max_depth <- p.depth

  let count p seq =
    p.seq <- seq;
    p.visited <- p.visited + 1

  (* The start-tag numbered [seq] while [walking], its filtered states
     [fstates] known: the answer to a parse steered where [steerable].
     A deleted or replaced element is skipped (a replacement written in
     its place), and one that is unmatched with no state left, which can
     match nothing below it, is copied whole; without steering, a
     deleted one is dropped event by event.  A failure waits for the
     tag's event, so a malformed tag fails as the parse does. *)
  let admit p ~steerable seq (fstates : Dfa.config) =
    count p seq;
    let at_root = p.depth = 0 in
    match p.update, matched p p.depth fstates with
    | Transform_ast.Delete _, true when at_root ->
      p.act <- Fail "update deletes the document element";
      Sax.Walk
    | Transform_ast.Replace (_, (Node.Text _ | Node.Comment _ | Node.Pi _)), true when at_root ->
      p.act <- Fail "update replaces the document element with a non-element";
      Sax.Walk
    | (Transform_ast.Delete _ | Transform_ast.Replace _), true ->
      (match p.update with
      | Transform_ast.Replace (_, enew) ->
        if at_root then p.produced_root <- true;
        Sax.events_of_node enew p.sink
      | _ -> ());
      if steerable then Sax.Skip
      else begin
        p.skip <- 1;
        p.act <- Quiet;
        Sax.Walk
      end
    | _, false when steerable && fstates.empty ->
      if at_root then p.produced_root <- true;
      Sax.Copy
    | _ ->
      p.act <- Push;
      p.next_states <- fstates;
      Sax.Walk

  (* The start-tag numbered [seq] of [sym]. *)
  let decide p ~steerable seq sym =
    if p.skip > 0 then begin
      count p seq;
      p.skip <- p.skip + 1;
      p.act <- Quiet;
      Sax.Walk
    end
    else if p.verbatim > 0 || match p.sskip with Some skip -> skip sym | None -> false then begin
      count p seq;
      if p.depth = 0 then p.produced_root <- true;
      p.verbatim <- p.verbatim + 1;
      p.act <- Echo;
      Sax.Walk
    end
    else begin
      (* the qualifier checks read it *)
      p.seq <- seq;
      admit p ~steerable seq (Dfa.next p.dfa p.here ~checkp p (states p) sym)
    end

  (* The event [ev] of the start-tag just decided.  An element written
     under its own name is written as [ev] itself. *)
  let started p ev name attrs =
    match p.act with
    | Quiet -> ()
    | Echo -> p.sink ev
    | Fail msg -> raise (Transform_ast.Invalid_update msg)
    | Push -> (
      let fstates = p.next_states in
      match p.update with
      | Transform_ast.Rename (_, l) when matched p p.depth fstates ->
        p.sink (Sax.Start_element (l, attrs));
        push p fstates l
      | Transform_ast.Insert_first (_, enew) when matched p p.depth fstates ->
        p.sink ev;
        Sax.events_of_node enew p.sink;
        push p fstates name
      | _ ->
        p.sink ev;
        push p fstates name)

  (* The events of a parse whose start-tags were decided. *)
  let handle_decided p = function
    | Sax.Start_element (name, attrs) as ev -> started p ev name attrs
    | Sax.Start_document -> p.sink Sax.Start_document
    | Sax.End_document ->
      if not p.produced_root then
        raise (Transform_ast.Invalid_update "update deletes the document element");
      p.sink Sax.End_document
    | (Sax.Comment_event _ | Sax.Pi_event _ | Sax.Characters _) as ev ->
      if p.verbatim > 0 || (p.skip = 0 && p.depth > 0) then p.sink ev
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
        | Transform_ast.Insert (_, enew) when matched p d p.fstates.(d) -> Sax.events_of_node enew p.sink
        | _ -> ());
        let out_name = p.out_names.(d) in
        p.sink (if String.equal out_name name then ev else Sax.End_element out_name)
      end

  (* The events of an unsteered source: each start-tag is decided at its
     event. *)
  let handle p = function
    | Sax.Start_element (name, attrs) as ev ->
      ignore (decide p ~steerable:false (p.seq + 1) (Sym.intern p.here name) : Sax.decision);
      started p ev name attrs
    | ev -> handle_decided p ev
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
  Counter.add Stats.nodes_visited p2.Pass2.visited;
  {
    max_stack_depth = p1.Pass1.max_depth;
    truth_entries = Truth.length truth;
    elements_seen = p1.Pass1.seq + 1;
    skipped_subtrees = p1.Pass1.skipped_subtrees;
    skipped_elements = p1.Pass1.skipped_elements;
    regions = 0;
    parses = 2;
    reread_bytes = 0;
  }

(* A plan is one-pass streamable iff the top-down run never needs the
   bottom-up truth table: no context qualifier and no qualifier-bearing
   NFA state.  Then pass 2 alone, over a single forward read of the
   input, is the whole transform — O(depth) memory. *)
let one_pass nfa =
  (match Selecting_nfa.ctx_qual nfa with Ast.Q_true -> true | _ -> false)
  && Selecting_nfa.set_is_empty (Selecting_nfa.qual_states nfa)

let run_once nfa update ~source ~sink =
  if not (one_pass nfa) then
    raise
      (Unsupported_streaming
         "plan has qualifiers: one-pass streaming needs the bottom-up pass");
  let p2 = Pass2.create nfa update (Truth.create ~nlq:1) sink in
  source (Pass2.handle p2);
  Counter.add Stats.nodes_visited p2.Pass2.visited;
  { max_stack_depth = p2.Pass2.max_depth; truth_entries = 0; elements_seen = p2.Pass2.seq + 1;
    skipped_subtrees = 0; skipped_elements = 0; regions = 0; parses = 1; reread_bytes = 0 }

(* ---------------- the buffered one-pass driver ----------------

   Pass 2 runs over the live parse, which asks it about each start-tag
   at its name.  At a start-tag whose unchecked transition enters a
   qualifier-bearing state, the element's selection waits on a truth
   pass 1 learns only at its end-tag: it opens an undecided region, the
   bytes from its '<' to past its end tag.  Inside it only pass 1 runs,
   from pass 2's states at the region's parent, and the live parse skips
   each subtree pass 1 has nothing to evaluate in.  Every qualifier of
   fragment X is downward, so at the region's end-tag each truth pass 2
   can ask for inside it is known: a second reader over the same input
   re-reads the region's bytes, steered for pass 2 exactly as the live
   parse is, and the region's truths are dropped.  The regions come in
   input order, so the second reader only moves forward, and the run
   holds no byte of any region.

   The re-read must meet the same element: it must end exactly where
   the live parse's region did, with as many start-tags, and the same
   bytes, compared where both readers' windows still hold the region
   (most regions are smaller than a window), else through the file's
   version (inode, size, modification times) once the re-read is done;
   an input that changed between the reads fails the run ([Sys_error]).
   A malformed region never reaches its re-read: the live parse met
   every byte of it first, and failed there. *)

let changed input ~from ~upto =
  raise
    (Sys_error
       (Printf.sprintf "%s: bytes %d-%d changed between their two reads" (Reader.name input) from upto))

let drive ?copy_to ?keep_ws nfa update ~input ~sink =
  let steerable = Option.is_some copy_to in
  let truth = Truth.create ~nlq:(Lq.length (Selecting_nfa.lq nfa)) in
  let p1 = Pass1.create ~reach:true nfa truth in
  let p2 = Pass2.create nfa update truth sink in
  let quals = Selecting_nfa.qual_states nfa in
  (* the undecided region: its elements the live parse has open (0
     outside one), and its first start-tag's number and offset (-1 until
     its event) *)
  let inside = ref 0 and first = ref 0 and from = ref 0 in
  let regions = ref 0 and peak_truth = ref 0 and reread = ref 0 in
  let decide n sym =
    if !inside > 0 then (
      match Pass1.decide p1 ~steerable n sym with
      | Sax.Walk ->
        incr inside;
        Sax.Walk
      | d -> d)
    else if Pass2.walking p2 then begin
      let parent = Pass2.states p2 in
      let s = Dfa.step p2.Pass2.dfa p2.Pass2.here parent sym in
      if Selecting_nfa.set_intersects s.child.states quals then begin
        incr regions;
        inside := 1;
        first := n;
        from := -1;
        p1.Pass1.base <-
          (if p2.Pass2.depth = 0 then Pass1.at_document p1.Pass1.dfa p1.Pass1.doc parent else parent);
        p1.Pass1.depth <- p2.Pass2.depth;
        p1.Pass1.bottom <- p2.Pass2.depth;
        ignore (Pass1.enter p1 n sym : bool);
        Sax.Walk
      end
      else
        (* no qualifier-bearing state entered: the filtered transition
           is the unchecked one *)
        Pass2.admit p2 ~steerable n s.plain
    end
    else Pass2.decide p2 ~steerable n sym
  in
  let live = Sax.steer ?copy_to decide in
  (* the region's re-read, through [second], steered by [again], of the
     input the live parse reads through [r], found as [version] when it
     opened it *)
  let close_region (r, second, again, version) =
    let upto = Sax.position live and starts = Sax.started live - !first in
    peak_truth := max !peak_truth (Truth.length truth);
    reread := !reread + upto - !from;
    Reader.seek second ~from:!from ~upto;
    (match Sax.parse_region ?keep_ws ~steer:again second (Pass2.handle_decided p2) with
    | stop -> if stop <> upto || Sax.started again <> starts then changed input ~from:!from ~upto
    | exception Sax.Parse_error _ -> changed input ~from:!from ~upto);
    if
      not
        (if Reader.holds r ~from:!from ~upto && Reader.holds second ~from:!from ~upto then
           Reader.same_bytes r second ~from:!from ~upto
         else Reader.same_version version (Reader.version second))
    then changed input ~from:!from ~upto;
    (* what pass 2 copied there is as deep as the frames it would have
       held for it *)
    p2.Pass2.max_depth <- max p2.Pass2.max_depth (p2.Pass2.depth + Sax.copied_depth again);
    Truth.clear truth
  in
  let handle rereads = function
    | ev when !inside = 0 -> Pass2.handle_decided p2 ev
    | Sax.Start_element (name, attrs) ->
      if !from < 0 then from := Sax.position live;
      if p1.Pass1.skip = 0 then Pass1.label p1 name attrs
    | Sax.Characters t -> Pass1.text p1 t
    | Sax.End_element _ ->
      Pass1.end_ p1;
      decr inside;
      if !inside = 0 then close_region (Option.get rereads)
    | _ -> ()
  in
  Reader.with_input input (fun r ->
      let parse rereads = Sax.parse_reader ?keep_ws ~steer:live r (handle rereads) in
      if one_pass nfa then parse None
      else
        let version = Reader.version r in
        Reader.with_input input (fun second ->
            let again = Sax.steer ?copy_to (fun n sym -> Pass2.decide p2 ~steerable (!first + n) sym) in
            parse (Some (r, second, again, version))));
  Counter.add Stats.nodes_visited p2.Pass2.visited;
  {
    max_stack_depth = max (max p1.Pass1.max_depth p2.Pass2.max_depth) (Sax.copied_depth live);
    truth_entries = !peak_truth;
    elements_seen = Sax.started live;
    skipped_subtrees = 0;
    skipped_elements = 0;
    regions = !regions;
    parses = 1;
    reread_bytes = !reread;
  }

(* A path that begins with [//.[q]] tests the document node, whose truth
   is known only at the end of the input: {!run}'s two reads. *)
let run_buffered ?copy_to ?keep_ws nfa update ~input ~sink =
  check_ctx_qual nfa;
  if not (one_pass nfa || Reader.rereadable input) then
    raise
      (Unsupported_streaming
         (Reader.name input ^ " cannot be read twice, which a plan with qualifiers needs"));
  if Selecting_nfa.checks_document nfa then
    run nfa update
      ~source:(fun h -> Reader.with_input input (fun r -> Sax.parse_reader ?keep_ws r h))
      ~sink
  else drive ?copy_to ?keep_ws nfa update ~input ~sink

type tier = Streamed | Materialized

let tier nfa input =
  match Selecting_nfa.ctx_qual nfa with
  | Ast.Q_true when one_pass nfa || Reader.rereadable input -> Streamed
  | _ -> Materialized

let transform update root =
  let nfa = Selecting_nfa.of_path (Transform_ast.path update) in
  let b = Dom.Builder.create () in
  let _ = run nfa update ~source:(Sax.events_of_tree root) ~sink:(Dom.Builder.handler b) in
  Dom.Builder.result b

let transform_file update ~src ~out =
  let nfa = Selecting_nfa.of_path (Transform_ast.path update) in
  run nfa update ~source:(fun h -> Sax.parse_file src h) ~sink:(Serialize.event_sink out)
