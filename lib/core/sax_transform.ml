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
}

(* Ld: truth of top-level qualifier [lq] at the element with document-order
   number [seq].  Both passes number start-tags identically, so (seq, lq)
   is a faithful replacement for the paper's cursor ids. *)
module Truth = struct
  type t = (int * int, bool) Hashtbl.t

  let create () : t = Hashtbl.create 1024
  let set t seq lq v = Hashtbl.replace t (seq, lq) v
  let get t seq lq = try Hashtbl.find t (seq, lq) with Not_found -> false
end

(* Both passes keep their open-element frames in parallel arrays indexed
   by depth, which double when full: a start-tag writes slots instead of
   allocating a frame and a cons. *)
let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let initial_depth = 64

(* ---------------- pass 1: SAX bottomUp ---------------- *)

module Pass1 = struct
  (* What a seeded frame keeps beyond its states and seeds.  One per
     depth, made at the first seeded frame there and reused by every
     later one. *)
  type seeded = {
    mutable candidates : int list;  (* child-seed candidates *)
    csat : bool array;
    text : Buffer.t;
    mutable attrs : (string * string) list;
    mutable name : string;
    mutable at : int;  (* the element's seq *)
  }

  type t = {
    nfa : Selecting_nfa.t;
    lq : Lq.t;
    nlq : int;
    sskip : Sym.t -> bool;
    truth : Truth.t;
    (* the unfiltered states of the parent of the bottom frame: the start
       set for a whole-document pass, the saved pass-2 states inside an
       undecided region *)
    mutable base : Selecting_nfa.set;
    (* the depth of the bottom frame: 0, or pass 2's depth at the parent
       of an undecided region; the slots below it are not pass 1's *)
    mutable bottom : int;
    (* the frame at depth [d]: its unfiltered NFA states after its
       start-tag, the qualifiers to evaluate there ([] for a seedless
       frame), and, when it has seeds, [seeded.(d)] *)
    mutable states : Selecting_nfa.set array;
    mutable seeds : int list array;
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
    (* the virtual document node's frame, for a path that begins with
       [//.[q]]: the qualifiers wanted there ([] for none), its
       child-seed candidates and what the document element satisfies.
       Its truths go to seq -1. *)
    doc_seeds : int list;
    doc_candidates : int list;
    doc_csat : bool array;
  }

  let document = "#document"

  (* the placeholder in [seeded] at depths no seeded frame reached yet *)
  let unused = { candidates = []; csat = [||]; text = Buffer.create 0; attrs = []; name = ""; at = -1 }

  let create ~sskip nfa truth =
    let lq = Selecting_nfa.lq nfa in
    let base = Selecting_nfa.start nfa in
    let doc_seeds = Annotator.top_quals nfa base in
    { nfa; lq; nlq = Lq.length lq; sskip; truth; base; bottom = 0;
      states = Array.make initial_depth base; seeds = Array.make initial_depth [];
      seeded = Array.make initial_depth unused; skip = 0; schema_mode = false;
      skipped_subtrees = 0; skipped_elements = 0; seq = -1; depth = 0; max_depth = 0;
      doc_seeds;
      doc_candidates =
        (if doc_seeds = [] then [] else snd (Annotator.expand lq ~name:document doc_seeds));
      doc_csat = Array.make (if doc_seeds = [] then 0 else Lq.length lq) false }

  (* Room for a frame at depth [d].  Inside a region the first frame
     sits at [bottom], which may be past the arrays' end. *)
  let rec reserve p d =
    if d >= Array.length p.states then begin
      p.states <- grow p.states p.base;
      p.seeds <- grow p.seeds [];
      p.seeded <- grow p.seeded unused;
      reserve p d
    end

  (* The frames below depth [n] become seedless frames over [states]:
     the elements above an undecided region, whose pass-2 states carry
     no qualifier. *)
  let set_seedless_below p states n =
    reserve p n;
    Array.blit states 0 p.states 0 n;
    Array.fill p.seeds 0 n [];
    p.bottom <- 0

  (* A seeded frame at depth [d], its [csat] and [text] emptied. *)
  let set_seeded p d all_seeds name attrs =
    let f = p.seeded.(d) in
    if f == unused then
      p.seeded.(d) <-
        { candidates = []; csat = Array.make p.nlq false; text = Buffer.create 16; attrs; name;
          at = p.seq }
    else begin
      Array.fill f.csat 0 p.nlq false;
      Buffer.clear f.text;
      f.attrs <- attrs;
      f.name <- name;
      f.at <- p.seq
    end;
    p.seeded.(d).candidates <- snd (Annotator.expand p.lq ~name all_seeds)

  let start p name attrs =
    p.seq <- p.seq + 1;
    if p.skip > 0 then begin
      p.skip <- p.skip + 1;
      if p.schema_mode then p.skipped_elements <- p.skipped_elements + 1
    end
    else begin
      let sym = Sym.intern name in
      if p.sskip sym then begin
        (* schema skip-set: seed-free below, so no truth entry the second
           pass could ask for originates here *)
        p.skip <- 1;
        p.schema_mode <- true;
        p.skipped_subtrees <- p.skipped_subtrees + 1;
        p.skipped_elements <- p.skipped_elements + 1
      end
      else begin
        let d = p.depth in
        let states =
          Selecting_nfa.next_unchecked p.nfa (if d = p.bottom then p.base else p.states.(d - 1)) sym
        in
        let candidates =
          if d > p.bottom then if p.seeds.(d - 1) = [] then [] else p.seeded.(d - 1).candidates
          else if d = 0 then p.doc_candidates
          else []
        in
        let kid_seeds =
          if candidates = [] then []
          else List.filter (fun i -> not (Lq.label_blocked p.lq i name)) candidates
        in
        (* [List.sort_uniq] builds its local closures even for [] *)
        let all_seeds =
          match kid_seeds, Annotator.top_quals p.nfa states with
          | [], [] -> []
          | ks, qs -> List.sort_uniq compare (ks @ qs)
        in
        if Selecting_nfa.set_is_empty states && all_seeds = [] then p.skip <- 1
        else begin
          reserve p d;
          p.states.(d) <- states;
          p.seeds.(d) <- all_seeds;
          if all_seeds <> [] then set_seeded p d all_seeds name attrs;
          p.depth <- d + 1;
          if p.depth > p.max_depth then p.max_depth <- p.depth
        end
      end
    end

  let end_ p =
    if p.skip > 0 then begin
      p.skip <- p.skip - 1;
      if p.skip = 0 then p.schema_mode <- false
    end
    else if p.depth > p.bottom then begin
      let d = p.depth - 1 in
      p.depth <- d;
      match p.seeds.(d) with
      | [] -> ()
      | wanted ->
        let f = p.seeded.(d) in
        let sat =
          Lq.eval_at p.lq ~name:f.name ~attrs:f.attrs ~text:(Buffer.contents f.text)
            ~csat:(Array.get f.csat) ~wanted
        in
        Selecting_nfa.set_iter
          (fun s ->
            let i = Selecting_nfa.state_lq p.nfa s in
            Truth.set p.truth f.at i sat.(i))
          (Selecting_nfa.set_inter p.states.(d) (Selecting_nfa.qual_states p.nfa));
        (* a parent without seeds never reads its [csat] *)
        let parent =
          if d > p.bottom then if p.seeds.(d - 1) <> [] then p.seeded.(d - 1).csat else [||]
          else if d = 0 then p.doc_csat
          else [||]
        in
        if Array.length parent > 0 then
          for i = 0 to p.nlq - 1 do
            if sat.(i) then parent.(i) <- true
          done
    end

  (* The document node's truths, once the document element has ended:
     no name a step can carry, no attributes and no text of its own. *)
  let end_document p =
    if p.doc_seeds <> [] then begin
      let sat =
        Lq.eval_at p.lq ~name:document ~attrs:[] ~text:"" ~csat:(Array.get p.doc_csat)
          ~wanted:p.doc_seeds
      in
      Selecting_nfa.set_iter
        (fun s ->
          let i = Selecting_nfa.state_lq p.nfa s in
          Truth.set p.truth (-1) i sat.(i))
        (Selecting_nfa.set_inter p.base (Selecting_nfa.qual_states p.nfa))
    end

  let handle p = function
    | Sax.End_document -> end_document p
    | Sax.Start_document | Sax.Comment_event _ | Sax.Pi_event _ -> ()
    | Sax.Start_element (name, attrs) -> start p name attrs
    | Sax.Characters t ->
      let d = p.depth - 1 in
      if p.skip = 0 && d >= p.bottom && p.seeds.(d) <> [] then
        Buffer.add_string p.seeded.(d).text t
    | Sax.End_element _ -> end_ p
end

(* ---------------- pass 2: SAX topDown ---------------- *)

module Pass2 = struct
  type t = {
    nfa : Selecting_nfa.t;
    update : Transform_ast.update;
    sskip : Sym.t -> bool;
    truth : Truth.t;
    sink : Sax.event -> unit;
    root_matched : bool;
    (* the states at the document node *)
    start : Selecting_nfa.set;
    (* qualifier checks at the start-tag numbered [seq]; built once *)
    checkp : int -> bool;
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
    mutable verbatim_subtrees : int;
    mutable verbatim_elements : int;
    mutable depth : int;
    mutable max_depth : int;
    mutable seq : int;
    mutable produced_root : bool;
    (* the parse's steering handle, when the run was given one *)
    steer : Sax.steer option;
  }

  (* [truth] holds the document node's truths, if the path tests it,
     before the pass starts. *)
  let create ?steer ~sskip nfa update truth sink =
    let start =
      Selecting_nfa.start_checked nfa ~checkp:(fun s ->
          Truth.get truth (-1) (Selecting_nfa.state_lq nfa s))
    in
    let rec p =
      { nfa; update; sskip; truth; sink; steer; root_matched = Selecting_nfa.selects_context nfa; start;
        checkp = (fun s -> Truth.get p.truth p.seq (Selecting_nfa.state_lq p.nfa s));
        fstates = Array.make initial_depth start; out_names = Array.make initial_depth "";
        matched = Array.make initial_depth false; skip = 0; verbatim = 0;
        verbatim_subtrees = 0; verbatim_elements = 0; depth = 0; max_depth = 0; seq = -1;
        produced_root = false }
    in
    p

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
    | Some h -> p.seq <- p.seq + Sax.skip_rest h
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
        p.seq <- p.seq + Sax.copy_rest h;
        p.max_depth <- max p.max_depth (p.depth + 1 + Sax.rest_depth h)
      | _ -> push p fstates name matched)

  (* A start-tag while [walking], its number already counted. *)
  let enter p ev name attrs sym =
    if p.sskip sym then begin
      if p.depth = 0 then p.produced_root <- true;
      p.sink ev;
      p.verbatim <- 1;
      p.verbatim_subtrees <- p.verbatim_subtrees + 1;
      p.verbatim_elements <- p.verbatim_elements + 1
    end
    else admit p ev name attrs (Selecting_nfa.next p.nfa ~checkp:p.checkp (states p) sym)

  let start p ev name attrs =
    p.seq <- p.seq + 1;
    if p.skip > 0 then p.skip <- p.skip + 1
    else if p.verbatim > 0 then begin
      p.verbatim <- p.verbatim + 1;
      p.verbatim_elements <- p.verbatim_elements + 1;
      p.sink ev
    end
    else enter p ev name attrs (Sym.intern name)

  let handle p = function
    | Sax.Start_document -> p.sink Sax.Start_document
    | Sax.End_document ->
      if not p.produced_root then
        raise (Transform_ast.Invalid_update "update deletes the document element");
      p.sink Sax.End_document
    | (Sax.Comment_event _ | Sax.Pi_event _ | Sax.Characters _) as ev ->
      if p.verbatim > 0 || (p.skip = 0 && p.depth > 0) then p.sink ev
    | Sax.Start_element (name, attrs) as ev -> start p ev name attrs
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

let never _ = false

let run ?(skip = never) nfa update ~source ~sink =
  check_ctx_qual nfa;
  let truth = Truth.create () in
  let p1 = Pass1.create ~sskip:skip nfa truth in
  source (Pass1.handle p1);
  let p2 = Pass2.create ~sskip:skip nfa update truth sink in
  source (Pass2.handle p2);
  {
    max_stack_depth = p1.Pass1.max_depth;
    truth_entries = Hashtbl.length truth;
    elements_seen = p1.Pass1.seq + 1;
    skipped_subtrees = p1.Pass1.skipped_subtrees;
    skipped_elements = p1.Pass1.skipped_elements;
    regions = 0;
    parses = 2;
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

   Past [buffer_budget] bytes of held markup the run turns into the
   two-parse algorithm from that point: the live parse goes on as pass 1
   alone (the region's frames over frames for the elements above it) to
   the end of the input, and a second parse skips to the region's first
   start-tag and resumes pass 2 there.  Everything already written stays
   valid. *)

let buffer_budget = 1 lsl 19

(* the size of an event's markup, near enough to bound what [held] keeps *)
let markup_bytes = function
  | Sax.Start_element (name, attrs) ->
    List.fold_left
      (fun n (k, v) -> n + String.length k + String.length v + 4)
      (String.length name + 2) attrs
  | Sax.End_element name -> String.length name + 3
  | Sax.Characters t | Sax.Comment_event t -> String.length t
  | Sax.Pi_event (target, data) -> String.length target + String.length data + 5
  | Sax.Start_document | Sax.End_document -> 0

type region =
  | Outside
  | Held of { first : int; mutable open_elements : int; mutable bytes : int }
  | Overflowed of { first : int }  (* the seq of the region's first element *)

(* A run with a schema skip-set is not steered: the skip-set comes with
   a stored document, whose events are a tree replay with no parse to
   steer. *)
let drive ?steer ?skip nfa update ~source ~sink =
  let steer = if Option.is_some skip then None else steer in
  let skip = Option.value skip ~default:never in
  let truth = Truth.create () in
  let p1 = Pass1.create ~sskip:skip nfa truth in
  let p2 = Pass2.create ?steer ~sskip:skip nfa update truth sink in
  let quals = Selecting_nfa.qual_states nfa in
  let held = ref [||] and nheld = ref 0 in
  let hold ev =
    if !nheld = Array.length !held then begin
      let grown = Array.make (max 256 (2 * !nheld)) Sax.End_document in
      Array.blit !held 0 grown 0 !nheld;
      held := grown
    end;
    Array.unsafe_set !held !nheld ev;
    incr nheld
  in
  let region = ref Outside in
  let regions = ref 0 and peak_truth = ref 0 in
  let open_region ev parent =
    incr regions;
    region := Held { first = p2.Pass2.seq + 1; open_elements = 1; bytes = markup_bytes ev };
    p1.Pass1.base <- parent;
    p1.Pass1.seq <- p2.Pass2.seq;
    p1.Pass1.depth <- p2.Pass2.depth;
    p1.Pass1.bottom <- p2.Pass2.depth;
    hold ev;
    Pass1.handle p1 ev
  in
  let close_region () =
    region := Outside;
    peak_truth := max !peak_truth (Hashtbl.length truth);
    let events = !held and n = !nheld in
    nheld := 0;
    for i = 0 to n - 1 do
      Pass2.handle p2 (Array.unsafe_get events i)
    done;
    Hashtbl.clear truth
  in
  let overflow first =
    region := Overflowed { first };
    held := [||];
    nheld := 0;
    (* pass 1 goes on to the end of the input: the elements above the
       region get seedless frames over pass 2's states, which no
       qualifier filtered *)
    Pass1.set_seedless_below p1 p2.Pass2.fstates p2.Pass2.depth
  in
  let handle ev =
    match !region with
    | Outside -> (
      match ev with
      | Sax.Start_element (name, attrs) when Pass2.walking p2 ->
        let sym = Sym.intern name in
        if skip sym then begin
          p2.Pass2.seq <- p2.Pass2.seq + 1;
          Pass2.enter p2 ev name attrs sym
        end
        else begin
          let parent = Pass2.states p2 in
          let states = Selecting_nfa.next_unchecked nfa parent sym in
          if Selecting_nfa.set_intersects states quals then open_region ev parent
          else begin
            (* no qualifier-bearing state entered: the filtered
               transition is the unchecked one *)
            p2.Pass2.seq <- p2.Pass2.seq + 1;
            Pass2.admit p2 ev name attrs states
          end
        end
      | ev -> Pass2.handle p2 ev)
    | Held r ->
      (match ev with
      | Sax.Start_element _ -> r.open_elements <- r.open_elements + 1
      | Sax.End_element _ -> r.open_elements <- r.open_elements - 1
      | _ -> ());
      Pass1.handle p1 ev;
      hold ev;
      r.bytes <- r.bytes + markup_bytes ev;
      if r.open_elements = 0 then close_region ()
      else if r.bytes > buffer_budget then overflow r.first
    | Overflowed _ -> Pass1.handle p1 ev
  in
  source handle;
  let parses =
    match !region with
    | Overflowed { first } ->
      peak_truth := max !peak_truth (Hashtbl.length truth);
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
  {
    max_stack_depth = max p1.Pass1.max_depth p2.Pass2.max_depth;
    truth_entries = !peak_truth;
    elements_seen = p2.Pass2.seq + 1;
    skipped_subtrees = p2.Pass2.verbatim_subtrees;
    skipped_elements = p2.Pass2.verbatim_elements;
    regions = !regions;
    parses;
  }

(* A path that begins with [//.[q]] tests the document node, whose truth
   is known only at the end of the input: {!run}'s two reads. *)
let run_buffered ?skip ?steer nfa update ~source ~sink =
  check_ctx_qual nfa;
  if Selecting_nfa.checks_document nfa then run ?skip nfa update ~source ~sink
  else drive ?steer ?skip nfa update ~source ~sink

(* A plan is one-pass streamable iff the top-down run never needs the
   bottom-up truth table: no context qualifier and no qualifier-bearing
   NFA state.  Then the buffered driver never opens a region: pass 2
   alone, over a single forward read of the input, is the whole
   transform — O(depth) memory. *)
let one_pass nfa =
  (match Selecting_nfa.ctx_qual nfa with Ast.Q_true -> true | _ -> false)
  && Selecting_nfa.set_is_empty (Selecting_nfa.qual_states nfa)

let run_once ?skip ?steer nfa update ~source ~sink =
  if not (one_pass nfa) then
    raise
      (Unsupported_streaming
         "plan has qualifiers: one-pass streaming needs the bottom-up pass");
  drive ?steer ?skip nfa update ~source ~sink

type tier = Fused | Buffered | Materialized

let tier ~file nfa =
  if one_pass nfa then Fused
  else
    match Selecting_nfa.ctx_qual nfa with
    | Ast.Q_true when file -> Buffered
    | _ -> Materialized

let transform update root =
  let nfa = Selecting_nfa.of_path (Transform_ast.path update) in
  let b = Dom.Builder.create () in
  let _ = run nfa update ~source:(Sax.events_of_tree root) ~sink:(Dom.Builder.handler b) in
  Dom.Builder.result b

let transform_file update ~src ~out =
  let nfa = Selecting_nfa.of_path (Transform_ast.path update) in
  run nfa update ~source:(fun h -> Sax.parse_file src h) ~sink:(Serialize.event_sink out)
