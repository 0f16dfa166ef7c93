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

(* ---------------- pass 1: SAX bottomUp ---------------- *)

type p1_frame = {
  states : Selecting_nfa.set;  (* unfiltered NFA states after this start-tag *)
  all_seeds : int list;
  candidates : int list;  (* child-seed candidates *)
  csat : bool array;
  text : Buffer.t;
  attrs : (string * string) list;
  name : string;
  seq : int;
}

let pass1 ~sskip nfa source truth =
  let lq = Selecting_nfa.lq nfa in
  let nlq = Lq.length lq in
  let stack : p1_frame list ref = ref [] in
  let skip = ref 0 in
  (* was the current skip episode opened by the schema oracle (as opposed
     to an empty state set)?  Episodes never nest, so one flag suffices. *)
  let schema_mode = ref false in
  let skipped_subtrees = ref 0 and skipped_elements = ref 0 in
  let seq = ref (-1) in
  (* [List.length !stack], kept as a counter: measuring the list on
     every start-tag made ingest quadratic in nesting depth *)
  let depth = ref 0 in
  let max_depth = ref 0 in
  let handle = function
    | Sax.Start_document | Sax.End_document | Sax.Comment_event _ | Sax.Pi_event _ -> ()
    | Sax.Start_element (name, attrs) ->
      incr seq;
      if !skip > 0 then begin
        incr skip;
        if !schema_mode then incr skipped_elements
      end
      else begin
        let sym = Sym.intern name in
        if sskip sym then begin
          (* schema skip-set: seed-free below, so no truth entry the second
             pass could ask for originates here *)
          skip := 1;
          schema_mode := true;
          incr skipped_subtrees;
          incr skipped_elements
        end
        else begin
          let parent_states, parent_candidates =
            match !stack with
            | [] -> Selecting_nfa.start nfa, []
            | f :: _ -> f.states, f.candidates
          in
          let states = Selecting_nfa.next_unchecked nfa parent_states sym in
          let kid_seeds =
            List.filter (fun p -> not (Lq.label_blocked lq p name)) parent_candidates
          in
          let all_seeds =
            List.sort_uniq compare (kid_seeds @ Annotator.top_quals nfa states)
          in
          if Selecting_nfa.set_is_empty states && all_seeds = [] then skip := 1
          else begin
            let candidates =
              if all_seeds = [] then [] else snd (Annotator.expand lq ~name all_seeds)
            in
            stack :=
              { states; all_seeds; candidates; csat = Array.make nlq false;
                text = Buffer.create 16; attrs; name; seq = !seq }
              :: !stack;
            incr depth;
            if !depth > !max_depth then max_depth := !depth
          end
        end
      end
    | Sax.Characters t -> (
      if !skip = 0 then
        match !stack with f :: _ -> Buffer.add_string f.text t | [] -> ())
    | Sax.End_element _ ->
      if !skip > 0 then begin
        decr skip;
        if !skip = 0 then schema_mode := false
      end
      else begin
        match !stack with
        | [] -> ()
        | f :: rest ->
          stack := rest;
          decr depth;
          if f.all_seeds <> [] then begin
            let sat =
              Lq.eval_at lq ~name:f.name ~attrs:f.attrs ~text:(Buffer.contents f.text)
                ~csat:(fun i -> f.csat.(i)) ~wanted:f.all_seeds
            in
            Selecting_nfa.set_iter
              (fun s ->
                let i = Selecting_nfa.state_lq nfa s in
                Truth.set truth f.seq i sat.(i))
              (Selecting_nfa.set_inter f.states (Selecting_nfa.qual_states nfa));
            match rest with
            | parent :: _ ->
              for i = 0 to nlq - 1 do
                if sat.(i) then parent.csat.(i) <- true
              done
            | [] -> ()
          end
      end
  in
  source handle;
  !max_depth, !seq + 1, !skipped_subtrees, !skipped_elements

(* ---------------- pass 2: SAX topDown ---------------- *)

type p2_frame = { fstates : Selecting_nfa.set; out_name : string; matched : bool }

let pass2 ~sskip nfa update source truth sink =
  let root_matched = Selecting_nfa.selects_context nfa in
  let stack : p2_frame list ref = ref [] in
  let skip = ref 0 in
  (* schema-skipped subtree being copied to the output verbatim: nothing
     below can match, so the events pass through with no transition run *)
  let verbatim = ref 0 in
  let verbatim_subtrees = ref 0 and verbatim_elements = ref 0 in
  let depth = ref 0 in  (* [List.length !stack], as in pass 1 *)
  let max_depth = ref 0 in
  let seq = ref (-1) in
  let produced_root = ref false in
  let handle = function
    | Sax.Start_document -> sink Sax.Start_document
    | Sax.End_document ->
      if not !produced_root then
        raise (Transform_ast.Invalid_update "update deletes the document element");
      sink Sax.End_document
    | Sax.Comment_event _ as ev ->
      if !verbatim > 0 then sink ev else if !skip = 0 && !stack <> [] then sink ev
    | Sax.Pi_event _ as ev ->
      if !verbatim > 0 then sink ev else if !skip = 0 && !stack <> [] then sink ev
    | Sax.Characters t ->
      if !verbatim > 0 then sink (Sax.Characters t)
      else if !skip = 0 && !stack <> [] then sink (Sax.Characters t)
    | Sax.Start_element (name, attrs) ->
      incr seq;
      if !skip > 0 then incr skip
      else if !verbatim > 0 then begin
        incr verbatim;
        incr verbatim_elements;
        sink (Sax.Start_element (name, attrs))
      end
      else begin
        let sym = Sym.intern name in
        if sskip sym then begin
          if !stack = [] then produced_root := true;
          sink (Sax.Start_element (name, attrs));
          verbatim := 1;
          incr verbatim_subtrees;
          incr verbatim_elements
        end
        else begin
          let at_root = !stack = [] in
          let parent_states =
            match !stack with [] -> Selecting_nfa.start nfa | f :: _ -> f.fstates
          in
          let checkp s = Truth.get truth !seq (Selecting_nfa.state_lq nfa s) in
          let fstates = Selecting_nfa.next nfa ~checkp parent_states sym in
          let matched = Selecting_nfa.accepts_set nfa fstates || (at_root && root_matched) in
          let push out_name =
            if at_root then produced_root := true;
            stack := { fstates; out_name; matched } :: !stack;
            incr depth;
            if !depth > !max_depth then max_depth := !depth
          in
          match update, matched with
          | Transform_ast.Delete _, true ->
            if at_root then
              raise (Transform_ast.Invalid_update "update deletes the document element");
            skip := 1
          | Transform_ast.Replace (_, enew), true ->
            (match enew, at_root with
            | Node.Element _, _ | _, false -> ()
            | (Node.Text _ | Node.Comment _ | Node.Pi _), true ->
              raise
                (Transform_ast.Invalid_update
                   "update replaces the document element with a non-element"));
            if at_root then produced_root := true;
            Sax.events_of_node enew sink;
            skip := 1
          | Transform_ast.Rename (_, l), true ->
            sink (Sax.Start_element (l, attrs));
            push l
          | Transform_ast.Insert_first (_, enew), true ->
            sink (Sax.Start_element (name, attrs));
            Sax.events_of_node enew sink;
            push name
          | (Transform_ast.Insert _ | Transform_ast.Insert_first _ | Transform_ast.Delete _
            | Transform_ast.Replace _ | Transform_ast.Rename _), _ ->
            sink (Sax.Start_element (name, attrs));
            push name
        end
      end
    | Sax.End_element _ as ev ->
      if !skip > 0 then decr skip
      else if !verbatim > 0 then begin
        decr verbatim;
        sink ev
      end
      else begin
        match !stack with
        | [] -> ()
        | f :: rest ->
          stack := rest;
          decr depth;
          (match update, f.matched with
          | Transform_ast.Insert (_, enew), true -> Sax.events_of_node enew sink
          | _ -> ());
          sink (Sax.End_element f.out_name)
      end
  in
  source handle;
  (!max_depth, !seq + 1, !verbatim_subtrees, !verbatim_elements)

let check_ctx_qual nfa =
  match Selecting_nfa.ctx_qual nfa with
  | Ast.Q_true -> ()
  | q ->
    raise
      (Unsupported_streaming
         ("context qualifier [" ^ Ast.qual_to_string q ^ "] cannot be checked in streaming mode"))

let run ?(skip = fun _ -> false) nfa update ~source ~sink =
  check_ctx_qual nfa;
  let truth = Truth.create () in
  let max_depth, elements, skipped_subtrees, skipped_elements =
    pass1 ~sskip:skip nfa source truth
  in
  let _ = pass2 ~sskip:skip nfa update source truth sink in
  {
    max_stack_depth = max_depth;
    truth_entries = Hashtbl.length truth;
    elements_seen = elements;
    skipped_subtrees;
    skipped_elements;
  }

(* A plan is one-pass streamable iff the top-down run never needs the
   bottom-up truth table: no context qualifier and no qualifier-bearing
   NFA state.  Then pass 2 alone, over a single forward read of the
   input, is the whole transform — O(depth) memory. *)
let one_pass nfa =
  (match Selecting_nfa.ctx_qual nfa with Ast.Q_true -> true | _ -> false)
  && Selecting_nfa.set_is_empty (Selecting_nfa.qual_states nfa)

let run_once ?(skip = fun _ -> false) nfa update ~source ~sink =
  if not (one_pass nfa) then
    raise
      (Unsupported_streaming
         "plan has qualifiers: one-pass streaming needs the bottom-up pass");
  let truth = Truth.create () in
  let max_depth, elements, skipped_subtrees, skipped_elements =
    pass2 ~sskip:skip nfa update source truth sink
  in
  {
    max_stack_depth = max_depth;
    truth_entries = 0;
    elements_seen = elements;
    skipped_subtrees;
    skipped_elements;
  }

let transform update root =
  let nfa = Selecting_nfa.of_path (Transform_ast.path update) in
  let b = Dom.Builder.create () in
  let _ = run nfa update ~source:(Sax.events_of_tree root) ~sink:(Dom.Builder.handler b) in
  Dom.Builder.result b

let transform_file update ~src ~out =
  let nfa = Selecting_nfa.of_path (Transform_ast.path update) in
  run nfa update ~source:(fun h -> Sax.parse_file src h) ~sink:(Serialize.event_sink out)
