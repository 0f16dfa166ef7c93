open Xut_xml
open Xut_xpath
open Xut_automata
open Xut_xquery

(* A composed plan separates the shareable compile-time product (the
   expression and the pure data the natives need) from per-evaluation
   runtime state (state tables, transform memos).  [make] instantiates
   fresh native closures for one evaluation, so a composed plan cached
   across service requests can be evaluated concurrently on several
   domains without sharing mutable tables. *)
type composed = {
  expr : Xq_ast.expr;
  make : Top_down.checkp option -> (string * (Xq_value.t list -> Xq_value.t)) list;
  native_count : int;
}

let native_count c = c.native_count

(* ---------------- static simulation (delta', Section 4) ---------------- *)

type chunk = { desc : bool; nav : Norm.nnav; quals : Ast.qual list }

let chunkify (norm : Norm.t) : (chunk list, string) result =
  if norm.ctx_quals <> [] then Error "context qualifiers in the user source path"
  else begin
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | { Norm.nav = Norm.N_desc; quals = _ :: _ } :: _ -> Error "qualified descendant step"
      | { Norm.nav = Norm.N_desc; quals = [] }
        :: ({ Norm.nav = Norm.N_label _ | Norm.N_wild; _ } as s)
        :: rest ->
        go ({ desc = true; nav = s.Norm.nav; quals = s.Norm.quals } :: acc) rest
      | { Norm.nav = Norm.N_desc; _ } :: _ -> Error "trailing descendant step"
      | ({ Norm.nav = Norm.N_label _ | Norm.N_wild; _ } as s) :: rest ->
        go ({ desc = false; nav = s.Norm.nav; quals = s.Norm.quals } :: acc) rest
    in
    go [] norm.steps
  end

let chunk_path (c : chunk) ~quals : Ast.path =
  let nav =
    match c.nav with
    | Norm.N_label l -> Ast.Label l
    | Norm.N_wild -> Ast.Wildcard
    | Norm.N_desc -> assert false
  in
  let step = { Ast.nav; quals } in
  if c.desc then [ Ast.step Ast.Descendant; step ] else [ step ]

(* The static simulation runs once per composition, not per node, on
   sets it computes: it takes no DFA step. *)
let on_label nfa s l = Selecting_nfa.next_unchecked nfa s (Sym.intern (Counter.local ()) l)

let step_sim nfa s (c : chunk) =
  let s = if c.desc then Selecting_nfa.next_on_desc_set nfa s else s in
  match c.nav with
  | Norm.N_label l -> on_label nfa s l
  | Norm.N_wild -> Selecting_nfa.next_on_any_set nfa s
  | Norm.N_desc -> assert false

(* States reachable at strict descendants of a node holding [s]. *)
let below nfa s = Selecting_nfa.next_on_desc_set nfa (Selecting_nfa.next_on_any_set nfa s)

(* Can the update touch a strict descendant of a node holding [s]?
   (For insert, matching [s] itself also changes the subtree.) *)
let subtree_affected nfa update s =
  Selecting_nfa.accepts_set nfa (below nfa s)
  || (match update with
     | Transform_ast.Insert _ | Transform_ast.Insert_first _ -> Selecting_nfa.accepts_set nfa s
     | _ -> false)

(* The state set after navigating [path] from [s] (delta', unchecked). *)
let end_set nfa s (path : Ast.path) =
  List.fold_left
    (fun s ({ Ast.nav; _ } : Ast.step) ->
      match nav with
      | Ast.Self -> s
      | Ast.Label l -> on_label nfa s l
      | Ast.Wildcard -> Selecting_nfa.next_on_any_set nfa s
      | Ast.Descendant -> below nfa s)
    s path

(* Does the update change the labels of the nodes it matches?  Such
   updates can make label-based steps match where the original document
   does not (and vice versa), so their static simulation must widen
   label transitions to wildcards. *)
let relabels = function
  | Transform_ast.Replace _ | Transform_ast.Rename _ -> true
  | Transform_ast.Insert _ | Transform_ast.Insert_first _ | Transform_ast.Delete _ -> false

(* Would evaluating a path rooted at a node with states [s] see different
   data on Qt(T) than on T? *)
let rec path_affected nfa update s (path : Ast.path) =
  let insert =
    match update with Transform_ast.Insert _ | Transform_ast.Insert_first _ -> true | _ -> false
  in
  let widen = relabels update in
  let rec go s = function
    | [] -> false
    | ({ Ast.nav; quals } : Ast.step) :: rest ->
      (* an insert at the current node can add content the next step matches *)
      if insert && Selecting_nfa.accepts_set nfa s then true
      else begin
        let s' =
          match nav with
          | Ast.Self -> s
          | Ast.Label l ->
            if widen then Selecting_nfa.next_on_any_set nfa s else on_label nfa s l
          | Ast.Wildcard -> Selecting_nfa.next_on_any_set nfa s
          | Ast.Descendant -> below nfa s
        in
        if Selecting_nfa.accepts_set nfa s' && nav <> Ast.Self then true
        else if List.exists (qual_affected nfa update s') quals then true
        else go s' rest
      end
  in
  go s path

and qual_affected nfa update s (q : Ast.qual) =
  match q with
  | Ast.Q_true | Ast.Q_label _ -> false
  | Ast.Q_and (a, b) | Ast.Q_or (a, b) ->
    qual_affected nfa update s a || qual_affected nfa update s b
  | Ast.Q_not a -> qual_affected nfa update s a
  | Ast.Q_exists { spath; sattr = _ } | Ast.Q_cmp ({ spath; sattr = _ }, _, _) -> (
    match update, spath with
    | (Transform_ast.Insert _ | Transform_ast.Insert_first _), _ :: _
      when Selecting_nfa.accepts_set nfa s ->
      true
    | _ -> path_affected nfa update s spath)

(* Do the where/return clauses of [uq] see different data on Qt(T) for a
   binding holding state set [s] of the update's NFA? *)
let output_affected nfa update (uq : User_query.t) s =
  let operand_affected = function
    | User_query.Const _ -> false
    | User_query.Rel (p, _) -> (
      match update, p with
      | (Transform_ast.Insert _ | Transform_ast.Insert_first _), _ :: _
        when Selecting_nfa.accepts_set nfa s ->
        true
      | _ -> path_affected nfa update s p)
  in
  List.exists
    (fun { User_query.left; right; _ } -> operand_affected left || operand_affected right)
    uq.User_query.conds
  ||
  let rec hole_affected = function
    | User_query.T_elem (_, _, cs) -> List.exists hole_affected cs
    | User_query.T_text _ -> false
    | User_query.T_hole ([], None) -> subtree_affected nfa update s
    | User_query.T_hole (p, attr) -> (
      match update, p with
      | Transform_ast.Insert _, _ :: _ when Selecting_nfa.accepts_set nfa s -> true
      | _ ->
        path_affected nfa update s p
        || (attr = None && subtree_affected nfa update (end_set nfa s p)))
  in
  hole_affected uq.User_query.template

(* ---------------- runtime navigation (the nav natives) ---------------- *)

(* The nav natives walk the original tree running the selecting NFA with
   exact, qualifier-checked state sets, so that:
   - bindings inside deleted regions are skipped,
   - a binding that is itself updated is returned transformed,
   - bindings inside content inserted along a '//' descent are found,
   - a surviving binding's exact state set is remembered (keyed by
     element id) for the next chunk's native and for the final template
     wrap ([xut:fin]). *)

type runtime = {
  nfa : Selecting_nfa.t;
  update : Transform_ast.update;
  (* O(1) qualifier oracle over the base tree (a memoized TD-BU
     annotation table), when the caller has one.  Only ever consulted on
     nodes of the original stored tree. *)
  oracle : Top_down.checkp option;
  state_tbl : (int, Dfa.config) Hashtbl.t;
  (* transforming the same node twice must yield the same physical
     result, so that duplicate bindings reached along different '//'
     routes stay identity-equal (and get deduplicated) *)
  transform_memo : (int, Node.t list) Hashtbl.t;
}

let checkp_direct rt s n =
  match rt.oracle with
  | Some f -> f s n
  | None -> Eval.check_qual n (Selecting_nfa.state_qual rt.nfa s)

let transformed_view rt states e =
  match Hashtbl.find_opt rt.transform_memo (Node.id e) with
  | Some ts -> ts
  | None ->
    let ts = Top_down.transform_at ?checkp:rt.oracle rt.nfa rt.update ~states e in
    Hashtbl.replace rt.transform_memo (Node.id e) ts;
    ts

(* Do the chunk's user qualifiers hold for this binding, as seen on
   Qt(T)?  [view] is the binding's transformed view, forced only for a
   qualifier the update can affect. *)
let quals_hold rt states quals view (e : Node.element) =
  List.for_all
    (fun q ->
      if qual_affected rt.nfa rt.update states q then
        match Lazy.force view with
        | [ Node.Element t ] -> Eval.check_qual t q
        | _ -> false
      else Eval.check_qual e q)
    quals

let chunk_matches (c : chunk) name =
  match c.nav with Norm.N_label l -> String.equal l name | Norm.N_wild -> true | Norm.N_desc -> false

(* Collect candidates below [root] where the update no longer applies
   (constant content, or no live state): qualifiers evaluated directly. *)
let scan_const_tree (c : chunk) (quals_ok : Node.element -> bool) (root : Node.element) emit =
  let rec go e =
    List.iter
      (fun child ->
        if chunk_matches c (Node.name child) && quals_ok child then emit (Node.Element child);
        if c.desc then go child)
      (Node.child_elements e)
  in
  go root

(* The user NFA's DFA [udfa] alone over constant (already transformed)
   content: [user_const] walks the children of [nd], whose configuration
   is [uc]; [user_enter_const] first steps into [nd] itself. *)
let rec user_const here udfa emit uc nd =
  match nd with
  | Node.Element e -> List.iter (user_enter_const here udfa emit uc) (Node.children e)
  | Node.Text _ | Node.Comment _ | Node.Pi _ -> ()

and user_enter_const here udfa emit uc nd =
  match nd with
  | Node.Element te ->
    let checkp = Top_down.direct_checkp (Dfa.nfa udfa) in
    let (uct : Dfa.config) = Dfa.next udfa here ~checkp te uc (Node.sym te) in
    if uct.accepts then emit nd;
    if not uct.empty then user_const here udfa emit uct nd
  | Node.Text _ | Node.Comment _ | Node.Pi _ -> ()

(* Where a nav native finds the exact state set of its anchor: a static
   hint (sound until the first '//' chunk, with anchor qualifiers checked
   at run time) or the table filled by an upstream native. *)
type anchor_source = Src_hint of Selecting_nfa.set | Src_table

(* The exact configuration at the anchor [e], or [None] where no state
   lives there, or [e] is already transformed: pure navigation below. *)
let anchored rt src e =
  match src with
  | Src_hint states ->
    let alive = Top_down.settle ~checkp:(checkp_direct rt) rt.nfa states e in
    if Selecting_nfa.set_is_empty alive then None else Some (Dfa.config (Dfa.of_nfa rt.nfa) alive)
  | Src_table -> Hashtbl.find_opt rt.state_tbl (Node.id e)

let nav_chunk rt (c : chunk) ~(src : anchor_source) (anchor : Xq_value.item) : Xq_value.t =
  let here = Counter.local () and checkp = checkp_direct rt and dfa = Dfa.of_nfa rt.nfa in
  let out = ref [] in
  let emit n = out := Xq_value.N n :: !out in
  let const_quals_ok child = List.for_all (fun q -> Eval.check_qual child q) c.quals in
  let scan e = scan_const_tree c const_quals_ok e emit in
  let scan_forest =
    List.iter (function Node.Element te -> scan te | Node.Text _ | Node.Comment _ | Node.Pi _ -> ())
  in
  (* could the update's new content itself supply bindings for this chunk? *)
  let update_content_can_bind =
    match rt.update with
    | Transform_ast.Delete _ -> false
    | Transform_ast.Rename (_, l) -> chunk_matches c l
    | Transform_ast.Insert (_, e) | Transform_ast.Insert_first (_, e) | Transform_ast.Replace (_, e)
      ->
      let rec any = function
        | Node.Element el ->
          chunk_matches c (Node.name el) || List.exists any (Node.children el)
        | Node.Text _ | Node.Comment _ | Node.Pi _ -> false
      in
      any e
  in
  (* visit a child [child] whose parent holds exact configuration [s] *)
  let rec visit s child =
    let (sc : Dfa.config) = Dfa.next dfa here ~checkp child s (Node.sym child) in
    let matched = sc.accepts in
    let is_candidate = chunk_matches c (Node.name child) in
    match rt.update, matched with
    | Transform_ast.Delete _, true -> ()  (* the region is gone *)
    | (Transform_ast.Insert _ | Transform_ast.Insert_first _), true ->
      (* the binding keeps its name; materialize its transformed view
         only when something is actually emitted from it — qualifiers
         the update cannot affect filter first *)
      let lazy_ts = lazy (transformed_view rt sc.states child) in
      if is_candidate && quals_hold rt sc.states c.quals lazy_ts child then
        List.iter
          (fun t -> match t with Node.Element _ -> emit t | _ -> ())
          (Lazy.force lazy_ts);
      (* nested candidates: from the transformed content when it was
         materialized (or when the new content could itself bind),
         otherwise from the original subtree *)
      if c.desc then
        if Lazy.is_val lazy_ts || update_content_can_bind then scan_forest (Lazy.force lazy_ts)
        else List.iter (visit sc) (Node.child_elements child)
    | (Transform_ast.Replace _ | Transform_ast.Rename _), true ->
      (* labels change: candidacy and qualifiers are judged on the
         transformed view, which replaces the original subtree *)
      let ts = transformed_view rt sc.states child in
      List.iter
        (fun t ->
          match t with
          | Node.Element te ->
            if chunk_matches c (Node.name te) && const_quals_ok te then emit t
          | Node.Text _ | Node.Comment _ | Node.Pi _ -> ())
        ts;
      if c.desc then scan_forest ts
    | (Transform_ast.Delete _ | Transform_ast.Insert _ | Transform_ast.Insert_first _
      | Transform_ast.Replace _ | Transform_ast.Rename _), false ->
      if
        is_candidate
        && quals_hold rt sc.states c.quals (lazy (transformed_view rt sc.states child)) child
      then begin
        if not sc.empty then Hashtbl.replace rt.state_tbl (Node.id child) sc;
        emit (Node.Element child)
      end;
      if c.desc && not sc.empty then
        List.iter (visit sc) (Node.child_elements child)
      else if c.desc then scan child
  in
  (match anchor with
  | Xq_value.D root -> visit (Dfa.start dfa) root
  | Xq_value.N (Node.Element e) -> (
    match anchored rt src e with
    | Some s -> List.iter (visit s) (Node.child_elements e)
    | None -> scan e)
  | Xq_value.N _ | Xq_value.A _ | Xq_value.S _ | Xq_value.F _ | Xq_value.B _ ->
    raise (Xq_value.Type_error "navigation over a non-element"));
  List.rev !out

(* A '//' chunk followed by further steps cannot be decomposed into
   nested for-clauses without breaking the set semantics (nested bindings
   reach the same node along several routes, in non-document order).
   Instead, one native runs the {e product} of the user-suffix NFA and
   the update NFA in a single pre-order walk: bindings come out exactly
   once, in document order, transformed where the update touches them.
   [unfa] is the suffix's NFA, compiled with the plan, so its DFA
   outlives a read. *)
let pipe_chunks rt unfa (start_states : Dfa.config option) (root_children : Node.t list) emit =
  let udfa = Dfa.of_nfa unfa and dfa = Dfa.of_nfa rt.nfa in
  let here = Counter.local () and checkp = checkp_direct rt in
  let rec walk ustates (sstates : Dfa.config option) (children : Node.t list) =
    List.iter
      (fun child ->
        match child with
        | Node.Text _ | Node.Comment _ | Node.Pi _ -> ()
        | Node.Element ce -> (
          let sc =
            match sstates with None -> None | Some s -> Some (Dfa.next dfa here ~checkp ce s (Node.sym ce))
          in
          let matched = match sc with Some s -> s.accepts | None -> false in
          match rt.update, matched with
          | Transform_ast.Delete _, true -> ()  (* region gone: no bindings inside *)
          | (Transform_ast.Replace _ | Transform_ast.Rename _), true ->
            (* the node's label changes: run the user NFA against the
               transformed view (which is all that exists on Qt(T)) *)
            List.iter
              (user_enter_const here udfa emit ustates)
              (transformed_view rt (Option.get sc).states ce)
          | _ ->
            let user_checkp s ce =
              let q = Selecting_nfa.state_qual unfa s in
              let affected =
                match sc with
                | Some s -> qual_affected rt.nfa rt.update s.states q
                | None -> false
              in
              if affected then
                match transformed_view rt (Option.get sc).states ce with
                | [ Node.Element t ] -> Eval.check_qual t q
                | _ -> false
              else Eval.check_qual ce q
            in
            let (uc : Dfa.config) = Dfa.next udfa here ~checkp:user_checkp ce ustates (Node.sym ce) in
            if matched then begin
              (* insert (delete and relabeling were handled above): the
                 content changes but the node keeps its place *)
              if not uc.empty then begin
                let ts = transformed_view rt (Option.get sc).states ce in
                if uc.accepts then List.iter emit ts;
                List.iter (user_const here udfa emit uc) ts
              end
            end
            else begin
              if uc.accepts then begin
                (match sc with
                | Some s when not s.empty -> Hashtbl.replace rt.state_tbl (Node.id ce) s
                | _ -> ());
                emit (Node.Element ce)
              end;
              if not uc.empty then walk uc sc (Node.children ce)
            end))
      children
  in
  walk (Dfa.start udfa) start_states root_children

(* What a native does, as pure data: instantiating a fresh runtime per
   evaluation rebuilds the closures from these specs, with names fixed at
   compose time (they are burned into the expression). *)
type spec =
  | Nav of chunk * anchor_source
  | Pipe of Selecting_nfa.t * anchor_source  (* the suffix's NFA *)
  | Fin of anchor_source

let native_of_spec rt name = function
  | Nav (chunk, src) -> (
    function
    | [ [ anchor ] ] -> nav_chunk rt chunk ~src anchor
    | [ [] ] -> []
    | _ -> raise (Xq_value.Type_error (name ^ ": expected a single node")))
  | Pipe (unfa, src) -> (
    function
    | [ [ anchor ] ] ->
      let out = ref [] in
      let emit n = out := Xq_value.N n :: !out in
      (match anchor with
      | Xq_value.D root ->
        pipe_chunks rt unfa (Some (Dfa.start (Dfa.of_nfa rt.nfa))) [ Node.Element root ] emit
      | Xq_value.N (Node.Element e) -> pipe_chunks rt unfa (anchored rt src e) (Node.children e) emit
      | _ -> raise (Xq_value.Type_error (name ^ ": expected a node")));
      List.rev !out
    | [ [] ] -> []
    | _ -> raise (Xq_value.Type_error (name ^ ": expected a single node")))
  | Fin src -> (
    function
    | [ [ Xq_value.N (Node.Element e) ] ] -> (
      let states =
        match src with
        | Src_hint s -> Some s
        | Src_table -> Option.map (fun (c : Dfa.config) -> c.states) (Hashtbl.find_opt rt.state_tbl (Node.id e))
      in
      match states with
      | Some s -> List.map (fun n -> Xq_value.N n) (transformed_view rt s e)
      | None -> [ Xq_value.N (Node.Element e) ])
    | [ v ] -> v
    | _ -> raise (Xq_value.Type_error (name ^ ": expected a single node")))

(* ---------------- composition ---------------- *)

let fresh_var =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Printf.sprintf "%s%d" prefix !n

(* The update-side fragment checks, shared with view definition time:
   an update composes iff its path is nonempty, carries no context
   qualifier, and does not select the document element itself. *)
let check_update update =
  match update with
  | Transform_ast.Insert _ | Transform_ast.Insert_first _ | Transform_ast.Delete _
  | Transform_ast.Replace _ | Transform_ast.Rename _ ->
    let upath = Transform_ast.path update in
    (* a prefix of Self steps followed by exactly one child step can only ever
       select the document element, whatever the document: rejectable
       statically even under late binding of the base *)
    let rec root_only = function
      | [] -> false
      | { Ast.nav = Ast.Self; _ } :: rest -> root_only rest
      | [ { Ast.nav = Ast.Label _ | Ast.Wildcard; _ } ] -> true
      | _ -> false
    in
    if upath = [] then Error "empty update path"
    else if root_only upath then Error "update can only select the document element"
    else
      let nfa = Selecting_nfa.of_path upath in
      if Selecting_nfa.ctx_qual nfa <> Ast.Q_true || Selecting_nfa.checks_document nfa then
        Error "context qualifier in the update path"
      else if Selecting_nfa.selects_context nfa then Error "update selects the document element"
      else Ok nfa

let compose update (uq : User_query.t) : (composed, string) result =
  match check_update update with
  | Error e -> Error e
  | Ok nfa -> (
    match chunkify (Norm.steps uq.User_query.source) with
    | Error e -> Error e
    | Ok chunks ->
      let specs = ref [] in
      let register name spec =
        specs := (name, spec) :: !specs;
        name
      in
      let register_nav chunk ~src = register (fresh_var "xut:nav") (Nav (chunk, src)) in
      let register_pipe chunks ~src =
        let suffix = List.concat_map (fun c -> chunk_path c ~quals:c.quals) chunks in
        register (fresh_var "xut:pipe") (Pipe (Selecting_nfa.of_path suffix, src))
      in
      let register_fin ~src = register (fresh_var "xut:fin") (Fin src) in
      let output_affected = output_affected nfa update uq in
      (* does anything from this point on require the exact state
         machinery (look-ahead over the remaining chunks)? *)
      (* with a relabeling update, any matched node at the binding
         position can gain or lose the chunk's label: the static
         label transition is blind to it, so widen to any-label *)
      let matched_possible s (chunk : chunk) =
        relabels update
        && Selecting_nfa.(
             accepts_set nfa (next_on_any_set nfa (if chunk.desc then next_on_desc_set nfa s else s)))
      in
      let rec downstream_need s = function
        | [] -> output_affected s
        | (chunk : chunk) :: rest ->
          let si = step_sim nfa s chunk in
          Selecting_nfa.accepts_set nfa si
          || (chunk.desc && Selecting_nfa.accepts_set nfa (below nfa s))
          || List.exists (qual_affected nfa update si) chunk.quals
          || matched_possible s chunk
          || downstream_need si rest
      in
      let clauses = ref [] in
      let add_clause c = clauses := c :: !clauses in
      (* Emission modes: [Dead] — provably untouched, plain XQuery;
         [Hint s] — untouched so far, static sets still exact;
         [Tracked s] — a native ran upstream, sets live in the table. *)
      let plain_chunk prev chunk =
        let v = fresh_var "y" in
        add_clause
          (Xq_ast.For (v, Xq_ast.Path (Xq_ast.Var prev, chunk_path chunk ~quals:chunk.quals)));
        v
      in
      let native_chunk prev chunk ~src =
        let v = fresh_var "y" in
        add_clause (Xq_ast.For (v, Xq_ast.Call (register_nav chunk ~src, [ Xq_ast.Var prev ])));
        v
      in
      (* remaining chunks as one plain path expression: a single path
         keeps set semantics and document order for free *)
      let plain_rest prev chunks =
        let path = List.concat_map (fun c -> chunk_path c ~quals:c.quals) chunks in
        let v = fresh_var "y" in
        add_clause (Xq_ast.For (v, Xq_ast.Path (Xq_ast.Var prev, path)));
        v
      in
      let rec emit prev mode chunks =
        match chunks with
        | [] -> (prev, mode)
        | chunk :: rest -> (
          match mode with
          | `Dead -> (plain_rest prev (chunk :: rest), `Dead)
          | `Hint s | `Tracked s -> (
            let si = step_sim nfa s chunk in
            let acts =
              Selecting_nfa.accepts_set nfa si
              || (chunk.desc && Selecting_nfa.accepts_set nfa (below nfa s))
              || List.exists (qual_affected nfa update si) chunk.quals
              || matched_possible s chunk
            in
            let need_rest = downstream_need si rest in
            let src = match mode with `Hint s -> Src_hint s | _ -> Src_table in
            if chunk.desc && rest <> [] && (acts || need_rest) then begin
              (* '//' followed by more steps: single product walk *)
              let v = fresh_var "y" in
              add_clause
                (Xq_ast.For
                   (v, Xq_ast.Call (register_pipe (chunk :: rest) ~src, [ Xq_ast.Var prev ])));
              let s_end = List.fold_left (step_sim nfa) s (chunk :: rest) in
              (v, `Tracked s_end)
            end
            else
              match mode with
              | `Hint _ ->
                if acts then
                  emit (native_chunk prev chunk ~src:(Src_hint s)) (`Tracked si) rest
                else if need_rest then
                  if (not chunk.desc) && chunk.nav <> Norm.N_wild then
                    (* a label step keeps static sets exact *)
                    emit (plain_chunk prev chunk) (`Hint si) rest
                  else emit (native_chunk prev chunk ~src:(Src_hint s)) (`Tracked si) rest
                else (plain_rest prev (chunk :: rest), `Dead)
              | `Tracked _ ->
                if acts || need_rest then
                  emit (native_chunk prev chunk ~src:Src_table) (`Tracked si) rest
                else (plain_rest prev (chunk :: rest), `Dead)
              | `Dead -> assert false))
      in
      let doc_var = fresh_var "d" in
      add_clause (Xq_ast.LetC (doc_var, Xq_ast.Context));
      let xvar, final_mode =
        emit doc_var (`Hint (Selecting_nfa.start nfa)) chunks
      in
      let xvar =
        match final_mode with
        | `Dead -> xvar
        | `Hint s | `Tracked s ->
          if output_affected s then begin
            let src = match final_mode with `Hint s -> Src_hint s | _ -> Src_table in
            let t = fresh_var "xt" in
            add_clause (Xq_ast.For (t, Xq_ast.Call (register_fin ~src, [ Xq_ast.Var xvar ])));
            t
          end
          else xvar
      in
      let where = User_query.where_expr xvar uq.User_query.conds in
      let ret = User_query.template_to_expr xvar uq.User_query.template in
      let expr = Xq_ast.Flwor (List.rev !clauses, where, ret) in
      let specs = !specs in
      let make oracle =
        let rt =
          {
            nfa;
            update;
            oracle;
            state_tbl = Hashtbl.create 64;
            transform_memo = Hashtbl.create 64;
          }
        in
        List.map (fun (name, sp) -> (name, native_of_spec rt name sp)) specs
      in
      Ok { expr; make; native_count = List.length specs })

(* ---------------- stack composition (view chains, Section 4 iterated) ----------------

   A chain of stored views V_n = u_n(...u_1(T)...) composes with a user
   query by running ONE product walk over the base tree T that maintains,
   simultaneously, the exact state set of every level's selecting NFA and
   of the user source NFA.  The invariant making the static transitions
   sound: on the path from the root to the current node no level has
   matched, so every intermediate view preserves the node's label and
   identity, and level i's set is exact over V_{i-1}.  The first level
   that matches at a node resolves the whole subtree: the node's image
   through the remaining levels is materialized (topDown per level, each
   over the previous level's output, where direct qualifier checks are
   exact) and the user NFA finishes over the constant result.  Where no
   level matches, qualifiers and output paths that some level could
   affect are answered from a memoized through-view of the node. *)

type level = { lnfa : Selecting_nfa.t; lupd : Transform_ast.update }

(* The walk's static tests, settled at compose time.  [output_affected]
   and [qual_affected] are unions over the states of their set argument
   (accepts_set, closure and the next_on_*_set transitions all
   distribute over union), so each becomes a mask of the states for
   which it holds, and the walk only asks whether a level's set meets
   it. *)
type masks = {
  out_masks : Selecting_nfa.set array;
  (* [j]: level-j states at which level j changes what the user
     where/return clauses see *)
  level_quals : Selecting_nfa.set array array array;
  (* [i].(st).(j), j < i: level-j states at which level j can affect the
     qualifier of level i's state [st] ([||] for qualifier-free states) *)
  user_quals : Selecting_nfa.set array array;
  (* [st].(j): the same for the user NFA's state [st], over every level *)
}

(* the states [q] of [nfa] for which [pred {q}] holds *)
let state_mask nfa pred =
  let one q = Selecting_nfa.set_of_list nfa [ q ] in
  Selecting_nfa.set_of_list nfa
    (List.filter (fun q -> pred (one q)) (List.init (Selecting_nfa.size nfa) Fun.id))

let stack_masks (levels : level array) unfa (uq : User_query.t) =
  let qual_masks upto q =
    Array.init upto (fun j ->
        let { lnfa; lupd } = levels.(j) in
        state_mask lnfa (fun s -> qual_affected lnfa lupd s q))
  in
  let per_state nfa upto =
    Array.init (Selecting_nfa.size nfa) (fun st ->
        if Selecting_nfa.has_qual nfa st then qual_masks upto (Selecting_nfa.state_qual nfa st)
        else [||])
  in
  {
    out_masks =
      Array.map (fun { lnfa; lupd } -> state_mask lnfa (output_affected lnfa lupd uq)) levels;
    level_quals = Array.mapi (fun i { lnfa; _ } -> per_state lnfa i) levels;
    user_quals = per_state unfa (Array.length levels);
  }

(* does level [j]'s set [ls.(j)] meet [masks.(j)] for some [j]? *)
let rec meets_any (masks : Selecting_nfa.set array) (ls : Dfa.config array) j =
  j < Array.length masks
  && (Selecting_nfa.set_intersects ls.(j).states masks.(j) || meets_any masks ls (j + 1))

type stack_rt = {
  levels : level array;  (* innermost (applied first) at index 0 *)
  sunfa : Selecting_nfa.t;  (* the user source path's NFA *)
  smasks : masks;
  (* (node id, prefix length) -> the node's image through that many
     levels; fresh per evaluation *)
  views : (int * int, Node.t list) Hashtbl.t;
  soracle : Top_down.checkp option;  (* level-0 oracle over the base tree *)
}

let stack_walk rt (root : Node.element) : Xq_value.t =
  let n = Array.length rt.levels in
  let unfa = rt.sunfa in
  let udfa = Dfa.of_nfa unfa and ldfas = Array.map (fun l -> Dfa.of_nfa l.lnfa) rt.levels in
  let here = Counter.local () in
  let out = ref [] in
  let emit nd = out := Xq_value.N nd :: !out in
  (* level [j]'s topDown over a node of V_{j-1}; only level 0 walks base
     nodes, so only it may consult the annotation oracle *)
  let transform_level j (c : Dfa.config) e =
    let { lnfa; lupd } = rt.levels.(j) and states = c.states in
    if j = 0 then Top_down.transform_at ?checkp:rt.soracle lnfa lupd ~states e
    else Top_down.transform_at lnfa lupd ~states e
  in
  (* the V_{upto-1} image of [ce], given no level below [upto] matches at
     it (one element: labels and identity preserved level by level) *)
  let rec through_view (ls : Dfa.config array) ce upto =
    if upto = 0 then [ Node.Element ce ]
    else begin
      let key = (Node.id ce, upto) in
      match Hashtbl.find_opt rt.views key with
      | Some f -> f
      | None ->
        let f =
          match through_view ls ce (upto - 1) with
          | [ Node.Element e' ] -> transform_level (upto - 1) ls.(upto - 1) e'
          | other -> other
        in
        Hashtbl.replace rt.views key f;
        f
    end
  in
  (* resolve level [j] over a materialized forest standing where the
     current node stood ([pls] = the parent's level-j set); the forest is
     V_{j-1} content, so direct qualifier checks are exact *)
  let resolve_level j pls f =
    List.concat_map
      (fun nd ->
        match nd with
        | Node.Element te ->
          let checkp = Top_down.direct_checkp rt.levels.(j).lnfa in
          transform_level j (Dfa.next ldfas.(j) here ~checkp te pls (Node.sym te)) te
        | other -> [ other ])
      f
  in
  let { out_masks; level_quals; user_quals } = rt.smasks in
  let rec visit (us : Dfa.config) (ls : Dfa.config array) (ce : Node.element) =
    (* transition every level innermost-first; the first match resolves
       the subtree *)
    let ls' = Array.copy ls in
    let matched = ref (-1) in
    (try
       for i = 0 to n - 1 do
         let { lnfa; lupd = _ } = rt.levels.(i) in
         let checkp st ce =
           let q = Selecting_nfa.state_qual lnfa st in
           if meets_any level_quals.(i).(st) ls' 0 then
             match through_view ls' ce i with
             | [ Node.Element t ] -> Eval.check_qual t q
             | _ -> false
           else if i = 0 then
             match rt.soracle with Some f -> f st ce | None -> Eval.check_qual ce q
           else Eval.check_qual ce q
         in
         let si = Dfa.next ldfas.(i) here ~checkp ce ls.(i) (Node.sym ce) in
         ls'.(i) <- si;
         if si.accepts then begin
           matched := i;
           raise Exit
         end
       done
     with Exit -> ());
    if !matched >= 0 then begin
      let i = !matched in
      (* materialize through the whole stack and finish with the user
         NFA alone *)
      let f0 =
        match through_view ls' ce i with
        | [ Node.Element e' ] -> transform_level i ls'.(i) e'
        | other -> other
      in
      let rec outer j f = if j >= n then f else outer (j + 1) (resolve_level j ls.(j) f) in
      List.iter (user_enter_const here udfa emit us) (outer (i + 1) f0)
    end
    else begin
      (* unmatched everywhere: the node survives with its label; user
         qualifiers some level could affect are answered on its view *)
      let user_checkp st ce =
        let q = Selecting_nfa.state_qual unfa st in
        if meets_any user_quals.(st) ls' 0 then
          match through_view ls' ce n with
          | [ Node.Element t ] -> Eval.check_qual t q
          | _ -> false
        else Eval.check_qual ce q
      in
      let (uc : Dfa.config) = Dfa.next udfa here ~checkp:user_checkp ce us (Node.sym ce) in
      if uc.accepts then begin
        if meets_any out_masks ls' 0 then
          match through_view ls' ce n with
          | [ Node.Element t ] -> emit (Node.Element t)
          | _ -> ()
        else emit (Node.Element ce)
      end;
      (* a child's user set lies within [next_on_any_set uc] on either
         path, matched or not: where that is empty nothing below emits *)
      if uc.moves then
        List.iter
          (fun ch -> match ch with Node.Element che -> visit uc ls' che | _ -> ())
          (Node.children ce)
    end
  in
  visit (Dfa.start udfa) (Array.map Dfa.start ldfas) root;
  List.rev !out

let compose_stack updates (uq : User_query.t) : (composed, string) result =
  match updates with
  | [] ->
    (* empty chain: the user query unchanged *)
    Ok { expr = User_query.to_expr uq; make = (fun _ -> []); native_count = 0 }
  | [ u ] -> compose u uq
  | _ -> (
    let rec build acc = function
      | [] -> Ok (List.rev acc)
      | u :: rest -> (
        match check_update u with
        | Ok nfa -> build ({ lnfa = nfa; lupd = u } :: acc) rest
        | Error e -> Error e)
    in
    match build [] updates with
    | Error e -> Error e
    | Ok levels -> (
      (* fragment parity with [compose] on the user side *)
      match chunkify (Norm.steps uq.User_query.source) with
      | Error e -> Error e
      | Ok _chunks ->
        let levels = Array.of_list levels in
        let sunfa = Selecting_nfa.of_path uq.User_query.source in
        let smasks = stack_masks levels sunfa uq in
        let name = fresh_var "xut:stack" in
        let dvar = fresh_var "d" in
        let xvar = fresh_var "x" in
        let where = User_query.where_expr xvar uq.User_query.conds in
        let ret = User_query.template_to_expr xvar uq.User_query.template in
        let expr =
          Xq_ast.Flwor
            ( [
                Xq_ast.LetC (dvar, Xq_ast.Context);
                Xq_ast.For (xvar, Xq_ast.Call (name, [ Xq_ast.Var dvar ]));
              ],
              where,
              ret )
        in
        let make oracle =
          let rt =
            { levels; sunfa; smasks; views = Hashtbl.create 64; soracle = oracle }
          in
          [
            ( name,
              function
              | [ [ Xq_value.D root ] ] | [ [ Xq_value.N (Node.Element root) ] ] ->
                stack_walk rt root
              | [ [] ] -> []
              | _ -> raise (Xq_value.Type_error (name ^ ": expected the document")) );
          ]
        in
        Ok { expr; make; native_count = 1 }))

let run_composed ?oracle c ~doc =
  let env = Xq_eval.env ~context:doc ~natives:(c.make oracle) () in
  Xq_eval.eval_expr env c.expr

let naive_stack ?(algo = Engine.Gentop) updates uq ~doc =
  let transformed = List.fold_left (fun t u -> Engine.transform algo u t) doc updates in
  User_query.run uq ~doc:transformed

let naive ?algo update uq ~doc = naive_stack ?algo [ update ] uq ~doc

let run update uq ~doc =
  match compose update uq with
  | Ok c -> run_composed c ~doc
  | Error _ -> naive update uq ~doc

let to_string c = Xq_ast.to_string c.expr
