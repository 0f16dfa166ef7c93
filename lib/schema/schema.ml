open Xut_xml
open Xut_automata

(* ---------------- grammar ---------------- *)

type rx =
  | Empty
  | Elem of string
  | Seq of rx list
  | Alt of rx list
  | Star of rx
  | Opt of rx
  | Plus of rx

type t = {
  s_name : string;
  s_root : Sym.t;
  (* reachability projection: declared symbol -> allowed child symbols *)
  s_children : (Sym.t, (Sym.t, unit) Hashtbl.t) Hashtbl.t;
}

let rec rx_syms acc = function
  | Empty -> acc
  | Elem n -> n :: acc
  | Seq l | Alt l -> List.fold_left rx_syms acc l
  | Star r | Opt r | Plus r -> rx_syms acc r

let define ~name ~root decls =
  let here = Counter.local () in
  let tbl : (Sym.t, (Sym.t, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create (List.length decls * 2)
  in
  let dup =
    List.fold_left
      (fun dup (n, _) ->
        let s = Sym.intern here n in
        if Hashtbl.mem tbl s then Some n
        else begin
          Hashtbl.replace tbl s (Hashtbl.create 4);
          dup
        end)
      None decls
  in
  match dup with
  | Some n -> Error (Printf.sprintf "schema %s: duplicate declaration of %s" name n)
  | None ->
    let undeclared = ref None in
    List.iter
      (fun (n, rx) ->
        let parent = Sym.intern here n in
        let kids = Hashtbl.find tbl parent in
        List.iter
          (fun child ->
            let cs = Sym.intern here child in
            if not (Hashtbl.mem tbl cs) && !undeclared = None then
              undeclared := Some (child, n);
            Hashtbl.replace kids cs ())
          (rx_syms [] rx))
      decls;
    (match !undeclared with
    | Some (child, parent) ->
      Error
        (Printf.sprintf "schema %s: %s (in the content of %s) is not declared" name child
           parent)
    | None ->
      let root_sym = Sym.intern here root in
      if not (Hashtbl.mem tbl root_sym) then
        Error (Printf.sprintf "schema %s: root %s is not declared" name root)
      else Ok { s_name = name; s_root = root_sym; s_children = tbl })

let name t = t.s_name

let allowed t ~parent child =
  match Hashtbl.find_opt t.s_children parent with
  | None -> false
  | Some kids -> Hashtbl.mem kids child

let child_syms t parent =
  match Hashtbl.find_opt t.s_children parent with
  | None -> []
  | Some kids -> Hashtbl.fold (fun s () acc -> s :: acc) kids []

(* ---------------- registry ---------------- *)

let registry : (string, t) Hashtbl.t = Hashtbl.create 8
let registry_mu = Mutex.create ()

let register t =
  Mutex.lock registry_mu;
  Hashtbl.replace registry t.s_name t;
  Mutex.unlock registry_mu

let find name =
  Mutex.lock registry_mu;
  let r = Hashtbl.find_opt registry name in
  Mutex.unlock registry_mu;
  r

(* ---------------- validation ---------------- *)

exception Nonconforming of string

let nonconforming t ~parent c =
  Nonconforming
    (Printf.sprintf "element %s not allowed under %s (schema %s)" (Node.name c)
       (Node.name parent) t.s_name)

(* Conformance walk of a fresh subtree. *)
let rec check_subtree t (e : Node.element) =
  let sym = Node.sym e in
  List.iter
    (fun c ->
      if not (allowed t ~parent:sym (Node.sym c)) then raise (nonconforming t ~parent:e c);
      check_subtree t c)
    (Node.child_elements e)

let not_root t root =
  Error
    (Printf.sprintf "document element %s is not the schema root %s (schema %s)"
       (Node.name root) (Sym.name t.s_root) t.s_name)

let validate t root =
  if Node.sym root <> t.s_root then not_root t root
  else
    match check_subtree t root with
    | () -> Ok ()
    | exception Nonconforming msg -> Error msg

(* Incremental re-validation across a commit: shared subtrees kept their
   ids and were conforming before, and conformance is local to a parent
   and its direct children, so only rebuilt spine nodes (their child
   edges may have changed) and freshly inserted material need checking. *)
let validate_commit t ~spine new_root =
  if not (Hashtbl.mem spine (Node.id new_root)) then
    (* degenerate diff: the document element itself was replaced *)
    validate t new_root
  else if Node.sym new_root <> t.s_root then not_root t new_root
  else begin
    (* [oe]/[e]: an old spine element and its fresh rebuild.  A commit
       keeps the old children's order, so one ordered pass over both
       child lists sorts each new child: the old child itself (shared),
       a rebuild the spine map pairs with an old child, or fresh. *)
    let rec pair oe e = kids e (Node.child_elements oe) (Node.child_elements e)
    and kids e old = function
      | [] -> ()
      | c :: rest -> (
        if not (allowed t ~parent:(Node.sym e) (Node.sym c)) then
          raise (nonconforming t ~parent:e c);
        match old with
        | oc :: old' when oc == c -> kids e old' rest
        | _ -> (
          match Hashtbl.find_opt spine (Node.id c) with
          | Some oc ->
            pair oc c;
            kids e (after oc old) rest
          | None ->
            check_subtree t c;
            kids e old rest))
    (* the old children past [oc] *)
    and after oc = function [] -> [] | x :: rest -> if x == oc then rest else after oc rest in
    match pair (Hashtbl.find spine (Node.id new_root)) new_root with
    | () -> Ok ()
    | exception Nonconforming msg -> Error msg
  end

(* ---------------- the product ---------------- *)

(* A node of the product is a symbol and the DFA configuration of its
   parent ({!Dfa.step}'s arguments): the parent's NFA state set and the
   candidate seeds it passes down, as an id.  The exploration below
   walks the schema graph through that very step (so a conforming
   document can only ever realize explored configurations), then closes
   "contributes" under reachability.  A configuration past the DFA's id
   cap has no id to key by: the product gives up there, as at its own
   cap. *)

type cfg = Sym.t * int

type cnode = {
  n_accepting : bool;
  n_hot : bool;  (* accepts, or demands qualifier seeds (writes entries) *)
  n_kids : cfg list;
  mutable n_contrib : bool;
}

type product = {
  p_empty : bool;
  p_skip : bool array;  (* indexed by Sym.t; out of range = not skippable *)
  p_skips : int;
  p_capped : bool;
}

let config_cap = 4096

let product t nfa =
  let dfa = Dfa.of_nfa nfa in
  let nodes : (cfg, cnode) Hashtbl.t = Hashtbl.create 256 in
  let queue = Queue.create () in
  Queue.push (t.s_root, Dfa.start dfa) queue;
  let capped = ref false in
  let here = Counter.local () in
  while not (Queue.is_empty queue) && not !capped do
    let sym, (parent : Dfa.config) = Queue.pop queue in
    let key = (sym, parent.id) in
    if not (Hashtbl.mem nodes key) then begin
      if Hashtbl.length nodes >= config_cap || parent.id < 0 then capped := true
      else begin
        let { Dfa.child; demand; _ } = Dfa.step dfa here parent sym in
        let seeded = not (Xut_xpath.Lq.set_is_empty demand.seeds) in
        let dead = child.empty && not seeded in
        let accepting = (not dead) && child.accepts in
        let hot = accepting || seeded in
        let kids =
          if dead then []
          else
            List.map
              (fun kid ->
                let kkey = (kid, child.id) in
                if not (Hashtbl.mem nodes kkey) then Queue.push (kid, child) queue;
                kkey)
              (child_syms t sym)
        in
        Hashtbl.replace nodes key
          { n_accepting = accepting; n_hot = hot; n_kids = kids; n_contrib = hot }
      end
    end
  done;
  if !capped then { p_empty = false; p_skip = [||]; p_skips = 0; p_capped = true }
  else begin
    (* contributes = hot \/ some child configuration contributes: a least
       fixpoint (the schema graph may be cyclic — parlist/listitem). *)
    let changed = ref true in
    while !changed do
      changed := false;
      Hashtbl.iter
        (fun _ n ->
          if
            (not n.n_contrib)
            && List.exists
                 (fun k ->
                   match Hashtbl.find_opt nodes k with
                   | Some kn -> kn.n_contrib
                   | None -> false)
                 n.n_kids
          then begin
            n.n_contrib <- true;
            changed := true
          end)
        nodes
    done;
    let any_accepting = ref false in
    Hashtbl.iter (fun _ n -> if n.n_accepting then any_accepting := true) nodes;
    let skip = Array.make (Sym.count ()) false in
    let reached = Hashtbl.create 64 in
    Hashtbl.iter
      (fun (sym, _) n ->
        let all_cold =
          (match Hashtbl.find_opt reached sym with Some b -> b | None -> true)
          && not n.n_contrib
        in
        Hashtbl.replace reached sym all_cold)
      nodes;
    let skips = ref 0 in
    Hashtbl.iter
      (fun sym all_cold ->
        if all_cold && sym >= 0 && sym < Array.length skip then begin
          skip.(sym) <- true;
          incr skips
        end)
      reached;
    {
      p_empty = (not (Selecting_nfa.selects_context nfa)) && not !any_accepting;
      p_skip = skip;
      p_skips = !skips;
      p_capped = false;
    }
  end

let statically_empty p = p.p_empty

let skippable p sym = sym >= 0 && sym < Array.length p.p_skip && p.p_skip.(sym)

let skip_count p = p.p_skips
let capped p = p.p_capped
