open Xut_automata

(* Stored view definitions: DEFVIEW name := <transform query>.  The
   definition is validated and compiled when it is defined — parse,
   fragment check, selecting NFA — so serving never pays the front end
   or discovers an out-of-fragment view at request time.  Each view
   carries its own annotation memo (the TD-BU oracle over its BASE
   tree), and the bases form a dependency graph: a view's base is either
   a stored document or another view, and invalidation walks the reverse
   edges. *)

type view = {
  name : string;
  source : string;  (* the exact DEFVIEW query text *)
  base : string;  (* doc("X") of the definition: a document or a view *)
  update : Core.Transform_ast.update;
  nfa : Selecting_nfa.t;
  generation : int;  (* bumped on every (re)definition of this name *)
  memo : Annotation_memo.t;  (* innermost-level oracle over the base doc *)
  products : Product_memo.t;  (* NFA x schema products, innermost level *)
}

type error =
  [ `Parse of string  (** bad transform syntax *)
  | `Compose of string  (** outside the composable fragment *)
  | `Cycle of string list  (** the base chain would reach back here *)
  ]

type t = {
  mu : Mutex.t;
  tbl : (string, view) Hashtbl.t;
  mutable clock : int;  (* store-wide generation counter *)
}

let create () = { mu = Mutex.create (); tbl = Hashtbl.create 16; clock = 0 }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* The base chain starting at [base], under the assumption that [name]
   (being (re)defined) exists.  Returns the cycle path when it loops. *)
let chain_cycle t ~name ~base =
  let rec walk seen b path =
    if String.equal b name then Some (List.rev (b :: path))
    else if List.mem b seen then Some (List.rev (b :: path))
    else
      match Hashtbl.find_opt t.tbl b with
      | Some v -> walk (b :: seen) v.base (b :: path)
      | None -> None (* a document name terminates the chain *)
  in
  walk [] base [ name ]

let define t ~name ~source =
  match Core.Transform_parser.parse source with
  | exception Core.Transform_parser.Parse_error m -> Error (`Parse m)
  | q -> (
    match Core.Composition.check_update q.Core.Transform_ast.update with
    | Error m -> Error (`Compose m)
    | Ok nfa ->
      let base = q.Core.Transform_ast.doc in
      locked t (fun () ->
          match chain_cycle t ~name ~base with
          | Some path -> Error (`Cycle path)
          | None ->
            let redefined = Hashtbl.mem t.tbl name in
            t.clock <- t.clock + 1;
            let v =
              {
                name;
                source;
                base;
                update = q.Core.Transform_ast.update;
                nfa;
                generation = t.clock;
                memo = Annotation_memo.create ();
                products = Product_memo.create ();
              }
            in
            Hashtbl.replace t.tbl name v;
            Ok (v, redefined)))

let undefine t ~name =
  locked t (fun () ->
      let present = Hashtbl.mem t.tbl name in
      if present then Hashtbl.remove t.tbl name;
      present)

let find t name = locked t (fun () -> Hashtbl.find_opt t.tbl name)

let names t =
  locked t (fun () -> Hashtbl.fold (fun n _ acc -> n :: acc) t.tbl [])
  |> List.sort String.compare

(* The resolved chain: base document name plus the views applied to it,
   innermost (closest to the document) first.  A dangling base — naming
   neither a stored document nor a view — resolves as a document name
   and surfaces as Unknown_document at serving time. *)
type chain = { base : string; levels : view list }

(* The chain ending at [v], walked down its bases with the lock held.
   The [seen] guard is unreachable while [define] rejects cycles; it
   terminates the walk anyway. *)
let chain_views t (v : view) =
  let rec walk seen (v : view) levels =
    let seen = v.name :: seen and levels = v :: levels in
    match Hashtbl.find_opt t.tbl v.base with
    | Some parent when not (List.mem v.base seen) -> walk seen parent levels
    | _ -> { base = v.base; levels }
  in
  walk [] v []

let resolve t name =
  locked t (fun () -> Option.map (chain_views t) (Hashtbl.find_opt t.tbl name))

let depth t name =
  match resolve t name with Some c -> List.length c.levels | None -> 0

(* Views whose chains pass through [name] (a document or a view),
   including [name] itself when it is a view: the reverse reachability
   the invalidation walk needs. *)
let dependents t name =
  let through (c : chain) =
    String.equal c.base name
    || List.exists (fun (l : view) -> String.equal l.name name) c.levels
  in
  locked t (fun () ->
      Hashtbl.fold
        (fun n v acc -> if through (chain_views t v) then n :: acc else acc)
        t.tbl [])
  |> List.sort String.compare

(* The cache key material for a composed plan over this chain: the base
   document's NAME and each level's name@generation.  Document
   generations are deliberately excluded — a composed plan depends only
   on the definitions, not on document content; content changes
   invalidate annotation memos, not compositions. *)
let signature (c : chain) =
  String.concat "|"
    (c.base :: List.map (fun v -> Printf.sprintf "%s@%d" v.name v.generation) c.levels)

type info = { i_name : string; i_base : string; i_depth : int; i_generation : int }

let infos t =
  List.filter_map
    (fun n ->
      match find t n with
      | None -> None
      | Some v ->
        Some { i_name = n; i_base = v.base; i_depth = depth t n; i_generation = v.generation })
    (names t)
