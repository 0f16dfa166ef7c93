type expr =
  | True_
  | Seq of int * int
  | Child of int
  | Desc of int
  | Label_is of string
  | Text_cmp of Ast.cmp * Ast.value
  | Attr_cmp of string * Ast.cmp * Ast.value
  | Attr_exists of string
  | And_ of int * int
  | Or_ of int * int
  | Not_ of int

type builder = { tbl : (expr, int) Hashtbl.t; mutable rev : expr list; mutable n : int }

type t = { arr : expr array }

let create_builder () = { tbl = Hashtbl.create 32; rev = []; n = 0 }

let intern b e =
  match Hashtbl.find_opt b.tbl e with
  | Some i -> i
  | None ->
    let i = b.n in
    Hashtbl.add b.tbl e i;
    b.rev <- e :: b.rev;
    b.n <- b.n + 1;
    i

(* Smart constructors keep the list small: True_ is absorbed. *)
let seq b a p = if p = intern b True_ then a else if a = intern b True_ then p else intern b (Seq (a, p))

let and_ b x y =
  let t = intern b True_ in
  if x = t then y else if y = t then x else intern b (And_ (x, y))

let rec of_qual b (q : Ast.qual) : int =
  match q with
  | Ast.Q_true -> intern b True_
  | Ast.Q_label l -> intern b (Label_is l)
  | Ast.Q_and (x, y) ->
    let xi = of_qual b x in
    let yi = of_qual b y in
    and_ b xi yi
  | Ast.Q_or (x, y) ->
    let xi = of_qual b x in
    let yi = of_qual b y in
    intern b (Or_ (xi, yi))
  | Ast.Q_not x -> intern b (Not_ (of_qual b x))
  | Ast.Q_exists { spath; sattr } ->
    let terminal =
      match sattr with None -> intern b True_ | Some a -> intern b (Attr_exists a)
    in
    of_path b spath terminal
  | Ast.Q_cmp ({ spath; sattr }, op, v) ->
    let terminal =
      match sattr with
      | None -> intern b (Text_cmp (op, v))
      | Some a -> intern b (Attr_cmp (a, op, v))
    in
    of_path b spath terminal

and of_path b (path : Ast.path) terminal : int =
  match path with
  | [] -> terminal
  | { Ast.nav; quals } :: rest ->
    let qs = List.map (of_qual b) quals in
    let conj = List.fold_left (and_ b) (intern b True_) qs in
    let tail = of_path b rest terminal in
    (match nav with
    | Ast.Self -> seq b conj tail
    | Ast.Label l ->
      let head = and_ b (intern b (Label_is l)) conj in
      intern b (Child (seq b head tail))
    | Ast.Wildcard -> intern b (Child (seq b conj tail))
    | Ast.Descendant -> intern b (Desc (seq b conj tail)))

let add_qual b q = of_qual b q

let freeze b = { arr = Array.of_list (List.rev b.rev) }

let length t = Array.length t.arr
let expr t i = t.arr.(i)

(* Expression [i] is statically false at a node named [name] when its
   top-level conjunction contains a failing label guard. *)
let rec label_blocked t i name =
  match t.arr.(i) with
  | Label_is l -> not (String.equal l name)
  | And_ (x, y) -> label_blocked t x name || label_blocked t y name
  | Seq (x, _) -> label_blocked t x name
  | True_ | Child _ | Desc _ | Text_cmp _ | Attr_cmp _ | Attr_exists _ | Or_ _ | Not_ _ -> false

let rec expr_to_string t i =
  match t.arr.(i) with
  | True_ -> "true"
  | Seq (a, p) -> Printf.sprintf ".[%s]/%s" (expr_to_string t a) (expr_to_string t p)
  | Child p -> Printf.sprintf "*/%s" (expr_to_string t p)
  | Desc p -> Printf.sprintf "//%s" (expr_to_string t p)
  | Label_is l -> Printf.sprintf "label()=%s" l
  | Text_cmp (op, Ast.V_str s) -> Printf.sprintf ". %s %S" (Ast.cmp_to_string op) s
  | Text_cmp (op, Ast.V_num f) -> Printf.sprintf ". %s %g" (Ast.cmp_to_string op) f
  | Attr_cmp (a, op, Ast.V_str s) -> Printf.sprintf "@%s %s %S" a (Ast.cmp_to_string op) s
  | Attr_cmp (a, op, Ast.V_num f) -> Printf.sprintf "@%s %s %g" a (Ast.cmp_to_string op) f
  | Attr_exists a -> Printf.sprintf "@%s" a
  | And_ (x, y) -> Printf.sprintf "(%s and %s)" (expr_to_string t x) (expr_to_string t y)
  | Or_ (x, y) -> Printf.sprintf "(%s or %s)" (expr_to_string t x) (expr_to_string t y)
  | Not_ x -> Printf.sprintf "not(%s)" (expr_to_string t x)

(* ---- sets of LQ indices ----

   A bitset: one immediate [int] when the list has at most 62 entries,
   [Bytes] above, as {!Xut_automata.Selecting_nfa} keeps its state sets.
   Sets are built once per distinct demand and then only read. *)

let small_limit = 62

type set = Bits of int | Wide of Bytes.t

let set_of_list t l =
  if length t <= small_limit then Bits (List.fold_left (fun b i -> b lor (1 lsl i)) 0 l)
  else begin
    let w = Bytes.make ((length t + 7) / 8) '\000' in
    List.iter
      (fun i ->
        Bytes.set w (i lsr 3) (Char.chr (Char.code (Bytes.get w (i lsr 3)) lor (1 lsl (i land 7)))))
      l;
    Wide w
  end

let set_mem s i =
  match s with
  | Bits b -> b land (1 lsl i) <> 0
  | Wide w -> Char.code (Bytes.unsafe_get w (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_is_empty = function Bits b -> b = 0 | Wide w -> Bytes.for_all (fun c -> c = '\000') w

let set_equal a b =
  match a, b with
  | Bits x, Bits y -> x = y
  | Wide x, Wide y -> Bytes.equal x y
  | (Bits _ | Wide _), _ -> false

let set_hash = function Bits b -> b * 0x9e3779b9 land max_int | Wide w -> Hashtbl.hash w

(* ---- QualDP ---- *)

type scratch = { value : bool array; stamp : int array; mutable gen : int }

let scratch t = { value = Array.make (length t) false; stamp = Array.make (length t) 0; gen = 0 }

(* [Attr_cmp] on an attribute list, without the option [List.assoc_opt]
   would build *)
let rec attr_cmp attrs a op v =
  match attrs with
  | [] -> false
  | (k, s) :: rest -> if String.equal k a then Ast.compare_values op s v else attr_cmp rest a op v

(* Expression [i] at the node, memoized in [sc] for the current
   generation.  Sub-expressions have smaller indices, so the recursion
   terminates; Desc's csat self-reference does not recurse.  A top-level
   function, so an evaluation builds no closure. *)
let rec sat t sc ~name ~attrs ~text ~csat i =
  if Array.unsafe_get sc.stamp i = sc.gen then Array.unsafe_get sc.value i
  else begin
    let v =
      match t.arr.(i) with
      | True_ -> true
      | Seq (a, p) -> sat t sc ~name ~attrs ~text ~csat a && sat t sc ~name ~attrs ~text ~csat p
      | Child p -> csat p
      | Desc p -> sat t sc ~name ~attrs ~text ~csat p || csat i
      | Label_is l -> String.equal l name
      | Text_cmp (op, v) -> Ast.compare_values op text v
      | Attr_cmp (a, op, v) -> attr_cmp attrs a op v
      | Attr_exists a -> List.mem_assoc a attrs
      | And_ (x, y) -> sat t sc ~name ~attrs ~text ~csat x && sat t sc ~name ~attrs ~text ~csat y
      | Or_ (x, y) -> sat t sc ~name ~attrs ~text ~csat x || sat t sc ~name ~attrs ~text ~csat y
      | Not_ x -> not (sat t sc ~name ~attrs ~text ~csat x)
    in
    Array.unsafe_set sc.stamp i sc.gen;
    Array.unsafe_set sc.value i v;
    v
  end

let eval t sc ~name ~attrs ~text ~csat ~wanted =
  sc.gen <- sc.gen + 1;
  for i = 0 to length t - 1 do
    if set_mem wanted i then ignore (sat t sc ~name ~attrs ~text ~csat i : bool)
  done

let holds sc i = Array.unsafe_get sc.stamp i = sc.gen && Array.unsafe_get sc.value i
