open Xut_xml

type item =
  | N of Node.t
  | D of Node.element
  | A of string * string
  | S of string
  | F of float
  | B of bool

type t = item list

exception Type_error of string

let of_bool b = [ B b ]
let of_string s = [ S s ]

let node_string = function
  | Node.Element e -> Node.text_content e
  | Node.Text s -> s
  | Node.Comment s -> s
  | Node.Pi (_, c) -> c

let string_of_item = function
  | N n -> node_string n
  | D e -> Node.text_content e
  | A (_, v) -> v
  | S s -> s
  | F f -> if Float.is_integer f then string_of_int (int_of_float f) else string_of_float f
  | B b -> string_of_bool b

let atomize_item = function
  | N n -> S (node_string n)
  | D e -> S (Node.text_content e)
  | A (_, v) -> S v
  | (S _ | F _ | B _) as a -> a

let ebv = function
  | [] -> false
  | (N _ | D _ | A _) :: _ -> true
  | [ B b ] -> b
  | [ S s ] -> s <> ""
  | [ F f ] -> f <> 0.0 && not (Float.is_nan f)
  | _ :: _ :: _ -> raise (Type_error "effective boolean value of a multi-item atomic sequence")

let as_float = function
  | F f -> Some f
  | S s -> float_of_string_opt (String.trim s)
  | B _ -> None
  | N _ | D _ | A _ -> None

let cmp_int (op : Xq_ast.cmp) c =
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let compare_items op a b =
  let a = atomize_item a and b = atomize_item b in
  match a, b with
  | B x, B y -> cmp_int op (Bool.compare x y)
  | B x, S y -> cmp_int op (String.compare (string_of_bool x) y)
  | S x, B y -> cmp_int op (String.compare x (string_of_bool y))
  | F _, _ | _, F _ -> (
    (* one side is numeric: numeric comparison, non-numbers never match *)
    match as_float a, as_float b with
    | Some x, Some y -> cmp_int op (Float.compare x y)
    | _ -> false)
  | S x, S y -> (
    (* untyped data: numeric when both parse, else string *)
    match float_of_string_opt (String.trim x), float_of_string_opt (String.trim y) with
    | Some fx, Some fy -> cmp_int op (Float.compare fx fy)
    | _ -> cmp_int op (String.compare x y))
  | (N _ | D _ | A _), _ | _, (N _ | D _ | A _) -> assert false

let general_cmp op xs ys =
  List.exists (fun x -> List.exists (fun y -> compare_items op x y) ys) xs

let item_identity a b =
  match a, b with
  | N (Node.Element x), N (Node.Element y) -> Node.id x = Node.id y
  | D x, D y -> Node.id x = Node.id y
  | N x, N y -> x == y
  | A (k1, v1), A (k2, v2) -> k1 == k2 && v1 == v2
  | (N _ | D _ | A _ | S _ | F _ | B _), _ ->
    raise (Type_error "operands of 'is' must be nodes")
