open Xut_xpath
open Xut_xquery

type operand = Const of Ast.value | Rel of Ast.path * string option

type cond = { left : operand; op : Ast.cmp; right : operand }

type template =
  | T_elem of string * (string * string) list * template list
  | T_text of string
  | T_hole of Ast.path * string option

type t = { var : string; source : Ast.path; conds : cond list; template : template }

let make ?(var = "x") ?(conds = []) ~source template = { var; source; conds; template }

(* ---------------- recognition ---------------- *)

let cmp_of_xq : Xq_ast.cmp -> Ast.cmp = function
  | Xq_ast.Eq -> Ast.Eq
  | Xq_ast.Neq -> Ast.Neq
  | Xq_ast.Lt -> Ast.Lt
  | Xq_ast.Le -> Ast.Le
  | Xq_ast.Gt -> Ast.Gt
  | Xq_ast.Ge -> Ast.Ge

let cmp_to_xq : Ast.cmp -> Xq_ast.cmp = function
  | Ast.Eq -> Xq_ast.Eq
  | Ast.Neq -> Xq_ast.Neq
  | Ast.Lt -> Xq_ast.Lt
  | Ast.Le -> Xq_ast.Le
  | Ast.Gt -> Xq_ast.Gt
  | Ast.Ge -> Xq_ast.Ge

let ( let* ) r f = Result.bind r f

let operand_of_expr var (e : Xq_ast.expr) : (operand, string) result =
  match e with
  | Xq_ast.Str s -> Ok (Const (Ast.V_str s))
  | Xq_ast.Num f -> Ok (Const (Ast.V_num f))
  | Xq_ast.Var v when v = var -> Ok (Rel ([], None))
  | Xq_ast.Path (Xq_ast.Var v, p) when v = var -> Ok (Rel (p, None))
  | Xq_ast.AttrPath (Xq_ast.Var v, p, a) when v = var -> Ok (Rel (p, Some a))
  | _ -> Error ("condition operand outside the fragment: " ^ Xq_ast.to_string e)

let rec conds_of_expr var (e : Xq_ast.expr) : (cond list, string) result =
  match e with
  | Xq_ast.And (a, b) ->
    let* ca = conds_of_expr var a in
    let* cb = conds_of_expr var b in
    Ok (ca @ cb)
  | Xq_ast.Cmp (op, l, r) ->
    let* left = operand_of_expr var l in
    let* right = operand_of_expr var r in
    Ok [ { left; op = cmp_of_xq op; right } ]
  | _ -> Error ("where clause outside the fragment: " ^ Xq_ast.to_string e)

let rec template_of_expr var (e : Xq_ast.expr) : (template, string) result =
  match e with
  | Xq_ast.ElemLit (name, attrs, children) ->
    let rec map_children acc = function
      | [] -> Ok (List.rev acc)
      | c :: rest ->
        let* t = template_of_expr var c in
        map_children (t :: acc) rest
    in
    let* children = map_children [] children in
    Ok (T_elem (name, attrs, children))
  | Xq_ast.Str s -> Ok (T_text s)
  | Xq_ast.Var v when v = var -> Ok (T_hole ([], None))
  | Xq_ast.Path (Xq_ast.Var v, p) when v = var -> Ok (T_hole (p, None))
  | Xq_ast.AttrPath (Xq_ast.Var v, p, a) when v = var -> Ok (T_hole (p, Some a))
  | _ -> Error ("return template outside the fragment: " ^ Xq_ast.to_string e)

let of_expr (e : Xq_ast.expr) : (t, string) result =
  match e with
  | Xq_ast.Flwor ([ Xq_ast.For (var, source_e) ], where, ret) ->
    let* source =
      match source_e with
      | Xq_ast.Path (Xq_ast.Context, p) -> Ok p
      | Xq_ast.Path (Xq_ast.Call ("doc", _), p) -> Ok p
      | _ -> Error ("for source outside the fragment: " ^ Xq_ast.to_string source_e)
    in
    let* conds = match where with None -> Ok [] | Some w -> conds_of_expr var w in
    let* template = template_of_expr var ret in
    Ok { var; source; conds; template }
  | _ -> Error "user query must be a single-variable FLWOR"

let parse src =
  match of_expr (Xq_parser.parse_expr src) with
  | Ok t -> t
  | Error m -> invalid_arg ("User_query.parse: " ^ m)

(* ---------------- back to XQuery ---------------- *)

let operand_to_expr var = function
  | Const (Ast.V_str s) -> Xq_ast.Str s
  | Const (Ast.V_num f) -> Xq_ast.Num f
  | Rel ([], None) -> Xq_ast.Var var
  | Rel (p, None) -> Xq_ast.Path (Xq_ast.Var var, p)
  | Rel (p, Some a) -> Xq_ast.AttrPath (Xq_ast.Var var, p, a)

let rec template_to_expr var = function
  | T_elem (name, attrs, children) ->
    Xq_ast.ElemLit (name, attrs, List.map (template_to_expr var) children)
  | T_text s -> Xq_ast.Str s
  | T_hole ([], None) -> Xq_ast.Var var
  | T_hole (p, None) -> Xq_ast.Path (Xq_ast.Var var, p)
  | T_hole (p, Some a) -> Xq_ast.AttrPath (Xq_ast.Var var, p, a)

let where_expr var = function
  | [] -> None
  | c :: cs ->
    let one { left; op; right } =
      Xq_ast.Cmp (cmp_to_xq op, operand_to_expr var left, operand_to_expr var right)
    in
    Some (List.fold_left (fun acc c -> Xq_ast.And (acc, one c)) (one c) cs)

let to_expr { var; source; conds; template } =
  Xq_ast.Flwor
    ( [ Xq_ast.For (var, Xq_ast.Path (Xq_ast.Context, source)) ],
      where_expr var conds,
      template_to_expr var template )

let to_string t = Xq_ast.to_string (to_expr t)

let run t ~doc = Xq_eval.eval_expr (Xq_eval.env ~context:doc ()) (to_expr t)
