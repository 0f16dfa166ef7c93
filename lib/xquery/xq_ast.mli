open Xut_xpath

(** Abstract syntax of the XQuery subset implemented by this engine.

    The subset covers what the paper's techniques need on the host side:
    FLWOR with multiple [for]/[let] clauses, [where], conditionals,
    quantifiers, general comparisons, node identity ([is]), static and
    computed element constructors, recursive user-defined functions, and
    path navigation using the X fragment.  See {!Xq_eval} for the builtin
    function library and the extension hooks. *)

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type arith = Add | Sub | Mul | Div | Mod

type expr =
  | Empty                                   (** () *)
  | Seq of expr list                        (** e1, e2, ... *)
  | Str of string
  | Num of float
  | Var of string
  | Context                                 (** '.' — the context item *)
  | Path of expr * Ast.path                 (** e/path *)
  | AttrPath of expr * Ast.path * string    (** e/path/@a ; "*" = all *)
  | Flwor of clause list * expr option * expr
  | If of expr * expr * expr
  | Quant of [ `Some | `Every ] * string * expr * expr
  | Cmp of cmp * expr * expr                (** general (existential) *)
  | Arith of arith * expr * expr            (** numeric, on atomized singletons *)
  | And of expr * expr
  | Or of expr * expr
  | Is of expr * expr                       (** node identity *)
  | ElemLit of string * (string * string) list * expr list
  | ElemDyn of expr * expr                  (** element {name} {content} *)
  | TextCtor of expr                        (** text {e} *)
  | DocCtor of expr                         (** document {e} *)
  | Call of string * expr list
  | NodeConst of Xut_xml.Node.t             (** internal: a constant tree *)

and clause = For of string * expr | LetC of string * expr

type fundef = { fname : string; params : string list; body : expr }

type program = { functions : fundef list; body : expr }

val program : ?functions:fundef list -> expr -> program

val to_string : expr -> string

val program_to_string : program -> string
