open Xut_automata

(** Named stored views: [DEFVIEW name := <transform query>].

    A view is a {e virtual} transformed document — the transform is
    never materialized; queries against the view are answered by the
    Sec. 4 Compose method over the base document.  Definitions are
    validated and compiled at definition time (parse → fragment check →
    selecting NFA), so out-of-fragment definitions are rejected with a
    structured error instead of falling back at request time.

    A view's base — the [doc("X")] of its definition — may name a stored
    document or another view (views-on-views), forming chains resolved
    to a base document plus an update stack.  Bases may be defined
    {e late}: a view over a not-yet-loaded document is legal and simply
    answers Unknown_document until the document is loaded. *)

type view = {
  name : string;
  source : string;      (** the exact transform-query text *)
  base : string;        (** a document name or another view's name *)
  update : Core.Transform_ast.update;
  nfa : Selecting_nfa.t;
  generation : int;     (** store-wide monotone; bumped on redefinition *)
  memo : Annotation_memo.t;
      (** innermost-level TD-BU oracle tables over the base document *)
  products : Product_memo.t;
      (** NFA x schema products for this view's own NFA — the innermost
          update's, the only level that runs against the schema-validated
          base document *)
}

type error =
  [ `Parse of string      (** bad transform syntax *)
  | `Compose of string    (** outside the composable fragment *)
  | `Cycle of string list (** the base chain would loop: the path *)
  ]

type t

val create : unit -> t

val define : t -> name:string -> source:string -> (view * bool, error) result
(** Define or redefine [name].  The [bool] is [true] on redefinition
    (the caller must then invalidate dependent composed plans).  The
    definition is rejected — and the existing definition, if any, left
    untouched — when the transform does not parse, falls outside the
    composable fragment, or its base chain would reach back to [name]. *)

val undefine : t -> name:string -> bool
(** [false] when no such view existed. *)

val find : t -> string -> view option

type chain = { base : string; levels : view list }
(** A resolved chain: the base {e document} name and the views applied
    to it, innermost (closest to the document) first. *)

val resolve : t -> string -> chain option
(** [None] when [name] is not a view.  A dangling base (neither document
    nor view) terminates the chain as a document name — serving then
    reports Unknown_document. *)

val depth : t -> string -> int

val dependents : t -> string -> string list
(** Every view whose chain passes through [name] (a document or view),
    including [name] itself when it is a view — the reverse-reachability
    set the invalidation walk on document lifecycle events uses. *)

val signature : chain -> string
(** Composed-plan cache key material: the base document name plus each
    level's [name\@generation].  Document generations are deliberately
    excluded — composed plans depend on the definitions only; content
    changes invalidate annotation memos, never compositions. *)

type info = { i_name : string; i_base : string; i_depth : int; i_generation : int }

val infos : t -> info list
(** Sorted by name, for LISTVIEWS and STATS. *)
