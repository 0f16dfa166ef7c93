open Xut_xml
open Xut_xquery

(** Virtual security views (the access-control application of
    Example 1.1 / Section 4.1, after Fan–Chan–Garofalakis).

    A policy is a list of rules over the document; its compiled form is
    a compound transform query, so the view is {e never} materialized
    and maintained per user group — it exists only as update syntax.
    User queries are answered either through the Compose Method (one
    pass over the stored document) or, for multi-rule policies whose
    later rules fall outside the static fragment, by evaluating the view
    transform lazily per query. *)

type rule =
  | Deny of Xut_xpath.Ast.path           (** hide these subtrees entirely *)
  | Redact of Xut_xpath.Ast.path * Node.t (** replace them with a placeholder *)
  | Relabel of Xut_xpath.Ast.path * string (** expose them under another name *)

type t = { name : string; rules : rule list }

val make : name:string -> rule list -> t

val deny : string -> rule
(** [deny "//supplier[country = 'A']/price"] — the path is parsed. *)

val redact : string -> with_:string -> rule
(** [redact path ~with_:"<hidden/>"] — the replacement is an XML literal. *)

val relabel : string -> as_:string -> rule

val to_updates : t -> Transform_ast.update list
(** The policy as the update sequence of its compiled transform query. *)

val to_transform : t -> Sequence.t

val view_of : ?algo:Engine.algo -> t -> doc:Node.element -> Node.element
(** The document as this user group sees it (computed, not stored). *)

val answer : t -> User_query.t -> doc:Node.element -> Xq_value.t
(** Answer a user query through the view: a single-rule policy goes
    through {!Composition.run} (one composed query over the stored
    document when the rule is in the fragment), any other through
    {!Composition.naive_stack} over a per-query view. *)

val permitted : t -> string -> doc:Node.element -> bool
(** [permitted p path ~doc]: does the view still expose any node on
    [path]?  (A quick audit helper: false means the policy hides all of
    them.) *)
