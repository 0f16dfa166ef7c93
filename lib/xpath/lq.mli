(** The LQ list of Section 5: every qualifier of a query together with all
    of its sub-expressions, in the normal form of Fig. 7, hash-consed into
    an array in topological order (sub-expressions strictly precede their
    containing expressions).

    Truth vectors over LQ ([bool array] of length {!length}) are what the
    bottom-up algorithms compute per node ([sat]) and aggregate over
    children ([csat], an OR across children). *)

type expr =
  | True_
  | Seq of int * int      (** eps[q]/p : both hold at the node *)
  | Child of int          (** * /p : p holds at some child *)
  | Desc of int           (** //p : p holds at the node or a strict descendant *)
  | Label_is of string
  | Text_cmp of Ast.cmp * Ast.value  (** direct-text comparison *)
  | Attr_cmp of string * Ast.cmp * Ast.value
  | Attr_exists of string
  | And_ of int * int
  | Or_ of int * int
  | Not_ of int

type t

type builder

val create_builder : unit -> builder

val add_qual : builder -> Ast.qual -> int
(** Normalize a qualifier and intern it; returns its LQ index. *)

val freeze : builder -> t

val length : t -> int
val expr : t -> int -> expr

val label_blocked : t -> int -> string -> bool
(** [label_blocked lq i name]: expression [i] starts with a label guard
    that [name] fails, so it is statically false at any node named
    [name] (drives the filtering-NFA-style pruning of child needs). *)

val expr_to_string : t -> int -> string

(** {2 Sets of LQ indices}

    Bitsets over one list's indices: an immediate [int] up to 62
    entries, [Bytes] above. *)

type set

val set_of_list : t -> int list -> set

val set_mem : set -> int -> bool
val set_is_empty : set -> bool
val set_equal : set -> set -> bool

(** {2 QualDP} *)

type scratch
(** The truth values of one evaluation, reused by the next: an
    evaluation allocates nothing. *)

val scratch : t -> scratch

val eval :
  t ->
  scratch ->
  name:string ->
  attrs:(string * string) list ->
  text:string ->
  csat:(int -> bool) ->
  wanted:set ->
  unit
(** QualDP (Fig. 7) into [scratch]: the truth values of the [wanted]
    expressions (and, on demand, their sub-expressions) at a node with
    the given local properties, where [csat i] tells whether expression
    [i] holds at some child.  Read them with {!holds} until the next
    [eval] into the same scratch.  [text] is read only by a demanded
    text comparison. *)

val holds : scratch -> int -> bool
(** Expression [i]'s value in the last {!eval}: [false] when it was not
    demanded. *)
