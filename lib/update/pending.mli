open Xut_xml

(** The pending update list: typed update primitives resolved against
    concrete node ids, merged through an override hierarchy before
    application.

    This is the write-path counterpart of the paper's side-effect-free
    transform queries.  Where a fold of {!Core.Engine.transform} chains
    updates {e left to right} (each update evaluated against the previous
    result), a pending list follows the W3C XQuery Update Facility
    discipline instead: every update's target path is resolved against
    {e one snapshot} of the document, each selected node contributes one
    primitive keyed by its {!Node.id}, and the whole list is applied in
    a single pass.  Multiple
    primitives landing on the same node are {b merged} through a
    BaseX-style hierarchy (see [UpdatePrimitive] in BaseX: the types
    "build a hierarchy that states, in case of multiple updates on a
    distinct node, which update operation can be omitted"):

    {v
    delete  >  replace  >  rename / inserts
    v}

    - [Delete] absorbs every other primitive on the node (rename+delete
      collapses to delete, replace+delete to delete, and a second delete
      is idempotent).
    - [Replace] absorbs renames and inserts on the node; {e two replaces
      on the same target conflict} (there is no canonical winner).
    - [Rename] merges with an identical rename; two renames to
      {e different} labels conflict.
    - Inserts compose: all [Insert_first] contents prepend (in
      submission order) and all [Insert] contents append (in submission
      order), and they coexist with a surviving rename.

    Merging is order-insensitive where the hierarchy decides (delete
    wins whether it was submitted before or after the rename) and
    deterministic everywhere else (submission order breaks ties), so a
    pending list has exactly one normal form. *)

(** One update primitive, stripped of its path: the selection already
    happened, the target is a concrete node. *)
type op =
  | Insert of Node.t        (** append as last child *)
  | Insert_first of Node.t  (** prepend as first child *)
  | Delete
  | Replace of Node.t
  | Rename of string

(** A pair of primitives on one target that the hierarchy cannot order:
    two replaces, or two renames to different labels. *)
type conflict = {
  target : int;     (** {!Node.id} of the contested node *)
  kept : string;    (** rendered primitive that arrived first *)
  dropped : string; (** rendered primitive that lost *)
}

val render_conflict : conflict -> string
(** One-line rendering, e.g.
    ["node 12: replace <a/> conflicts with earlier replace <b/>"]. *)

(** Post-merge state of one target node. *)
type resolved =
  | Dead           (** a delete won: the subtree goes *)
  | Swap of Node.t (** a replace won: the subtree is substituted *)
  | Edit of { rename : string option; firsts : Node.t list; lasts : Node.t list }
      (** the node survives: optionally renamed, with content prepended
          ([firsts], in order) and appended ([lasts], in order) *)

type t
(** A pending list under construction (mutable, single-owner). *)

val create : unit -> t

val add : t -> target:int -> op -> unit
(** Append one primitive.  Submission order is remembered — it is the
    deterministic tiebreak for insert ordering and conflict reporting. *)

val mark_ancestor : t -> int -> unit
(** Record the id of a proper ancestor of some target.  The rebuild
    ([Apply.materialize]) descends only through targets and marked
    ancestors, so every proper ancestor of a target below the document
    element must be marked; a list whose only target is the document
    element needs no marks. *)

val added : t -> int
(** Primitives added so far (pre-merge). *)

(** The normal form of a pending list. *)
type normalized = {
  table : (int, resolved) Hashtbl.t;
      (** target node id -> merged outcome; conflicted targets keep the
          first-submitted primitive *)
  ancestors : (int, unit) Hashtbl.t;
      (** the ids {!mark_ancestor} recorded: the spine above the targets *)
  targets : int;     (** distinct target nodes *)
  primitives : int;  (** surviving primitives after merging *)
  collapsed : int;   (** primitives absorbed by the hierarchy *)
  conflicts : conflict list;
      (** unordered pairs, in submission order of the losing primitive *)
}

val normalize : t -> normalized
(** Merge the list.  [added t = primitives + collapsed + length conflicts]
    always holds; a list is applicable iff [conflicts = []]. *)
