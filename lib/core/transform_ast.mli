open Xut_xml
open Xut_xpath

(** Transform queries (Section 2):

    [transform copy $a := doc("T") modify do u($a) return $a]

    with the four update forms supported by the paper. *)

type update =
  | Insert of Ast.path * Node.t  (** insert e into $a/p (as last child) *)
  | Insert_first of Ast.path * Node.t
      (** insert e as first into $a/p — the positional-insert extension
          of XQuery Update, beyond the paper's four forms *)
  | Delete of Ast.path           (** delete $a/p *)
  | Replace of Ast.path * Node.t (** replace $a/p with e *)
  | Rename of Ast.path * string  (** rename $a/p as l *)

type t = {
  var : string;  (** the copy variable, conventionally "a" *)
  doc : string;  (** the document name inside doc("...") *)
  update : update;
}

val make : ?var:string -> ?doc:string -> update -> t

val path : update -> Ast.path
(** The embedded X expression. *)

val with_path : update -> Ast.path -> update

val update_kind : update -> string
(** "insert" | "delete" | "replace" | "rename". *)

val to_string : t -> string
val update_to_string : update -> string

exception Invalid_update of string
(** Raised when an update addresses the document element in a way that
    has no result tree (deleting it). *)
