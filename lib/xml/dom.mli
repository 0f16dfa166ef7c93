(** DOM construction: build {!Node} trees from text or from SAX events. *)

exception No_document_element

val parse_string : ?keep_ws:bool -> string -> Node.element
(** Parse a document and return its document element.
    @raise Sax.Parse_error on malformed input.
    @raise No_document_element if the input holds no element. *)

val parse_file : ?keep_ws:bool -> string -> Node.element

val parse_element : string -> int -> Node.element * int
(** [parse_element src i]: the first element of [src] from offset [i]
    (see {!Sax.parse_element}), whitespace-only text dropped, and the
    offset past it.
    @raise Sax.Parse_error on malformed input. *)

(** Incremental tree builder, usable as a SAX event sink.  Feeding a full
    document's events and calling {!result} yields the document element. *)
module Builder : sig
  type t

  val create : unit -> t
  val handle : t -> Sax.event -> unit
  val result : t -> Node.element

  val handler : t -> Sax.event -> unit
  (** [handler b] is [handle b], convenient for partial application. *)
end
