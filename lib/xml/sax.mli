(** SAX-style streaming XML parsing (Section 6 substrate).

    The parser reads a document from a string or input channel and pushes
    the five event kinds of the paper to a handler, in document order.
    It handles prologs, comments, processing instructions, CDATA sections,
    DOCTYPE declarations (skipped), the five predefined entities and
    numeric character references, and both attribute quote styles.
    A character reference must name a Unicode scalar value other than
    U+0000, and a NUL byte anywhere in the input is an error.

    Whitespace-only text between elements is dropped unless [keep_ws] is
    set: the XMark-style data handled here is data-oriented, and dropping
    it makes serialize/parse roundtrips exact. *)

type event =
  | Start_document
  | Start_element of string * (string * string) list  (** name, attributes *)
  | Characters of string
  | Comment_event of string
  | Pi_event of string * string
  | End_element of string
  | End_document

exception Parse_error of { line : int; col : int; msg : string }

val equal_event : event -> event -> bool

val parse_string : ?keep_ws:bool -> string -> (event -> unit) -> unit
(** [parse_string s handler] pushes every event of the document [s].
    @raise Parse_error on malformed input. *)

val parse_reader : ?keep_ws:bool -> Reader.t -> (event -> unit) -> unit
(** Parse from a chunked {!Reader}: memory use is O(chunk + current
    token), independent of document size. *)

val parse_file : ?keep_ws:bool -> string -> (event -> unit) -> unit

val events_of_node : Node.t -> (event -> unit) -> unit
(** Replay the subtree at a node as SAX events, in document order,
    without document start/end events. *)

val events_of_tree : Node.element -> (event -> unit) -> unit
(** Replay a DOM tree as a SAX event stream (used to run the streaming
    algorithms on in-memory documents without re-serializing). *)
