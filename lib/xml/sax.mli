(** SAX-style streaming XML parsing (Section 6 substrate).

    The parser reads a document from a string or input channel and pushes
    the five event kinds of the paper to a handler, in document order.
    It handles prologs, comments, processing instructions, CDATA sections,
    DOCTYPE declarations (skipped), the five predefined entities and
    numeric character references, and both attribute quote styles.
    A character reference must name a Unicode scalar value other than
    U+0000, and a NUL byte anywhere in the input is an error.  A document
    has one document element, at most one DOCTYPE, before it, and no
    reference outside it.

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

type steer
(** A steering handle (see {!section-steering}). *)

val parse_string : ?keep_ws:bool -> ?steer:steer -> string -> (event -> unit) -> unit
(** [parse_string s handler] pushes every event of the document [s].
    @raise Parse_error on malformed input. *)

val parse_reader : ?keep_ws:bool -> ?steer:steer -> Reader.t -> (event -> unit) -> unit
(** Parse from a chunked {!Reader}: memory use is O(chunk + current
    token), independent of document size. *)

val parse_file : ?keep_ws:bool -> ?steer:steer -> string -> (event -> unit) -> unit

val parse_element : string -> int -> (event -> unit) -> int
(** [parse_element src i handler] pushes the events of the first element
    of [src] from offset [i] (no [Start_document] or [End_document]),
    after any whitespace, comments and PIs, and returns the offset past
    its end tag.  Nothing after the element is read.
    @raise Parse_error on malformed input, a DOCTYPE, or no element. *)

val decode_references : string -> string
(** [s] with its entity and character references replaced, as the
    parser decodes them in text.
    @raise Parse_error on a malformed reference (positions count from
    [s]'s start). *)

val write : Writer.t -> event -> unit
(** Write one event's markup ([Start_document]/[End_document] write
    nothing). *)

val markup_bytes : open_tag:bool -> event -> int
(** The bytes {!write} writes for the event into a writer whose
    start-tag is open or not ([Writer.t.open_tag]), counting a
    start-tag's closing [>] with the start-tag: over a whole element's
    events, its serialized size. *)

(** {2:steering Steering}

    A parse given a steering handle lets its handler, while it is given
    a start-tag, have the parser consume that element's rest (its
    content and end tag) without making events: {!copy_rest} writes each
    token into the handle's writer exactly as {!write} of its events
    would — the same bytes and the same chunk boundaries, whitespace-only
    runs dropped unless [keep_ws], references and CDATA re-escaped,
    [<a></a>] as [<a/>] — and {!skip_rest} only checks and counts.  Both
    are modes of the one lexer, so every parse error keeps its message
    and position.  The element's [End_element] is not delivered; the
    parse goes on after it.

    Neither mode interns a name ({!Sym}): the names open below the
    steered element are held as bytes.  Both consume {e canonical}
    tokens — markup already in the writer's form and whole in the
    reader's window — with no writer call per token: a start tag [<n>]
    or [<n/>] whose attributes are each [ k="v"] (one space before each,
    double quotes, no ['&'], ['<'], ['>'] or NUL in the value), a text
    run that starts with a byte other than whitespace, holds no ['&'],
    ['>'] or NUL and ends at a ['<'], and an end tag [</n>] of the open
    element that does not follow its start tag directly.  {!copy_rest}
    writes each run of them into the writer with one {!Writer.blit},
    cut where writing the events one by one would have flushed, so the
    chunks do not change (a recorder, with chunk size 0, takes one blit
    per event); it counts the blitted bytes as [sax_copy_blit_bytes]
    ({!Counter}).  Every other token — references, single quotes,
    whitespace inside a tag, a comment, PI or CDATA section, [<a></a>],
    a token that runs past the window, anything malformed — takes the
    token path from its first byte. *)

val steer : Writer.t -> steer
(** A handle whose copies go to the writer, attached to each parse it is
    given to while that parse runs. *)

val writer : steer -> Writer.t
(** The writer {!copy_rest} writes into. *)

val offered : steer -> bool
(** The parse attached to the handle is giving its handler a start-tag
    (live, not a replay) whose rest is not yet steered. *)

val copy_rest : steer -> int
(** Write the rest of the offered element into the handle's writer; the
    number of start tags in it.
    @raise Invalid_argument unless {!offered}.
    @raise Parse_error as the event path would, at the same place. *)

val skip_rest : steer -> int
(** Consume the rest of the offered element, checking it as the event
    path would; the number of start tags in it.
    @raise Invalid_argument unless {!offered}. *)

val copy_rest_to : steer -> Writer.t -> int
(** {!copy_rest} into another writer, which holds the offered element's
    start-tag, still open.
    @raise Invalid_argument unless {!offered}. *)

val rest_depth : steer -> int
(** After {!copy_rest} or {!skip_rest}: how many levels below the
    element its deepest start tag sat (0 when it had none). *)

val events_of_node : Node.t -> (event -> unit) -> unit
(** Replay the subtree at a node as SAX events, in document order,
    without document start/end events. *)

val events_of_tree : Node.element -> (event -> unit) -> unit
(** Replay a DOM tree as a SAX event stream (used to run the streaming
    algorithms on in-memory documents without re-serializing). *)
