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

(** {2:steering Steering}

    A parse given a steering handle asks the handle's hook about each
    start tag it meets outside a steered element, once it holds the
    tag's symbol ({!Sym}) and before it reads the tag's attributes or
    makes its event.  The hook is given the tag's number in the parse
    (0 for the first start tag; every start tag counts, steered ones
    too) and its symbol, and answers:
    - [Walk]: the tag's event is made, as an unsteered parse makes it;
    - [Copy]: the element, its start tag, content and end tag, is
      written into the handle's writer exactly as {!write} of its events
      would write it — the same bytes and the same chunk boundaries,
      whitespace-only runs dropped unless [keep_ws], references and
      CDATA re-escaped, [<a></a>] as [<a/>] — with no event;
    - [Skip]: the element is consumed, checked as the event path checks
      it, with no event.
    Copy and skip are modes of the one lexer, so every parse error keeps
    its message and position, and neither interns a name: the names open
    in a steered element are held as bytes.

    Both modes consume {e canonical} tokens — markup already in the
    writer's form and whole in the reader's window — with no writer call
    per token: a start tag [<n>] or [<n/>] whose attributes are each
    [ k="v"] (one space before each, double quotes, no ['&'], ['<'],
    ['>'] or NUL in the value), a text run that holds no ['&'], ['>'] or
    NUL and ends at a ['<'] (one that is whitespace only is dropped
    there, unless [keep_ws]), and an end tag [</n>] of the open element
    that does not follow its start tag directly.  A canonical token that
    runs past the window is made whole by a refill that keeps it, unless
    it fills the window.  Copy writes each run of canonical tokens into
    the writer with one {!Writer.blit}, cut where writing the events one
    by one would have flushed, so the chunks do not change; it counts
    the blitted bytes as [sax_copy_blit_bytes] ({!Counter}).  Every
    other token — references, single quotes, whitespace inside a tag, a
    comment, PI or CDATA section, [<a></a>], anything malformed — takes
    the token path from its first byte. *)

type decision = Walk | Copy | Skip

val steer : ?copy_to:Writer.t -> (int -> Sym.t -> decision) -> steer
(** A handle with its hook; [Copy] writes into [copy_to].  The handle is
    attached to each parse it is given to, from its start.
    @raise Invalid_argument from the parse if the hook answers [Copy]
    and there is no [copy_to]. *)

val started : steer -> int
(** Start tags the parse attached to the handle has met so far, steered
    ones and the one the hook is being asked about included; after the
    parse, all of them. *)

val position : steer -> int
(** The input offset, in the attached parse, of the ['<'] of the start
    tag the hook is being asked about, and, while the handler is given
    an [End_element], the offset past that end tag's ['>']. *)

val copied_depth : steer -> int
(** The deepest level a start tag the attached parse copied reached,
    counting the parse's outermost element as level 1: the depth of
    open elements an event path would have held there.  0 while the
    parse has copied nothing. *)

val parse_region : ?keep_ws:bool -> steer:steer -> Reader.t -> (event -> unit) -> int
(** [parse_region ~steer r handler] parses the element that starts at
    [r]'s first byte, steered as {!parse_reader} is, with no document
    events, and returns the input offset past its end tag.  A comment or
    PI before the element ends the call there.  Nothing after the end
    tag is read.  A handle used for consecutive regions of one reader
    keeps its parser's buffers, and {!started} and {!copied_depth} then
    count the current region's start tags only.
    @raise Parse_error on malformed input, or input that ends before the
    element does. *)

val events_of_node : Node.t -> (event -> unit) -> unit
(** Replay the subtree at a node as SAX events, in document order,
    without document start/end events. *)

val events_of_tree : Node.element -> (event -> unit) -> unit
(** Replay a DOM tree as a SAX event stream (used to run the streaming
    algorithms on in-memory documents without re-serializing). *)
