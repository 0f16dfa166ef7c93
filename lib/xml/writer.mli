(** The markup writer: how serialized XML is spelled, in one place.

    {!Serialize}'s tree walk and chunked sink, and {!Sax}'s copy mode
    (which writes a subtree straight from the parser's window), all write
    through these functions, so a subtree has the same bytes whichever
    path writes it.  Attributes are always double-quoted; text and
    attribute values are escaped with the predefined entities (no
    apostrophe).

    {2 The chunked writer}

    A writer appends to a buffer and lends that buffer to [emit] each
    time a whole event leaves [chunk_size] bytes or more in it, so chunk
    boundaries fall only between events.  The chunk is the buffer's
    whole contents, and it is valid only until [emit] returns: the
    writer then clears the buffer and writes the next chunk into it.  A
    consumer that keeps a chunk copies it ([Buffer.contents]); one that
    writes it out ([Buffer.output_buffer]) copies nothing.

    A start-tag is written up to its attributes; its closing [>] is
    owed until the next write, which decides between [>] and [/>] —
    that is what makes [<a></a>] come out as [<a/>], as the tree walk
    writes it. *)

val add_escaped : Buffer.t -> attr:bool -> string -> unit
(** The string escaped as text, or as a double-quoted attribute value. *)

val add_escaped_sub : Buffer.t -> attr:bool -> string -> int -> int -> unit
(** [add_escaped_sub buf ~attr s off len] escapes [len] bytes of [s]
    from [off]. *)

val escaped_length : attr:bool -> string -> int
(** The length of {!add_escaped} of the string. *)

val add_attrs : Buffer.t -> (string * string) list -> unit
(** [ k="v"] for each attribute, in order. *)

type t = private {
  buf : Buffer.t;
  chunk_size : int;
  emit : Buffer.t -> unit;
  mutable open_tag : bool;  (** a start-tag's [>] is owed *)
  mutable bytes : int;  (** emitted so far *)
  mutable chunks : int;
  mutable peak_chunk : int;  (** the longest chunk emitted *)
}

val create : Buffer.t -> chunk_size:int -> (Buffer.t -> unit) -> t
(** A writer appending to [buf] and lending it to [emit]; [chunk_size]
    is at least 1. *)

val flush : t -> unit
(** Lend what the buffer holds, if anything, to [emit] as one chunk,
    then clear the buffer (also when [emit] raises). *)

val maybe_flush : t -> unit
(** {!flush} once the buffer holds [chunk_size] bytes.  Every write
    below that ends an event ends with it. *)

val seal : t -> unit
(** Write the owed [>] of an open start-tag, if any. *)

(** {2 One event each} *)

val start_element : t -> string -> (string * string) list -> unit
val text : t -> string -> unit
val comment : t -> string -> unit
val pi : t -> string -> string -> unit

val end_element : t -> string -> unit
(** [/>] when the start-tag is still open, [</name>] otherwise. *)

val end_element_sub : t -> string -> int -> int -> unit
(** {!end_element} of the name held in [len] bytes of [s] from [off]. *)

val markup : t -> string -> unit
(** Content that is already serialized, written as it is. *)

(** {2 An event in pieces, from a window}

    [start_element] is {!open_start} of its name, then {!open_attribute},
    {!attribute_value_sub} or {!attribute_value} and {!close_attribute}
    per attribute, then {!close_start}; {!text_sub} is [text] of a
    substring.  A failure between the pieces leaves a partial tag in the
    buffer, never in an emitted chunk. *)

val open_start : t -> string -> int -> int -> unit
val open_attribute : t -> string -> int -> int -> unit
val attribute_value : t -> string -> unit
val attribute_value_sub : t -> string -> int -> int -> unit
val close_attribute : t -> unit
val close_start : t -> unit
val text_sub : t -> string -> int -> int -> unit

val blit : t -> bytes -> int -> int -> open_tag:bool -> unit
(** [blit t b off len ~open_tag] writes [len] bytes of [b] from [off],
    markup already in the writer's form, after the [>] a start-tag
    still owes.  With [open_tag], the last of those bytes is the [>] of
    a start-tag, and it is owed in turn instead of written: [blit] of
    [<a>] then {!end_element} writes [<a/>].  It does not flush: the
    caller ends each event inside the bytes where {!maybe_flush} would,
    so the chunks are those of writing the events one by one. *)
