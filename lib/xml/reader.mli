(** Chunked character input for the streaming parser.

    A reader pulls fixed-size chunks from its source on demand, so
    parsing a document keeps O(chunk + current token) bytes in memory —
    the property the Section 6 algorithm's working-set claim rests on.

    Line and column are not tracked per character: each chunk's newlines
    are counted once when the chunk is retired at refill, and {!line} /
    {!col} scan the live window up to the cursor when asked (the parser
    asks only when it raises an error). *)

type t

val of_string : string -> t
val of_channel : ?chunk_size:int -> in_channel -> t

val peek : t -> char
(** The next character, ['\000'] at end of input (the parser rejects
    NUL bytes in the input, so the sentinel is unambiguous to it). *)

val advance : t -> unit
val next : t -> char

val eof : t -> bool

(** {2 The buffer window}

    The unread bytes of the current chunk are [window t] between
    [pos t] (inclusive) and [limit t] (exclusive).  A scanner may read
    them in place and then move the cursor forward with {!set_pos}.  The
    window is refilled only by {!peek}, {!advance}, {!next} or {!eof}
    once it is empty, so its bytes stay valid until then.  A token that
    runs into [limit t] may continue in the next chunk. *)

val window : t -> bytes
val pos : t -> int
val limit : t -> int

val set_pos : t -> int -> unit
(** Move the cursor to an offset in [pos t .. limit t].
    @raise Invalid_argument otherwise. *)

val line : t -> int
val col : t -> int
(** 1-based position of the cursor; O(chunk) per call. *)

val bytes_read : t -> int
(** Total characters consumed so far. *)
