(** Chunked character input for the streaming parser.

    A reader pulls fixed-size chunks from its source on demand into a
    window, so parsing a document keeps O(chunk + current token) bytes in
    memory — the property the Section 6 algorithm's working-set claim
    rests on.

    {2 The window}

    The unread input is [buf] up to [len] (exclusive).  A scanner reads
    the window in place with a cursor of its own and calls {!refill}
    only when a token runs into [len]: the bytes before the offset it
    names are consumed, the bytes from that offset on (the unfinished
    token) move to the front of the window, and the next chunk is read
    behind them.  So a token that crosses a refill is whole in the next
    window, and one lexing path serves every chunk size.  A token longer
    than the window doubles it; a scanner that must not hold a token (a
    text run, an attribute value) keeps nothing and carries the part it
    has seen in a buffer of its own.

    {2 Positions}

    Line and column are not tracked per character: when {!refill}
    discards consumed bytes it counts their newlines, a word at a time,
    and {!line} / {!col} scan the live window up to the offset they are
    given (the parser asks only when it raises an error).

    The fields are read-only outside this module; {!refill} is the only
    way to move them. *)

type t = private {
  mutable buf : bytes;  (** the window *)
  mutable len : int;  (** valid bytes in [buf] *)
  mutable retired : int;  (** input bytes discarded before [buf.[0]] *)
  mutable retired_lines : int;  (** newlines in those bytes *)
  mutable retired_bol : int;  (** input offset just past their last newline *)
  mutable finished : bool;  (** the source is exhausted *)
  chunk : int;  (** the most a single read asks the source for *)
  read : bytes -> int -> int -> int;
}

val of_string : string -> t

val of_channel : ?chunk_size:int -> in_channel -> t
(** A reader with a fresh window of [chunk_size] bytes (64 KiB by
    default). *)

val with_channel : in_channel -> (t -> 'a) -> 'a
(** [with_channel ic f] runs [f] on a reader over [ic] whose 64 KiB
    window comes from a bounded, domain-safe pool, and returns the
    window to the pool when [f] returns or raises.  The reader must not
    be used after [f] returns.  The pool's acquires count as
    [reader_pool_hits] and [reader_pool_misses] ({!Counter}). *)

val refill : t -> int -> bool
(** [refill t keep]: the bytes before offset [keep] are consumed.  They
    are discarded, [buf.[keep .. len-1]] moves to the front of the
    window (so every offset at or past [keep] decreases by [keep]), and
    the next chunk is read behind it, doubling the window first if the
    kept bytes fill it.  Returns whether any byte was read; [false]
    means end of input (the move still happens).
    @raise Invalid_argument unless [0 <= keep <= len]. *)

val line : t -> int -> int
val col : t -> int -> int
(** 1-based position of a window offset in [0 .. len]; O(chunk) per
    call.  A negative offset names a byte already discarded, and is
    placed right when no newline lies between that byte and the
    window. *)
