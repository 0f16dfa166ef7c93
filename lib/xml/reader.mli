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
  move : int -> unit;
  mutable upto : int;  (** the input offset the reader ends at ({!seek}) *)
  descr : Unix.file_descr option;  (** a channel reader's descriptor *)
}

val of_string : ?chunk_size:int -> string -> t
(** A reader over the string, with a window of [chunk_size] bytes (the
    string's length, between 16 bytes and 64 KiB, by default). *)

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

val seek : t -> from:int -> upto:int -> unit
(** [seek t ~from ~upto]: the window is dropped, and the reader goes on
    to read the input's bytes [\[from, upto)] and no others, as if they
    were all of it.  Positions ({!line}, {!col}) then count from
    [from], as if it began line 1.
    @raise Sys_error if the source cannot be positioned (a pipe). *)

val holds : t -> from:int -> upto:int -> bool
(** Whether the window still holds the input bytes [\[from, upto)]. *)

val same_bytes : t -> t -> from:int -> upto:int -> bool
(** Whether two readers' windows hold the same input bytes
    [\[from, upto)]; allocates nothing.
    @raise Invalid_argument unless both {!holds} them. *)

type version

val version : t -> version
(** The source as the reader's own descriptor finds it now: a channel's
    device, inode, size, and modification and status-change times (one
    [fstat]); for a string, a constant. *)

val same_version : version -> version -> bool
(** Whether nothing but reading happened to the source between the two
    versions, as far as the file system's timestamps tell: a rewrite
    within one tick of a coarse clock that keeps the size is not seen. *)

(** {2 Re-readable inputs}

    An input that can be read from any offset, more than once: a file
    or a string. *)

type input

val file : ?chunk_size:int -> string -> input
val string : ?chunk_size:int -> string -> input
(** [chunk_size] sets the window of every reader over the input, which
    is otherwise a pooled 64 KiB one for a file ({!with_channel}) and
    {!of_string}'s for a string. *)

val name : input -> string
(** The file's path, for messages. *)

val rereadable : input -> bool
(** Whether a second reader over the input reads the same bytes: a
    string, or a regular file (not a FIFO or a device).  A path that
    cannot be examined counts as re-readable: opening it reports why. *)

val with_input : input -> (t -> 'a) -> 'a
(** [with_input i f] runs [f] on a reader over the whole input, opened
    for [f] alone: a file is closed, and a pooled window returned, when
    [f] returns or raises.
    @raise Sys_error if the file cannot be opened. *)

val line : t -> int -> int
val col : t -> int -> int
(** 1-based position of a window offset in [0 .. len]; O(chunk) per
    call.  A negative offset names a byte already discarded, and is
    placed right when no newline lies between that byte and the
    window. *)
