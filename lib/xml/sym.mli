(** Global element-name interning.

    Maps element names to dense integer symbols, process-wide, so the
    automaton hot paths dispatch transitions on an [int] compare instead
    of [String.equal].  Interning happens once per open tag at parse /
    build time ({!Node.element}, and the SAX parser for each start tag
    it makes an event of; everything downstream reuses the symbol).  A
    new name rebuilds the whole table, so a document that brings
    thousands of distinct names costs time quadratic in their number:
    the parser's copy and skip modes intern nothing.

    Domain-safe: lookups are lock-free reads of an immutable snapshot
    published through an [Atomic]; insertions (first sighting of a name)
    take a mutex and publish a fresh snapshot.  A name interned on any
    domain yields the same symbol on every domain, forever.  Every
    {!intern} and {!intern_sub} call counts as [sym_interns] in the
    {!Counter} cells it is given, which must be the calling domain's
    ({!Counter.local}): a walk takes them once, not once per name. *)

type t = int
(** A symbol: a small dense non-negative int, stable for the process
    lifetime. *)

val intern : Counter.local -> string -> t
(** [intern here s] returns the symbol of [s], allocating a fresh one on first
    sight.  Lock-free when [s] is already known. *)

val intern_sub : Counter.local -> bytes -> int -> int -> t
(** [intern_sub here b off len] interns the name held in bytes
    [off .. off + len - 1] of [b].  {!name} of the symbol is the name's
    canonical string, the same physical string for every call, so a
    parser can hand it out as the element name instead of copying the
    bytes.  When the name is already known the lookup allocates nothing
    (no string, no option, no closure) and takes no lock; only a first
    sighting copies the bytes and inserts them as {!intern} does.
    @raise Invalid_argument if the range is not inside [b]. *)

val name : t -> string
(** Reverse lookup.  Raises [Invalid_argument] for unknown symbols. *)

val count : unit -> int
(** Number of distinct symbols interned so far. *)
