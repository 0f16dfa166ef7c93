(** A table from int keys (element ids, mostly) to a fixed number of int
    words each, or to none (a set): open addressing with linear probing
    over one key array and one value array, with no block allocated per
    entry.  The annotation tables ([Annotator]), the streaming truth
    list ([Sax_transform.Truth]) and the reply image's index
    ({!Serialize.Image}) are all one of these.

    A key's home slot is a multiplicative hash of it, or, for a table
    made with a [base], its offset from [base]: the keys of a window of
    as many consecutive ints as the table has slots then each get a slot
    of their own, in order.  A lookup walks from the home slot to the
    key or to the first free slot: the table must keep a free slot, and
    {!claim} keeps it at most half full. *)

type t = private {
  words : int;  (** value words per slot *)
  mutable keys : int array;  (** {!absent} where free; a power of two long *)
  mutable vals : int array;  (** the words of slot [s], from [s * words] *)
  mutable count : int;  (** keys held *)
  mutable base : int;  (** {!hashed}, or the base of offset homing *)
}

val absent : int
(** [min_int], the key of a free slot: never a key. *)

val hashed : int
(** The [base] of a table whose keys are homed by a hash. *)

val create : ?base:int -> words:int -> int -> t
(** An empty table of the given number of slots, a power of two, homed
    by a hash, or by offset from [base]. *)

val copy : t -> t

val length : t -> int
(** Keys held. *)

val find : t -> int -> int
(** The key's slot, or -1 when the table does not hold it. *)

val place : t -> int -> int
(** The key's slot, taken if it was free, with no room check: the caller
    sized the table to keep a free slot. *)

val claim : t -> int -> int
(** The key's slot, taken if it was free, its words set to 0.  The table
    first grows, by doubling, to stay at most half full. *)

val remove : t -> int -> bool
(** Remove the key, if held ([false] otherwise).  The entries after it
    in its run move back into the hole (backward-shift deletion), so no
    tombstone is left. *)

val resize : ?base:int -> t -> int -> unit
(** Move every entry into free arrays of the given number of slots, a
    power of two that holds them, homed from [base] (by default, as
    before). *)

val copy_entry : src:t -> int -> t -> int -> unit
(** [copy_entry ~src si dst di] copies the words of slot [si] of [src]
    into slot [di] of [dst], a table of as many words. *)

val iter : (int -> int -> unit) -> t -> unit
(** [iter f t] calls [f key slot] on every entry. *)

val wrapped : t -> int
(** Entries stored before their home slot, whose probe ran past the end
    of the array and wrapped to its start (instrumentation). *)

val longest_probe : t -> int
(** The most slots any held key lies past its home slot (instrumentation:
    a lookup of that key reads one more than this). *)
