(** A bounded free list of reusable buffers, domain-safe (mutex-guarded),
    with process-wide hit and miss counts.  The serializer's reply
    buffers and the reader's windows are pooled with it. *)

type 'a t

val create : max:int -> (unit -> 'a) -> 'a t
(** A pool that keeps at most [max] released values and makes a fresh
    one on a miss. *)

val acquire : 'a t -> 'a
val release : 'a t -> 'a -> unit
(** Returns the value to the pool, or drops it when the pool is full.
    The caller resets it first. *)

val stats : 'a t -> int * int
(** [(hits, misses)] of {!acquire}. *)
