(** A bounded free list of reusable buffers, domain-safe (mutex-guarded).
    The serializer's reply buffers and the reader's windows are pooled
    with it. *)

type 'a t

val create : max:int -> hits:Counter.t -> misses:Counter.t -> (unit -> 'a) -> 'a t
(** A pool that keeps at most [max] released values and makes a fresh
    one on a miss.  Each {!acquire} bumps [hits] or [misses]. *)

val acquire : 'a t -> 'a
val release : 'a t -> 'a -> unit
(** Returns the value to the pool, or drops it when the pool is full.
    The caller resets it first. *)
