(** Deterministic pseudo-random numbers (SplitMix64).

    The generator is seeded explicitly so that every benchmark run and
    every test sees the same documents; OCaml's [Random] is avoided to
    keep document content independent of stdlib versions. *)

type t

val create : int64 -> t
val int : t -> int -> int
(** [int t n] in [0, n). *)

val bool : t -> float -> bool
(** [bool t p] is true with probability [p]. *)

val choose : t -> 'a array -> 'a
