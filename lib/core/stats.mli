(** Lightweight instrumentation counters.

    The paper's claim that the automaton methods "traverse only the
    necessary part of the tree" is observable through these: each engine
    ticks [visited] per element it examines and [copied] per element it
    rebuilds.

    Counters are global and domain-safe: each domain ticks a private
    cell reached through [Domain.DLS] (no contention on the hot path),
    and the cells live in an [Atomic.t] registry that {!read} and
    {!reset} fold over.  Engines may therefore run on multiple domains
    concurrently — as the [Xut_service] worker pool does.  A {!read}
    taken while transforms are in flight aggregates the ticks of every
    domain; for the per-query breakdowns of the experiments, {!reset}
    and {!read} around a single-domain run as before. *)

type snapshot = { visited : int; copied : int; shared : int }

val reset : unit -> unit
val visit : unit -> unit

val visits : int -> unit
(** [n] visits at once, for a walk that counts its own. *)

val copy : unit -> unit
val share : unit -> unit
(** An entire subtree was returned without inspection. *)

val read : unit -> snapshot
val pp : Format.formatter -> snapshot -> unit
