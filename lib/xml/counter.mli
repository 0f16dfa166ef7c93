(** Process-wide event counters: one registry behind STATS and
    [xut transform --stats].

    A counter is declared once, at module initialisation, under its
    STATS name.  Each domain bumps a cell of its own, reached through
    [Domain.DLS]: a bump takes no lock, makes no atomic operation and
    allocates nothing.  A domain's cells outlive it, so a count made on
    a joined worker stays in the sums.

    A value is the sum over every domain's cells since the process
    started.  Nothing resets a counter: a reader takes the difference of
    two readings, which is exact once the domains that bumped in between
    have been joined (or synchronized with the reader). *)

type t

val declare : string -> t
(** A new counter under a STATS name.  May be called after domains have
    bumped other counters. *)

val bump : t -> unit
val add : t -> int -> unit

type local
(** The calling domain's cells. *)

val local : unit -> local
(** For a walk that bumps on every step: {!bump_local} and
    {!add_local} on the cells taken once are {!bump} and {!add} without
    the domain-local lookup.  Use them only on the domain that took
    them. *)

val bump_local : local -> t -> unit
val add_local : local -> t -> int -> unit

val value : t -> int
(** The sum over every domain's cells. *)

val values : unit -> (string * int) list
(** Every counter's name and {!value}, in declaration order. *)
