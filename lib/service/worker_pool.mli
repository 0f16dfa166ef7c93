(** Domain-based worker pool with a bounded request queue.

    [create ~domains ~queue_capacity f] spawns [domains] OCaml 5 domains
    that each loop: dequeue a request, run [f] on it, hand the result to
    the reply function the request was submitted with.  The reply runs
    on the worker domain, so the caller's completion work (a transport
    writing its response frame) happens there too, with no extra thread.
    The queue is a mutex/condvar bounded buffer: {!submit} blocks once
    [queue_capacity] requests are waiting, which is the backpressure
    that keeps a closed-loop client from swamping the pool.

    Failure isolation: [f] raising turns into an [Error] reply carrying
    the exception message, and an exception out of the reply function
    itself is dropped — the worker survives and keeps serving.  Nothing
    can kill a worker short of the runtime itself dying. *)

type ('a, 'b) t

val create :
  ?on_enqueue:(unit -> unit) ->
  ?on_dequeue:(unit -> unit) ->
  domains:int ->
  queue_capacity:int ->
  ('a -> 'b) ->
  ('a, 'b) t
(** The [on_enqueue]/[on_dequeue] hooks run under the queue lock as a
    request enters/leaves the queue (the service wires queue-depth
    metrics through them; they must not block). *)

val submit : ('a, 'b) t -> 'a -> (('b, string) result -> unit) -> unit
(** [submit pool arg reply] enqueues [arg], blocking while the queue is
    full.  [reply] is called exactly once, on the worker domain, after
    [f arg] returns or raises; it may run before [submit] returns.
    @raise Invalid_argument after {!shutdown} ([reply] is not called). *)

val call : ('a, 'b) t -> 'a -> ('b, string) result
(** Synchronous round trip: [submit], then wait for the reply.
    @raise Invalid_argument after {!shutdown}. *)

val shutdown : ('a, 'b) t -> unit
(** Stop accepting requests, drain the queue, join every worker.
    Idempotent. *)
