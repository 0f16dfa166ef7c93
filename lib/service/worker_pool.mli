(** Domain-based worker pool with a bounded job queue.

    [create ~domains ~queue_capacity f] spawns [domains] OCaml 5 domains
    that each loop: dequeue a job's argument and run [f] on it.  [f]
    delivers whatever the job produces itself, on the worker domain, so
    the caller's completion work (a transport writing its response
    frame) happens there too, with no extra thread.  The queue is a
    mutex/condvar bounded buffer: {!submit} blocks once [queue_capacity]
    jobs are waiting, which is the backpressure that keeps a
    closed-loop client from swamping the pool.

    Failure isolation: an exception out of [f] is dropped — the worker
    survives and keeps serving.  Nothing can kill a worker short of the
    runtime itself dying. *)

type 'a t

val create :
  ?on_enqueue:(unit -> unit) ->
  ?on_dequeue:(unit -> unit) ->
  domains:int ->
  queue_capacity:int ->
  ('a -> unit) ->
  'a t
(** The [on_enqueue]/[on_dequeue] hooks run under the queue lock as a
    job enters/leaves the queue (the service wires queue-depth metrics
    through them; they must not block). *)

val submit : 'a t -> 'a -> unit
(** [submit pool arg] enqueues [arg], blocking while the queue is full;
    [f arg] runs on a worker domain, maybe before [submit] returns.
    @raise Invalid_argument after {!shutdown} ([f] does not run). *)

val call : 'a t -> 'a -> unit
(** {!submit}, then wait until [f arg] has returned or raised.
    @raise Invalid_argument after {!shutdown}. *)

val shutdown : 'a t -> unit
(** Stop accepting jobs, drain the queue, join every worker.
    Idempotent. *)
