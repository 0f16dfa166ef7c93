type 'a t = {
  f : 'a -> unit;
  mu : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  queue : ('a * (unit -> unit)) Queue.t;  (* a job and what runs once it is done *)
  capacity : int;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  on_enqueue : unit -> unit;
  on_dequeue : unit -> unit;
}

let worker_loop t =
  let rec loop () =
    Mutex.lock t.mu;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.not_empty t.mu
    done;
    if Queue.is_empty t.queue then begin
      (* closed and drained *)
      Mutex.unlock t.mu;
      ()
    end
    else begin
      let arg, finished = Queue.pop t.queue in
      t.on_dequeue ();
      Condition.signal t.not_full;
      Mutex.unlock t.mu;
      (* Failure isolation: an exception out of a job is dropped; the
         worker never dies. *)
      (try t.f arg with _ -> ());
      finished ();
      loop ()
    end
  in
  loop ()

let create ?(on_enqueue = Fun.id) ?(on_dequeue = Fun.id) ~domains ~queue_capacity f =
  if domains < 1 then invalid_arg "Worker_pool.create: domains < 1";
  if queue_capacity < 1 then invalid_arg "Worker_pool.create: queue_capacity < 1";
  let t =
    {
      f;
      mu = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      queue = Queue.create ();
      capacity = queue_capacity;
      closed = false;
      workers = [];
      on_enqueue;
      on_dequeue;
    }
  in
  t.workers <- List.init domains (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let enqueue t job =
  Mutex.lock t.mu;
  while Queue.length t.queue >= t.capacity && not t.closed do
    Condition.wait t.not_full t.mu
  done;
  if t.closed then begin
    Mutex.unlock t.mu;
    invalid_arg "Worker_pool.submit: pool is shut down"
  end;
  Queue.push job t.queue;
  t.on_enqueue ();
  Condition.signal t.not_empty;
  Mutex.unlock t.mu

let submit t arg = enqueue t (arg, ignore)

let call t arg =
  let mu = Mutex.create () and served = Condition.create () and finished = ref false in
  enqueue t
    ( arg,
      fun () ->
        Mutex.lock mu;
        finished := true;
        Condition.signal served;
        Mutex.unlock mu );
  Mutex.lock mu;
  while not !finished do
    Condition.wait served mu
  done;
  Mutex.unlock mu

let shutdown t =
  Mutex.lock t.mu;
  let workers = t.workers in
  t.closed <- true;
  t.workers <- [];
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.mu;
  List.iter Domain.join workers
