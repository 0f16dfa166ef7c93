type 'a t = {
  make : unit -> 'a;
  max : int;
  mu : Mutex.t;
  mutable free : 'a list;
  mutable count : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let create ~max make =
  { make; max; mu = Mutex.create (); free = []; count = 0; hits = Atomic.make 0;
    misses = Atomic.make 0 }

let acquire p =
  Mutex.lock p.mu;
  match p.free with
  | x :: rest ->
    p.free <- rest;
    p.count <- p.count - 1;
    Mutex.unlock p.mu;
    Atomic.incr p.hits;
    x
  | [] ->
    Mutex.unlock p.mu;
    Atomic.incr p.misses;
    p.make ()

let release p x =
  Mutex.lock p.mu;
  if p.count < p.max then begin
    p.free <- x :: p.free;
    p.count <- p.count + 1
  end;
  Mutex.unlock p.mu

let stats p = (Atomic.get p.hits, Atomic.get p.misses)
