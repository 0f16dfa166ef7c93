type 'a t = {
  make : unit -> 'a;
  max : int;
  mu : Mutex.t;
  mutable free : 'a list;
  mutable count : int;
  hits : Counter.t;
  misses : Counter.t;
}

let create ~max ~hits ~misses make =
  { make; max; mu = Mutex.create (); free = []; count = 0; hits; misses }

let acquire p =
  Mutex.lock p.mu;
  match p.free with
  | x :: rest ->
    p.free <- rest;
    p.count <- p.count - 1;
    Mutex.unlock p.mu;
    Counter.bump p.hits;
    x
  | [] ->
    Mutex.unlock p.mu;
    Counter.bump p.misses;
    p.make ()

let release p x =
  Mutex.lock p.mu;
  if p.count < p.max then begin
    p.free <- x :: p.free;
    p.count <- p.count + 1
  end;
  Mutex.unlock p.mu
