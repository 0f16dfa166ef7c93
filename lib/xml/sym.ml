type t = int

(* Open-addressing hash table published as an immutable snapshot: readers
   probe the current snapshot without synchronization (arrays are never
   mutated after publication), writers copy-insert-republish under a
   mutex.  Element-name alphabets are tiny (tens of symbols), so the
   O(capacity) copy per new symbol is irrelevant. *)

type table = {
  mask : int;  (* capacity - 1; capacity is a power of two *)
  keys : string array;  (* physically [absent] where empty *)
  vals : int array;
  names : string array;  (* symbol -> name; length = count *)
  count : int;
}

(* Physical sentinel: occupied slots always hold a different object, even
   if some interned name happens to equal its contents. *)
let absent = String.init 1 (fun _ -> '\000')

let make_table capacity count names =
  { mask = capacity - 1; keys = Array.make capacity absent; vals = Array.make capacity (-1);
    names; count }

let table = Atomic.make (make_table 64 0 [||])
let mu = Mutex.create ()

let intern_calls = Counter.declare "sym_interns"

(* FNV-1a over [b.[off .. off+len-1]]: names are short ASCII, and we
   need the same hash on every domain and snapshot.  The loop keeps its
   accumulator in a register, so hashing allocates nothing. *)
let hash_sub b off len =
  let h = ref 0x811c9dc5 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x01000193 land max_int
  done;
  !h

let hash s = hash_sub (Bytes.unsafe_of_string s) 0 (String.length s)

(* A top-level loop, so a probe builds no closure. *)
let rec probe_from t h s i =
  let j = (h + i) land t.mask in
  let k = t.keys.(j) in
  if k == absent then -1 else if String.equal k s then t.vals.(j) else probe_from t h s (i + 1)

let probe t s = probe_from t (hash s) s 0

let insert_slot t s v =
  let h = hash s in
  let rec go i =
    let j = (h + i) land t.mask in
    if t.keys.(j) == absent then begin
      t.keys.(j) <- s;
      t.vals.(j) <- v
    end
    else go (i + 1)
  in
  go 0

(* Rebuild a snapshot with one more name; grow when half full. *)
let with_name (t : table) s =
  let count = t.count + 1 in
  let capacity =
    let c = t.mask + 1 in
    if 2 * count > c then 2 * c else c
  in
  let names = Array.make count s in
  Array.blit t.names 0 names 0 t.count;
  let nt = make_table capacity count names in
  Array.iteri (fun v n -> insert_slot nt n v) names;
  nt

(* First sighting: insert under the mutex. *)
let insert s =
  Mutex.lock mu;
  let v =
    (* somebody may have inserted it while we were acquiring the lock *)
    match probe (Atomic.get table) s with
    | -1 ->
      let t = Atomic.get table in
      Atomic.set table (with_name t s);
      t.count
    | v -> v
  in
  Mutex.unlock mu;
  v

let intern here s =
  Counter.bump_local here intern_calls;
  match probe (Atomic.get table) s with
  | -1 -> insert s
  | v -> v

(* Allocation-free probe for a name held in [b.[off .. off+len-1]]: the
   probe loop is a top-level function, so a hit builds neither a string
   nor a closure. *)
let rec equal_sub k b off len i =
  i >= len || (String.unsafe_get k i = Bytes.unsafe_get b (off + i) && equal_sub k b off len (i + 1))

(* the slot holding the name, or -1 *)
let rec probe_sub t h b off len i =
  let j = (h + i) land t.mask in
  let k = t.keys.(j) in
  if k == absent then -1
  else if String.length k = len && equal_sub k b off len 0 then j
  else probe_sub t h b off len (i + 1)

let intern_sub here b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Sym.intern_sub";
  Counter.bump_local here intern_calls;
  let t = Atomic.get table in
  let j = probe_sub t (hash_sub b off len) b off len 0 in
  if j >= 0 then t.vals.(j) else insert (Bytes.sub_string b off len)

let name v =
  let t = Atomic.get table in
  if v < 0 || v >= t.count then invalid_arg (Printf.sprintf "Sym.name: unknown symbol %d" v)
  else t.names.(v)

let count () = (Atomic.get table).count
