type t = {
  words : int;
  mutable keys : int array;
  mutable vals : int array;
  mutable count : int;
  mutable base : int;
}

let absent = min_int
let hashed = min_int

let create ?(base = hashed) ~words slots =
  { words; keys = Array.make slots absent; vals = Array.make (slots * words) 0; count = 0; base }

let copy t = { t with keys = Array.copy t.keys; vals = Array.copy t.vals }
let length t = t.count

let[@inline] home t key =
  let mask = Array.length t.keys - 1 in
  if t.base = hashed then
    let h = key * 0x9e3779b97f4a7c1 in
    (h lxor (h lsr 29)) land mask
  else (key - t.base) land mask

(* [key]'s slot, or the free slot that ends its probe *)
let[@inline] slot t key =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let j = ref (home t key) in
  while
    let k = Array.unsafe_get keys !j in
    k <> key && k <> absent
  do
    j := (!j + 1) land mask
  done;
  !j

let[@inline] find t key =
  let s = slot t key in
  if Array.unsafe_get t.keys s = key then s else -1

let place t key =
  let s = slot t key in
  if Array.unsafe_get t.keys s <> key then begin
    t.keys.(s) <- key;
    t.count <- t.count + 1
  end;
  s

let copy_entry ~src si dst di =
  let w = dst.words in
  for k = 0 to w - 1 do
    Array.unsafe_set dst.vals ((di * w) + k) (Array.unsafe_get src.vals ((si * w) + k))
  done

let resize ?base t n =
  let old = { t with count = 0 } in
  t.keys <- Array.make n absent;
  t.vals <- Array.make (n * t.words) 0;
  Option.iter (fun b -> t.base <- b) base;
  Array.iteri
    (fun j key ->
      if key <> absent then begin
        let s = slot t key in
        t.keys.(s) <- key;
        copy_entry ~src:old j t s
      end)
    old.keys

let claim t key =
  if 2 * (t.count + 1) > Array.length t.keys then resize t (max 16 (2 * Array.length t.keys));
  let s = place t key in
  Array.fill t.vals (s * t.words) t.words 0;
  s

(* The hole at slot [hole] filled from the run after it, [j] the last
   slot looked at: the slot left free.  An entry may move back into the
   hole unless its home lies cyclically in (hole, j]. *)
let rec shift t hole j =
  let keys = t.keys in
  let j = (j + 1) land (Array.length keys - 1) in
  let k = Array.unsafe_get keys j in
  if k = absent then hole
  else
    let h = home t k in
    if if hole <= j then h <= hole || h > j else h <= hole && h > j then begin
      keys.(hole) <- k;
      copy_entry ~src:t j t hole;
      shift t j j
    end
    else shift t hole j

let remove t key =
  let s = find t key in
  s >= 0
  &&
  begin
    t.keys.(shift t s s) <- absent;
    t.count <- t.count - 1;
    true
  end

let iter f t = Array.iteri (fun s key -> if key <> absent then f key s) t.keys

let wrapped t =
  let n = ref 0 in
  iter (fun key s -> if home t key > s then incr n) t;
  !n

let longest_probe t =
  let mask = Array.length t.keys - 1 and n = ref 0 in
  iter (fun key s -> n := max !n ((s - home t key) land mask)) t;
  !n
