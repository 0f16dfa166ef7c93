type t = int

(* Every domain that bumps owns one cell per counter, reached through
   domain-local storage, so a bump contends with nothing.  A domain's
   cells are registered in an atomic list the first time it bumps and
   outlive it, so counts from joined workers stay in the sums.  A cell
   array made before a later declaration grows on that counter's first
   bump. *)

type local = { mutable a : int array }

let names : string array Atomic.t = Atomic.make [||]
let registry : local list Atomic.t = Atomic.make []

let rec declare name =
  let cur = Atomic.get names in
  if Atomic.compare_and_set names cur (Array.append cur [| name |]) then Array.length cur
  else declare name

let rec register c =
  let cur = Atomic.get registry in
  if not (Atomic.compare_and_set registry cur (c :: cur)) then register c

let key =
  Domain.DLS.new_key (fun () ->
      let c = { a = Array.make (Array.length (Atomic.get names)) 0 } in
      register c;
      c)

let grow_add c i n =
  let a = Array.make (Array.length (Atomic.get names)) 0 in
  Array.blit c.a 0 a 0 (Array.length c.a);
  a.(i) <- n;
  c.a <- a

let[@inline] add_in c i n =
  let a = c.a in
  if i < Array.length a then Array.unsafe_set a i (Array.unsafe_get a i + n) else grow_add c i n

let local () = Domain.DLS.get key
let add i n = add_in (local ()) i n
let bump i = add_in (local ()) i 1
let bump_local c i = add_in c i 1
let add_local c i n = add_in c i n

let value i =
  List.fold_left
    (fun acc c ->
      let a = c.a in
      if i < Array.length a then acc + a.(i) else acc)
    0 (Atomic.get registry)

let values () = Array.to_list (Array.mapi (fun i name -> (name, value i)) (Atomic.get names))
