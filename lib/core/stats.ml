type snapshot = { visited : int; copied : int; shared : int }

(* One mutable cell per domain, reached through domain-local storage, so
   the per-element ticks on the engines' hot paths never contend across
   domains.  Cells are registered in an atomic list the moment a domain
   first ticks; [read]/[reset] fold over the registry.  A domain's cell
   outlives it, so counts from joined workers stay visible. *)

type cell = { mutable visited : int; mutable copied : int; mutable shared : int }

let registry : cell list Atomic.t = Atomic.make []

let rec register c =
  let cur = Atomic.get registry in
  if not (Atomic.compare_and_set registry cur (c :: cur)) then register c

let key =
  Domain.DLS.new_key (fun () ->
      let c = { visited = 0; copied = 0; shared = 0 } in
      register c;
      c)

let cell () = Domain.DLS.get key

let visit () =
  let c = cell () in
  c.visited <- c.visited + 1

let visits n =
  let c = cell () in
  c.visited <- c.visited + n

let copy () =
  let c = cell () in
  c.copied <- c.copied + 1

let share () =
  let c = cell () in
  c.shared <- c.shared + 1

let reset () =
  List.iter
    (fun c ->
      c.visited <- 0;
      c.copied <- 0;
      c.shared <- 0)
    (Atomic.get registry)

let read () =
  List.fold_left
    (fun (acc : snapshot) c ->
      {
        visited = acc.visited + c.visited;
        copied = acc.copied + c.copied;
        shared = acc.shared + c.shared;
      })
    { visited = 0; copied = 0; shared = 0 }
    (Atomic.get registry)

let pp ppf (s : snapshot) =
  Format.fprintf ppf "visited=%d copied=%d shared=%d" s.visited s.copied s.shared
