open Xut_xml

(** Named store of parsed documents, generation-stamped.

    A document is parsed once — [LOAD] in the service protocol — and the
    resulting immutable {!Node.element} is handed out to every request
    that names it.  Because transform queries never mutate their input
    (the whole point of the paper), concurrent workers can evaluate
    against the same stored tree with no copying and no locking beyond
    one short table lookup.

    The store is one table behind two locks: a writer lock serializing
    every binding change ({!register}, {!evict}, {!commit}) and a reader
    lock held only across a table read or write, so lookups never wait
    on a commit in progress.

    Every successful {!register} (a [LOAD], whether fresh or a reload)
    stamps the entry with a store-wide monotone {b generation}, making
    document identity explicit: two loads under the same name are
    distinguishable, and downstream caches can tell a reloaded tree from
    the one they annotated.  Lifecycle transitions — an entry removed by
    {!evict}, or replaced by a re-{!register} — are published to
    {!subscribe}rs so caches keyed by the old tree can invalidate
    exactly that document. *)

type info = {
  name : string;
  file : string option;  (** origin path, when loaded from disk *)
  elements : int;        (** element count ({!Node.elements} of the root) *)
  generation : int;      (** monotone load stamp, unique per register *)
  schema : string option;
      (** the registered {!Xut_schema.Schema} the binding conforms to,
          when it was loaded under one.  Maintained across commits by
          incremental revalidation; dropped (not an error) the moment a
          committed tree stops conforming. *)
}

(** Why a tree left the store: {!evict} ([Unloaded]), a re-register
    under the same name ([Replaced]), or a {!commit} that swapped in a
    derived tree ([Committed]). *)
type reason = Unloaded | Replaced | Committed

type repair_hint = {
  new_root : Node.element;  (** the tree that replaced the departing one *)
  spine : (int, Node.element) Hashtbl.t;
      (** rebuilt-spine map (fresh id -> replaced old element), see
          {!Xut_update.Apply.diff} *)
}
(** Enough of a [Committed] swap's diff for downstream caches to repair
    their per-tree state incrementally instead of evicting it. *)

type event = {
  name : string;
  root_id : int;     (** {!Node.id} of the departing tree's root *)
  generation : int;  (** of the {e new} binding for [Replaced], of the
                         removed one for [Unloaded] *)
  reason : reason;
  repair : repair_hint option;
      (** [Committed] swaps that supplied a diff; always [None] for
          [Unloaded]/[Replaced] *)
  schema_dropped : bool;
      (** [Committed] only: the commit's revalidation found the derived
          tree no longer conforms (or the schema name has been
          unregistered), so the binding lost its schema and pruning is
          off for the document from this generation on.  Surfaced so the drop is observable (a wire
          notice and a [schema_bindings_dropped] counter) instead of
          silent. *)
}

type t

val create : unit -> t

val subscribe : t -> (event -> unit) -> unit
(** Register a lifecycle listener.  Listeners run synchronously on the
    thread performing the {!evict}/{!register}, in subscription order,
    {e outside} both table locks — re-entering the store from a listener
    is safe. *)

val register :
  t ->
  name:string ->
  ?file:string ->
  ?schema:string ->
  Node.element ->
  (info * bool, string) result
(** Register an already-built tree under [name], replacing any previous
    binding.  The [bool] is [true] when a previous binding was replaced
    (a reload) — in that case a [Replaced] event fires for the old
    tree before this returns.  With [schema], the tree is validated
    against the registered schema of that name {e before} anything is
    published: on nonconformance (or an unknown schema name) the load
    fails and the store is untouched. *)

val load_file :
  t -> name:string -> ?schema:string -> string -> (info * bool, string) result
(** Parse the file (outside any store lock) and {!register} it. *)

val find : t -> string -> Node.element option
val info : t -> string -> info option

type image_cell
(** Where a binding keeps its reply image ({!Serialize.Image}). *)

val snapshot : t -> string -> (Node.element * info * image_cell) option
(** The full binding in one locked read: tree, info, and the cell of its
    reply image, for {!reply_image}. *)

val reply_image : image_cell -> Serialize.Image.t
(** The binding's reply image.  The first call builds it from the
    snapshot's root and publishes it with a compare-and-set, so racing
    domains all get a valid image.  A {!commit} carries the image to
    the new root (the ids it shares with the old root name the same
    bytes, and its rebuilt spine simply misses); a re-{!register}
    starts without one, and {!evict} drops it.  It costs one more copy
    of the document's bytes per binding. *)

val evict : t -> string -> bool
(** Remove a binding; [false] when the name was not bound.  On removal
    an [Unloaded] event fires before this returns.  In-flight requests
    holding the tree are unaffected (it is immutable and
    garbage-collected when they finish). *)

val names : t -> string list
(** Bound names, sorted. *)

(** {2 Commits (the write path)}

    A commit derives a new tree from the current binding and swaps it in
    atomically: read the root, evaluate, replace — serialized against
    every other binding change ({!register}, {!evict}, other commits) on
    the store's writer lock, so no concurrent write is lost.  Readers
    never wait on a commit in progress: {!find} keeps returning the old
    root until the instant of the swap, and requests already holding the
    old root keep a consistent snapshot (trees are immutable — MVCC by
    persistence). *)

(** Outcome of a {!commit}. *)
type ('a, 'e) commit_result =
  | Swapped of info * 'a
      (** the derived tree is now the binding; [info] carries its fresh
          generation.  Exactly one [Committed] event fired for the old
          root before this returned. *)
  | Unchanged of info * 'a
      (** the update function produced no new tree (an empty pending
          list): the binding, its generation and every cache stay as
          they were — {e no} event fires. *)
  | Rejected of 'e  (** the update function refused; nothing changed *)
  | No_document     (** the name is not bound *)

val commit :
  t ->
  name:string ->
  (info ->
  Node.element ->
  ((Node.element * (int, Node.element) Hashtbl.t option) option * 'a, 'e) result) ->
  ('a, 'e) commit_result
(** [commit t ~name f] calls [f info root] on the current binding —
    under the store's writer lock but outside its reader lock — and, on
    [Ok (Some (root', spine), a)], swaps [root'] in under a fresh
    store-wide generation, keeping the old binding's [file] as
    provenance.  The [Committed] event (old root's id, new generation,
    and a {!repair_hint} when [f] supplied the rebuilt-spine map) fires
    after all locks are released.  [f] must not re-enter the store's
    write operations. *)
