open Xut_automata

(** Mutex-protected LRU memo of {!Xut_automata.Annotator} tables, keyed
    by document root id — the doc-dependent half of TD-BU's work,
    reusable because stored snapshots are immutable.  One memo lives in
    every cached transform plan ({!Plan_cache.plan}) and in every stored
    view definition ({!View_store}); the document store's lifecycle
    events drive {!invalidate}/{!repair} against all of them. *)

type t

val create : unit -> t

val capacity : int
(** 8: the per-memo bound on memoized annotation tables.  Overflow
    evicts only the least-recently-used document's table. *)

val find :
  ?skip:(Xut_xml.Node.element -> bool) ->
  t ->
  Selecting_nfa.t ->
  Xut_xml.Node.element ->
  Annotator.table
(** The memoized bottom-up annotation of this document for [nfa],
    computing and remembering it on first use.  The table is built
    outside the memo lock, so concurrent first uses may annotate twice;
    one insert wins and both tables are valid.  [skip] (a schema
    skip-set oracle, see {!Xut_automata.Annotator.annotate}) only speeds
    the build: the resulting table is identical with or without it, so
    tables stay shareable across schema-on and schema-off callers. *)

val count : t -> int

val invalidate : t -> root_id:int -> bool
(** Drop the table for one document root, if present. *)

val repair :
  ?footprint:Annotator.commit_footprint Lazy.t ->
  t ->
  Selecting_nfa.t ->
  old_root_id:int ->
  spine:(int, Xut_xml.Node.element) Hashtbl.t ->
  Xut_xml.Node.element ->
  [ `Absent | `Fallback | `Repaired of Annotator.repair_stats ]
(** Commit-time maintenance: carry the departing root's table to the
    new root via {!Xut_automata.Annotator.repair} (a re-key, or a fresh
    annotation when the plan can observe the commit) and memoize it.  [`Absent] when nothing was cached for the old root;
    [`Fallback] when the diff is degenerate (document element replaced)
    and the old entry was evicted instead.  On success the old root's
    entry is {e kept} for in-flight readers of the pre-commit snapshot
    and ages out of the LRU like any other entry.  [footprint] is passed
    to the repair: the commit's label footprint, shared by every repair
    of one commit. *)
