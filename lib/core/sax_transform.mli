open Xut_xml
open Xut_automata

(** Algorithm [twoPassSAX] (Section 6): transform-query evaluation as two
    passes of SAX parsing, never materializing the document as a tree;
    and the single-parse tiers built from the same two passes.

    Pass 1 integrates the bottom-up qualifier evaluation with parsing: a
    stack mirrors the open-element path, QualDP runs at each end-tag, and
    the truth of every top-level qualifier is recorded in the list [Ld],
    keyed by the document-order element number (our stand-in for the
    paper's cursor ids; see DESIGN.md).  Pass 2 replays the parse running
    the selecting NFA, consulting [Ld] for qualifier checks — pass 2 keeps
    both the unfiltered state sets (for cursor alignment with pass 1) and
    the filtered ones (for selection) — and emits the transformed document
    as an output event stream.

    Three drivers share the passes:
    - {!run} is the paper's algorithm: pass 1 over the whole input, then
      pass 2 over a second read of it.  Memory is bounded by the
      document depth times the query size, plus [Ld].
    - {!run_buffered} runs pass 2 over one read.  An element whose
      selection waits on a qualifier opens an {e undecided region}: its
      events are held while pass 1 runs over them alone, and replay
      through pass 2 at its end-tag, when every truth inside it is known
      (fragment X's qualifiers are downward).  Past {!buffer_budget}
      bytes of held markup the run switches to two parses at that point.
    - {!run_once} is the buffered driver for plans that never open a
      region ({!one_pass}): pass 2 alone, O(depth) memory.

    Each run adds the elements pass 2 saw to {!Stats.nodes_visited}.

    {2 Steered ingest}

    Given the handle of the parse that feeds it ([?steer], the same
    handle the source's parse was given, {!Sax.steer}), the single-parse
    drivers steer that parse past what pass 2 would only drop or copy.
    When pass 2 admits, outside an undecided region, an element whose
    subtree is deleted or replaced, the parser skips the element's rest;
    when the element is unmatched and its filtered state set is empty
    (nothing below it can match), the parser writes the rest straight
    into the handle's writer — which must be the writer [sink]
    serializes into ({!Serialize.Sink.writer} of the sink whose
    {!Serialize.Sink.event} is [sink]).  Inside an undecided region, an
    element pass 1 skips (an empty unchecked state set and no seeds) is
    one pass 2 can only copy or drop: the parser copies it whole into a
    recorder ({!Xut_xml.Sax.copy_rest_to}), the region holds those bytes
    in place of its events, and the replay writes them into the sink's
    writer, flushing where the events would have.  The bytes, chunk
    boundaries, errors and run statistics are those of the unsteered
    run.  What pass 1 reads inside a region, tree sources and {!run} go
    through events.

    {2 Allocation}

    A run allocates the events it makes and their strings, and nothing
    per element beside them: both passes keep their frames in arrays
    indexed by depth, an element written under its own name is written
    as the input's own event, and the buffered driver interns each
    start-tag once.  Pass 1 allocates nothing at a seeded element
    either: what it evaluates there is computed once per run for each
    (parent candidates, state set, label) ({!Annotator.demand}), QualDP
    writes into a scratch the run owns ({!Xut_xpath.Lq.eval}), a seeded
    frame reuses its depth's [csat] array, and Ld is an int-keyed table
    ({!Truth}).  A steered subtree makes no events at all, so a fused
    run into a serializer allocates next to nothing beyond the start-tags
    of the elements pass 2 walks, and a buffered one beyond the events
    its regions' pass 1 reads. *)

exception Unsupported_streaming of string
(** Raised for context qualifiers (paths starting with a qualified '.'),
    which would require evaluating a qualifier at the virtual document
    node before any input is seen. *)

type source = (Sax.event -> unit) -> unit
(** Something that can replay the document's events, twice
    (e.g. [Sax.parse_file path] or [Sax.events_of_tree root]). *)

type run_stats = {
  max_stack_depth : int;
      (** peak open-element stack: pass 1's for {!run}, either pass's
          for the single-parse drivers *)
  truth_entries : int;    (** peak size of Ld *)
  elements_seen : int;
  skipped_subtrees : int;
      (** subtrees the schema skip-set pruned in pass 1 of {!run}; 0 for
          the single-parse drivers, which take no skip-set *)
  skipped_elements : int;  (** elements inside those subtrees (exact count) *)
  regions : int;  (** undecided regions {!run_buffered} held (0 for the other drivers) *)
  parses : int;
      (** reads of the source: 2 for {!run} and for a buffered run past
          the budget, 1 otherwise *)
  peak_held_bytes : int;
      (** the most markup an undecided region of {!run_buffered} held,
          as events or as bytes, counted as {!Xut_xml.Sax.markup_bytes}
          of its events: {!buffer_budget} once a region passed it, 0 for
          the other drivers *)
}

(** Ld, the truth list: the truth of LQ expression [lq] at the element
    numbered [seq] (-1 for the document node), for a list of [nlq]
    expressions.  An open-addressing table over int keys: {!Truth.set}
    and {!Truth.get} allocate nothing. *)
module Truth : sig
  type t

  val create : nlq:int -> t
  val set : t -> int -> int -> bool -> unit
  val get : t -> int -> int -> bool
  (** [false] for an entry never set. *)

  val length : t -> int
  (** Entries set since the last {!clear}. *)

  val clear : t -> unit
end

val run :
  ?skip:(Sym.t -> bool) ->
  Selecting_nfa.t ->
  Transform_ast.update ->
  source:source ->
  sink:(Sax.event -> unit) ->
  run_stats
(** [skip], when given, is a schema skip-set oracle over element symbols
    ({!Xut_schema.Schema.skippable}): a [true] answer promises no node at
    or below such an element can be selected or contribute a qualifier
    truth, so pass 1 skips the subtree (no frames, no truth entries) and
    pass 2 copies its events to the sink verbatim, with no transitions.
    @raise Transform_ast.Invalid_update when the update deletes the
    document element. *)

val buffer_budget : int
(** Bytes of held markup past which {!run_buffered} stops holding a
    region and reads the input a second time: 512 KiB, counted as
    {!Xut_xml.Sax.markup_bytes} of the region's events, whether it holds
    them as events or as bytes. *)

val run_buffered :
  ?steer:Sax.steer ->
  Selecting_nfa.t ->
  Transform_ast.update ->
  source:source ->
  sink:(Sax.event -> unit) ->
  run_stats
(** The buffered one-pass transform: output byte-identical to {!run}'s.
    At a start-tag whose unchecked transition enters a qualifier-bearing
    state, an undecided region opens: its events are held and pass 1
    runs over them alone, from pass 2's states at the region's parent;
    at the region's end-tag the held events replay through pass 2 and
    the region's truths are dropped.  Outside regions the cost is
    {!run_once}'s.  The [source] is read once, unless a region's held
    markup passes {!buffer_budget}: the live read then goes on as pass 1
    to the end of the input, and a second read skips to the region's
    first element and resumes pass 2 there ([parses = 2]).  Output
    already written stays valid; no run reads the source more than
    twice.  A path that begins with [//.\[q\]] checks [q] at the document
    node, known only at the end of the input, and runs as {!run}.
    [steer] is described above; a run past the budget steers its second
    read too.
    @raise Unsupported_streaming for a context qualifier.
    @raise Transform_ast.Invalid_update when the update deletes the
    document element. *)

val one_pass : Selecting_nfa.t -> bool
(** [one_pass nfa] is [true] when the compiled plan never consults the
    bottom-up truth table: the context qualifier is trivially true and no
    NFA state carries a qualifier.  Such plans are fully streamable in a
    single forward pass ({!run_once}) with O(depth) memory — the
    degenerate forest-transducer decomposition where the bottom-up
    automaton is empty. *)

val run_once :
  ?steer:Sax.steer ->
  Selecting_nfa.t ->
  Transform_ast.update ->
  source:source ->
  sink:(Sax.event -> unit) ->
  run_stats
(** Fused single-pass transform: pass 2 alone over one reading of the
    input, for plans where {!one_pass} holds.  The [source] is consumed
    exactly once, so it may be a non-replayable stream (a socket, a
    pipe).  This is {!run_buffered} behind a guard: a plan without
    qualifiers never opens a region.  Returned stats have
    [truth_entries = 0], [regions = 0] and [parses = 1].
    @raise Unsupported_streaming when [one_pass nfa] is [false].
    @raise Transform_ast.Invalid_update when the update deletes the
    document element. *)

type tier =
  | Streamed
      (** {!run_buffered}, which costs what {!run_once} does when
          {!one_pass} holds *)
  | Materialized  (** a tree walk: a context qualifier *)

val tier : Selecting_nfa.t -> tier
(** The streaming tier of a plan over a file, as the service's
    TRANSFORM-STREAM FILE and [xut transform --stream] pick it.  Only a
    file is asked: it is the input that is not in memory, and a buffered
    run past its budget can read it again.  A stored document is always
    walked as a tree. *)

val transform : Transform_ast.update -> Node.element -> Node.element
(** Run the streaming algorithm over an in-memory tree (events replayed
    from the tree, result rebuilt by the DOM builder) — the configuration
    used by the equivalence tests and the Fig. 12 bench. *)

val transform_file : Transform_ast.update -> src:string -> out:Buffer.t -> run_stats
(** Parse [src] twice and serialize the transformed document into [out]
    (the Fig. 14 configuration). *)
