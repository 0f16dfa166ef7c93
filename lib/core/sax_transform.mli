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
    - {!run_buffered} runs pass 2 over one read of a re-readable input.
      An element whose selection waits on a qualifier opens an
      {e undecided region}: pass 1 alone runs over it, and at its
      end-tag, when every truth inside it is known (fragment X's
      qualifiers are downward), pass 2 re-reads the region's bytes from
      the input through a second reader.  Nothing of a region is held.
    - {!run_once} is pass 2 alone over one read of any source, for plans
      that never open a region ({!one_pass}): O(depth) memory.

    Each run adds the start-tags pass 2 decided to
    {!Stats.nodes_visited}: every element, unless a steered parse copied
    or skipped it inside another.

    {2 Steered ingest}

    {!run_buffered}'s parses are steered ({!Sax.steer}): each asks the
    run about each start-tag at its name.  Outside a region, pass 2
    answers: a deleted or replaced element is skipped, and one that is
    unmatched with no state left (nothing below it can match) is copied
    into [copy_to], which must be the writer [sink] serializes into
    ({!Serialize.Sink.writer} of the sink whose {!Serialize.Sink.event}
    is [sink]).  Inside a region the live parse skips every subtree pass
    1 has nothing to evaluate in (the [reaches] bit of
    {!Xut_automata.Dfa.step}), and the re-read is steered for pass 2 as the
    live parse is.  Without
    [copy_to], every start-tag is walked as an event, and the bytes,
    chunk boundaries and errors are those of the steered run.

    {2 Allocation}

    A run allocates the events it makes and their strings, and nothing
    per element beside them: both passes keep their frames in arrays
    indexed by depth, an element written under its own name is written
    as the input's own event, and a steered run interns each start-tag
    once, in the parser.  Pass 1 allocates nothing at a seeded element
    either: what it evaluates there is computed once per plan for each
    (parent configuration, label), one step of the plan's lazy DFA
    ({!Xut_automata.Dfa.step}), QualDP
    writes into a scratch the run owns ({!Xut_xpath.Lq.eval}), a seeded
    frame reuses its depth's [csat] array, and Ld is an int-keyed table
    ({!Truth}).  A steered subtree makes no events at all, so a steered
    run into a serializer allocates next to nothing beyond the
    start-tags of the elements its passes walk. *)

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
  regions : int;  (** undecided regions {!run_buffered} opened (0 for the other drivers) *)
  parses : int;  (** whole reads of the source: 2 for {!run}, 1 otherwise *)
  reread_bytes : int;
      (** the bytes {!run_buffered}'s re-reads of its regions consumed
          (0 for the other drivers) *)
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

val run_buffered :
  ?copy_to:Writer.t ->
  ?keep_ws:bool ->
  Selecting_nfa.t ->
  Transform_ast.update ->
  input:Reader.input ->
  sink:(Sax.event -> unit) ->
  run_stats
(** The buffered one-pass transform: output byte-identical to {!run}'s.
    At a start-tag whose unchecked transition enters a qualifier-bearing
    state, an undecided region opens: pass 1 runs over it alone, from
    pass 2's states at the region's parent, and at the region's end-tag
    pass 2 re-reads it from the input and the region's truths are
    dropped.  Outside regions the cost is {!run_once}'s.  The input is
    read whole once ([parses = 1]), plus the regions' bytes
    ([reread_bytes]); a plan that opens no region ({!one_pass}) opens no
    second reader.  A path that begins with [//.\[q\]] checks [q] at
    the document node, known only at the end of the input, and runs as
    {!run}.  [copy_to] steers the parses (above); [keep_ws] is the
    parses' ({!Sax.parse_reader}).
    @raise Unsupported_streaming for a context qualifier, and for a plan
    that is not {!one_pass} over an input that cannot be read twice
    ({!Reader.rereadable}), before reading anything.
    @raise Sys_error when the file changed between a region's two
    reads: the re-read does not meet the element the live parse met,
    or, where both readers' windows still hold the region, not the same
    bytes, or, where they do not, the file's {!Reader.version} after the
    re-read is not the one the live parse opened (there a same-size
    rewrite within one tick of a coarse file-system clock is not
    seen).
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
  Selecting_nfa.t ->
  Transform_ast.update ->
  source:source ->
  sink:(Sax.event -> unit) ->
  run_stats
(** Fused single-pass transform: pass 2 alone over one reading of the
    input, for plans where {!one_pass} holds.  The [source] is consumed
    exactly once, so it may be a non-replayable stream (a socket, a
    pipe).  It is given events, so it steers nothing: {!run_buffered}
    is the steered form.  Returned stats have [truth_entries = 0],
    [regions = 0] and [parses = 1].
    @raise Unsupported_streaming when [one_pass nfa] is [false].
    @raise Transform_ast.Invalid_update when the update deletes the
    document element. *)

type tier =
  | Streamed
      (** {!run_buffered}, which costs what {!run_once} does when
          {!one_pass} holds *)
  | Materialized
      (** a tree walk: a context qualifier, or qualifiers over an input
          that cannot be read twice (a FIFO) *)

val tier : Selecting_nfa.t -> Reader.input -> tier
(** The streaming tier of a plan over an input, as the service's
    TRANSFORM-STREAM FILE and [xut transform --stream] pick it.  Only a
    file is asked: it is the input that is not in memory.  A stored
    document is always walked as a tree. *)

val transform : Transform_ast.update -> Node.element -> Node.element
(** Run the streaming algorithm over an in-memory tree (events replayed
    from the tree, result rebuilt by the DOM builder) — the configuration
    used by the equivalence tests and the Fig. 12 bench. *)

val transform_file : Transform_ast.update -> src:string -> out:Buffer.t -> run_stats
(** Parse [src] twice and serialize the transformed document into [out]
    (the Fig. 14 configuration). *)
