(** The engines' node counters.

    The paper's claim that the automaton methods "traverse only the
    necessary part of the tree" is observable through these: each engine
    bumps [nodes_visited] per element it examines, [nodes_copied] per
    element it rebuilds and [nodes_shared] per subtree it returns without
    inspection.  They are {!Xut_xml.Counter}s, so engines may run on
    several domains at once, and a reader takes the difference of two
    {!Xut_xml.Counter.value}s around a run.  topDown's walks and the
    write path's selection count in the walk and add their counts once,
    when the walk returns or raises.

    twoPassSAX counts pass 2's elements as visited, once per run, as
    TD-BU counts only its top-down pass.  The reference semantics is the
    oracle the engines are checked against and counts nothing. *)

val nodes_visited : Xut_xml.Counter.t
val nodes_copied : Xut_xml.Counter.t
val nodes_shared : Xut_xml.Counter.t
