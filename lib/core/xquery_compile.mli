open Xut_xml

(** The Top Down method compiled to {e standard XQuery} (Section 3.3).

    The paper's GENTOP/TD-BU measurements come from running the automaton
    algorithms "implemented in XQuery on top of Qizx".  This module
    produces that artifact: the selecting NFA is encoded as an XQuery
    function over state sets (sequences of numbers), qualifier checks
    become inline path predicates evaluated by the host engine, and the
    recursive [local:apply] function is Fig. 3's topDown verbatim —

    {v
    declare function local:next($states, $n) { ... delta ... };
    declare function local:apply($n, $states) {
      if (xut:is-element($n)) then
        let $next := local:next($states, $n)
        return if (empty($next)) then $n
        else element {local-name($n)} { ... recurse, apply update ... }
      else $n
    };
    document { for $n in doc("T")/* return local:apply($n, (0, ...)) }
    v}

    Unlike the Naive rewriting (Fig. 2, {!Xquery_rewrite}), the compiled
    query never materializes [$xp] and never runs the quadratic
    membership scan: the host engine executes the automaton.  The
    NAIVE-vs-GENTOP comparison of the paper's Fig. 12 can therefore be
    reproduced {e on an XQuery engine} (see the ablation bench). *)

val compile_to_string : Transform_ast.t -> string
(** The program as XQuery text (parseable by {!Xut_xquery.Xq_parser}). *)

val compile_tdbu_to_string : Transform_ast.t -> string

val run : Transform_ast.t -> doc:Node.element -> Node.element
(** Compile and evaluate on the mini engine. *)

val run_tdbu : Transform_ast.t -> doc:Node.element -> Node.element
