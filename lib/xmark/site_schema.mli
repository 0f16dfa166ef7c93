open Xut_schema

(** The built-in regular-tree-grammar schema of the XMark [site]
    vocabulary — exactly the grammar {!Generator} produces, so
    generated documents always validate against it. *)

val schema_name : string
(** ["xmark"]. *)

val bench_schema_name : string
(** ["xmark-bench"]: {!schema} widened so the write marker element
    ([xut_bench_promo]) is allowed under every element of the
    [site/open_auctions/open_auction/annotation/description] spine.
    perfbench's [mixed_rw] commits that marker under every
    [open_auction]; a document loaded under this variant keeps its
    binding, and so its pruning, across such commits (the service and
    schema tests exercise exactly that). *)

val schema : Schema.t Lazy.t

val register : unit -> unit
(** Put both schemas in the {!Xut_schema.Schema} registry (the CLI and
    the tests call this at startup). *)
