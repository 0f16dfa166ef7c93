(** Normalization of X expressions (Sections 3.4 and 5).

    A path is rewritten to the equivalent form
    [beta_1\[q_1\]/.../beta_k\[q_k\]] where each [beta_i] is a label, a
    wildcard, or descendant-or-self; ['.'] steps are eliminated by folding
    their qualifiers into the preceding step (or into the context
    qualifiers when leading). *)

type nnav = N_label of string | N_wild | N_desc

type nstep = { nav : nnav; quals : Ast.qual list }

type t = {
  ctx_quals : Ast.qual list;  (** qualifiers applying to the context node *)
  steps : nstep list;
}

val steps : Ast.path -> t

val to_path : t -> Ast.path
(** The steps (context qualifiers dropped) as a plain path. *)

val to_string : t -> string
