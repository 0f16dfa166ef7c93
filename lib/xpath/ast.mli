(** Abstract syntax of the XPath fragment X (Section 2), extended with
    the comparison operators and attribute tests that the paper's own
    benchmark queries (Fig. 11) use.

    A path is a sequence of steps; each step is a navigation (label,
    wildcard, or descendant-or-self) plus a list of qualifiers.  [Self]
    steps ('.') are accepted by the parser and eliminated by
    {!Norm.steps}. *)

type nav =
  | Self
  | Label of string
  | Wildcard
  | Descendant  (** the '//' separator, i.e. /descendant-or-self::node()/ *)

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type value = V_str of string | V_num of float

type path = step list

and step = { nav : nav; quals : qual list }

and qual =
  | Q_true
  | Q_exists of source            (** path existence, e.g. [supplier] *)
  | Q_cmp of source * cmp * value (** e.g. [price < 15], [@id = "x"] *)
  | Q_label of string             (** label() = l *)
  | Q_and of qual * qual
  | Q_or of qual * qual
  | Q_not of qual

(** A qualifier's value source: a relative path (possibly empty, meaning
    the context node), optionally ending in an attribute selection. *)
and source = { spath : path; sattr : string option }

val step : ?quals:qual list -> nav -> step
val self_source : source
val attr_source : string -> source
val path_source : path -> source

val q_and : qual list -> qual
(** Conjunction of a list ([Q_true] when empty). *)

val compare_values : cmp -> string -> value -> bool
(** [compare_values op s v] — numeric comparison when [v] is numeric and
    [s] parses as a number, string comparison otherwise.  A numeric
    literal compared against non-numeric text is [false]. *)

val equal_path : path -> path -> bool

val path_to_string : path -> string
val qual_to_string : qual -> string
val cmp_to_string : cmp -> string
