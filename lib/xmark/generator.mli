open Xut_xml

(** Synthetic XMark-style documents (the substitute for xmlgen; see
    DESIGN.md "Substitutions").

    The generator reproduces the auction-site schema shape of XMark
    [Schmidt et al., VLDB 2002] — regions/items, people/profiles, open
    and closed auctions, and the recursive parlist/listitem description
    structure with [emph]/[keyword] inline markup — together with the
    value distributions the Fig. 11 queries select on:

    - person ids ["person0"], ["person1"], ... (U2)
    - [profile/age] in 18..60, present with p=0.6 (U3)
    - [location = "United States"] with p=0.75 (U9)
    - [bidder/increase] in 1..30 (U7, U10), [initial], [reserve] (U8)
    - [annotation/happiness] in 0..29 (U7)
    - closed-auction descriptions nest parlists two deep with
      [text/emph/keyword] inside (U6)

    Element counts scale linearly with [factor], using XMark's own
    proportions (21750 items, 25500 persons, 12000 open and 9750 closed
    auctions at factor 1.0). *)

type counts = {
  items : int;
  persons : int;
  open_auctions : int;
  closed_auctions : int;
  categories : int;
}

val counts : factor:float -> counts

val generate : ?seed:int64 -> factor:float -> unit -> Node.element
(** Build the [site] document element.  Deterministic for a given
    [seed] (default 42) and [factor]. *)

val to_file : ?seed:int64 -> factor:float -> string -> unit
(** Serialize the same document to a file (["-"]: to stdout) without
    holding the tree: each second-level subtree is written and dropped as
    soon as it is built, and only the region items, which are drawn
    before the first region is written, are held, as strings.  The bytes
    are [Serialize.element_to_string (generate ~seed ~factor ())]: both
    writers run one walk, which alone fixes the section order and the
    order in which the PRNG is consumed.  Used for the large documents
    of the Fig. 14 experiment. *)
