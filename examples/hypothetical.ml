(* Hypothetical ("what-if") queries: ask a question about the state the
   database WOULD be in after an update, without performing it — the
   classic "Q when {U}" pattern the paper traces back to hypothetical
   datalog.

     dune exec examples/hypothetical.exe *)

open Core

let nodes () =
  Xut_xml.Counter.(value Stats.nodes_visited, value Stats.nodes_copied, value Stats.nodes_shared)

let count doc path =
  List.length (Xut_xpath.Eval.select_doc doc (Xut_xpath.Parser.parse path))

let () =
  let doc = Xut_xmark.Generator.generate ~factor:0.01 () in

  (* What if we purged all auctions with low-ball bidders?  How many
     open auctions would remain, and how many bids would we lose? *)
  let purge =
    Transform_parser.parse
      {|transform copy $a := doc("site") modify
          do delete $a/site/open_auctions/open_auction[bidder/increase < 3]
        return $a|}
  in
  let before_auctions = count doc "site/open_auctions/open_auction" in
  let before_bids = count doc "site/open_auctions/open_auction/bidder" in

  (* TD-BU: annotate qualifiers bottom-up once, then one top-down pass. *)
  let v0, c0, s0 = nodes () in
  let world = Engine.run Engine.Td_bu purge ~doc in
  let v1, c1, s1 = nodes () in

  let after_auctions = count world "site/open_auctions/open_auction" in
  let after_bids = count world "site/open_auctions/open_auction/bidder" in

  Printf.printf "open auctions:  %4d -> %4d\n" before_auctions after_auctions;
  Printf.printf "bids:           %4d -> %4d\n" before_bids after_bids;
  Printf.printf "(engine visited %d elements, copied %d, shared %d subtrees)\n\n"
    (v1 - v0) (c1 - c0) (s1 - s0);

  (* Chained what-if: on that hypothetical state, what if US items were
     additionally flagged?  Transform queries compose like functions. *)
  let flag =
    Transform_parser.parse
      {|transform copy $a := doc("site") modify
          do insert <flagged reason="audit"/> into
             $a/site/regions//item[location = "United States"]
        return $a|}
  in
  let world2 = Engine.run Engine.Gentop flag ~doc:world in
  Printf.printf "flagged items in the second hypothetical world: %d\n"
    (count world2 "site/regions//item/flagged");
  Printf.printf "flags in the real database: %d\n" (count doc "site/regions//item/flagged");
  Printf.printf "the real database still has %d auctions.\n"
    (count doc "site/open_auctions/open_auction")
