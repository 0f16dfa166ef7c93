(* What-if analytics: aggregate queries over hypothetical worlds.
   Combines transform queries (the hypothetical update) with the XQuery
   engine's aggregates — "what would our auction stats look like if we
   purged the suspicious accounts?"

     dune exec examples/whatif_analytics.exe *)

open Core
open Xut_xquery

let metric doc label =
  let env = Xq_eval.env ~context:doc () in
  let one src =
    match Xq_eval.run_query env src with
    | [ item ] -> Xq_value.string_of_item item
    | items -> string_of_int (List.length items)
  in
  Printf.printf "%-28s %8s %10s %10s %8s\n" label
    (one "count(site/open_auctions/open_auction)")
    (one "round(avg(site/open_auctions/open_auction/current))")
    (one "max(site/open_auctions/open_auction/bidder/increase)")
    (one "count(site/people/person)")

let () =
  let doc = Xut_xmark.Generator.generate ~factor:0.01 () in
  Printf.printf "%-28s %8s %10s %10s %8s\n" "world" "auctions" "avg-price" "max-raise" "people";
  metric doc "actual";

  (* world 1: purge auctions without a reserve *)
  let w1 =
    Engine.transform Engine.Td_bu
      (Transform_parser.parse_update
         "delete $a/site/open_auctions/open_auction[not(reserve)]")
      doc
  in
  metric w1 "no-reserve purged";

  (* world 2: additionally anonymize people (chained hypothetical) *)
  let w2 =
    List.fold_left
      (fun doc u -> Engine.transform Engine.Gentop u doc)
      w1
      (Transform_parser.parse_updates
         {|(delete $a/site/people/person/creditcard,
            delete $a/site/people/person/phone,
            rename $a/site/people/person/emailaddress as contact)|})
  in
  metric w2 "  + anonymized";

  (* the real database never changed *)
  metric doc "actual (still)";

  (* a hypothetical aggregate in one expression: what-if via the engine *)
  let env = Xq_eval.env ~context:doc () in
  let bids_over_10 =
    Xq_eval.run_query env
      "count(site/open_auctions/open_auction/bidder[increase > 10])"
  in
  Printf.printf "\nbids with increase > 10 (actual): %s\n"
    (Xq_value.string_of_item (List.hd bids_over_10))
