(* Message transformation (the fourth application of Example 1.1):
   produce modified versions of an XML message without destroying the
   original — e.g. redacting, renaming for a partner schema, and
   stamping a routing header, each as a transform query.

     dune exec examples/message_transform.exe *)

open Core

let message =
  {|<order id="o-1871">
      <customer>
        <name>Ada L.</name>
        <creditcard>4000 1234 5678 9010</creditcard>
      </customer>
      <items>
        <item sku="K-100"><qty>2</qty><unit_price>79.00</unit_price></item>
        <item sku="M-7"><qty>1</qty><unit_price>25.50</unit_price></item>
      </items>
    </order>|}

(* The whole pipeline is one compound transform query: redact payment
   data, rename for the partner schema, stamp the routing header.  The
   updates apply left to right, each to the previous one's result. *)
let pipeline =
  {|transform copy $a := doc("order") modify do (
      delete $a/order/customer/creditcard,
      rename $a/order/items as lines,
      insert <routing system="warehouse-7" priority="2"/> into $a/order
    ) return $a|}

let () =
  let original = Xut_xml.Dom.parse_string message in
  print_endline "-- the compound transform query --";
  print_endline pipeline;
  let final =
    List.fold_left
      (fun doc u -> Engine.transform Engine.Gentop u doc)
      original (Transform_parser.parse_updates pipeline)
  in
  print_endline "\n-- outgoing message --";
  print_endline (Xut_xml.Serialize.element_to_string ~indent:2 final);
  print_endline "\n-- original message (untouched) --";
  print_endline (Xut_xml.Serialize.element_to_string ~indent:2 original)
