open Xut_xml
open Xut_xmark

let select doc p = Xut_xpath.Eval.select_doc doc (Xut_xpath.Parser.parse p)

let doc = lazy (Generator.generate ~factor:0.004 ())

let test_deterministic () =
  let a = Generator.generate ~factor:0.002 () in
  let b = Generator.generate ~factor:0.002 () in
  Alcotest.(check bool) "same seed, same document" true (Node.equal_element a b);
  let c = Generator.generate ~seed:7L ~factor:0.002 () in
  Alcotest.(check bool) "different seed, different document" false (Node.equal_element a c)

let test_counts_scale () =
  let c1 = Generator.counts ~factor:0.01 in
  let c2 = Generator.counts ~factor:0.02 in
  Alcotest.(check bool) "items scale" true (abs (c2.Generator.items - (2 * c1.Generator.items)) <= 2);
  let d = Lazy.force doc in
  let c = Generator.counts ~factor:0.004 in
  Alcotest.(check int) "persons in document" c.Generator.persons
    (List.length (select d "site/people/person"));
  Alcotest.(check int) "items in document" c.Generator.items
    (List.length (select d "site/regions//item"));
  Alcotest.(check int) "open auctions" c.Generator.open_auctions
    (List.length (select d "site/open_auctions/open_auction"));
  Alcotest.(check int) "closed auctions" c.Generator.closed_auctions
    (List.length (select d "site/closed_auctions/closed_auction"))

let test_u_query_selectivity () =
  (* every Fig. 11 query must select something on generated data *)
  let d = Lazy.force doc in
  let nonempty p = List.length (select d p) > 0 in
  List.iter
    (fun p -> Alcotest.(check bool) p true (nonempty p))
    [ "site/people/person"; "site/people/person[@id = \"person10\"]";
      "site/people/person[profile/age > 20]"; "site/regions//item"; "site//description";
      "site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword";
      "site/open_auctions/open_auction[bidder/increase > 5]/annotation[happiness < 20]/description//text";
      "site/open_auctions/open_auction[initial > 10 and reserve > 50]/bidder";
      "site/regions//item[location = \"United States\"]";
      "site//open_auctions/open_auction[not(@id = \"open_auction2\")]/bidder[increase > 10]" ]

let test_us_location_bias () =
  let d = Lazy.force doc in
  let all = List.length (select d "site/regions//item") in
  let us = List.length (select d "site/regions//item[location = \"United States\"]") in
  let ratio = float_of_int us /. float_of_int all in
  Alcotest.(check bool)
    (Printf.sprintf "US share ~0.75 (got %.2f)" ratio)
    true
    (ratio > 0.6 && ratio < 0.9)

let test_streamed_equals_in_memory () =
  let tmp = Filename.temp_file "xmark" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Generator.to_file ~factor:0.002 tmp;
      let streamed = Dom.parse_file tmp in
      let in_memory = Generator.generate ~factor:0.002 () in
      Alcotest.(check bool) "to_file = generate" true (Node.equal_element streamed in_memory))

(* The file writer and the tree give the same bytes, also where a region
   draws no item and must self-close like any other empty element. *)
let test_writers_agree () =
  let tmp = Filename.temp_file "xmark" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      List.iter
        (fun (seed, factor) ->
          Generator.to_file ~seed ~factor tmp;
          Alcotest.(check string)
            (Printf.sprintf "seed %Ld, factor %g" seed factor)
            (Serialize.element_to_string (Generator.generate ~seed ~factor ()))
            (In_channel.with_open_bin tmp In_channel.input_all))
        [ (42L, 0.0001); (7L, 0.0001); (42L, 0.002) ])

let test_prng () =
  let r = Prng.create 1L in
  let a = Prng.int r 100 in
  let r2 = Prng.create 1L in
  let b = Prng.int r2 100 in
  Alcotest.(check int) "deterministic" a b;
  Alcotest.(check bool) "bounds" true
    (List.for_all (fun _ -> let v = Prng.int r 10 in v >= 0 && v < 10) (List.init 1000 Fun.id));
  let ones = List.length (List.filter (fun _ -> Prng.bool r 0.5) (List.init 1000 Fun.id)) in
  Alcotest.(check bool) "bool roughly fair" true (ones > 350 && ones < 650)

let suite =
  [ Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "counts scale" `Quick test_counts_scale;
    Alcotest.test_case "Fig. 11 selectivity" `Quick test_u_query_selectivity;
    Alcotest.test_case "US location bias" `Quick test_us_location_bias;
    Alcotest.test_case "streamed = in-memory" `Quick test_streamed_equals_in_memory;
    Alcotest.test_case "writers agree" `Quick test_writers_agree;
    Alcotest.test_case "prng" `Quick test_prng ]
