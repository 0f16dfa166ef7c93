open Xut_xml

type counts = {
  items : int;
  persons : int;
  open_auctions : int;
  closed_auctions : int;
  categories : int;
}

let counts ~factor =
  let scale base = max 2 (int_of_float (Float.round (float_of_int base *. factor))) in
  {
    items = scale 21750;
    persons = scale 25500;
    open_auctions = scale 12000;
    closed_auctions = scale 9750;
    categories = scale 1000;
  }

(* List.init does not specify evaluation order; the generator threads a
   PRNG through element construction, so order must be explicit. *)
let init_list n f =
  let rec go i acc = if i >= n then List.rev acc else go (i + 1) (f i :: acc) in
  go 0 []

let text s = Node.text s
let el = Node.elem
let leaf name s = el name [ text s ]

(* --- prose with inline markup ------------------------------------------- *)

(* adjacent text nodes would merge on a parse of the serialized form *)
let rec coalesce_text = function
  | Node.Text a :: Node.Text b :: rest -> coalesce_text (Node.Text (a ^ b) :: rest)
  | x :: rest -> x :: coalesce_text rest
  | [] -> []

let rec text_block rng ~emph_depth =
  (* a <text> element: words with optional <emph>/<keyword>/<bold> inlines *)
  let pieces = ref [] in
  let n_chunks = 1 + Prng.int rng 3 in
  for _ = 1 to n_chunks do
    pieces := text (Words.sentence rng (3 + Prng.int rng 8)) :: !pieces;
    if emph_depth > 0 && Prng.bool rng 0.6 then begin
      let inner =
        if Prng.bool rng 0.7 then
          el "emph" [ text (Words.sentence rng 2); el "keyword" [ text (Words.sentence rng 2) ] ]
        else el (if Prng.bool rng 0.5 then "keyword" else "bold") [ text (Words.sentence rng 2) ]
      in
      pieces := inner :: !pieces
    end
  done;
  el "text" (coalesce_text (List.rev !pieces))

and parlist rng ~depth ~emph_depth =
  let n_items = 1 + Prng.int rng 3 in
  let listitem _ =
    let body =
      if depth > 0 && Prng.bool rng 0.55 then parlist rng ~depth:(depth - 1) ~emph_depth
      else text_block rng ~emph_depth
    in
    el "listitem" [ body ]
  in
  el "parlist" (init_list n_items listitem)

let description rng ~rich =
  (* [rich] descriptions (closed-auction annotations) always nest a
     two-deep parlist whose inner texts carry emph/keyword, for U6/U7. *)
  let body =
    if rich then parlist rng ~depth:2 ~emph_depth:1
    else if Prng.bool rng 0.35 then parlist rng ~depth:(1 + Prng.int rng 2) ~emph_depth:1
    else text_block rng ~emph_depth:1
  in
  el "description" [ body ]

(* --- site sections ------------------------------------------------------ *)

let item rng ~id ~n_categories =
  let incategories =
    init_list (1 + Prng.int rng 2) (fun _ ->
        Node.elem ~attrs:[ ("category", Printf.sprintf "category%d" (Prng.int rng n_categories)) ]
          "incategory" [])
  in
  let mails =
    if Prng.bool rng 0.3 then
      [ el "mailbox"
          (init_list (1 + Prng.int rng 2) (fun _ ->
               el "mail"
                 [ leaf "from" (Prng.choose rng Words.first_names);
                   leaf "to" (Prng.choose rng Words.first_names);
                   leaf "date" (Printf.sprintf "%02d/%02d/2000" (1 + Prng.int rng 12) (1 + Prng.int rng 28));
                   text_block rng ~emph_depth:1 ]))
      ]
    else []
  in
  Node.elem ~attrs:[ ("id", Printf.sprintf "item%d" id) ] "item"
    ([ leaf "location" (if Prng.bool rng 0.75 then "United States" else Prng.choose rng Words.countries);
       leaf "quantity" (string_of_int (1 + Prng.int rng 5));
       leaf "name" (Words.sentence rng 3);
       leaf "payment" (Prng.choose rng Words.payment_kinds);
       description rng ~rich:false;
       el "shipping" [ text "Will ship internationally" ] ]
    @ incategories @ mails)

let person rng ~id =
  let name = Prng.choose rng Words.first_names ^ " " ^ Prng.choose rng Words.last_names in
  let address =
    if Prng.bool rng 0.5 then
      [ el "address"
          [ leaf "street" (Printf.sprintf "%d %s St" (1 + Prng.int rng 99) (Prng.choose rng Words.last_names));
            leaf "city" (Prng.choose rng Words.cities);
            leaf "country" (Prng.choose rng Words.countries);
            leaf "zipcode" (string_of_int (10000 + Prng.int rng 89999)) ]
      ]
    else []
  in
  let profile =
    if Prng.bool rng 0.85 then
      [ Node.elem
          ~attrs:[ ("income", Printf.sprintf "%d.%02d" (9000 + Prng.int rng 90000) (Prng.int rng 100)) ]
          "profile"
          ([ el "interest"
               [ text (Printf.sprintf "category%d" (Prng.int rng 100)) ] ]
          @ (if Prng.bool rng 0.4 then [ leaf "education" "Graduate School" ] else [])
          @ (if Prng.bool rng 0.5 then [ leaf "gender" (if Prng.bool rng 0.5 then "male" else "female") ] else [])
          @ [ leaf "business" (if Prng.bool rng 0.5 then "Yes" else "No") ]
          @ (if Prng.bool rng 0.6 then [ leaf "age" (string_of_int (18 + Prng.int rng 43)) ] else []))
      ]
    else []
  in
  Node.elem ~attrs:[ ("id", Printf.sprintf "person%d" id) ] "person"
    ([ leaf "name" name;
       leaf "emailaddress" (Printf.sprintf "mailto:%s@example.com" (String.map (function ' ' -> '.' | c -> c) name)) ]
    @ (if Prng.bool rng 0.4 then [ leaf "phone" (Printf.sprintf "+1 (%d) %d" (100 + Prng.int rng 899) (1000000 + Prng.int rng 8999999)) ] else [])
    @ address
    @ (if Prng.bool rng 0.3 then [ leaf "homepage" (Printf.sprintf "http://www.example.com/~person%d" id) ] else [])
    @ (if Prng.bool rng 0.3 then [ leaf "creditcard" (Printf.sprintf "%04d %04d %04d %04d" (Prng.int rng 10000) (Prng.int rng 10000) (Prng.int rng 10000) (Prng.int rng 10000)) ] else [])
    @ profile
    @ [ el "watches" [] ])

let person_ref rng ~n_persons = Printf.sprintf "person%d" (Prng.int rng n_persons)

let annotation rng ~n_persons ~rich =
  el "annotation"
    [ Node.elem ~attrs:[ ("person", person_ref rng ~n_persons) ] "author" [];
      description rng ~rich;
      leaf "happiness" (string_of_int (Prng.int rng 30)) ]

let bidder rng ~n_persons =
  el "bidder"
    [ leaf "date" (Printf.sprintf "%02d/%02d/2001" (1 + Prng.int rng 12) (1 + Prng.int rng 28));
      leaf "time" (Printf.sprintf "%02d:%02d:%02d" (Prng.int rng 24) (Prng.int rng 60) (Prng.int rng 60));
      Node.elem ~attrs:[ ("person", person_ref rng ~n_persons) ] "personref" [];
      leaf "increase" (string_of_int (1 + Prng.int rng 30)) ]

let open_auction rng ~id ~n_persons ~n_items =
  let n_bidders = Prng.int rng 5 in
  Node.elem ~attrs:[ ("id", Printf.sprintf "open_auction%d" id) ] "open_auction"
    ([ leaf "initial" (Printf.sprintf "%d.%02d" (1 + Prng.int rng 100) (Prng.int rng 100)) ]
    @ (if Prng.bool rng 0.5 then [ leaf "reserve" (Printf.sprintf "%d.%02d" (20 + Prng.int rng 180) (Prng.int rng 100)) ] else [])
    @ init_list n_bidders (fun _ -> bidder rng ~n_persons)
    @ [ leaf "current" (Printf.sprintf "%d.%02d" (1 + Prng.int rng 300) (Prng.int rng 100)) ]
    @ (if Prng.bool rng 0.3 then [ leaf "privacy" "Yes" ] else [])
    @ [ Node.elem ~attrs:[ ("item", Printf.sprintf "item%d" (Prng.int rng n_items)) ] "itemref" [];
        Node.elem ~attrs:[ ("person", person_ref rng ~n_persons) ] "seller" [];
        annotation rng ~n_persons ~rich:false;
        leaf "quantity" (string_of_int (1 + Prng.int rng 5));
        leaf "type" (Prng.choose rng Words.auction_types);
        el "interval" [ leaf "start" "01/01/2001"; leaf "end" "12/31/2001" ] ])

let closed_auction rng ~n_persons ~n_items =
  el "closed_auction"
    [ Node.elem ~attrs:[ ("person", person_ref rng ~n_persons) ] "seller" [];
      Node.elem ~attrs:[ ("person", person_ref rng ~n_persons) ] "buyer" [];
      Node.elem ~attrs:[ ("item", Printf.sprintf "item%d" (Prng.int rng n_items)) ] "itemref" [];
      leaf "price" (Printf.sprintf "%d.%02d" (1 + Prng.int rng 400) (Prng.int rng 100));
      leaf "date" (Printf.sprintf "%02d/%02d/2001" (1 + Prng.int rng 12) (1 + Prng.int rng 28));
      leaf "quantity" (string_of_int (1 + Prng.int rng 5));
      leaf "type" (Prng.choose rng Words.auction_types);
      annotation rng ~n_persons ~rich:true ]

let categories rng ~n_categories =
  el "categories"
    (init_list n_categories (fun i ->
         Node.elem ~attrs:[ ("id", Printf.sprintf "category%d" i) ] "category"
           [ leaf "name" (Words.sentence rng 2); description rng ~rich:false ]))

let catgraph rng ~n_categories =
  el "catgraph"
    (init_list (max 1 (n_categories / 2)) (fun _ ->
         Node.elem
           ~attrs:
             [ ("from", Printf.sprintf "category%d" (Prng.int rng n_categories));
               ("to", Printf.sprintf "category%d" (Prng.int rng n_categories)) ]
           "edge" []))

(* --- the one document walk ---------------------------------------------- *)

(* What a writer does with the walk.  [open_] and [close] bracket the
   container elements (the site, the regions and each region, people and
   the two auction lists); [node] takes every other second-level subtree
   in document order.  All items are drawn before the first region is
   written, so each goes through [keep] when drawn and reaches [kept]
   once its region is open. *)
type 'k writer = {
  open_ : string -> unit;
  close : string -> unit;
  node : Node.t -> unit;
  keep : Node.t -> 'k;
  kept : 'k -> unit;
}

let region_names = [| "africa"; "asia"; "australia"; "europe"; "namerica"; "samerica" |]

(* The section order, the per-region bucketing of items and the order in
   which the PRNG is consumed live here and nowhere else. *)
let sections ?(seed = 42L) ~factor w =
  let rng = Prng.create seed in
  let c = counts ~factor in
  let buckets = Array.make (Array.length region_names) [] in
  for i = c.items - 1 downto 0 do
    let r = Prng.int rng (Array.length region_names) in
    buckets.(r) <- w.keep (item rng ~id:i ~n_categories:c.categories) :: buckets.(r)
  done;
  let section name body =
    w.open_ name;
    body ();
    w.close name
  in
  section "site" (fun () ->
      section "regions" (fun () ->
          Array.iteri
            (fun i name -> section name (fun () -> List.iter w.kept buckets.(i)))
            region_names);
      w.node (categories rng ~n_categories:c.categories);
      w.node (catgraph rng ~n_categories:c.categories);
      section "people" (fun () ->
          for i = 0 to c.persons - 1 do
            w.node (person rng ~id:i)
          done);
      section "open_auctions" (fun () ->
          for i = 0 to c.open_auctions - 1 do
            w.node (open_auction rng ~id:i ~n_persons:c.persons ~n_items:c.items)
          done);
      section "closed_auctions" (fun () ->
          for _ = 1 to c.closed_auctions do
            w.node (closed_auction rng ~n_persons:c.persons ~n_items:c.items)
          done))

let generate ?seed ~factor () =
  (* the children of each open container, innermost first, each reversed *)
  let open_kids = ref [ [] ] in
  let add n =
    match !open_kids with kids :: up -> open_kids := (n :: kids) :: up | [] -> assert false
  in
  sections ?seed ~factor
    {
      open_ = (fun _ -> open_kids := [] :: !open_kids);
      close =
        (fun name ->
          match !open_kids with
          | kids :: up ->
            open_kids := up;
            add (el name (List.rev kids))
          | [] -> assert false);
      node = add;
      keep = Fun.id;
      kept = add;
    };
  match !open_kids with [ [ Node.Element site ] ] -> site | _ -> assert false

let to_file ?seed ~factor path =
  (* Each subtree is serialized and dropped as soon as it is built; only
     the region items wait, as strings, for their region to open.  Small
     chunks keep each flushed copy in the minor heap: 64 KiB ones would
     pile up on the major heap and add a third to the peak RSS. *)
  let write oc =
    let sink = Serialize.Sink.create ~chunk_size:1024 (output_string oc) in
    sections ?seed ~factor
      {
        open_ = (fun name -> Serialize.Sink.event sink (Sax.Start_element (name, [])));
        close = (fun name -> Serialize.Sink.event sink (Sax.End_element name));
        node = Serialize.Sink.node sink;
        keep = Serialize.to_string;
        kept = Serialize.Sink.markup sink;
      };
    ignore (Serialize.Sink.close sink)
  in
  if path = "-" then write stdout else Out_channel.with_open_bin path write
