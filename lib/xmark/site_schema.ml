open Xut_schema

(* The regular tree grammar of the documents {!Generator} produces — the
   XMark `site` vocabulary.  Kept next to the generator so the two stay
   in sync: `dune runtest` validates a generated document against it. *)

let schema_name = "xmark"
let bench_schema_name = "xmark-bench"

let leaf n = (n, Schema.Empty)

let region r = (r, Schema.Star (Schema.Elem "item"))

(* [extra] widens selected productions — the bench variant allows its
   marker element along the write spine. *)
let decls ~extra =
  let open Schema in
  let e n = Elem n in
  let add name rx = match extra name with [] -> rx | more -> Alt (rx :: more) in
  [ ( "site",
      add "site"
        (Seq
           [ e "regions"; e "categories"; e "catgraph"; e "people"; e "open_auctions";
             e "closed_auctions" ]) );
    ("regions", Seq [ e "africa"; e "asia"; e "australia"; e "europe"; e "namerica"; e "samerica" ]);
    region "africa"; region "asia"; region "australia"; region "europe";
    region "namerica"; region "samerica";
    ( "item",
      Seq
        [ e "location"; e "quantity"; e "name"; e "payment"; e "description"; e "shipping";
          Plus (e "incategory"); Opt (e "mailbox") ] );
    ("mailbox", Plus (e "mail"));
    ("mail", Seq [ e "from"; e "to"; e "date"; e "text" ]);
    ("description", add "description" (Alt [ e "parlist"; e "text" ]));
    ("parlist", Plus (e "listitem"));
    ("listitem", Alt [ e "parlist"; e "text" ]);
    ("text", Star (Alt [ e "emph"; e "keyword"; e "bold" ]));
    ("emph", Opt (e "keyword"));
    ("categories", Star (e "category"));
    ("category", Seq [ e "name"; e "description" ]);
    ("catgraph", Star (e "edge"));
    ("people", Star (e "person"));
    ( "person",
      Seq
        [ e "name"; e "emailaddress"; Opt (e "phone"); Opt (e "address"); Opt (e "homepage");
          Opt (e "creditcard"); Opt (e "profile"); e "watches" ] );
    ("address", Seq [ e "street"; e "city"; e "country"; e "zipcode" ]);
    ("profile", Seq [ e "interest"; Opt (e "education"); Opt (e "gender"); e "business"; Opt (e "age") ]);
    ("open_auctions", add "open_auctions" (Star (e "open_auction")));
    ( "open_auction",
      add "open_auction"
        (Seq
           [ e "initial"; Opt (e "reserve"); Star (e "bidder"); e "current"; Opt (e "privacy");
             e "itemref"; e "seller"; e "annotation"; e "quantity"; e "type"; e "interval" ]) );
    ("bidder", Seq [ e "date"; e "time"; e "personref"; e "increase" ]);
    ("interval", Seq [ e "start"; e "end" ]);
    ("closed_auctions", Star (e "closed_auction"));
    ( "closed_auction",
      Seq
        [ e "seller"; e "buyer"; e "itemref"; e "price"; e "date"; e "quantity"; e "type";
          e "annotation" ] );
    ("annotation", add "annotation" (Seq [ e "author"; e "description"; e "happiness" ])) ]
  @ List.map leaf
      [ "location"; "quantity"; "name"; "payment"; "shipping"; "incategory"; "from"; "to";
        "date"; "keyword"; "bold"; "edge"; "emailaddress"; "phone"; "street"; "city";
        "country"; "zipcode"; "homepage"; "creditcard"; "interest"; "education"; "gender";
        "business"; "age"; "watches"; "initial"; "reserve"; "current"; "privacy"; "itemref";
        "seller"; "personref"; "time"; "increase"; "author"; "happiness"; "price"; "type";
        "start"; "end"; "buyer" ]

let build ~name ~extra ~extra_decls =
  match Schema.define ~name ~root:"site" (decls ~extra @ extra_decls) with
  | Ok s -> s
  | Error msg -> invalid_arg ("Site_schema: " ^ msg)

let schema = lazy (build ~name:schema_name ~extra:(fun _ -> []) ~extra_decls:[])

(* The write marker may land under any element of the spine from the
   document element down to description. *)
let bench_marker = "xut_bench_promo"

let bench_schema =
  lazy
    (build ~name:bench_schema_name
       ~extra:(fun parent ->
         if
           List.mem parent
             [ "site"; "open_auctions"; "open_auction"; "annotation"; "description" ]
         then [ Schema.Star (Schema.Elem bench_marker) ]
         else [])
       ~extra_decls:[ leaf bench_marker ])

let register () =
  Schema.register (Lazy.force schema);
  Schema.register (Lazy.force bench_schema)
