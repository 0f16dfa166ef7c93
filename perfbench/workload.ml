(* The three workloads: their generated inputs and request sequences.

   The seed drives the XMark generator and the request order; the
   program under test only ever sees the generated file and the
   requests. *)

type name = Read_count | Mixed_rw | Stream_ingest

let all = [ Read_count; Mixed_rw; Stream_ingest ]

let to_string = function
  | Read_count -> "read_count"
  | Mixed_rw -> "mixed_rw"
  | Stream_ingest -> "stream_ingest"

let of_string s = List.find_opt (fun w -> to_string w = s) all

(* One request, in the benchmark's own terms.  [Api] maps it onto the
   service and client calls. *)
type op =
  | Count of int  (** Doc COUNT, td-bu, Fig. 11 query [i] *)
  | Transform of int  (** Doc TRANSFORM, td-bu, full-tree reply *)
  | View of int  (** View TRANSFORM of [user_query] over view chain [k] *)
  | Commit of bool  (** [true] inserts the marker, [false] deletes it *)
  | Ingest of int  (** TRANSFORM-STREAM FILE with query [i] *)
  | Stream of int  (** result stream (tag 7) of the stored doc, td-bu *)

let op_to_string = function
  | Count i -> Printf.sprintf "COUNT U%d" (i + 1)
  | Transform i -> Printf.sprintf "TRANSFORM U%d" (i + 1)
  | View k -> Printf.sprintf "TRANSFORM VIEW %d" k
  | Commit insert -> if insert then "COMMIT insert" else "COMMIT delete"
  | Ingest i -> Printf.sprintf "TRANSFORM-STREAM FILE U%d" (i + 1)
  | Stream i -> Printf.sprintf "stream U%d" (i + 1)

let is_write = function Commit _ -> true | _ -> false
let is_stream = function Ingest _ | Stream _ -> true | _ -> false

(* Fig. 11, U1-U10, as [delete] transforms. *)
let fig11 =
  [| "/site/people/person";
     "/site/people/person[@id = \"person10\"]";
     "/site/people/person[profile/age > 20]";
     "/site/regions//item";
     "/site//description";
     "/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword";
     "/site/open_auctions/open_auction[bidder/increase > 5]/annotation[happiness < 20]/description//text";
     "/site/open_auctions/open_auction[initial > 10 and reserve > 50]/bidder";
     "/site/regions//item[location = \"United States\"]";
     "/site//open_auctions/open_auction[not(@id = \"open_auction2\")]/bidder[increase > 10]" |]

let doc = "d"

let queries =
  Array.map
    (Printf.sprintf {|transform copy $a := doc("%s") modify do delete $a%s return $a|} doc)
    fig11

(* Stream-ingest queries: U4 has no qualifier, so it runs fused; U7's
   qualifiers force the two-parse fallback. *)
let fused_query = 3
let two_pass_query = 6

(* Two depth-2 view chains over the document.  Each level deletes a
   disjoint XMark subtree, so every level of the composition does work. *)
let view_levels =
  [| [| "site/regions//item/mailbox"; "site/people/person/watches" |];
     [| "site/people/person/watches"; "site/open_auctions/open_auction/bidder" |] |]

let view_name k = Printf.sprintf "v%d" k

(* (name, definition) in definition order: each level's base is the
   level below it, the chain top is [view_name k]. *)
let view_defs =
  List.concat
    (List.init (Array.length view_levels) (fun k ->
         let levels = view_levels.(k) in
         let depth = Array.length levels in
         List.init depth (fun l ->
             let name = if l = depth - 1 then view_name k else Printf.sprintf "v%d_%d" k l in
             let base = if l = 0 then doc else Printf.sprintf "v%d_%d" k (l - 1) in
             ( name,
               Printf.sprintf {|transform copy $a := doc("%s") modify do delete $a/%s return $a|}
                 base levels.(l) ))))

(* The definitions of chain [k], innermost first. *)
let chain_defs k =
  List.filter_map
    (fun (name, def) ->
      if name = view_name k || String.starts_with ~prefix:(view_name k ^ "_") name then Some def
      else None)
    view_defs

let user_query = "for $x in site/people/person return $x/name"

(* The write pair: a marker under every open auction, then its removal,
   so the document alternates between exactly two states. *)
let marker = "xut_bench_promo"
let marker_parent = "$a/site/open_auctions/open_auction"

let commit_query insert =
  if insert then Printf.sprintf "insert <%s>p</%s> into %s" marker marker marker_parent
  else Printf.sprintf "delete $a//%s" marker

type setup = {
  factor : float;
  schema : string option;  (** LOAD ... SCHEMA *)
  views : bool;  (** DEFVIEW the chains *)
}

let setup = function
  | Read_count -> { factor = 0.01; schema = Some Xut_xmark.Site_schema.schema_name; views = false }
  | Mixed_rw -> { factor = 0.01; schema = None; views = true }
  | Stream_ingest -> { factor = 0.02; schema = None; views = false }

(* Every distinct request of the workload once: the warm-up before the
   clock starts.  The commits come in insert/delete pairs, so the
   document ends where it began. *)
let distinct = function
  | Read_count -> List.init 10 (fun i -> Count i)
  | Mixed_rw ->
    List.init 10 (fun i -> Transform i)
    @ List.init (Array.length view_levels) (fun k -> View k)
    @ [ Commit true; Commit false ]
  | Stream_ingest ->
    Ingest fused_query :: Ingest two_pass_query :: List.init 10 (fun i -> Stream i)

(* An endless request sequence, in blocks: 10 COUNTs (a permutation of
   U1-U10); 4 Doc TRANSFORMs, 4 View TRANSFORMs and 2 COMMITs; or 2
   ingests and 1 doc stream.  The seed shuffles each block.  Commits
   alternate insert/delete across the whole sequence. *)
type sequence = {
  workload : name;
  rng : Random.State.t;
  pending : op Queue.t;
  mutable block : int;
  mutable commits : int;
}

let sequence workload ~seed =
  let salt = match workload with Read_count -> 1 | Mixed_rw -> 2 | Stream_ingest -> 3 in
  { workload;
    rng = Random.State.make [| seed; salt |];
    pending = Queue.create ();
    block = 0;
    commits = 0 }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let block_ops s =
  let b = s.block in
  s.block <- b + 1;
  match s.workload with
  | Read_count -> Array.init 10 (fun i -> Count i)
  | Mixed_rw ->
    let commit () =
      s.commits <- s.commits + 1;
      Commit (s.commits land 1 = 1)
    in
    let first = commit () in
    let second = commit () in
    Array.of_list
      (List.init 4 (fun j -> Transform (((4 * b) + j) mod 10))
      @ List.init 4 (fun j -> View (j land 1))
      @ [ first; second ])
  | Stream_ingest -> [| Ingest fused_query; Ingest two_pass_query; Stream (b mod 10) |]

(* Commits keep their relative order under the shuffle, so the
   insert/delete alternation holds. *)
let next s =
  if Queue.is_empty s.pending then begin
    let ops = block_ops s in
    let writes = List.filter is_write (Array.to_list ops) in
    shuffle s.rng ops;
    let writes = ref writes in
    Array.iter
      (fun op ->
        if is_write op then begin
          Queue.push (List.hd !writes) s.pending;
          writes := List.tl !writes
        end
        else Queue.push op s.pending)
      ops
  end;
  Queue.pop s.pending

let block_size = function Read_count -> 10 | Mixed_rw -> 10 | Stream_ingest -> 3

(* A fixed-length prefix, whole blocks only, so the commits pair up and
   the document ends in its initial state. *)
let take workload ~seed ~blocks =
  let s = sequence workload ~seed in
  Array.init (blocks * block_size workload) (fun _ -> next s)
