open Xut_xpath
module Sym = Xut_xml.Sym

type kind = K_start | K_label of string | K_wild | K_desc | K_desc_test

type state = { kind : kind; qual : Ast.qual; lq_idx : int }

(* ---- state sets --------------------------------------------------------

   A state set is an int bitset when the automaton has at most
   [small_limit] states (the overwhelmingly common case: one state per
   normalized step), and a Bytes-backed bitset above.  Every set of a
   given automaton uses the same representation, so binary operations
   never mix constructors.  Sets are immutable once they escape the
   functions that build them. *)

let small_limit = 62

type set = Bits of int | Wide of Bytes.t

let wide_zero nwords = Bytes.make (nwords * 8) '\000'

let wmem w i = Char.code (Bytes.unsafe_get w (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* mutation helper: only ever applied to not-yet-published Bytes *)
let wset w i =
  let j = i lsr 3 in
  Bytes.unsafe_set w j (Char.unsafe_chr (Char.code (Bytes.unsafe_get w j) lor (1 lsl (i land 7))))

let wide_binop op a b =
  let len = Bytes.length a in
  let r = Bytes.create len in
  let i = ref 0 in
  while !i < len do
    Bytes.set_int64_ne r !i (op (Bytes.get_int64_ne a !i) (Bytes.get_int64_ne b !i));
    i := !i + 8
  done;
  r

(* union [src] into a not-yet-published [dst] *)
let wide_blend_into dst src =
  let i = ref 0 in
  while !i < Bytes.length dst do
    Bytes.set_int64_ne dst !i (Int64.logor (Bytes.get_int64_ne dst !i) (Bytes.get_int64_ne src !i));
    i := !i + 8
  done

(* top-level loops, not local closures: the emptiness and overlap tests
   run on every transition and must not allocate *)
let rec wide_zero_from a i =
  i >= Bytes.length a || (Bytes.get_int64_ne a i = 0L && wide_zero_from a (i + 8))

let wide_is_empty a = wide_zero_from a 0

let rec wide_meet_from a b i =
  i < Bytes.length a
  && (Int64.logand (Bytes.get_int64_ne a i) (Bytes.get_int64_ne b i) <> 0L
     || wide_meet_from a b (i + 8))

let mismatch () = invalid_arg "Selecting_nfa: sets of different automata"

let set_is_empty = function Bits b -> b = 0 | Wide w -> wide_is_empty w

let set_equal a b =
  match a, b with
  | Bits x, Bits y -> x = y
  | Wide x, Wide y -> Bytes.equal x y
  | (Bits _ | Wide _), _ -> false

let set_union a b =
  match a, b with
  | Bits x, Bits y -> Bits (x lor y)
  | Wide x, Wide y -> Wide (wide_binop Int64.logor x y)
  | (Bits _ | Wide _), _ -> mismatch ()

let set_inter a b =
  match a, b with
  | Bits x, Bits y -> Bits (x land y)
  | Wide x, Wide y -> Wide (wide_binop Int64.logand x y)
  | (Bits _ | Wide _), _ -> mismatch ()

(* [set_inter a b] is non-empty, without building the intersection *)
let set_intersects a b =
  match a, b with
  | Bits x, Bits y -> x land y <> 0
  | Wide x, Wide y -> wide_meet_from x y 0
  | (Bits _ | Wide _), _ -> mismatch ()

let set_diff a b =
  match a, b with
  | Bits x, Bits y -> Bits (x land lnot y)
  | Wide x, Wide y -> Wide (wide_binop (fun p q -> Int64.logand p (Int64.lognot q)) x y)
  | (Bits _ | Wide _), _ -> mismatch ()

let set_fold f s acc =
  match s with
  | Bits b ->
    let acc = ref acc and m = ref b and i = ref 0 in
    while !m <> 0 do
      if !m land 1 <> 0 then acc := f !i !acc;
      incr i;
      m := !m lsr 1
    done;
    !acc
  | Wide w ->
    let acc = ref acc in
    for j = 0 to Bytes.length w - 1 do
      let byte = Char.code (Bytes.unsafe_get w j) in
      if byte <> 0 then
        for k = 0 to 7 do
          if byte land (1 lsl k) <> 0 then acc := f ((j lsl 3) lor k) !acc
        done
    done;
    !acc

let set_to_list s = List.rev (set_fold (fun i acc -> i :: acc) s [])

type attached = ..
type attached += Nothing

type t = {
  states : state array;
  lq : Lq.t;
  ctx_qual : Ast.qual;
  true_idx : int;  (* LQ index of the constant true *)
  n : int;
  small : bool;
  nwords : int;
  enter_sym : int array;
  (* symbol consuming a node must carry to enter state [j]: the label's
     symbol for label states, [-1] (any) for wildcards, [-2] (never) for
     start and descendant states, which are entered by epsilon only *)
  self_loop : bool array;  (* state is '//': consuming any node may stay *)
  eps_bits : int array;    (* epsilon closure of each state (small repr) *)
  eps_wide : Bytes.t array;  (* same, wide repr ([||] when small) *)
  (* The checked closure: [eps_nq_*] is the closure of a state up to,
     not including, the first [K_desc_test] state after it, which is
     [eps_stop] (-1 when none); that state joins only where its
     qualifier holds, and its own closure continues from there. *)
  eps_nq_bits : int array;
  eps_nq_wide : Bytes.t array;
  eps_stop : int array;
  quals : set;             (* states with a non-trivial qualifier *)
  start : set;
  attached : attached Atomic.t;
  named : Sym.t list;  (* the labels its label states and qualifiers name *)
  footprint : footprint option;
  label_mask : int;
      (* the label bit every selected node carries: the final state's
         label, or all ones when the final state is not a label state *)
}

and footprint = { labels : Sym.t list; compared : Sym.t list }

(* ---- label footprint ---------------------------------------------------

   The labels an annotation table of this automaton can hold entries at,
   and those at which a qualifier reads a string value.  A qualifier
   state is entered only by a node carrying its step's label, and a
   child seed passes only to a child its label guard admits, so without
   wildcards, qualifier descendant steps, or a qualified [//] step
   (whose state every node under it enters) entries sit only at
   [labels], and a text comparison runs only at the label of the step it
   ends on ([compared], a subset of [labels]).  Attribute tests are not
   recorded: no update edits an existing node's attributes.  The context
   qualifier is checked on the document node and never tabled. *)

(* The footprint, and every label a qualifier names (each interned
   once, whether or not the footprint is bounded): with the labels of
   the label states, the plan's alphabet. *)
let footprint_of_steps (steps : Norm.nstep list) =
  let labels = ref [] and compared = ref [] and bounded = ref true in
  let cells = Xut_xml.Counter.local () in
  let add r l = if not (List.mem l !r) then r := l :: !r in
  let label l =
    add labels (Sym.intern cells l);
    l
  in
  (* [owner] is the label of the node the qualifier is evaluated at *)
  let rec qual owner = function
    | Ast.Q_true -> ()
    | Ast.Q_label l -> ignore (label l)
    | Ast.Q_and (a, b) | Ast.Q_or (a, b) ->
      qual owner a;
      qual owner b
    | Ast.Q_not a -> qual owner a
    | Ast.Q_exists { spath; _ } -> ignore (path owner spath)
    | Ast.Q_cmp ({ spath; sattr }, _, _) ->
      let at = path owner spath in
      if sattr = None && !bounded then add compared (Sym.intern cells at)
  and path owner = function
    | [] -> owner
    | { Ast.nav; quals } :: rest ->
      let here =
        match nav with
        | Ast.Self -> owner
        | Ast.Label l -> label l
        | Ast.Wildcard | Ast.Descendant ->
          bounded := false;
          owner
      in
      List.iter (qual here) quals;
      path here rest
  in
  List.iter
    (fun (s : Norm.nstep) ->
      match s.nav with
      | Norm.N_label l -> List.iter (qual (label l)) s.quals
      | Norm.N_wild | Norm.N_desc ->
        if s.nav = Norm.N_wild || s.quals <> [] then bounded := false;
        List.iter (qual "") s.quals)
    steps;
  ((if !bounded then Some { labels = !labels; compared = !compared } else None), !labels)

let of_norm (norm : Norm.t) =
  let b = Lq.create_builder () in
  let true_idx = Lq.add_qual b Ast.Q_true in
  let ctx_qual = Ast.q_and norm.ctx_quals in
  ignore (Lq.add_qual b ctx_qual);
  let state kind quals =
    let qual = Ast.q_and quals in
    { kind; qual; lq_idx = Lq.add_qual b qual }
  in
  (* A qualified [//] step is two states: the [//] loop itself, which no
     qualifier guards, and a [K_desc_test] state its closure enters at
     each node of the run where the qualifier holds.  The next step
     leaves from the test state, so the qualifier is checked at the node
     that step leaves from, the node where the [//] starts included, and
     a node that fails it does not cut the loop for the nodes below. *)
  let step_states (s : Norm.nstep) =
    match s.nav, s.quals with
    | Norm.N_label l, qs -> [ state (K_label l) qs ]
    | Norm.N_wild, qs -> [ state K_wild qs ]
    | Norm.N_desc, [] -> [ state K_desc [] ]
    | Norm.N_desc, qs -> [ state K_desc []; state K_desc_test qs ]
  in
  let states =
    Array.of_list (state K_start [] :: List.concat_map step_states norm.steps)
  in
  let n = Array.length states in
  let small = n <= small_limit in
  let nwords = (n + 63) / 64 in
  let cells = Xut_xml.Counter.local () in
  let enter_sym =
    Array.map
      (fun s ->
        match s.kind with
        | K_label l -> Sym.intern cells l
        | K_wild -> -1
        | K_start | K_desc | K_desc_test -> -2)
      states
  in
  let self_loop = Array.map (fun s -> s.kind = K_desc) states in
  let epsilon j = self_loop.(j) || states.(j).kind = K_desc_test in
  (* epsilon closure of state [i]: [i] plus the run of '//' and test
     states immediately after it; [~checked] stops the run before a test
     state *)
  let close_indices ~checked i =
    let rec go j acc =
      if j + 1 < n && epsilon (j + 1) && not (checked && states.(j + 1).kind = K_desc_test) then
        go (j + 1) (j + 1 :: acc)
      else acc
    in
    go i [ i ]
  in
  let bits_of close =
    Array.init n (fun i -> List.fold_left (fun b j -> b lor (1 lsl j)) 0 (close i))
  in
  let wide_of close =
    Array.init n (fun i ->
        let w = wide_zero nwords in
        List.iter (wset w) (close i);
        w)
  in
  let eps_bits = if small then bits_of (close_indices ~checked:false) else [||] in
  let eps_wide = if small then [||] else wide_of (close_indices ~checked:false) in
  (* without a test state the checked closure is the plain one *)
  let has_tests = Array.exists (fun s -> s.kind = K_desc_test) states in
  let eps_nq_bits =
    if not has_tests then eps_bits else if small then bits_of (close_indices ~checked:true) else [||]
  in
  let eps_nq_wide =
    if not has_tests then eps_wide else if small then [||] else wide_of (close_indices ~checked:true)
  in
  let eps_stop =
    Array.init n (fun i ->
        let last = List.hd (close_indices ~checked:true i) in
        if last + 1 < n && states.(last + 1).kind = K_desc_test then last + 1 else -1)
  in
  let mask_of pred =
    if small then
      Bits
        (Array.to_seq states
        |> Seq.fold_lefti (fun b i s -> if pred i s then b lor (1 lsl i) else b) 0)
    else begin
      let w = wide_zero nwords in
      Array.iteri (fun i s -> if pred i s then wset w i) states;
      Wide w
    end
  in
  let quals = mask_of (fun _ s -> s.lq_idx <> true_idx) in
  let footprint, qual_labels = footprint_of_steps norm.steps in
  let named = Array.fold_left (fun l sym -> if sym >= 0 then sym :: l else l) qual_labels enter_sym in
  let start =
    if small then Bits eps_bits.(0) else Wide (Bytes.copy eps_wide.(0))
  in
  { states; lq = Lq.freeze b; ctx_qual; true_idx; n; small; nwords; enter_sym; self_loop;
    eps_bits; eps_wide; eps_nq_bits; eps_nq_wide; eps_stop; quals; start;
    attached = Atomic.make Nothing; named; footprint;
    label_mask =
      (match states.(n - 1).kind with
      | K_label _ -> Xut_xml.Node.label_bit enter_sym.(n - 1)
      | K_start | K_wild | K_desc | K_desc_test -> -1) }

let of_path p = of_norm (Norm.steps p)

let size t = t.n
let final t = t.n - 1
let lq t = t.lq
let kind t i = t.states.(i).kind
let state_qual t i = t.states.(i).qual
let state_lq t i = t.states.(i).lq_idx
let has_qual t i = t.states.(i).lq_idx <> t.true_idx
let ctx_qual t = t.ctx_qual
let footprint t = t.footprint
let label_mask t = t.label_mask
let attached t = Atomic.get t.attached

let attach t a =
  if Atomic.compare_and_set t.attached Nothing a then a else Atomic.get t.attached
let selects_context t = t.n = 1

let start t = t.start
let qual_states t = t.quals

let set_of_list t l =
  if t.small then Bits (List.fold_left (fun b i -> b lor (1 lsl i)) 0 l)
  else begin
    let w = wide_zero t.nwords in
    List.iter (wset w) l;
    Wide w
  end

let accepts_set t s =
  match s with Bits b -> b land (1 lsl (t.n - 1)) <> 0 | Wide w -> wmem w (t.n - 1)

(* Raw (pre-closure, pre-qualifier) targets of [s] consuming a node.
   [sym] = -1 means "any label" (the static delta' of Section 4). *)
let raw_targets t s sym =
  match s with
  | Bits b ->
    let r = ref 0 and m = ref b and i = ref 0 in
    while !m <> 0 do
      if !m land 1 <> 0 then begin
        if t.self_loop.(!i) then r := !r lor (1 lsl !i);
        let j = !i + 1 in
        if
          j < t.n
          &&
          let es = t.enter_sym.(j) in
          es = -1 || (es = sym && sym >= 0) || (sym = -1 && es >= 0)
        then r := !r lor (1 lsl j)
      end;
      incr i;
      m := !m lsr 1
    done;
    Bits !r
  | Wide w ->
    let r = wide_zero t.nwords in
    for i = 0 to t.n - 1 do
      if wmem w i then begin
        if t.self_loop.(i) then wset r i;
        let j = i + 1 in
        if
          j < t.n
          &&
          let es = t.enter_sym.(j) in
          es = -1 || (es = sym && sym >= 0) || (sym = -1 && es >= 0)
        then wset r j
      end
    done;
    Wide r

let close_with eps_bits eps_wide t s =
  match s with
  | Bits b ->
    let c = ref 0 and m = ref b and i = ref 0 in
    while !m <> 0 do
      if !m land 1 <> 0 then c := !c lor eps_bits.(!i);
      incr i;
      m := !m lsr 1
    done;
    Bits !c
  | Wide w ->
    let c = wide_zero t.nwords in
    for i = 0 to t.n - 1 do
      if wmem w i then wide_blend_into c eps_wide.(i)
    done;
    Wide c

let close_set t s = close_with t.eps_bits t.eps_wide t s

(* The checked closure up to the test states, and those test states. *)
let close_nq_set t s = close_with t.eps_nq_bits t.eps_nq_wide t s

let stops_of t s =
  set_fold (fun i acc -> if t.eps_stop.(i) >= 0 then t.eps_stop.(i) :: acc else acc) s []

(* [acc] joined with the checked closure of each state of [pending]
   whose qualifier holds, in ascending order: the test state where such
   a closure stops joins [pending] in turn.  The bits, unboxed. *)
let close_checked_bits t ~checkp x acc pending =
  let acc = ref acc and m = ref pending and i = ref 0 in
  while !m <> 0 do
    if !m land 1 <> 0 && checkp !i x then begin
      acc := !acc lor t.eps_nq_bits.(!i);
      let stop = t.eps_stop.(!i) in
      if stop >= 0 then m := !m lor (1 lsl (stop - !i))
    end;
    incr i;
    m := !m lsr 1
  done;
  !acc

let close_checked_wide t ~checkp x acc pending =
  let acc = Bytes.copy acc and pending = Bytes.copy pending in
  for i = 0 to t.n - 1 do
    if wmem pending i && checkp i x then begin
      wide_blend_into acc t.eps_nq_wide.(i);
      if t.eps_stop.(i) >= 0 then wset pending t.eps_stop.(i)
    end
  done;
  Wide acc

(* ---- transitions ------------------------------------------------------

   Computed, never stored: {!Dfa} keeps the transitions a plan takes. *)

type transition = { closed : set; checks : set; closed_nq : set }

let transition t s sym =
  let raw = raw_targets t s sym in
  let unqualified = set_diff raw t.quals in
  { closed = close_set t raw;
    checks = set_union (set_inter raw t.quals) (set_of_list t (stops_of t unqualified));
    closed_nq = close_nq_set t unqualified }

let next_unchecked t s sym = close_set t (raw_targets t s sym)

(* With no test state every [eps_stop] is -1, so the checked closure
   is the plain one and nothing joins [pending].  A result where no
   qualifier held, or every one did, is one of the transition's own
   sets, so such a step allocates nothing either. *)
let checked t tr ~checkp x =
  match tr.checks with
  | Bits 0 -> tr.closed
  | Bits qb -> (
    match tr.closed_nq, tr.closed with
    | Bits nq, Bits all ->
      let b = close_checked_bits t ~checkp x nq qb in
      if b = nq then tr.closed_nq else if b = all then tr.closed else Bits b
    | (Bits _ | Wide _), _ -> mismatch ())
  | Wide qw when wide_is_empty qw -> tr.closed
  | Wide qw -> (
    match tr.closed_nq with
    | Bits _ -> mismatch ()
    | Wide nq -> close_checked_wide t ~checkp x nq qw)

let next t ~checkp x s sym = checked t (transition t s sym) ~checkp x

let named t = t.named

let checks_document t = t.eps_stop.(0) >= 0

let start_checked t ~checkp x =
  if not (checks_document t) then t.start
  else
    match close_nq_set t (set_of_list t [ 0 ]), set_of_list t [ t.eps_stop.(0) ] with
    | Bits acc, Bits pending -> Bits (close_checked_bits t ~checkp x acc pending)
    | Wide acc, Wide pending -> close_checked_wide t ~checkp x acc pending
    | (Bits _ | Wide _), _ -> mismatch ()

(* ---- static simulation (Compose Method, Section 4) -------------------- *)

let next_on_any_set t s = next_unchecked t s (-1)

let next_on_desc_set t s =
  (* zero or more any-label transitions: saturate to the fixpoint *)
  let rec go cur =
    let nxt = set_union cur (next_on_any_set t cur) in
    if set_equal nxt cur then cur else go nxt
  in
  go (close_set t s)

let consistent_at_sym t i sym = t.enter_sym.(i) < 0 || t.enter_sym.(i) = sym

(* ---- reference implementation -----------------------------------------

   The original list-based transition functions, kept verbatim as the
   oracle for the bitset core (the qcheck equivalence property runs both
   on random paths and label sequences).  Not used by any engine. *)

module Reference = struct
  (* [i] and the '//' and test states after it; a test state joins only
     when [keep] says its qualifier holds, and ends the run otherwise *)
  let close_state ?(keep = fun _ -> true) t i acc =
    let n = Array.length t.states in
    let rec go j acc =
      let acc = j :: acc in
      if j + 1 < n then
        match t.states.(j + 1).kind with
        | K_desc -> go (j + 1) acc
        | K_desc_test when keep (j + 1) -> go (j + 1) acc
        | K_desc_test | K_start | K_label _ | K_wild -> acc
      else acc
    in
    go i acc

  let sort_dedup l = List.sort_uniq compare l

  let closure ?keep t set =
    sort_dedup (List.fold_left (fun acc i -> close_state ?keep t i acc) [] set)

  let start_set t = closure t [ 0 ]

  let targets t i label =
    let n = Array.length t.states in
    let fwd =
      if i + 1 < n then
        match t.states.(i + 1).kind with
        | K_label l when String.equal l label -> [ i + 1 ]
        | K_wild -> [ i + 1 ]
        | K_label _ | K_desc | K_desc_test | K_start -> []
      else []
    in
    match t.states.(i).kind with
    | K_desc -> i :: fwd
    | K_start | K_label _ | K_wild | K_desc_test -> fwd

  let next_states t ~checkp set label =
    let plus = List.concat_map (fun i -> targets t i label) set in
    let plus = sort_dedup plus in
    let filtered = List.filter (fun i -> (not (has_qual t i)) || checkp i) plus in
    closure ~keep:checkp t filtered

  let next_states_unchecked t set label =
    closure t (sort_dedup (List.concat_map (fun i -> targets t i label) set))

  let accepts t set =
    let f = final t in
    List.exists (fun i -> i = f) set

  let any_targets t i =
    let n = Array.length t.states in
    let fwd =
      if i + 1 < n then
        match t.states.(i + 1).kind with
        | K_label _ | K_wild -> [ i + 1 ]
        | K_desc | K_desc_test | K_start -> []
      else []
    in
    match t.states.(i).kind with
    | K_desc -> i :: fwd
    | K_start | K_label _ | K_wild | K_desc_test -> fwd

  let next_on_label t set label = next_states_unchecked t set label

  let next_on_any t set = closure t (sort_dedup (List.concat_map (any_targets t) set))

  let next_on_desc t set =
    let rec go current acc =
      let nxt = next_on_any t current in
      let fresh = List.filter (fun i -> not (List.mem i acc)) nxt in
      if fresh = [] then acc else go fresh (sort_dedup (fresh @ acc))
    in
    go (closure t set) (closure t set)
end

let kind_to_string = function
  | K_start -> "start"
  | K_label l -> l
  | K_wild -> "*"
  | K_desc -> "//"
  | K_desc_test -> "."

let to_string t =
  let buf = Buffer.create 128 in
  Array.iteri
    (fun i s ->
      Buffer.add_string buf
        (Printf.sprintf "s%d:%s%s%s " i (kind_to_string s.kind)
           (if s.qual = Ast.Q_true then "" else "[" ^ Ast.qual_to_string s.qual ^ "]")
           (if i = final t then "(final)" else "")))
    t.states;
  String.trim (Buffer.contents buf)
