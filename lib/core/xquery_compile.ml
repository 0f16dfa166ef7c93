open Xut_xpath
open Xut_automata
open Xut_xquery

let num i = Xq_ast.Num (float_of_int i)

let state_seq = function
  | [ s ] -> num s
  | states -> Xq_ast.Seq (List.map num states)

(* How the generated query checks qualifiers and reads attributes:
   [Direct] (GENTOP) evaluates qualifiers as inline path predicates;
   [Annotated] (TD-BU) reads the sat vector that the generated bottom-up
   pass stored in the "xut-sat" attribute (Section 5's remark: "sat ...
   can be treated as XML attributes"). *)
type mode = Direct | Annotated

let sat_attr = "xut-sat"

(* substring($v/@xut-sat, i+1, 1) = "1" *)
let sat_lookup var i =
  Xq_ast.Cmp
    ( Xq_ast.Eq,
      Xq_ast.Call
        ("substring", [ Xq_ast.AttrPath (Xq_ast.Var var, [], sat_attr); num (i + 1); num 1 ]),
      Xq_ast.Str "1" )

(* exists($n[q]) *)
let qual_test q =
  Xq_ast.Call
    ("exists", [ Xq_ast.Path (Xq_ast.Var "n", [ { Ast.nav = Ast.Self; quals = [ q ] } ]) ])

let state_check mode nfa t =
  match mode with
  | Direct -> qual_test (Selecting_nfa.state_qual nfa t)
  | Annotated -> sat_lookup "n" (Selecting_nfa.state_lq nfa t)

let attrs_expr = function
  | Direct -> Xq_ast.AttrPath (Xq_ast.Var "n", [], "*")
  | Annotated -> Xq_ast.Call ("xut:attrs-except", [ Xq_ast.Var "n"; Xq_ast.Str sat_attr ])

let followed_by_test nfa i =
  i + 1 < Selecting_nfa.size nfa && Selecting_nfa.kind nfa (i + 1) = Selecting_nfa.K_desc_test

(* The states contributed when entering state [t]: t plus its epsilon
   closure, guarded by t's qualifier when non-trivial.  A test state that
   ends the run of '//' states is entered in turn, under its own
   qualifier. *)
let rec enter mode nfa t =
  let rec go i acc =
    if i + 1 < Selecting_nfa.size nfa && Selecting_nfa.kind nfa (i + 1) = Selecting_nfa.K_desc
    then go (i + 1) (acc @ [ i + 1 ])
    else (acc, i)
  in
  let closure, last = go t [ t ] in
  let states = state_seq closure in
  let states =
    if followed_by_test nfa last then Xq_ast.Seq [ states; enter mode nfa (last + 1) ] else states
  in
  if Selecting_nfa.has_qual nfa t then Xq_ast.If (state_check mode nfa t, states, Xq_ast.Empty)
  else states

(* What state [i] contributes to the next set at node $n. *)
let arm mode nfa i =
  let parts = ref [] in
  (* forward transition into state i+1 *)
  (if i + 1 < Selecting_nfa.size nfa then
     match Selecting_nfa.kind nfa (i + 1) with
     | Selecting_nfa.K_label l ->
       parts :=
         Xq_ast.If
           ( Xq_ast.Cmp
               (Xq_ast.Eq, Xq_ast.Call ("fn:local-name", [ Xq_ast.Var "n" ]), Xq_ast.Str l),
             enter mode nfa (i + 1),
             Xq_ast.Empty )
         :: !parts
     | Selecting_nfa.K_wild -> parts := enter mode nfa (i + 1) :: !parts
     | Selecting_nfa.K_desc | Selecting_nfa.K_desc_test | Selecting_nfa.K_start -> ());
  (* '//' self-loop, which re-enters a test state after it *)
  (match Selecting_nfa.kind nfa i with
  | Selecting_nfa.K_desc ->
    parts := (if followed_by_test nfa i then enter mode nfa i else num i) :: !parts
  | Selecting_nfa.K_start | Selecting_nfa.K_label _ | Selecting_nfa.K_wild
  | Selecting_nfa.K_desc_test ->
    ());
  match !parts with [] -> Xq_ast.Empty | [ e ] -> e | es -> Xq_ast.Seq es

(* local:next($states, $n): the delta function as an if-chain over $s. *)
let next_fun mode nfa =
  let rec chain i =
    if i >= Selecting_nfa.size nfa then Xq_ast.Empty
    else Xq_ast.If (Xq_ast.Cmp (Xq_ast.Eq, Xq_ast.Var "s", num i), arm mode nfa i, chain (i + 1))
  in
  {
    Xq_ast.fname = "local:next";
    params = [ "states"; "n" ];
    body =
      Xq_ast.Call
        ( "distinct-values",
          [ Xq_ast.Flwor ([ Xq_ast.For ("s", Xq_ast.Var "states") ], None, chain 0) ] );
  }

let matched_test nfa =
  Xq_ast.Quant
    ( `Some,
      "s",
      Xq_ast.Var "next",
      Xq_ast.Cmp (Xq_ast.Eq, Xq_ast.Var "s", num (Selecting_nfa.final nfa)) )

let recurse_children =
  Xq_ast.Flwor
    ( [ Xq_ast.For ("c", Xq_ast.Call ("xut:children", [ Xq_ast.Var "n" ])) ],
      None,
      Xq_ast.Call ("local:apply", [ Xq_ast.Var "c"; Xq_ast.Var "next" ]) )

let rebuild mode ?(name = Xq_ast.Call ("fn:local-name", [ Xq_ast.Var "n" ])) ?(before = []) after
    =
  Xq_ast.ElemDyn
    (name, Xq_ast.Seq ([ attrs_expr mode ] @ before @ [ recurse_children ] @ after))

(* The node-level action (Fig. 3 lines 4-8) given $next. *)
let action mode nfa (update : Transform_ast.update) =
  let m = matched_test nfa in
  match update with
  | Transform_ast.Insert (_, enew) ->
    rebuild mode [ Xq_ast.If (m, Xq_ast.NodeConst enew, Xq_ast.Empty) ]
  | Transform_ast.Insert_first (_, enew) ->
    rebuild mode ~before:[ Xq_ast.If (m, Xq_ast.NodeConst enew, Xq_ast.Empty) ] []
  | Transform_ast.Delete _ -> Xq_ast.If (m, Xq_ast.Empty, rebuild mode [])
  | Transform_ast.Replace (_, enew) -> Xq_ast.If (m, Xq_ast.NodeConst enew, rebuild mode [])
  | Transform_ast.Rename (_, label) ->
    rebuild mode
      ~name:
        (Xq_ast.If (m, Xq_ast.Str label, Xq_ast.Call ("fn:local-name", [ Xq_ast.Var "n" ])))
      []

let apply_fun mode nfa update =
  {
    Xq_ast.fname = "local:apply";
    params = [ "n"; "states" ];
    body =
      Xq_ast.If
        ( Xq_ast.Call ("xut:is-element", [ Xq_ast.Var "n" ]),
          Xq_ast.Flwor
            ( [ Xq_ast.LetC
                  ("next", Xq_ast.Call ("local:next", [ Xq_ast.Var "states"; Xq_ast.Var "n" ]))
              ],
              None,
              Xq_ast.If
                ( Xq_ast.Call ("empty", [ Xq_ast.Var "next" ]),
                  (match mode with
                  | Direct -> Xq_ast.Var "n"
                  | Annotated ->
                    (* untouched subtrees still carry the sat vectors *)
                    Xq_ast.Call ("xut:strip-attr", [ Xq_ast.Var "n"; Xq_ast.Str sat_attr ])),
                  action mode nfa update )
            ),
          Xq_ast.Var "n" );
  }

(* ---------------- the bottom-up annotation pass (TD-BU) ---------------- *)

let qvar i = Printf.sprintf "q%d" i

let lit = function Ast.V_str s -> Xq_ast.Str s | Ast.V_num f -> Xq_ast.Num f

(* QualDP (Fig. 7) as XQuery: one let per LQ expression, in topological
   order; child lookups read the children's sat vectors. *)
let sat_expr lq i =
  let csat j = Xq_ast.Quant (`Some, "c", Xq_ast.Var "kids", sat_lookup "c" j) in
  match Lq.expr lq i with
  | Lq.True_ -> Xq_ast.Call ("true", [])
  | Lq.Seq (a, b) -> Xq_ast.And (Xq_ast.Var (qvar a), Xq_ast.Var (qvar b))
  | Lq.Child p -> csat p
  | Lq.Desc p -> Xq_ast.Or (Xq_ast.Var (qvar p), csat i)
  | Lq.Label_is l ->
    Xq_ast.Cmp (Xq_ast.Eq, Xq_ast.Call ("fn:local-name", [ Xq_ast.Var "n" ]), Xq_ast.Str l)
  | Lq.Text_cmp (op, v) ->
    Xq_ast.Cmp (User_query.cmp_to_xq op, Xq_ast.Call ("string", [ Xq_ast.Var "n" ]), lit v)
  | Lq.Attr_cmp (a, op, v) ->
    Xq_ast.Cmp (User_query.cmp_to_xq op, Xq_ast.AttrPath (Xq_ast.Var "n", [], a), lit v)
  | Lq.Attr_exists a -> Xq_ast.Call ("exists", [ Xq_ast.AttrPath (Xq_ast.Var "n", [], a) ])
  | Lq.And_ (a, b) -> Xq_ast.And (Xq_ast.Var (qvar a), Xq_ast.Var (qvar b))
  | Lq.Or_ (a, b) -> Xq_ast.Or (Xq_ast.Var (qvar a), Xq_ast.Var (qvar b))
  | Lq.Not_ a -> Xq_ast.Call ("not", [ Xq_ast.Var (qvar a) ])

let annot_fun lq =
  let k = Lq.length lq in
  let lets =
    Xq_ast.LetC
      ( "kids",
        Xq_ast.Flwor
          ( [ Xq_ast.For ("c", Xq_ast.Call ("xut:children", [ Xq_ast.Var "n" ])) ],
            None,
            Xq_ast.Call ("local:annot", [ Xq_ast.Var "c" ]) ) )
    :: List.init k (fun i -> Xq_ast.LetC (qvar i, sat_expr lq i))
  in
  let sat_string =
    Xq_ast.Call
      ( "concat",
        List.init k (fun i -> Xq_ast.If (Xq_ast.Var (qvar i), Xq_ast.Str "1", Xq_ast.Str "0")) )
  in
  {
    Xq_ast.fname = "local:annot";
    params = [ "n" ];
    body =
      Xq_ast.If
        ( Xq_ast.Call ("xut:is-element", [ Xq_ast.Var "n" ]),
          Xq_ast.Flwor
            ( lets,
              None,
              Xq_ast.ElemDyn
                ( Xq_ast.Call ("fn:local-name", [ Xq_ast.Var "n" ]),
                  Xq_ast.Seq
                    [ Xq_ast.AttrPath (Xq_ast.Var "n", [], "*");
                      Xq_ast.Call ("xut:attr", [ Xq_ast.Str sat_attr; sat_string ]);
                      Xq_ast.Var "kids" ] ) ),
          Xq_ast.Var "n" );
  }

(* ---------------- entry points ---------------- *)

let nfa_of (q : Transform_ast.t) =
  let path = Transform_ast.path q.update in
  if path = [] then
    invalid_arg "Xquery_compile: the empty path (p = '.') has no automaton to compile";
  let nfa = Selecting_nfa.of_path path in
  if Selecting_nfa.ctx_qual nfa <> Ast.Q_true || Selecting_nfa.checks_document nfa then
    invalid_arg "Xquery_compile: context qualifiers are not supported";
  nfa

let main_body nfa (q : Transform_ast.t) ~annotate =
  let doc_e = Xq_ast.Call ("doc", [ Xq_ast.Str q.doc ]) in
  let root = Xq_ast.Path (doc_e, Xut_xpath.Parser.parse "*") in
  Xq_ast.DocCtor
    (Xq_ast.Flwor
       ( [ Xq_ast.For ("n", root) ],
         None,
         Xq_ast.Call
           ( "local:apply",
             [ (if annotate then Xq_ast.Call ("local:annot", [ Xq_ast.Var "n" ]) else Xq_ast.Var "n");
               state_seq (Selecting_nfa.start_set nfa)
             ] ) ))

let compile (q : Transform_ast.t) =
  let nfa = nfa_of q in
  Xq_ast.program
    ~functions:[ next_fun Direct nfa; apply_fun Direct nfa q.update ]
    (main_body nfa q ~annotate:false)

let compile_tdbu (q : Transform_ast.t) =
  let nfa = nfa_of q in
  Xq_ast.program
    ~functions:
      [ annot_fun (Selecting_nfa.lq nfa); next_fun Annotated nfa;
        apply_fun Annotated nfa q.update ]
    (main_body nfa q ~annotate:true)

let compile_to_string q = Xq_ast.program_to_string (compile q)
let compile_tdbu_to_string q = Xq_ast.program_to_string (compile_tdbu q)

let run_program prog (q : Transform_ast.t) ~doc =
  let env = Xq_eval.env ~docs:[ (q.Transform_ast.doc, doc) ] ~context:doc () in
  Xq_eval.value_to_element (Xq_eval.eval_program env prog)

let run q ~doc = run_program (compile q) q ~doc
let run_tdbu q ~doc = run_program (compile_tdbu q) q ~doc
