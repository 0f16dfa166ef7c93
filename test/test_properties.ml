(* Property-based tests: random documents and random X expressions,
   checking the cross-engine equivalences that the unit suites check on
   fixed examples. *)
open Xut_xml
open Xut_xpath
open Core

let labels = [| "a"; "b"; "c"; "d"; "e" |]
let texts = [| "A"; "B"; "10"; "20"; "3.5" |]

(* ---------------- generators ---------------- *)

let gen_label = QCheck2.Gen.oneofa labels
let gen_text = QCheck2.Gen.oneofa texts

(* adjacent text nodes do not roundtrip through serialization: merge *)
let rec coalesce_text = function
  | Node.Text a :: Node.Text b :: rest -> coalesce_text (Node.Text (a ^ b) :: rest)
  | x :: rest -> x :: coalesce_text rest
  | [] -> []

let gen_tree : Node.t QCheck2.Gen.t =
  QCheck2.Gen.sized_size (QCheck2.Gen.int_range 1 60)
  @@ QCheck2.Gen.fix (fun self size ->
         let open QCheck2.Gen in
         if size <= 1 then map Node.text gen_text
         else
           let* name = gen_label in
           let* n_children = int_range 0 (min 4 size) in
           let* attrs =
             frequency
               [ (3, return []); (1, map (fun v -> [ ("id", v) ]) gen_text) ]
           in
           let* children = list_repeat n_children (self (size / (max 1 n_children))) in
           return (Node.elem ~attrs name (coalesce_text children)))

let gen_root : Node.element QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* kids = list_size (int_range 1 4) gen_tree in
  return (Node.element "r" (coalesce_text kids))

let gen_cmp = QCheck2.Gen.oneofa [| Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge |]

let gen_value =
  QCheck2.Gen.oneof
    [ QCheck2.Gen.map (fun s -> Ast.V_str s) gen_text;
      QCheck2.Gen.map (fun f -> Ast.V_num (float_of_int f)) (QCheck2.Gen.int_range 0 25) ]

let rec gen_qual depth : Ast.qual QCheck2.Gen.t =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [ map (fun p -> Ast.Q_exists (Ast.path_source p)) (gen_path_simple 2);
        (let* p = gen_path_simple 2 in
         let* op = gen_cmp in
         let* v = gen_value in
         return (Ast.Q_cmp (Ast.path_source p, op, v)));
        map (fun l -> Ast.Q_label l) gen_label;
        (let* op = gen_cmp in
         let* v = gen_value in
         return (Ast.Q_cmp (Ast.self_source, op, v)));
        map (fun v -> Ast.Q_cmp (Ast.attr_source "id", Ast.Eq, Ast.V_str v)) gen_text ]
  in
  if depth <= 0 then leaf
  else
    frequency
      [ (4, leaf);
        (1, map2 (fun a b -> Ast.Q_and (a, b)) (gen_qual (depth - 1)) (gen_qual (depth - 1)));
        (1, map2 (fun a b -> Ast.Q_or (a, b)) (gen_qual (depth - 1)) (gen_qual (depth - 1)));
        (1, map (fun a -> Ast.Q_not a) (gen_qual (depth - 1))) ]

and gen_path_simple len : Ast.path QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 1 len in
  let step _ =
    let* nav =
      frequency
        [ (4, map (fun l -> Ast.Label l) gen_label); (1, return Ast.Wildcard);
          (1, return Ast.Descendant) ]
    in
    match nav with
    | Ast.Descendant ->
      let* l = gen_label in
      return [ Ast.step Ast.Descendant; Ast.step (Ast.Label l) ]
    | nav -> return [ Ast.step nav ]
  in
  let* stepss = flatten_l (List.init n step) in
  return (List.concat stepss)

let gen_path : Ast.path QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* base = gen_path_simple 3 in
  let* with_qual = bool in
  if with_qual then
    let* q = gen_qual 1 in
    let* pos = int_range 0 (List.length base - 1) in
    return
      (List.mapi (fun i (s : Ast.step) -> if i = pos && s.nav <> Ast.Descendant then { s with quals = q :: s.quals } else s) base)
  else return base

let gen_update : Transform_ast.update QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* path = gen_path in
  let enew = Node.elem "new" [ Node.text "X" ] in
  oneof
    [ return (Transform_ast.Delete path);
      return (Transform_ast.Insert (path, enew));
      return (Transform_ast.Insert_first (path, enew));
      return (Transform_ast.Replace (path, enew));
      return (Transform_ast.Rename (path, "renamed")) ]

(* ---------------- properties ---------------- *)

let engines = Engine.[ Naive; Gentop; Td_bu; Two_pass_sax; Galax_update ]

let count = 300

let prop_engines_agree =
  QCheck2.Test.make ~name:"all engines = reference on random input" ~count
    QCheck2.Gen.(pair gen_root gen_update)
    (fun (root, update) ->
      match Engine.transform Engine.Reference update root with
      | exception Transform_ast.Invalid_update _ ->
        (* all engines must reject it the same way *)
        List.for_all
          (fun algo ->
            match Engine.transform algo update root with
            | exception Transform_ast.Invalid_update _ -> true
            | _ -> false)
          engines
      | expected ->
        List.for_all
          (fun algo -> Node.equal_element expected (Engine.transform algo update root))
          engines)

let prop_transform_non_destructive =
  QCheck2.Test.make ~name:"transform queries never touch the store" ~count
    QCheck2.Gen.(pair gen_root gen_update)
    (fun (root, update) ->
      let before = Serialize.element_to_string root in
      (try ignore (Engine.transform Engine.Gentop update root)
       with Transform_ast.Invalid_update _ -> ());
      String.equal before (Serialize.element_to_string root))

let prop_nfa_equals_eval =
  QCheck2.Test.make ~name:"NFA selection = direct evaluator" ~count
    QCheck2.Gen.(pair gen_root gen_path)
    (fun (root, path) ->
      let expected = List.map Node.id (Eval.select_doc root path) |> List.sort compare in
      let nfa = Xut_automata.Selecting_nfa.of_path path in
      let acc = ref [] in
      let cp s n = Eval.check_qual n (Xut_automata.Selecting_nfa.state_qual nfa s) in
      let rec go e states =
        let states' =
          Xut_automata.Selecting_nfa.next_states nfa ~checkp:(fun s -> cp s e) states (Node.name e)
        in
        if states' <> [] then begin
          if Xut_automata.Selecting_nfa.accepts nfa states' then acc := Node.id e :: !acc;
          List.iter (fun c -> go c states') (Node.child_elements e)
        end
      in
      go root (Xut_automata.Selecting_nfa.start_set nfa);
      List.sort compare !acc = expected)

let prop_annotator_equals_direct =
  QCheck2.Test.make ~name:"annotated checkp = direct checkp where needed" ~count
    QCheck2.Gen.(pair gen_root gen_path)
    (fun (root, path) ->
      (* the annotated oracle must give the same selection as the direct
         one (it is only defined at nodes the filtering keeps alive) *)
      let u = Transform_ast.Rename (path, "z") in
      match Engine.transform Engine.Reference u root with
      | exception Transform_ast.Invalid_update _ -> true
      | expected ->
        Node.equal_element expected (Engine.transform Engine.Td_bu u root))

(* ---- streaming result path: chunked bytes = materialized bytes ---- *)

(* Drive a serializer sink with a tiny chunk size (so every run crosses
   many chunk boundaries) and return the reassembled bytes; a rejected
   update (root deletion/replacement) is the [Error] case and must match
   the materialized engines raising [Invalid_update]. *)
let stream_to_string ?(chunk_size = 7) drive =
  let buf = Buffer.create 64 in
  let sink = Serialize.Sink.create ~chunk_size (Buffer.add_string buf) in
  match drive (Serialize.Sink.event sink) with
  | () ->
    ignore (Serialize.Sink.close sink : Serialize.Sink.totals);
    Ok (Buffer.contents buf)
  | exception Transform_ast.Invalid_update _ ->
    Serialize.Sink.abort sink;
    Error `Invalid

let prop_stream_equals_materialized =
  QCheck2.Test.make ~name:"streamed bytes = materialized serialization" ~count
    QCheck2.Gen.(pair gen_root gen_update)
    (fun (root, update) ->
      let nfa = Xut_automata.Selecting_nfa.of_path (Transform_ast.path update) in
      let expected =
        match Engine.transform Engine.Reference update root with
        | exception Transform_ast.Invalid_update _ -> Error `Invalid
        | out -> Ok (Serialize.element_to_string out)
      in
      let drivers =
        [ (fun events -> Top_down.stream nfa update root events);
          (fun events ->
            let table = Xut_automata.Annotator.annotate nfa root in
            Top_down.stream
              ~checkp:(Xut_automata.Annotator.checkp table nfa)
              nfa update root events);
          (fun events ->
            ignore
              (Sax_transform.run nfa update ~source:(Sax.events_of_tree root) ~sink:events))
        ]
      in
      List.for_all (fun drive -> stream_to_string drive = expected) drivers)

(* ---- counting walk: count = element count of the materialized result ---- *)

let prop_count_equals_materialized =
  QCheck2.Test.make ~name:"counting walk = element count of the result" ~count
    QCheck2.Gen.(pair gen_root gen_update)
    (fun (root, update) ->
      let nfa = Xut_automata.Selecting_nfa.of_path (Transform_ast.path update) in
      let elements = Node.element_count (Node.Element root) in
      let outcome count =
        match count () with n -> Ok n | exception Transform_ast.Invalid_update _ -> Error `Invalid
      in
      let expected =
        outcome (fun () ->
            Node.element_count (Node.Element (Engine.transform Engine.Reference update root)))
      in
      let table = Xut_automata.Annotator.annotate nfa root in
      outcome (fun () -> Top_down.count ~elements nfa update root) = expected
      && outcome (fun () ->
             Top_down.count ~checkp:(Xut_automata.Annotator.checkp table nfa) ~elements nfa
               update root)
         = expected)

let prop_serialize_roundtrip =
  QCheck2.Test.make ~name:"parse(serialize(t)) = t" ~count gen_root (fun root ->
      let s = Serialize.element_to_string root in
      Node.equal_element root (Dom.parse_string s))

let prop_path_print_parse =
  QCheck2.Test.make ~name:"path parse(print(p)) = p" ~count gen_path (fun path ->
      Ast.equal_path path (Parser.parse (Ast.path_to_string path)))

let prop_update_print_parse =
  QCheck2.Test.make ~name:"update parse(print(u)) = u" ~count gen_update (fun u ->
      let q = Transform_ast.make ~doc:"d" u in
      let q' = Transform_parser.parse (Transform_ast.to_string q) in
      Transform_ast.to_string q = Transform_ast.to_string q')

let prop_xquery_rewrite =
  QCheck2.Test.make ~name:"Fig. 2 rewriting = native" ~count:150
    QCheck2.Gen.(pair gen_root gen_update)
    (fun (root, update) ->
      let q = Transform_ast.make ~doc:"d" update in
      match Engine.transform Engine.Reference update root with
      | exception Transform_ast.Invalid_update _ -> true
      | expected -> (
        match Xquery_rewrite.run q ~doc:root with
        | exception Xut_xquery.Xq_eval.Eval_error _ -> false
        | got -> Node.equal_element expected got))

let gen_user_query : User_query.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* source = gen_path in
  let* hole = gen_path_simple 2 in
  let* shape = int_range 0 2 in
  let template =
    match shape with
    | 0 -> User_query.T_hole ([], None)
    | 1 -> User_query.T_elem ("out", [], [ User_query.T_hole (hole, None) ])
    | _ ->
      User_query.T_elem ("out", [], [ User_query.T_text "v:"; User_query.T_hole (hole, None) ])
  in
  let* conds =
    frequency
      [ (2, return []);
        (1,
         let* p = gen_path_simple 2 in
         let* v = gen_value in
         return [ { User_query.left = User_query.Rel (p, None); op = Ast.Eq; right = User_query.Const v } ])
      ]
  in
  return (User_query.make ~conds ~source template)

(* all five kinds compose now; the inserted/replacement element reuses
   generator labels so that relabeling can create new matches *)
let gen_compose_update : Transform_ast.update QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* path = gen_path in
  let* label = gen_label in
  let enew = Node.elem label [ Node.text "X" ] in
  oneof
    [ return (Transform_ast.Delete path); return (Transform_ast.Insert (path, enew));
      return (Transform_ast.Insert_first (path, enew));
      return (Transform_ast.Replace (path, enew));
      return (Transform_ast.Rename (path, label)) ]

let value_repr v =
  List.map
    (fun item ->
      match item with
      | Xut_xquery.Xq_value.N n -> Serialize.to_string n
      | Xut_xquery.Xq_value.D e -> Serialize.element_to_string e
      | other -> Xut_xquery.Xq_value.string_of_item other)
    v

let prop_compose_equals_spec =
  QCheck2.Test.make ~name:"Qc(T) = Q(Qt(T)) on random pairs" ~count:300
    QCheck2.Gen.(triple gen_root gen_compose_update gen_user_query)
    (fun (root, update, uq) ->
      match Engine.transform Engine.Reference update root with
      | exception Transform_ast.Invalid_update _ -> true
      | transformed -> (
        let expected = value_repr (User_query.run uq ~doc:transformed) in
        match Composition.compose update uq with
        | Error _ -> true  (* out of fragment: nothing to check *)
        | Ok c -> value_repr (Composition.run_composed c ~doc:root) = expected))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_engines_agree;
      prop_transform_non_destructive;
      prop_nfa_equals_eval;
      prop_annotator_equals_direct;
      prop_stream_equals_materialized;
      prop_serialize_roundtrip;
      prop_path_print_parse;
      prop_update_print_parse;
      prop_xquery_rewrite;
      prop_compose_equals_spec ]

(* ---------------- XQuery printer/parser ---------------- *)

let gen_xq_expr : Xut_xquery.Xq_ast.expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Xut_xquery.Xq_ast in
  let leaf =
    oneof
      [ map (fun s -> Str s) gen_text;
        map (fun n -> Num (float_of_int n)) (int_range 0 99);
        return (Var "v");
        return Context;
        map (fun p -> Path (Var "v", p)) (gen_path_simple 2);
        map (fun p -> Path (Context, p)) (gen_path_simple 2);
        map (fun a -> AttrPath (Var "v", [], a)) gen_label;
        return Empty ]
  in
  let gen =
    fix (fun self depth ->
        if depth <= 0 then leaf
        else
          let sub = self (depth - 1) in
          frequency
            [ (4, leaf);
              (2, map2 (fun a b -> Cmp (Eq, a, b)) sub sub);
              (1, map2 (fun a b -> Cmp (Lt, a, b)) sub sub);
              (1, map2 (fun a b -> Arith (Add, a, b)) sub sub);
              (1, map2 (fun a b -> Arith (Mul, a, b)) sub sub);
              (2, map2 (fun a b -> And (a, b)) sub sub);
              (1, map2 (fun a b -> Or (a, b)) sub sub);
              (1, map (fun a -> Call ("not", [ a ])) sub);
              (1, map (fun a -> Call ("count", [ a ])) sub);
              (2, map3 (fun c t e -> If (c, t, e)) sub sub sub);
              (2,
               let* src = sub and* body = sub and* w = option sub in
               return (Flwor ([ For ("v", src) ], w, body)));
              (1,
               let* bound = sub and* body = sub in
               return (Flwor ([ LetC ("v", bound) ], None, body)));
              (1, map2 (fun s b -> Quant (`Some, "v", s, b)) sub sub);
              (1,
               let* kids = list_size (int_range 0 2) sub in
               return (ElemLit ("w", [], kids)));
              (1, map (fun a -> ElemDyn (Str "w", a)) sub) ])
  in
  gen 3

let prop_xquery_print_parse =
  QCheck2.Test.make ~name:"xquery parse(print(e)) evaluates identically" ~count:400 gen_xq_expr
    (fun e ->
      let printed = Xut_xquery.Xq_ast.to_string e in
      match Xut_xquery.Xq_parser.parse_expr printed with
      | exception Xut_xquery.Xq_parser.Parse_error _ -> false
      | e2 ->
        (* ASTs may differ in shape (Seq nesting); compare by evaluation *)
        let root = Dom.parse_string "<r><a>1</a><b x=\"2\">two</b><a>3</a></r>" in
        let env = Xut_xquery.Xq_eval.env ~context:root () in
        let env = ref env in
        ignore env;
        let eval_repr ex =
          let base = Xut_xquery.Xq_eval.env ~context:root () in
          match
            Xut_xquery.Xq_eval.eval_expr base
              (Xut_xquery.Xq_ast.Flwor
                 ( [ Xut_xquery.Xq_ast.LetC ("v", Xut_xquery.Xq_ast.Path (Xut_xquery.Xq_ast.Context, Parser.parse "r/a")) ],
                   None,
                   ex ))
          with
          | v ->
            Ok
              (List.map
                 (fun item ->
                   match item with
                   | Xut_xquery.Xq_value.N n -> Serialize.to_string n
                   | other -> Xut_xquery.Xq_value.string_of_item other)
                 v)
          | exception Xut_xquery.Xq_eval.Eval_error m -> Error ("eval: " ^ m)
          | exception Xut_xquery.Xq_value.Type_error m -> Error ("type: " ^ m)
        in
        eval_repr e = eval_repr e2)

let suite =
  suite @ List.map QCheck_alcotest.to_alcotest [ prop_xquery_print_parse; prop_count_equals_materialized ]
