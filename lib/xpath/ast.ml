type nav =
  | Self
  | Label of string
  | Wildcard
  | Descendant

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type value = V_str of string | V_num of float

type path = step list

and step = { nav : nav; quals : qual list }

and qual =
  | Q_true
  | Q_exists of source
  | Q_cmp of source * cmp * value
  | Q_label of string
  | Q_and of qual * qual
  | Q_or of qual * qual
  | Q_not of qual

and source = { spath : path; sattr : string option }

let step ?(quals = []) nav = { nav; quals }
let self_source = { spath = []; sattr = None }
let attr_source a = { spath = []; sattr = Some a }
let path_source p = { spath = p; sattr = None }

let q_and = function
  | [] -> Q_true
  | q :: qs -> List.fold_left (fun acc q -> Q_and (acc, q)) q qs

(* Top-level, with the float parsed unwrapped: a comparison allocates
   nothing but the parsed float. *)
let cmp_int op c =
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let compare_values op s v =
  match v with
  | V_str v -> cmp_int op (String.compare s v)
  | V_num f -> (
    match float_of_string (String.trim s) with
    | g -> cmp_int op (Float.compare g f)
    | exception Failure _ -> false)

let equal_path (a : path) (b : path) = a = b

let cmp_to_string = function
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let value_to_string = function
  | V_str s -> "\"" ^ s ^ "\""
  | V_num f -> if Float.is_integer f then string_of_int (int_of_float f) else string_of_float f

let rec pp_path ppf path =
  let rec go first = function
    | [] -> ()
    | { nav; quals } :: rest ->
      (match nav with
      | Descendant ->
        Format.pp_print_string ppf (if quals = [] then "//" else "//.");
        pp_quals ppf quals;
        go (quals = []) rest
      | _ ->
        if not first then Format.pp_print_string ppf "/";
        (match nav with
        | Self -> Format.pp_print_string ppf "."
        | Label l -> Format.pp_print_string ppf l
        | Wildcard -> Format.pp_print_string ppf "*"
        | Descendant -> assert false);
        pp_quals ppf quals;
        go false rest)
  in
  match path with [] -> Format.pp_print_string ppf "." | _ -> go true path

and pp_quals ppf quals = List.iter (fun q -> Format.fprintf ppf "[%a]" pp_qual q) quals

and pp_qual ppf = function
  | Q_true -> Format.pp_print_string ppf "true()"
  | Q_exists s -> pp_source ppf s
  | Q_cmp (s, op, v) ->
    Format.fprintf ppf "%a %s %s" pp_source s (cmp_to_string op) (value_to_string v)
  | Q_label l -> Format.fprintf ppf "label() = \"%s\"" l
  | Q_and (a, b) -> Format.fprintf ppf "%a and %a" pp_qual_atom a pp_qual_atom b
  | Q_or (a, b) -> Format.fprintf ppf "%a or %a" pp_qual_atom a pp_qual_atom b
  | Q_not q -> Format.fprintf ppf "not(%a)" pp_qual q

and pp_qual_atom ppf q =
  match q with
  | Q_and _ | Q_or _ -> Format.fprintf ppf "(%a)" pp_qual q
  | _ -> pp_qual ppf q

and pp_source ppf { spath; sattr } =
  match spath, sattr with
  | [], None -> Format.pp_print_string ppf "."
  | [], Some a -> Format.fprintf ppf "@%s" a
  | p, None -> pp_path ppf p
  | p, Some a -> Format.fprintf ppf "%a/@%s" pp_path p a

let path_to_string p = Format.asprintf "%a" pp_path p
let qual_to_string q = Format.asprintf "%a" pp_qual q
