type t =
  | Element of element
  | Text of string
  | Comment of string
  | Pi of string * string

and element = {
  id : int;
  name : string;
  sym : Sym.t;
  attrs : (string * string) list;
  children : t list;
  elements : int;
  labels : int;
}

let counter = Atomic.make 0

let fresh_id () = Atomic.fetch_and_add counter 1 + 1

let label_bit sym = 1 lsl (sym mod 63)

(* The element record, its counts summed in one pass over [children]:
   [elements] is 1 plus the children's, [labels] its own label's bit or-ed
   with the children's *)
let rec summed id name sym attrs children elements labels = function
  | [] -> { id; name; sym; attrs; children; elements; labels }
  | Element c :: rest ->
    summed id name sym attrs children (elements + c.elements) (labels lor c.labels) rest
  | (Text _ | Comment _ | Pi _) :: rest -> summed id name sym attrs children elements labels rest

let element ?(attrs = []) name children =
  let sym = Sym.intern (Counter.local ()) name in
  summed (fresh_id ()) name sym attrs children 1 (label_bit sym) children

let element_of_sym ?(attrs = []) sym children =
  summed (fresh_id ()) (Sym.name sym) sym attrs children 1 (label_bit sym) children

let elem ?attrs name children = Element (element ?attrs name children)
let text s = Text s
let comment s = Comment s
let pi target content = Pi (target, content)

let with_children e children =
  summed (fresh_id ()) e.name e.sym e.attrs children 1 (label_bit e.sym) children

let name e = e.name
let sym e = e.sym
let id e = e.id
let children e = e.children
let elements e = e.elements
let labels e = e.labels
let attrs e = e.attrs
let attr e k = List.assoc_opt k e.attrs

let child_elements e =
  List.filter_map (function Element c -> Some c | Text _ | Comment _ | Pi _ -> None) e.children

let text_content e =
  let buf = Buffer.create 16 in
  List.iter
    (function Text s -> Buffer.add_string buf s | Element _ | Comment _ | Pi _ -> ())
    e.children;
  Buffer.contents buf

let rec equal a b =
  match a, b with
  | Element x, Element y -> equal_element x y
  | Text x, Text y -> String.equal x y
  | Comment x, Comment y -> String.equal x y
  | Pi (t1, c1), Pi (t2, c2) -> String.equal t1 t2 && String.equal c1 c2
  | (Element _ | Text _ | Comment _ | Pi _), _ -> false

and equal_element x y =
  String.equal x.name y.name
  && List.length x.attrs = List.length y.attrs
  && List.for_all2 (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && String.equal v1 v2)
       (List.sort Stdlib.compare x.attrs) (List.sort Stdlib.compare y.attrs)
  && List.length x.children = List.length y.children
  && List.for_all2 equal x.children y.children

let rec size = function
  | Element e -> List.fold_left (fun acc c -> acc + size c) 1 e.children
  | Text _ | Comment _ | Pi _ -> 1

let element_count = function Element e -> e.elements | Text _ | Comment _ | Pi _ -> 0

let rec depth = function
  | Element e -> 1 + List.fold_left (fun acc c -> max acc (depth c)) 0 e.children
  | Text _ | Comment _ | Pi _ -> 1

let rec fold_elements f acc e =
  let acc = f acc e in
  List.fold_left
    (fun acc c ->
      match c with Element ce -> fold_elements f acc ce | Text _ | Comment _ | Pi _ -> acc)
    acc e.children

let iter_elements f e = fold_elements (fun () e -> f e) () e

let descendant_or_self e = List.rev (fold_elements (fun acc e -> e :: acc) [] e)

let rec refresh_ids = function
  | Element e ->
    Element { e with id = fresh_id (); children = List.map refresh_ids e.children }
  | (Text _ | Comment _ | Pi _) as n -> n

(* ---- a commit's spine pairs ----

   [align] sorts [e]'s children against [oe]'s in one ordered pass.
   [olds] are the old children not yet consumed, and [ix] their ids,
   once a child missed the head of [olds]. *)

let unindex ix id = match ix with Some ix -> Hashtbl.remove ix id | None -> ()

(* [olds] past the element [id], which it holds, each element passed
   over [departed] and every element taken out of the index [ix] *)
let rec take_through ~departed ix id = function
  | [] -> []
  | Element oc :: rest ->
    unindex ix oc.id;
    if oc.id = id then rest
    else begin
      departed oc;
      take_through ~departed ix id rest
    end
  | (Text _ | Comment _ | Pi _) :: rest -> take_through ~departed ix id rest

let index_ids olds =
  let ix = Hashtbl.create 16 in
  List.iter
    (function Element oc -> Hashtbl.replace ix oc.id () | Text _ | Comment _ | Pi _ -> ())
    olds;
  ix

let rec align_from spine ~shared ~rebuilt ~fresh ~departed olds ix news =
  match (olds, news) with
  | (Text _ | Comment _ | Pi _) :: olds, news | olds, (Text _ | Comment _ | Pi _) :: news ->
    align_from spine ~shared ~rebuilt ~fresh ~departed olds ix news
  | Element o :: rest, Element c :: news when o.id = c.id ->
    unindex ix o.id;
    shared c;
    align_from spine ~shared ~rebuilt ~fresh ~departed rest ix news
  | Element o :: rest, Element c :: news -> (
    let found = Hashtbl.find_opt spine c.id in
    match found with
    | Some oc when oc.id = o.id ->
      unindex ix o.id;
      rebuilt oc c;
      align_from spine ~shared ~rebuilt ~fresh ~departed rest ix news
    | _ ->
      let ix = match ix with Some _ -> ix | None -> Some (index_ids olds) in
      let olds =
        match found with
        | Some oc when Hashtbl.mem (Option.get ix) oc.id ->
          let olds = take_through ~departed ix oc.id olds in
          rebuilt oc c;
          olds
        | _ when Hashtbl.mem (Option.get ix) c.id ->
          let olds = take_through ~departed ix c.id olds in
          shared c;
          olds
        | _ ->
          fresh c;
          olds
      in
      align_from spine ~shared ~rebuilt ~fresh ~departed olds ix news)
  | [], Element c :: news ->
    fresh c;
    align_from spine ~shared ~rebuilt ~fresh ~departed [] ix news
  | olds, [] ->
    List.iter (function Element oc -> departed oc | Text _ | Comment _ | Pi _ -> ()) olds

let align spine oe e ~shared ~rebuilt ~fresh ~departed =
  align_from spine ~shared ~rebuilt ~fresh ~departed oe.children None e.children

let rec pp ppf = function
  | Element e -> pp_element ppf e
  | Text s -> Format.fprintf ppf "%S" s
  | Comment s -> Format.fprintf ppf "<!--%s-->" s
  | Pi (t, c) -> Format.fprintf ppf "<?%s %s?>" t c

and pp_element ppf e =
  Format.fprintf ppf "<%s" e.name;
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%S" k v) e.attrs;
  match e.children with
  | [] -> Format.fprintf ppf "/>"
  | cs ->
    Format.fprintf ppf ">";
    List.iter (pp ppf) cs;
    Format.fprintf ppf "</%s>" e.name
