type t =
  | True
  | False
  | Atom of Atom.t
  | Not of t
  | And of t list
  | Or of t list
  | Exists of string * t
  | Forall of string * t

let atom a = Atom a

let conj = function [] -> True | [ f ] -> f | fs -> And fs
let disj = function [] -> False | [ f ] -> f | fs -> Or fs
let neg f = Not f
let exists_many xs f = List.fold_right (fun x acc -> Exists (x, acc)) xs f
let forall_many xs f = List.fold_right (fun x acc -> Forall (x, acc)) xs f

module S = Set.Make (String)

let vars f =
  let rec go bound = function
    | True | False -> S.empty
    | Atom a -> S.diff (S.of_list (Atom.vars a)) bound
    | Not g -> go bound g
    | And gs | Or gs -> List.fold_left (fun acc g -> S.union acc (go bound g)) S.empty gs
    | Exists (x, g) | Forall (x, g) -> go (S.add x bound) g
  in
  S.elements (go S.empty f)

let rec rename fn = function
  | True -> True
  | False -> False
  | Atom a -> Atom (Atom.rename fn a)
  | Not g -> Not (rename fn g)
  | And gs -> And (List.map (rename fn) gs)
  | Or gs -> Or (List.map (rename fn) gs)
  | Exists (x, g) -> Exists (fn x, rename fn g)
  | Forall (x, g) -> Forall (fn x, rename fn g)

(* ¬(e ≤ 0) ≡ -e < 0;  ¬(e < 0) ≡ -e ≤ 0;  ¬(e = 0) ≡ e < 0 ∨ -e < 0. *)
let negate_atom (a : Atom.t) =
  match a.Atom.op with
  | Atom.Le -> Atom { Atom.e = Linexpr.neg a.Atom.e; op = Atom.Lt }
  | Atom.Lt -> Atom { Atom.e = Linexpr.neg a.Atom.e; op = Atom.Le }
  | Atom.Eq ->
    Or
      [
        Atom { Atom.e = a.Atom.e; op = Atom.Lt };
        Atom { Atom.e = Linexpr.neg a.Atom.e; op = Atom.Lt };
      ]

let rec nnf = function
  | True -> True
  | False -> False
  | Atom a -> Atom a
  | And gs -> And (List.map nnf gs)
  | Or gs -> Or (List.map nnf gs)
  | Not g -> nnf_not g
  | Exists _ | Forall _ -> invalid_arg "Formula.nnf: quantified input"

and nnf_not = function
  | True -> False
  | False -> True
  | Atom a -> negate_atom a
  | Not g -> nnf g
  | And gs -> Or (List.map nnf_not gs)
  | Or gs -> And (List.map nnf_not gs)
  | Exists _ | Forall _ -> invalid_arg "Formula.nnf: quantified input"

let dnf f =
  let rec go = function
    | True -> [ [] ]
    | False -> []
    | Atom a -> [ [ a ] ]
    | Or gs -> List.concat_map go gs
    | And gs ->
      List.fold_left
        (fun acc g ->
          let ds = go g in
          List.concat_map (fun c -> List.map (fun d -> c @ d) ds) acc)
        [ [] ] gs
    | Not _ -> invalid_arg "Formula.dnf: input not in NNF"
    | Exists _ | Forall _ -> invalid_arg "Formula.dnf: quantified input"
  in
  go f

let rec eval_gen aeval f =
  match f with
  | True -> true
  | False -> false
  | Atom a -> aeval a
  | Not g -> not (eval_gen aeval g)
  | And gs -> List.for_all (eval_gen aeval) gs
  | Or gs -> List.exists (eval_gen aeval) gs
  | Exists _ | Forall _ -> invalid_arg "Formula.eval: quantified input"

let eval env f = eval_gen (Atom.eval env) f
let eval_float env f = eval_gen (Atom.eval_float env) f

(* Drop atoms implied by another atom of the same conjunction (and dually
   for disjunctions); keep the first of equals. *)
let prune_implied ~keep_stronger atoms =
  let rec go kept = function
    | [] -> List.rev kept
    | a :: rest ->
      let covered l =
        List.exists
          (fun b -> if keep_stronger then Atom.implies b a else Atom.implies a b)
          l
      in
      if covered kept || covered rest then go kept rest else go (a :: kept) rest
  in
  go [] atoms

(* Drop each compound member of a conjunction (disjunction) that one of
   its sibling [atoms] absorbs: a member whose [member] parts hold an atom
   [d] with [covers a d] for some sibling atom [a]. *)
let absorb atoms others ~member ~covers =
  List.filter
    (fun g ->
      match member g with
      | None -> true
      | Some parts ->
        not
          (List.exists
             (function Atom d -> List.exists (fun a -> covers a d) atoms | _ -> false)
             parts))
    others

let rec simplify f =
  match f with
  | True | False | Atom _ -> simplify_leaf f
  | Not g ->
    (match simplify g with
     | True -> False
     | False -> True
     | g' -> Not g')
  | And gs ->
    let gs = List.concat_map (fun g -> flatten_and (simplify g)) gs in
    if List.exists (fun g -> g = False) gs then False
    else begin
      let gs = List.filter (fun g -> g <> True) gs in
      let atoms, others =
        List.partition_map
          (function Atom a -> Left (Atom.normalize a) | g -> Right g)
          gs
      in
      let atoms = prune_implied ~keep_stronger:true atoms in
      (* Absorption: a ∧ (b ∨ …) ≡ a when a ⇒ b. *)
      let others =
        absorb atoms others
          ~member:(function Or ds -> Some ds | _ -> None)
          ~covers:Atom.implies
      in
      conj (List.map atom atoms @ others)
    end
  | Or gs ->
    let gs = List.concat_map (fun g -> flatten_or (simplify g)) gs in
    if List.exists (fun g -> g = True) gs then True
    else begin
      let gs = List.filter (fun g -> g <> False) gs in
      let atoms, others =
        List.partition_map
          (function Atom a -> Left (Atom.normalize a) | g -> Right g)
          gs
      in
      let atoms = prune_implied ~keep_stronger:false atoms in
      (* Absorption: a ∨ (b ∧ …) ≡ a when b ⇒ a. *)
      let others =
        absorb atoms others
          ~member:(function And cs -> Some cs | _ -> None)
          ~covers:(fun a c -> Atom.implies c a)
      in
      disj (List.map atom atoms @ others)
    end
  | Exists _ | Forall _ -> invalid_arg "Formula.simplify: quantified input"

and simplify_leaf = function
  | Atom a ->
    (match Atom.truth a with
     | Some true -> True
     | Some false -> False
     | None -> Atom (Atom.normalize a))
  | f -> f

and flatten_and = function And gs -> gs | g -> [ g ]
and flatten_or = function Or gs -> gs | g -> [ g ]

let rec to_string = function
  | True -> "true"
  | False -> "false"
  | Atom a -> Atom.to_string a
  | Not g -> "!(" ^ to_string g ^ ")"
  | And gs -> "(" ^ String.concat " & " (List.map to_string gs) ^ ")"
  | Or gs -> "(" ^ String.concat " | " (List.map to_string gs) ^ ")"
  | Exists (x, g) -> "E" ^ x ^ ". " ^ to_string g
  | Forall (x, g) -> "A" ^ x ^ ". " ^ to_string g

let rec equal a b =
  match a, b with
  | True, True | False, False -> true
  | Atom x, Atom y -> Atom.equal x y
  | Not x, Not y -> equal x y
  | And xs, And ys | Or xs, Or ys ->
    List.length xs = List.length ys && List.for_all2 equal xs ys
  | Exists (x, f), Exists (y, g) | Forall (x, f), Forall (y, g) ->
    String.equal x y && equal f g
  | _ -> false
