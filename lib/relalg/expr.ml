type binop = Add | Sub | Mul | Div
type cmp = Eq | Ne | Lt | Le | Gt | Ge

(* Packed when the rows' key values allow it (see [Keys]), else a
   [Row.Tbl]; either way membership follows [Value.equal_total]. *)
type row_set = Packed_set of Keys.Set.t * Keys.path | Tbl_set of unit Row.Tbl.t * Keys.path

type t =
  | Const of Value.t
  | Col of Schema.col
  | Binop of binop * t * t
  | Neg of t
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | In_set of t list * row_set

let row_set_path = function Packed_set (_, p) | Tbl_set (_, p) -> p

let row_set_of ?names rows =
  let rows = Array.of_list rows in
  let names =
    match names, rows with
    | Some names, _ -> Array.of_list names
    | None, [||] -> [||]
    | None, _ -> Array.init (Array.length rows.(0)) (Printf.sprintf "$%d")
  in
  let set =
    match Keys.Set.build ~names rows with
    | Ok s -> Packed_set (s, Keys.Packed (Array.to_list (Array.map (( ^ ) "IN ") names)))
    | Error why ->
      let tbl = Row.Tbl.create (max 16 (Array.length rows)) in
      Array.iter (fun r -> Row.Tbl.replace tbl r ()) rows;
      Tbl_set (tbl, Keys.Generic why)
  in
  Keys.count (row_set_path set);
  set

let row_set_cardinality = function
  | Packed_set (s, _) -> Keys.Set.cardinality s
  | Tbl_set (tbl, _) -> Row.Tbl.length tbl

let row_set_mem set key =
  match set with
  | Packed_set (s, _) -> Keys.Set.mem s key
  | Tbl_set (tbl, _) -> Row.Tbl.mem tbl key

let row_set_keys = function Packed_set (s, _) -> Some s | Tbl_set _ -> None

let tt = Const (Value.Bool true)

let col ?q name = Col (Schema.col ?q name)
let int i = Const (Value.Int i)

let conj = function
  | [] -> tt
  | e :: es -> List.fold_left (fun acc e -> And (acc, e)) e es

let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | Const (Value.Bool true) -> []
  | e -> [ e ]

let columns e =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let rec go = function
    | Const _ -> ()
    | Col c ->
      if not (Hashtbl.mem seen c) then begin
        Hashtbl.add seen c ();
        out := c :: !out
      end
    | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
      go a;
      go b
    | Neg a | Not a -> go a
    | In_set (es, _) -> List.iter go es
  in
  go e;
  List.rev !out

let in_sets e =
  let rec go acc = function
    | Const _ | Col _ -> acc
    | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) -> go (go acc a) b
    | Neg a | Not a -> go acc a
    | In_set (es, s) -> List.fold_left go (s :: acc) es
  in
  List.rev (go [] e)

let rec bind schema row e =
  match e with
  | Const _ -> e
  | Col c ->
    (try Const row.(Schema.index_of_col schema c) with
     | Schema.Unknown_column _ -> e)
  | Binop (op, a, b) -> Binop (op, bind schema row a, bind schema row b)
  | Neg a -> Neg (bind schema row a)
  | Cmp (op, a, b) -> Cmp (op, bind schema row a, bind schema row b)
  | And (a, b) -> And (bind schema row a, bind schema row b)
  | Or (a, b) -> Or (bind schema row a, bind schema row b)
  | Not a -> Not (bind schema row a)
  | In_set (es, s) -> In_set (List.map (bind schema row) es, s)

let rec requalify f e =
  match e with
  | Const _ -> e
  | Col c -> Col { c with Schema.qualifier = f c.Schema.qualifier }
  | Binop (op, a, b) -> Binop (op, requalify f a, requalify f b)
  | Neg a -> Neg (requalify f a)
  | Cmp (op, a, b) -> Cmp (op, requalify f a, requalify f b)
  | And (a, b) -> And (requalify f a, requalify f b)
  | Or (a, b) -> Or (requalify f a, requalify f b)
  | Not a -> Not (requalify f a)
  | In_set (es, s) -> In_set (List.map (requalify f) es, s)

let rec map_cols f e =
  match e with
  | Const _ -> e
  | Col c -> Col (f c)
  | Binop (op, a, b) -> Binop (op, map_cols f a, map_cols f b)
  | Neg a -> Neg (map_cols f a)
  | Cmp (op, a, b) -> Cmp (op, map_cols f a, map_cols f b)
  | And (a, b) -> And (map_cols f a, map_cols f b)
  | Or (a, b) -> Or (map_cols f a, map_cols f b)
  | Not a -> Not (map_cols f a)
  | In_set (es, s) -> In_set (List.map (map_cols f) es, s)

let canonicalize schema e =
  map_cols (fun c -> Schema.nth schema (Schema.index_of_col schema c)) e

let apply_cmp op a b =
  (* NaN compares like NULL: every predicate involving it is false (the
     compiled paths get the same rule from [Value.compare_sql_code]). *)
  if Value.is_nan a || Value.is_nan b then Value.Bool false
  else
  match Value.compare_sql a b with
  | None -> Value.Bool false
  | Some c ->
    Value.Bool
      (match op with
       | Eq -> c = 0
       | Ne -> c <> 0
       | Lt -> c < 0
       | Le -> c <= 0
       | Gt -> c > 0
       | Ge -> c >= 0)

let apply_binop op a b =
  match op with
  | Add -> Value.add a b
  | Sub -> Value.sub a b
  | Mul -> Value.mul a b
  | Div -> Value.div a b

let rec eval schema row e =
  match e with
  | Const v -> v
  | Col c -> row.(Schema.index_of_col schema c)
  | Binop (op, a, b) -> apply_binop op (eval schema row a) (eval schema row b)
  | Neg a -> Value.neg (eval schema row a)
  | Cmp (op, a, b) -> apply_cmp op (eval schema row a) (eval schema row b)
  | And (a, b) -> Value.Bool (eval_bool schema row a && eval_bool schema row b)
  | Or (a, b) -> Value.Bool (eval_bool schema row a || eval_bool schema row b)
  | Not a -> Value.Bool (not (eval_bool schema row a))
  | In_set (es, set) ->
    let key = Array.of_list (List.map (eval schema row) es) in
    Value.Bool (row_set_mem set key)

and eval_bool schema row e = Value.to_bool (eval schema row e)

(* Compilation resolves every column reference to an index once, returning a
   closure that only does array reads at run time. *)
let rec compile schema e =
  match e with
  | Const v -> fun _ -> v
  | Col c ->
    let i = Schema.index_of_col schema c in
    fun row -> row.(i)
  | Binop (op, a, b) ->
    let fa = compile schema a and fb = compile schema b in
    fun row -> apply_binop op (fa row) (fb row)
  | Neg a ->
    let fa = compile schema a in
    fun row -> Value.neg (fa row)
  | Cmp (op, a, b) ->
    let fa = compile schema a and fb = compile schema b in
    fun row -> apply_cmp op (fa row) (fb row)
  | And (a, b) ->
    let fa = compile_bool' schema a and fb = compile_bool' schema b in
    fun row -> Value.Bool (fa row && fb row)
  | Or (a, b) ->
    let fa = compile_bool' schema a and fb = compile_bool' schema b in
    fun row -> Value.Bool (fa row || fb row)
  | Not a ->
    let fa = compile_bool' schema a in
    fun row -> Value.Bool (not (fa row))
  | In_set (es, set) ->
    let fs = List.map (compile schema) es in
    fun row ->
      let key = Array.of_list (List.map (fun f -> f row) fs) in
      Value.Bool (row_set_mem set key)

and compile_bool' schema e =
  (* Direct boolean compilation: predicates never box intermediate
     [Value.Bool]s on the hot path. *)
  match e with
  | Const (Value.Bool b) -> fun _ -> b
  | Cmp (op, a, b) ->
    let fa = compile schema a and fb = compile schema b in
    let test =
      match op with
      | Eq -> fun c -> c = 0
      | Ne -> fun c -> c <> 0 && c <> min_int
      | Lt -> fun c -> c < 0 && c <> min_int
      | Le -> fun c -> c <= 0 && c <> min_int
      | Gt -> fun c -> c > 0
      | Ge -> fun c -> c >= 0
    in
    fun row -> test (Value.compare_sql_code (fa row) (fb row))
  | And (a, b) ->
    let fa = compile_bool' schema a and fb = compile_bool' schema b in
    fun row -> fa row && fb row
  | Or (a, b) ->
    let fa = compile_bool' schema a and fb = compile_bool' schema b in
    fun row -> fa row || fb row
  | Not a ->
    let fa = compile_bool' schema a in
    fun row -> not (fa row)
  | In_set (es, set) ->
    let fs = List.map (compile schema) es in
    fun row ->
      let key = Array.of_list (List.map (fun f -> f row) fs) in
      row_set_mem set key
  | Const _ | Col _ | Binop _ | Neg _ ->
    let f = compile schema e in
    fun row -> Value.to_bool (f row)

let compile_bool = compile_bool'

let compile_join_bool left right e =
  let la = Schema.arity left in
  let joined = Schema.append left right in
  let f = compile_bool joined e in
  let scratch = Array.make (la + Schema.arity right) Value.Null in
  fun lrow rrow ->
    Array.blit lrow 0 scratch 0 la;
    Array.blit rrow 0 scratch la (Array.length rrow);
    f scratch

let flip_cmp = function
  | Eq -> Eq
  | Ne -> Ne
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le

let negate_cmp = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

let cmp_to_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let binop_to_string = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

let rec to_string = function
  | Const v -> Value.to_string v
  | Col c -> Schema.col_to_string c
  | Binop (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (to_string a) (binop_to_string op) (to_string b)
  | Neg a -> Printf.sprintf "(-%s)" (to_string a)
  | Cmp (op, a, b) ->
    Printf.sprintf "%s %s %s" (to_string a) (cmp_to_string op) (to_string b)
  | And (a, b) -> Printf.sprintf "(%s AND %s)" (to_string a) (to_string b)
  | Or (a, b) -> Printf.sprintf "(%s OR %s)" (to_string a) (to_string b)
  | Not a -> Printf.sprintf "NOT (%s)" (to_string a)
  | In_set (es, set) ->
    Printf.sprintf "(%s) IN <set:%d>"
      (String.concat ", " (List.map to_string es))
      (row_set_cardinality set)

let rec equal a b =
  match a, b with
  | Const x, Const y -> Value.equal_total x y
  | Col x, Col y -> x = y
  | Binop (o1, a1, b1), Binop (o2, a2, b2) -> o1 = o2 && equal a1 a2 && equal b1 b2
  | Neg x, Neg y | Not x, Not y -> equal x y
  | Cmp (o1, a1, b1), Cmp (o2, a2, b2) -> o1 = o2 && equal a1 a2 && equal b1 b2
  | And (a1, b1), And (a2, b2) | Or (a1, b1), Or (a2, b2) ->
    equal a1 a2 && equal b1 b2
  | In_set (e1, s1), In_set (e2, s2) ->
    s1 == s2 && List.length e1 = List.length e2 && List.for_all2 equal e1 e2
  | _ -> false
