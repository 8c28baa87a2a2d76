type scalar = Row.t -> Value.t
type pred = Row.t -> bool

(* ---- constant folding ---- *)

(* Evaluating a constant subtree can raise (SUM('a' + 1), 1/0): keep the
   node so the error is raised per-row like the interpreter would, and only
   substitute when evaluation succeeds.  The schema/row are never consulted
   since the subtree has no column references. *)
let try_fold e =
  match Expr.eval (Schema.of_cols []) [||] e with
  | v -> Expr.Const v
  | exception Value.Type_error _ -> e

let fold1 mk a = match a with Expr.Const _ -> try_fold (mk a) | _ -> mk a

let fold2 mk a b =
  match a, b with Expr.Const _, Expr.Const _ -> try_fold (mk a b) | _ -> mk a b

let rec fold_constants e =
  match e with
  | Expr.Const _ | Expr.Col _ -> e
  | Expr.In_set (es, s) -> Expr.In_set (List.map fold_constants es, s)
  | Expr.Neg a -> fold1 (fun a -> Expr.Neg a) (fold_constants a)
  | Expr.Not a -> fold1 (fun a -> Expr.Not a) (fold_constants a)
  | Expr.Binop (op, a, b) ->
    fold2 (fun a b -> Expr.Binop (op, a, b)) (fold_constants a) (fold_constants b)
  | Expr.Cmp (op, a, b) ->
    fold2 (fun a b -> Expr.Cmp (op, a, b)) (fold_constants a) (fold_constants b)
  | Expr.And (a, b) ->
    let a = fold_constants a and b = fold_constants b in
    (* [a && _] short-circuits, so a false/NULL left side decides the node
       without the right side ever being evaluated. *)
    (match a with
     | Expr.Const (Value.Bool false) | Expr.Const Value.Null ->
       Expr.Const (Value.Bool false)
     | _ -> fold2 (fun a b -> Expr.And (a, b)) a b)
  | Expr.Or (a, b) ->
    let a = fold_constants a and b = fold_constants b in
    (match a with
     | Expr.Const (Value.Bool true) -> Expr.Const (Value.Bool true)
     | _ -> fold2 (fun a b -> Expr.Or (a, b)) a b)

(* ---- comparison codes resolved at compile time ---- *)

(* One comparator closure per [Cmp] node, with the int/int fast path inlined
   and NULL semantics (comparisons against NULL are false) baked in;
   [Value.compare_sql_code] returns [min_int] for NULL, which satisfies the
   >-family tests for free and is guarded explicitly in the <=-family. *)
let value_cmp (op : Expr.cmp) : Value.t -> Value.t -> bool =
  match op with
  | Expr.Eq ->
    fun a b ->
      (match a, b with
       | Value.Int x, Value.Int y -> x = y
       | _ -> Value.compare_sql_code a b = 0)
  | Expr.Ne ->
    fun a b ->
      (match a, b with
       | Value.Int x, Value.Int y -> x <> y
       | _ ->
         let c = Value.compare_sql_code a b in
         c <> 0 && c <> min_int)
  | Expr.Lt ->
    fun a b ->
      (match a, b with
       | Value.Int x, Value.Int y -> x < y
       | _ ->
         let c = Value.compare_sql_code a b in
         c < 0 && c <> min_int)
  | Expr.Le ->
    fun a b ->
      (match a, b with
       | Value.Int x, Value.Int y -> x <= y
       | _ ->
         let c = Value.compare_sql_code a b in
         c <= 0 && c <> min_int)
  | Expr.Gt ->
    fun a b ->
      (match a, b with
       | Value.Int x, Value.Int y -> x > y
       | _ -> Value.compare_sql_code a b > 0)
  | Expr.Ge ->
    fun a b ->
      (match a, b with
       | Value.Int x, Value.Int y -> x >= y
       | _ -> Value.compare_sql_code a b >= 0)

(* ---- zone-map probes for block skipping ---- *)

type zone_probe = { zp_col : int; zp_op : Expr.cmp; zp_const : Value.t }

let zmap_cmp : Expr.cmp -> Column.Zmap.cmp = function
  | Expr.Eq -> Column.Zmap.Eq
  | Expr.Ne -> Column.Zmap.Ne
  | Expr.Lt -> Column.Zmap.Lt
  | Expr.Le -> Column.Zmap.Le
  | Expr.Gt -> Column.Zmap.Gt
  | Expr.Ge -> Column.Zmap.Ge

let flip_cmp : Expr.cmp -> Expr.cmp = function
  | Expr.Eq -> Expr.Eq
  | Expr.Ne -> Expr.Ne
  | Expr.Lt -> Expr.Gt
  | Expr.Le -> Expr.Ge
  | Expr.Gt -> Expr.Lt
  | Expr.Ge -> Expr.Le

(* Walk the top-level AND-chain and collect every column-vs-constant
   comparison.  Each probe is a necessary condition for the whole predicate,
   so a block whose zone map refutes any one of them cannot contain a
   matching row — regardless of the conjuncts we could not convert.
   [exact] reports whether the probes ARE the predicate (every conjunct
   converted), letting the scan evaluate them on typed vectors and skip the
   per-row closure entirely. *)
let zone_probes schema e =
  let probes = ref [] in
  let push op c v =
    probes :=
      { zp_col = Schema.index_of_col schema c; zp_op = op; zp_const = v }
      :: !probes
  in
  let rec go exact e =
    match e with
    | Expr.And (a, b) ->
      let ea = go exact a in
      go ea b
    | Expr.Cmp (op, Expr.Col c, Expr.Const v) ->
      push op c v;
      exact
    | Expr.Cmp (op, Expr.Const v, Expr.Col c) ->
      push (flip_cmp op) c v;
      exact
    | Expr.Const (Value.Bool true) -> exact
    | _ -> false
  in
  let exact = go true (fold_constants e) in
  (List.rev !probes, exact)

let binop_fn = function
  | Expr.Add -> Value.add
  | Expr.Sub -> Value.sub
  | Expr.Mul -> Value.mul
  | Expr.Div -> Value.div

(* ---- IN against a materialized set ---- *)

(* A packed set is probed by coding each key value in turn: no key array
   per row.  A set that does not pack keeps [Row.Tbl] membership. *)
let in_set set fs =
  let n = Array.length fs in
  match Expr.row_set_keys set with
  | Some ks when Keys.Set.arity ks <> n -> fun _ -> false
  | Some ks when n = 1 ->
    let f = fs.(0) in
    fun row ->
      let c = Keys.Set.code ks 0 (f row) in
      c >= 0 && Keys.Set.mem_key ks c
  | Some ks ->
    fun row ->
      let k = ref 0 and i = ref 0 in
      while !i < n do
        let c = Keys.Set.code ks !i (fs.(!i) row) in
        if c < 0 then i := n + 1
        else begin
          k := !k + (c * Keys.Set.mult ks !i);
          incr i
        end
      done;
      !i = n && Keys.Set.mem_key ks !k
  | None ->
    fun row ->
      let key = Array.make n Value.Null in
      for i = 0 to n - 1 do
        key.(i) <- fs.(i) row
      done;
      Expr.row_set_mem set key

let in_set_pair set fs =
  let n = Array.length fs in
  match Expr.row_set_keys set with
  | Some ks when Keys.Set.arity ks <> n -> fun _ _ -> false
  | Some ks when n = 1 ->
    let f = fs.(0) in
    fun l r ->
      let c = Keys.Set.code ks 0 (f l r) in
      c >= 0 && Keys.Set.mem_key ks c
  | Some ks ->
    fun l r ->
      let k = ref 0 and i = ref 0 in
      while !i < n do
        let c = Keys.Set.code ks !i (fs.(!i) l r) in
        if c < 0 then i := n + 1
        else begin
          k := !k + (c * Keys.Set.mult ks !i);
          incr i
        end
      done;
      !i = n && Keys.Set.mem_key ks !k
  | None ->
    fun l r ->
      let key = Array.make n Value.Null in
      for i = 0 to n - 1 do
        key.(i) <- fs.(i) l r
      done;
      Expr.row_set_mem set key

(* ---- single-row compiler ---- *)

let rec sc schema (e : Expr.t) : scalar =
  match e with
  | Expr.Const v -> fun _ -> v
  | Expr.Col c ->
    let i = Schema.index_of_col schema c in
    fun row -> row.(i)
  | Expr.Binop (op, a, b) ->
    let f = binop_fn op in
    let fa = sc schema a and fb = sc schema b in
    fun row -> f (fa row) (fb row)
  | Expr.Neg a ->
    let fa = sc schema a in
    fun row -> Value.neg (fa row)
  | Expr.Cmp _ | Expr.And _ | Expr.Or _ | Expr.Not _ | Expr.In_set _ ->
    let p = pr schema e in
    fun row -> Value.Bool (p row)

and pr schema (e : Expr.t) : pred =
  match e with
  | Expr.Const (Value.Bool b) -> fun _ -> b
  | Expr.Const Value.Null -> fun _ -> false
  | Expr.Cmp (op, a, b) ->
    let vc = value_cmp op in
    (match a, b with
     | Expr.Col ca, Expr.Col cb ->
       let i = Schema.index_of_col schema ca
       and j = Schema.index_of_col schema cb in
       fun row -> vc row.(i) row.(j)
     | Expr.Col ca, Expr.Const v ->
       let i = Schema.index_of_col schema ca in
       fun row -> vc row.(i) v
     | Expr.Const v, Expr.Col cb ->
       let j = Schema.index_of_col schema cb in
       fun row -> vc v row.(j)
     | _ ->
       let fa = sc schema a and fb = sc schema b in
       fun row -> vc (fa row) (fb row))
  | Expr.And (a, b) ->
    let fa = pr schema a and fb = pr schema b in
    fun row -> fa row && fb row
  | Expr.Or (a, b) ->
    let fa = pr schema a and fb = pr schema b in
    fun row -> fa row || fb row
  | Expr.Not a ->
    let fa = pr schema a in
    fun row -> not (fa row)
  | Expr.In_set (es, set) -> in_set set (Array.of_list (List.map (sc schema) es))
  | Expr.Const _ | Expr.Col _ | Expr.Binop _ | Expr.Neg _ ->
    let f = sc schema e in
    fun row -> Value.to_bool (f row)

let scalar schema e = sc schema (fold_constants e)
let pred schema e = pr schema (fold_constants e)

(* ---- parameterized probes: r_col op f(binding) ---- *)

let binding_only ~binding e =
  List.for_all
    (fun c ->
      match Schema.index_of_col binding c with
      | _ -> true
      | exception Schema.Unknown_column _ -> false
      | exception Schema.Ambiguous_column _ -> false)
    (Expr.columns e)

let inner_probe ~binding ~inner conj =
  let bare_inner = function
    | Expr.Col c ->
      (match Schema.index_of_col inner c with
       | i -> Some i
       | exception Schema.Unknown_column _ -> None
       | exception Schema.Ambiguous_column _ -> None)
    | _ -> None
  in
  match conj with
  | Expr.Cmp (op, a, b) ->
    (match bare_inner a, bare_inner b with
     | Some i, _ when binding_only ~binding b -> Some (i, op, b)
     | _, Some i when binding_only ~binding a -> Some (i, flip_cmp op, a)
     | _ -> None)
  | _ -> None

(* ---- join-pair compiler ---- *)

(* Columns resolve against the appended schema (same name resolution and
   ambiguity errors as compiling over a concatenated row) but read straight
   from whichever of the two rows owns the offset — no scratch blit. *)
let join_accessor joined la c : Row.t -> Row.t -> Value.t =
  let i = Schema.index_of_col joined c in
  if i < la then fun l _ -> l.(i)
  else
    let j = i - la in
    fun _ r -> r.(j)

let rec sj joined la (e : Expr.t) : Row.t -> Row.t -> Value.t =
  match e with
  | Expr.Const v -> fun _ _ -> v
  | Expr.Col c -> join_accessor joined la c
  | Expr.Binop (op, a, b) ->
    let f = binop_fn op in
    let fa = sj joined la a and fb = sj joined la b in
    fun l r -> f (fa l r) (fb l r)
  | Expr.Neg a ->
    let fa = sj joined la a in
    fun l r -> Value.neg (fa l r)
  | Expr.Cmp _ | Expr.And _ | Expr.Or _ | Expr.Not _ | Expr.In_set _ ->
    let p = pj joined la e in
    fun l r -> Value.Bool (p l r)

and pj joined la (e : Expr.t) : Row.t -> Row.t -> bool =
  match e with
  | Expr.Const (Value.Bool b) -> fun _ _ -> b
  | Expr.Const Value.Null -> fun _ _ -> false
  | Expr.Cmp (op, a, b) ->
    let vc = value_cmp op in
    (match a, b with
     | Expr.Col ca, Expr.Col cb ->
       let ga = join_accessor joined la ca and gb = join_accessor joined la cb in
       fun l r -> vc (ga l r) (gb l r)
     | Expr.Col ca, Expr.Const v ->
       let ga = join_accessor joined la ca in
       fun l r -> vc (ga l r) v
     | Expr.Const v, Expr.Col cb ->
       let gb = join_accessor joined la cb in
       fun l r -> vc v (gb l r)
     | _ ->
       let fa = sj joined la a and fb = sj joined la b in
       fun l r -> vc (fa l r) (fb l r))
  | Expr.And (a, b) ->
    let fa = pj joined la a and fb = pj joined la b in
    fun l r -> fa l r && fb l r
  | Expr.Or (a, b) ->
    let fa = pj joined la a and fb = pj joined la b in
    fun l r -> fa l r || fb l r
  | Expr.Not a ->
    let fa = pj joined la a in
    fun l r -> not (fa l r)
  | Expr.In_set (es, set) -> in_set_pair set (Array.of_list (List.map (sj joined la) es))
  | Expr.Const _ | Expr.Col _ | Expr.Binop _ | Expr.Neg _ ->
    let f = sj joined la e in
    fun l r -> Value.to_bool (f l r)

let join_pred left right e =
  let joined = Schema.append left right in
  pj joined (Schema.arity left) (fold_constants e)

let join_scalar left right e =
  let joined = Schema.append left right in
  sj joined (Schema.arity left) (fold_constants e)

(* ---- projections and key builders ---- *)

let row_fn schema es =
  let es = List.map fold_constants es in
  let all_cols = List.for_all (function Expr.Col _ -> true | _ -> false) es in
  if all_cols then begin
    let idxs =
      Array.of_list
        (List.map
           (function Expr.Col c -> Schema.index_of_col schema c | _ -> assert false)
           es)
    in
    let n = Array.length idxs in
    fun row ->
      let out = Array.make n Value.Null in
      for i = 0 to n - 1 do
        out.(i) <- row.(idxs.(i))
      done;
      out
  end
  else begin
    let fs = Array.of_list (List.map (sc schema) es) in
    let n = Array.length fs in
    fun row ->
      let out = Array.make n Value.Null in
      for i = 0 to n - 1 do
        out.(i) <- fs.(i) row
      done;
      out
  end
