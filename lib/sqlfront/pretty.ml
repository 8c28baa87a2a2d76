open Ast

let binop_str = function
  | Relalg.Expr.Add -> "+"
  | Relalg.Expr.Sub -> "-"
  | Relalg.Expr.Mul -> "*"
  | Relalg.Expr.Div -> "/"

let cmp_str = function
  | Relalg.Expr.Eq -> "="
  | Relalg.Expr.Ne -> "<>"
  | Relalg.Expr.Lt -> "<"
  | Relalg.Expr.Le -> "<="
  | Relalg.Expr.Gt -> ">"
  | Relalg.Expr.Ge -> ">="

(* Constants print without loss, so the text of a query identifies it: the
   server keys its plan, result and partials caches by this text.  A float
   takes the fewest significant digits that read back to the same value
   ([Value.to_string]'s [%g] keeps only six); a string doubles its quotes,
   as the lexer expects. *)
let float_str x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || float_of_string s = x then s else go (p + 1)
    in
    go 15

let const_str v =
  match v with
  | Relalg.Value.Str s ->
    "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"
  | Relalg.Value.Float x -> float_str x
  | _ -> Relalg.Value.to_string v

let rec scalar = function
  | S_const v -> const_str v
  | S_col (None, n) -> n
  | S_col (Some q, n) -> q ^ "." ^ n
  | S_binop (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (scalar a) (binop_str op) (scalar b)
  | S_neg a -> Printf.sprintf "(-%s)" (scalar a)
  | S_agg a -> agg a

and agg = function
  | A_count_star -> "COUNT(*)"
  | A_count x -> Printf.sprintf "COUNT(%s)" (scalar x)
  | A_count_distinct x -> Printf.sprintf "COUNT(DISTINCT %s)" (scalar x)
  | A_sum x -> Printf.sprintf "SUM(%s)" (scalar x)
  | A_min x -> Printf.sprintf "MIN(%s)" (scalar x)
  | A_max x -> Printf.sprintf "MAX(%s)" (scalar x)
  | A_avg x -> Printf.sprintf "AVG(%s)" (scalar x)

let rec pred = function
  | P_true -> "TRUE"
  | P_cmp (op, a, b) -> Printf.sprintf "%s %s %s" (scalar a) (cmp_str op) (scalar b)
  | P_and (a, b) -> Printf.sprintf "(%s AND %s)" (pred a) (pred b)
  | P_or (a, b) -> Printf.sprintf "(%s OR %s)" (pred a) (pred b)
  | P_not a -> Printf.sprintf "NOT (%s)" (pred a)
  | P_in (es, q) ->
    Printf.sprintf "(%s) IN (%s)" (String.concat ", " (List.map scalar es)) (query q)

and select_item = function
  | Sel_star -> "*"
  | Sel_expr (s, None) -> scalar s
  | Sel_expr (s, Some a) -> scalar s ^ " AS " ^ a

and table_ref = function
  | T_table (n, None) -> n
  | T_table (n, Some a) -> n ^ " " ^ a
  | T_subquery (q, a) -> "(" ^ query q ^ ") " ^ a

and query q =
  let b = Buffer.create 128 in
  if q.with_defs <> [] then begin
    Buffer.add_string b "WITH ";
    Buffer.add_string b
      (String.concat ", "
         (List.map (fun (n, def) -> n ^ " AS (" ^ query def ^ ")") q.with_defs));
    Buffer.add_char b ' '
  end;
  Buffer.add_string b "SELECT ";
  if q.distinct then Buffer.add_string b "DISTINCT ";
  Buffer.add_string b (String.concat ", " (List.map select_item q.select));
  Buffer.add_string b " FROM ";
  Buffer.add_string b (String.concat ", " (List.map table_ref q.from));
  (match q.where with
   | None -> ()
   | Some p -> Buffer.add_string b (" WHERE " ^ pred p));
  if q.group_by <> [] then begin
    let gb =
      List.map (function None, n -> n | Some qq, n -> qq ^ "." ^ n) q.group_by
    in
    Buffer.add_string b (" GROUP BY " ^ String.concat ", " gb)
  end;
  (match q.having with
   | None -> ()
   | Some p -> Buffer.add_string b (" HAVING " ^ pred p));
  if q.order_by <> [] then begin
    let ob =
      List.map
        (fun (s, d) -> scalar s ^ match d with `Asc -> " ASC" | `Desc -> " DESC")
        q.order_by
    in
    Buffer.add_string b (" ORDER BY " ^ String.concat ", " ob)
  end;
  (match q.limit with
   | None -> ()
   | Some n -> Buffer.add_string b (Printf.sprintf " LIMIT %d" n));
  Buffer.contents b
