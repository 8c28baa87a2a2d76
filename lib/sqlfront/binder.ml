open Relalg
open Ast

exception Bind_error of string

let err fmt = Format.kasprintf (fun s -> raise (Bind_error s)) fmt

type env = {
  catalog : Catalog.t;
  workers : int;
  ctes : (string * Relation.t) list;
  subquery : (query -> Relation.t) option;
      (* evaluates IN-subqueries that see no CTE of this binding *)
}

let find_cte env name =
  List.find_opt (fun (n, _) -> String.lowercase_ascii n = String.lowercase_ascii name) env.ctes
  |> Option.map snd

(* ---- scalar conversion ---- *)

let rec scalar_expr_env env s =
  match s with
  | S_const v -> Expr.Const v
  | S_col (q, n) -> Expr.Col (Schema.col ?q n)
  | S_binop (op, a, b) -> Expr.Binop (op, scalar_expr_env env a, scalar_expr_env env b)
  | S_neg a -> Expr.Neg (scalar_expr_env env a)
  | S_agg _ -> err "aggregate not allowed in this context"

and pred_expr_env env p =
  match p with
  | P_true -> Expr.tt
  | P_cmp (op, a, b) -> Expr.Cmp (op, scalar_expr_env env a, scalar_expr_env env b)
  | P_and (a, b) -> Expr.And (pred_expr_env env a, pred_expr_env env b)
  | P_or (a, b) -> Expr.Or (pred_expr_env env a, pred_expr_env env b)
  | P_not a -> Expr.Not (pred_expr_env env a)
  | P_in (es, q) ->
    let sub =
      match env.subquery with
      | Some f when env.ctes = [] -> f q
      | _ -> run_env env q
    in
    if List.length es <> Schema.arity sub.Relation.schema then
      err "IN: arity mismatch between tuple and subquery";
    Expr.In_set (List.map (scalar_expr_env env) es, Expr.row_set_of (Array.to_list (Relation.rows sub)))

and agg_func_env env = function
  | A_count_star -> Agg.Count_star
  | A_count s -> Agg.Count (scalar_expr_env env s)
  | A_count_distinct s -> Agg.Count_distinct (scalar_expr_env env s)
  | A_sum s -> Agg.Sum (scalar_expr_env env s)
  | A_min s -> Agg.Min (scalar_expr_env env s)
  | A_max s -> Agg.Max (scalar_expr_env env s)
  | A_avg s -> Agg.Avg (scalar_expr_env env s)

(* ---- FROM items and join planning ---- *)

and from_item env ref_ =
  match ref_ with
  | T_table (name, alias) ->
    let a = Option.value alias ~default:name in
    (match find_cte env name with
     | Some rel -> (Plan.Values { name = a; rel }, a)
     | None ->
       if not (Catalog.mem env.catalog name) then err "unknown table %s" name;
       (Plan.Scan { table = name; alias = Some a; filter = None }, a))
  | T_subquery (q, alias) -> (Plan.Rename (alias, bind_env env q), alias)

and cols_covered schema cols =
  List.for_all (fun (q, n) -> Schema.mem schema (Schema.col ?q n)) cols

(* Try to turn a conjunct into an index bound on a base-table column of the
   right side: returns (key column name, lo bound, hi bound). *)
and index_bound_of_conjunct env ~left_schema ~table ~alias conjunct =
  match conjunct with
  | P_cmp (op, a, b) ->
    let tbl = Catalog.find env.catalog table in
    let is_right_col s =
      match s with
      | S_col (q, n) ->
        let qok = match q with None -> true | Some q -> String.equal q alias in
        if qok && Schema.mem tbl.Catalog.rel.Relation.schema (Schema.col n) then Some n
        else None
      | _ -> None
    in
    let left_only s = cols_covered left_schema (cols_of_scalar s) in
    let attempt col_name other op =
      match Catalog.sorted_index_on tbl col_name with
      | None -> None
      | Some _ ->
        let bound = scalar_expr_env env other in
        (match op with
         | Expr.Le -> Some (col_name, None, Some (bound, `Inclusive))
         | Expr.Lt -> Some (col_name, None, Some (bound, `Strict))
         | Expr.Ge -> Some (col_name, Some (bound, `Inclusive), None)
         | Expr.Gt -> Some (col_name, Some (bound, `Strict), None)
         | Expr.Eq -> Some (col_name, Some (bound, `Inclusive), Some (bound, `Inclusive))
         | Expr.Ne -> None)
    in
    (match is_right_col a, left_only b, is_right_col b, left_only a with
     | Some n, true, _, _ -> attempt n b op
     | _, _, Some n, true -> attempt n a (Expr.flip_cmp op)
     | _ -> None)
  | _ -> None

and plan_joins env items conjs =
  (* [conjs]: (pred, cols, used-flag ref). Returns plan and leftovers. *)
  match items with
  | [] -> err "empty FROM"
  | (first, _) :: rest ->
    let used = Array.make (List.length conjs) false in
    let conjs = Array.of_list conjs in
    let take_available schema =
      let avail = ref [] in
      Array.iteri
        (fun i (p, cols) ->
          if (not used.(i)) && cols_covered schema cols then begin
            used.(i) <- true;
            avail := p :: !avail
          end)
        conjs;
      List.rev !avail
    in
    (* Single-item filters for the first item. *)
    let schema0 = Plan.schema_of env.catalog first in
    let filters0 = take_available schema0 in
    let plan0 =
      match filters0 with
      | [] -> first
      | ps -> Plan.Filter (Expr.conj (List.map (pred_expr_env env) ps), first)
    in
    let step (acc_plan, acc_schema) (item_plan, _item_alias) =
      let item_schema = Plan.schema_of env.catalog item_plan in
      (* Push single-table filters into the new item first. *)
      let item_filters = take_available item_schema in
      let item_plan =
        match item_filters with
        | [] -> item_plan
        | ps -> Plan.Filter (Expr.conj (List.map (pred_expr_env env) ps), item_plan)
      in
      let combined = Schema.append acc_schema item_schema in
      let avail = take_available combined in
      (* Partition into equi-join keys and the rest. *)
      let keys, residual =
        List.partition_map
          (fun p ->
            match p with
            | P_cmp (Expr.Eq, a, b)
              when is_agg_free a && is_agg_free b
                   && cols_covered acc_schema (cols_of_scalar a)
                   && cols_covered item_schema (cols_of_scalar b) ->
              Left (scalar_expr_env env a, scalar_expr_env env b)
            | P_cmp (Expr.Eq, a, b)
              when is_agg_free a && is_agg_free b
                   && cols_covered acc_schema (cols_of_scalar b)
                   && cols_covered item_schema (cols_of_scalar a) ->
              Left (scalar_expr_env env b, scalar_expr_env env a)
            | p -> Right p)
          avail
      in
      let plan =
        if keys <> [] then begin
          let residual = Expr.conj (List.map (pred_expr_env env) residual) in
          Plan.Hash_join { keys; residual; left = acc_plan; right = item_plan }
        end
        else begin
          (* Look for an index nested-loop opportunity on a bare base table. *)
          let base =
            match item_plan with
            | Plan.Scan { table; alias; filter = None } -> Some (table, Option.value alias ~default:table)
            | _ -> None
          in
          let bound =
            match base with
            | None -> None
            | Some (table, alias) ->
              List.find_map
                (fun c -> index_bound_of_conjunct env ~left_schema:acc_schema ~table ~alias c)
                residual
          in
          match base, bound with
          | Some (table, alias), Some (key_col, lo, hi) ->
            Plan.Index_nl_join
              {
                pred = Expr.conj (List.map (pred_expr_env env) residual);
                left = acc_plan;
                table;
                alias = Some alias;
                key_col;
                lo;
                hi;
              }
          | _ ->
            Plan.Nl_join
              {
                pred = Expr.conj (List.map (pred_expr_env env) avail);
                left = acc_plan;
                right = item_plan;
              }
        end
      in
      (plan, combined)
    in
    let plan, schema = List.fold_left step (plan0, schema0) rest in
    let leftovers = ref [] in
    Array.iteri (fun i (p, _) -> if not used.(i) then leftovers := p :: !leftovers) conjs;
    let plan =
      match !leftovers with
      | [] -> plan
      | ps -> Plan.Filter (Expr.conj (List.map (pred_expr_env env) ps), plan)
    in
    (plan, schema)

(* ---- grouping, having, projection ---- *)

and replace_aggs_scalar mapping s =
  match s with
  | S_const _ | S_col _ -> s
  | S_binop (op, a, b) ->
    S_binop (op, replace_aggs_scalar mapping a, replace_aggs_scalar mapping b)
  | S_neg a -> S_neg (replace_aggs_scalar mapping a)
  | S_agg a ->
    (match List.find_opt (fun (ag, _) -> equal_agg ag a) mapping with
     | Some (_, name) -> S_col (None, name)
     | None -> err "aggregate %s not collected" (Pretty.scalar s))

and replace_aggs_pred mapping p =
  match p with
  | P_true -> P_true
  | P_cmp (op, a, b) ->
    P_cmp (op, replace_aggs_scalar mapping a, replace_aggs_scalar mapping b)
  | P_and (a, b) -> P_and (replace_aggs_pred mapping a, replace_aggs_pred mapping b)
  | P_or (a, b) -> P_or (replace_aggs_pred mapping a, replace_aggs_pred mapping b)
  | P_not a -> P_not (replace_aggs_pred mapping a)
  | P_in _ -> err "IN-subquery not supported in HAVING"

and bind_env env q =
  (* Materialize CTEs in order; later CTEs see earlier ones. *)
  let env =
    List.fold_left
      (fun env (name, def) ->
        let rel = run_env env def in
        { env with ctes = (name, rel) :: env.ctes })
      env q.with_defs
  in
  let items = List.map (from_item env) q.from in
  let conjs =
    match q.where with
    | None -> []
    | Some p -> List.map (fun c -> (c, cols_of_pred c)) (conjuncts p)
  in
  let joined, join_schema = plan_joins env items conjs in
  let select_aggs =
    List.concat_map
      (function Sel_star -> [] | Sel_expr (s, _) -> aggs_of_scalar s)
      q.select
  in
  let having_aggs = match q.having with None -> [] | Some p -> aggs_of_pred p in
  let order_aggs = List.concat_map (fun (s, _) -> aggs_of_scalar s) q.order_by in
  let all_aggs =
    List.fold_left
      (fun acc a -> if List.exists (equal_agg a) acc then acc else acc @ [ a ])
      [] (select_aggs @ having_aggs @ order_aggs)
  in
  let grouped = q.group_by <> [] || all_aggs <> [] in
  let plan, out_schema =
    if not grouped then begin
      (match q.having with
       | Some _ -> err "HAVING without GROUP BY or aggregates"
       | None -> ());
      match q.select with
      | [ Sel_star ] -> (joined, join_schema)
      | items ->
        let outs =
          List.mapi
            (fun i item ->
              match item with
              | Sel_star -> err "SELECT * mixed with other select items"
              | Sel_expr (s, alias) ->
                let e = scalar_expr_env env s in
                let name =
                  match alias, s with
                  | Some a, _ -> Schema.col a
                  | None, S_col (qq, n) ->
                    (* keep the canonical qualified column *)
                    let idx = Schema.index_of join_schema ?q:qq n in
                    Schema.nth join_schema idx
                  | None, _ -> Schema.col (Printf.sprintf "col%d" i)
                in
                (e, name))
            items
        in
        (Plan.Project (outs, joined), Schema.of_cols (List.map snd outs))
    end
    else begin
      (* Grouped (or globally aggregated) query. *)
      let group_cols =
        List.map
          (fun (qq, n) ->
            let idx = Schema.index_of join_schema ?q:qq n in
            let canon = Schema.nth join_schema idx in
            (Expr.Col canon, canon))
          q.group_by
      in
      let agg_mapping =
        List.mapi (fun i a -> (a, Printf.sprintf "__agg%d" i)) all_aggs
      in
      let aggs =
        List.map (fun (a, name) -> (agg_func_env env a, Schema.col name)) agg_mapping
      in
      let gplan = Plan.Group { group_cols; aggs; input = joined } in
      let gschema =
        Schema.of_cols (List.map snd group_cols @ List.map (fun (_, c) -> c) aggs)
      in
      let hplan =
        match q.having with
        | None -> gplan
        | Some p ->
          let p' = replace_aggs_pred agg_mapping p in
          Plan.Filter (pred_expr_env env p', gplan)
      in
      let outs =
        List.mapi
          (fun i item ->
            match item with
            | Sel_star -> err "SELECT * not allowed with GROUP BY"
            | Sel_expr (s, alias) ->
              let s' = replace_aggs_scalar agg_mapping s in
              let e = scalar_expr_env env s' in
              let name =
                match alias, s with
                | Some a, _ -> Schema.col a
                | None, S_col (qq, n) ->
                  let idx = Schema.index_of gschema ?q:qq n in
                  Schema.nth gschema idx
                | None, S_agg _ -> Schema.col (Printf.sprintf "col%d" i)
                | None, _ -> Schema.col (Printf.sprintf "col%d" i)
              in
              (e, name))
          q.select
      in
      (Plan.Project (outs, hplan), Schema.of_cols (List.map snd outs))
    end
  in
  let plan = if q.distinct then Plan.Distinct plan else plan in
  let plan =
    match q.order_by with
    | [] -> plan
    | keys ->
      let agg_mapping =
        List.mapi (fun i a -> (a, Printf.sprintf "__agg%d" i)) all_aggs
      in
      let keys' =
        List.map
          (fun (s, d) ->
            let s' = if grouped then replace_aggs_scalar agg_mapping s else s in
            (scalar_expr_env env s', d))
          keys
      in
      (* SQL sorts conceptually before the final projection: when a key does
         not resolve in the output schema, push the sort below Project. *)
      let resolves_in schema e =
        List.for_all (fun c -> Schema.mem schema c) (Expr.columns e)
      in
      let all_resolve = List.for_all (fun (e, _) -> resolves_in out_schema e) keys' in
      if all_resolve then Plan.Order_by (keys', plan)
      else begin
        match plan with
        | Plan.Project (outs, inner) -> Plan.Project (outs, Plan.Order_by (keys', inner))
        | p -> Plan.Order_by (keys', p)
      end
  in
  match q.limit with None -> plan | Some n -> Plan.Limit (n, plan)

and run_env env q = Exec.run ~workers:env.workers env.catalog (bind_env env q)

let bind ?(workers = 1) ?subquery catalog q =
  bind_env { catalog; workers; ctes = []; subquery } q

let run ?(workers = 1) ?subquery catalog q =
  Exec.run ~workers catalog (bind ~workers ?subquery catalog q)

let empty_env () =
  {
    catalog = Catalog.create ();
    workers = 1;
    ctes = [];
    subquery = None;
  }

let scalar_expr s = scalar_expr_env (empty_env ()) s

let pred_expr ?(workers = 1) catalog p =
  pred_expr_env { catalog; workers; ctes = []; subquery = None } p

let agg_func a = agg_func_env (empty_env ()) a
