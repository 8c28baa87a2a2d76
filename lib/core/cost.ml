open Relalg

type estimate = { rows : float; cost : float }

type lookup = Schema.col -> Stats.col_stats option

let default_sel = 1. /. 3.

(* Selectivity of a row predicate given column statistics. *)
let rec selectivity (lookup : lookup) p =
  match p with
  | Expr.Const (Value.Bool true) -> 1.
  | Expr.Const (Value.Bool false) -> 0.
  | Expr.Cmp (op, Expr.Col c, Expr.Const v) ->
    (match lookup c with
     | Some cs -> Stats.range_selectivity cs op v
     | None -> default_sel)
  | Expr.Cmp (op, Expr.Const v, Expr.Col c) ->
    (match lookup c with
     | Some cs -> Stats.range_selectivity cs (Expr.flip_cmp op) v
     | None -> default_sel)
  | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b) ->
    (* equi-join selectivity: 1 / max(distinct) *)
    (match lookup a, lookup b with
     | Some sa, Some sb ->
       1. /. float_of_int (max 1 (max sa.Stats.distinct sb.Stats.distinct))
     | Some sa, None -> Stats.eq_selectivity sa
     | None, Some sb -> Stats.eq_selectivity sb
     | None, None -> default_sel)
  | Expr.Cmp ((Expr.Le | Expr.Lt | Expr.Ge | Expr.Gt), _, _) -> 0.5
  | Expr.Cmp (Expr.Ne, _, _) -> 1.
  | Expr.Cmp (Expr.Eq, _, _) -> default_sel
  | Expr.And (a, b) -> selectivity lookup a *. selectivity lookup b
  | Expr.Or (a, b) ->
    let sa = selectivity lookup a and sb = selectivity lookup b in
    sa +. sb -. (sa *. sb)
  | Expr.Not a -> 1. -. selectivity lookup a
  | Expr.In_set (es, set) ->
    let eq_sel =
      List.fold_left
        (fun acc e ->
          match e with
          | Expr.Col c ->
            (match lookup c with
             | Some cs -> acc *. Stats.eq_selectivity cs
             | None -> acc *. default_sel)
          | _ -> acc *. default_sel)
        1. es
    in
    Float.min 1. (float_of_int (Expr.row_set_cardinality set) *. eq_sel)
  | Expr.Const _ | Expr.Col _ | Expr.Binop _ | Expr.Neg _ -> default_sel

let distinct_of lookup e =
  match e with
  | Expr.Col c -> Option.map (fun cs -> cs.Stats.distinct) (lookup c)
  | _ -> None

type node = { est : estimate; lookup : lookup; label : string; children : node list }

(* Cached by table name, validated by the relation's physical identity: a
   renamed or replaced table (CTE temp tables, layout flips, a different
   catalog reusing the name) recomputes, while repeated estimates over an
   unchanged catalog — EXPLAIN ANALYZE issues several per block — reuse the
   one stats pass.  Bounded by the number of distinct table names seen.
   Mutex-guarded: the query server plans from several worker domains at
   once, and a torn [Hashtbl] resize is a segfault, not a stale answer. *)
let table_stats_cache : (string, Relation.t * Stats.t) Hashtbl.t = Hashtbl.create 16
let table_stats_mu = Mutex.create ()

let stats_of_table catalog name =
  let key = String.lowercase_ascii name in
  let tbl = Catalog.find catalog name in
  Mutex.lock table_stats_mu;
  let cached =
    match Hashtbl.find_opt table_stats_cache key with
    | Some (rel, s) when rel == tbl.Catalog.rel -> Some s
    | _ -> None
  in
  Mutex.unlock table_stats_mu;
  match cached with
  | Some s -> s
  | None ->
    let s = Stats.of_relation tbl.Catalog.rel in
    Mutex.lock table_stats_mu;
    Hashtbl.replace table_stats_cache key (tbl.Catalog.rel, s);
    Mutex.unlock table_stats_mu;
    s

let lookup_of_stats stats : lookup = fun c -> Stats.col stats c.Schema.name

let combine_lookup a b : lookup =
  fun c -> match a c with Some s -> Some s | None -> b c

let rec analyze catalog plan : node =
  match plan with
  | Plan.Scan { table; alias; filter } ->
    let stats = stats_of_table catalog table in
    let lookup = lookup_of_stats stats in
    let rows0 = float_of_int stats.Stats.row_count in
    let sel = match filter with None -> 1. | Some p -> selectivity lookup p in
    {
      est = { rows = rows0 *. sel; cost = rows0 };
      lookup;
      label =
        Printf.sprintf "Scan %s%s" table
          (match alias with Some a when a <> table -> " AS " ^ a | _ -> "");
      children = [];
    }
  | Plan.Values { name; rel } ->
    let stats = Stats.of_relation rel in
    {
      est = { rows = float_of_int stats.Stats.row_count; cost = 0. };
      lookup = lookup_of_stats stats;
      label = Printf.sprintf "Materialized %s" name;
      children = [];
    }
  | Plan.Filter (p, inner) ->
    let n = analyze catalog inner in
    let sel = selectivity n.lookup p in
    {
      est = { rows = n.est.rows *. sel; cost = n.est.cost +. n.est.rows };
      lookup = n.lookup;
      label = "Filter";
      children = [ n ];
    }
  | Plan.Project (outs, inner) ->
    let n = analyze catalog inner in
    let lookup c =
      List.find_map
        (fun (e, name) ->
          if name.Schema.name = c.Schema.name then
            match e with Expr.Col src -> n.lookup src | _ -> None
          else None)
        outs
    in
    {
      est = { n.est with cost = n.est.cost +. n.est.rows };
      lookup;
      label = "Project";
      children = [ n ];
    }
  | Plan.Nl_join { pred; left; right } ->
    let l = analyze catalog left and r = analyze catalog right in
    let lookup = combine_lookup l.lookup r.lookup in
    let pairs = l.est.rows *. r.est.rows in
    let rows = pairs *. selectivity lookup pred in
    {
      est = { rows; cost = l.est.cost +. r.est.cost +. pairs +. rows };
      lookup;
      label = "Nested Loop";
      children = [ l; r ];
    }
  | Plan.Hash_join { keys; residual; left; right } ->
    let l = analyze catalog left and r = analyze catalog right in
    let lookup = combine_lookup l.lookup r.lookup in
    let key_sel =
      List.fold_left
        (fun acc (a, b) ->
          let d =
            max
              (Option.value (distinct_of l.lookup a) ~default:10)
              (Option.value (distinct_of r.lookup b) ~default:10)
          in
          acc /. float_of_int (max 1 d))
        1. keys
    in
    let rows = l.est.rows *. r.est.rows *. key_sel *. selectivity lookup residual in
    {
      est =
        {
          rows;
          cost = l.est.cost +. r.est.cost +. l.est.rows +. r.est.rows +. rows;
        };
      lookup;
      label = "Hash Join";
      children = [ l; r ];
    }
  | Plan.Index_nl_join { pred; left; table; alias; lo; hi; _ } ->
    let l = analyze catalog left in
    let stats = stats_of_table catalog table in
    let r_lookup = lookup_of_stats stats in
    let lookup = combine_lookup l.lookup r_lookup in
    let r_rows = float_of_int stats.Stats.row_count in
    let bound_frac =
      match lo, hi with Some _, Some _ -> 0.25 | Some _, None | None, Some _ -> 0.5 | None, None -> 1.
    in
    let scanned = l.est.rows *. r_rows *. bound_frac in
    let rows = l.est.rows *. r_rows *. selectivity lookup pred in
    {
      est = { rows; cost = l.est.cost +. scanned +. rows };
      lookup;
      label =
        Printf.sprintf "Index Nested Loop (%s%s)" table
          (match alias with Some a when a <> table -> " AS " ^ a | _ -> "");
      children = [ l ];
    }
  | Plan.Group { group_cols; aggs = _; input } ->
    let n = analyze catalog input in
    let groups =
      List.fold_left
        (fun acc (e, _) ->
          match distinct_of n.lookup e with
          | Some d -> acc *. float_of_int (max 1 d)
          | None -> acc *. Float.max 1. (n.est.rows /. 10.))
        1. group_cols
    in
    let rows = if group_cols = [] then 1. else Float.min n.est.rows groups in
    {
      est = { rows; cost = n.est.cost +. n.est.rows };
      lookup = n.lookup;
      label = "HashAggregate";
      children = [ n ];
    }
  | Plan.Distinct inner ->
    let n = analyze catalog inner in
    {
      est = { rows = n.est.rows *. 0.5; cost = n.est.cost +. n.est.rows };
      lookup = n.lookup;
      label = "Distinct";
      children = [ n ];
    }
  | Plan.Order_by (_, inner) ->
    let n = analyze catalog inner in
    let sort_cost = n.est.rows *. Float.max 1. (Float.log (Float.max 2. n.est.rows)) in
    {
      est = { n.est with cost = n.est.cost +. sort_cost };
      lookup = n.lookup;
      label = "Sort";
      children = [ n ];
    }
  | Plan.Limit (k, inner) ->
    let n = analyze catalog inner in
    {
      est = { rows = Float.min (float_of_int k) n.est.rows; cost = n.est.cost };
      lookup = n.lookup;
      label = Printf.sprintf "Limit %d" k;
      children = [ n ];
    }
  | Plan.Semijoin { keys = _; sub; input } ->
    let s = analyze catalog sub and n = analyze catalog input in
    {
      est = { rows = n.est.rows *. 0.5; cost = s.est.cost +. n.est.cost +. n.est.rows };
      lookup = n.lookup;
      label = "Hash Semi Join (IN)";
      children = [ n; s ];
    }
  | Plan.Rename (alias, inner) ->
    let n = analyze catalog inner in
    {
      est = n.est;
      lookup = n.lookup;
      label = "Subquery " ^ alias;
      children = [ n ];
    }

let estimate catalog plan = (analyze catalog plan).est

(* Public estimate tree: the same per-node labels and estimates [explain]
   prints, with children ordered exactly like the executor visits plan
   children, so a node at child-index path [i; j; ...] here pairs with the
   actual row count the instrumented executor records under that path. *)
type tree = { t_label : string; t_rows : float; t_cost : float; t_children : tree list }

let rec to_tree n =
  {
    t_label = n.label;
    t_rows = n.est.rows;
    t_cost = n.est.cost;
    t_children = List.map to_tree n.children;
  }

let tree catalog plan = to_tree (analyze catalog plan)

let explain catalog plan =
  let root = analyze catalog plan in
  let b = Buffer.create 256 in
  let rec go depth node =
    Buffer.add_string b
      (Printf.sprintf "%s%s  (rows≈%.0f cost≈%.0f)\n"
         (String.make (2 * depth) ' ')
         node.label node.est.rows node.est.cost);
    List.iter (go (depth + 1)) node.children
  in
  go 0 root;
  Buffer.contents b
