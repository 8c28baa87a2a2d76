type bound = Expr.t * [ `Strict | `Inclusive ]

type t =
  | Scan of { table : string; alias : string option; filter : Expr.t option }
  | Values of { name : string; rel : Relation.t }
  | Filter of Expr.t * t
  | Project of (Expr.t * Schema.col) list * t
  | Nl_join of { pred : Expr.t; left : t; right : t }
  | Hash_join of {
      keys : (Expr.t * Expr.t) list;
      residual : Expr.t;
      left : t;
      right : t;
    }
  | Index_nl_join of {
      pred : Expr.t;
      left : t;
      table : string;
      alias : string option;
      key_col : string;
      lo : bound option;
      hi : bound option;
    }
  | Group of {
      group_cols : (Expr.t * Schema.col) list;
      aggs : (Agg.func * Schema.col) list;
      input : t;
    }
  | Distinct of t
  | Order_by of (Expr.t * [ `Asc | `Desc ]) list * t
  | Limit of int * t
  | Semijoin of { keys : Expr.t list; sub : t; input : t }
  | Rename of string * t

let table_schema catalog table alias =
  let tbl = Catalog.find catalog table in
  let q = Option.value alias ~default:tbl.Catalog.name in
  Schema.requalify q tbl.Catalog.rel.Relation.schema

let rec schema_of catalog = function
  | Scan { table; alias; _ } -> table_schema catalog table alias
  | Values { name; rel } -> Schema.requalify name rel.Relation.schema
  | Filter (_, p) | Distinct p | Order_by (_, p) | Limit (_, p) -> schema_of catalog p
  | Project (outs, _) -> Schema.of_cols (List.map snd outs)
  | Nl_join { left; right; _ } ->
    Schema.append (schema_of catalog left) (schema_of catalog right)
  | Hash_join { left; right; _ } ->
    Schema.append (schema_of catalog left) (schema_of catalog right)
  | Index_nl_join { left; table; alias; _ } ->
    Schema.append (schema_of catalog left) (table_schema catalog table alias)
  | Group { group_cols; aggs; _ } ->
    Schema.of_cols (List.map snd group_cols @ List.map snd aggs)
  | Semijoin { input; _ } -> schema_of catalog input
  | Rename (alias, p) ->
    Schema.requalify alias (Schema.unqualified (schema_of catalog p))

let explain plan =
  let b = Buffer.create 256 in
  let line depth s =
    Buffer.add_string b (String.make (2 * depth) ' ');
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  let bound_to_string which = function
    | None -> ""
    | Some (e, `Inclusive) -> Printf.sprintf " %s %s (incl)" which (Expr.to_string e)
    | Some (e, `Strict) -> Printf.sprintf " %s %s (strict)" which (Expr.to_string e)
  in
  let rec go depth = function
    | Scan { table; alias; filter } ->
      let a = match alias with Some a when a <> table -> " AS " ^ a | _ -> "" in
      let f =
        match filter with None -> "" | Some e -> "  Filter: " ^ Expr.to_string e
      in
      line depth (Printf.sprintf "Seq Scan on %s%s%s" table a f)
    | Values { name; rel } ->
      line depth
        (Printf.sprintf "Materialized %s (%d rows)" name (Relation.cardinality rel))
    | Filter (e, p) ->
      line depth ("Filter: " ^ Expr.to_string e);
      go (depth + 1) p
    | Project (outs, p) ->
      let items =
        List.map
          (fun (e, c) -> Expr.to_string e ^ " AS " ^ Schema.col_to_string c)
          outs
      in
      line depth ("Project: " ^ String.concat ", " items);
      go (depth + 1) p
    | Nl_join { pred; left; right } ->
      line depth ("Nested Loop (Inner Join)  Join Filter: " ^ Expr.to_string pred);
      go (depth + 1) left;
      go (depth + 1) right
    | Hash_join { keys; residual; left; right } ->
      let ks =
        List.map
          (fun (l, r) -> Expr.to_string l ^ " = " ^ Expr.to_string r)
          keys
      in
      let res =
        if Expr.equal residual Expr.tt then ""
        else "  Residual: " ^ Expr.to_string residual
      in
      line depth ("Hash Join  Cond: " ^ String.concat " AND " ks ^ res);
      go (depth + 1) left;
      go (depth + 1) right
    | Index_nl_join { pred; left; table; alias; key_col; lo; hi } ->
      let a = match alias with Some a when a <> table -> " AS " ^ a | _ -> "" in
      line depth
        (Printf.sprintf "Nested Loop (Inner Join)  Join Filter: %s" (Expr.to_string pred));
      go (depth + 1) left;
      line (depth + 1)
        (Printf.sprintf "Index Scan on %s%s using sorted(%s)%s%s" table a key_col
           (bound_to_string "lo:" lo) (bound_to_string "hi:" hi))
    | Group { group_cols; aggs; input } ->
      let gs = List.map (fun (_, c) -> Schema.col_to_string c) group_cols in
      let as_ = List.map (fun (f, _) -> Agg.to_string f) aggs in
      line depth
        (Printf.sprintf "HashAggregate  Group Key: %s  Aggs: %s"
           (String.concat ", " gs) (String.concat ", " as_));
      go (depth + 1) input
    | Distinct p ->
      line depth "Distinct";
      go (depth + 1) p
    | Order_by (keys, p) ->
      let ks =
        List.map
          (fun (e, d) ->
            Expr.to_string e ^ match d with `Asc -> " ASC" | `Desc -> " DESC")
          keys
      in
      line depth ("Sort: " ^ String.concat ", " ks);
      go (depth + 1) p
    | Limit (n, p) ->
      line depth (Printf.sprintf "Limit %d" n);
      go (depth + 1) p
    | Semijoin { keys; sub; input } ->
      let ks = List.map Expr.to_string keys in
      line depth ("Hash Semi Join (IN)  Keys: " ^ String.concat ", " ks);
      go (depth + 1) input;
      go (depth + 1) sub
    | Rename (alias, p) ->
      line depth ("Subquery Scan " ^ alias);
      go (depth + 1) p
  in
  go 0 plan;
  Buffer.contents b
