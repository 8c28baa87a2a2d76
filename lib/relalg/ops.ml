let select pred rel =
  (* Column-primary input takes the zone-map block-skipping path. *)
  match Colscan.select pred rel with
  | Some r -> r
  | None ->
    let keep = Compile.pred rel.Relation.schema pred in
    Relation.filter keep rel

let project outs rel =
  let schema = Schema.of_cols (List.map snd outs) in
  let f = Compile.row_fn rel.Relation.schema (List.map fst outs) in
  Relation.map_rows schema f rel

let distinct rel =
  let seen = Row.Tbl.create 64 in
  Relation.filter
    (fun row ->
      if Row.Tbl.mem seen row then false
      else begin
        Row.Tbl.add seen row ();
        true
      end)
    rel

let order_by keys rel =
  let fs =
    List.map (fun (e, dir) -> (Compile.scalar rel.Relation.schema e, dir)) keys
  in
  let cmp a b =
    let rec go = function
      | [] -> 0
      | (f, dir) :: rest ->
        let c = Value.compare_total (f a) (f b) in
        let c = match dir with `Asc -> c | `Desc -> -c in
        if c <> 0 then c else go rest
    in
    go fs
  in
  Relation.sort_by cmp rel

let limit n rel =
  let rows = (Relation.rows rel) in
  let n = min n (Array.length rows) in
  Relation.make rel.Relation.schema (Array.sub rows 0 n)

let semijoin keys sub rel =
  let set = Expr.row_set_of (Array.to_list (Relation.rows sub)) in
  select (Expr.In_set (keys, set)) rel
