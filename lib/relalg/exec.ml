(* Plan interpretation is push-based where it matters: joins stream their
   output rows directly into the consumer (a collector, or the aggregation
   operator), so a join feeding GROUP BY never materializes its full result
   — matching how the paper's baseline systems pipeline their plans.
   Blocking operators (grouping, sort, distinct) materialize.

   To keep the hot loops allocation-light, a streamed node emits each output
   row as a (left part, right part) pair; consumers either concatenate
   (materialization) or blit both parts into a reusable scratch row
   (aggregation).

   With [workers > 1] (the Vendor A stand-in), joins are parallelized by
   chunking the outer side across domains; under aggregation each domain
   builds a partial group table that is merged at the end — mirroring
   Vendor A's Parallelism (Gather/Repartition Streams) plan nodes in
   Appendix E.

   An optional [recorder] observes the actual output cardinality of every
   plan node as it is evaluated (EXPLAIN ANALYZE).  Materialized nodes
   report their cardinality; a join streaming straight into aggregation
   reports its emit count, accumulated per outer chunk into an [Atomic] so
   worker domains never contend on a shared counter inside the feed loop.
   Recorder callbacks themselves always run on the spawning domain. *)

(* Transferred scan filters (predicate transfer, DESIGN.md §11) are plan
   state, not catalog state: the caller passes per-alias Bloom filters in,
   so two plans executing concurrently against one shared catalog can never
   observe each other's filters.  Alias matching is case-insensitive, like
   catalog lookup. *)
let filters_for filters q =
  let q = String.lowercase_ascii q in
  match
    List.find_opt (fun (a, _) -> String.lowercase_ascii a = q) filters
  with
  | Some (_, fs) -> fs
  | None -> []

let scan ~filters catalog table alias filter =
  let tbl = Catalog.find catalog table in
  let q = Option.value alias ~default:tbl.Catalog.name in
  (* requalify keeps the table's physical layout (row or columnar), so a
     filtered scan of a columnar table takes the block-skipping path. *)
  let rel = Relation.requalify q tbl.Catalog.rel in
  match filters_for filters q with
  | [] -> (match filter with None -> rel | Some pred -> Ops.select pred rel)
  | filters ->
    (* Transferred Bloom filters supplied for this alias compose with σ
       into one block-skipping scan (predicate transfer, DESIGN.md §11). *)
    Colscan.select_bloom ~filters filter rel

let compile_bound schema lo hi () =
  let cb = function
    | None -> fun _ -> None
    | Some (e, strictness) ->
      let f = Compile.scalar schema e in
      fun row -> Some (f row, strictness)
  in
  let flo = cb lo and fhi = cb hi in
  fun row -> (flo row, fhi row)

let sorted_index_for catalog table key_col =
  Catalog.sorted_index_on (Catalog.find catalog table) key_col

type streamed = {
  schema : Schema.t;
  left_arity : int;  (* output rows are (left part, right part) *)
  outer : Relation.t;  (* the driving (outer) relation, chunkable *)
  (* [feed chunk emit] streams the node's output for the given outer chunk;
     safe to run concurrently on disjoint chunks (it compiles its own
     predicate state per call). *)
  feed : Row.t array -> (Row.t -> Row.t -> unit) -> unit;
}

type recorder = { rec_rows : int list -> string -> int -> unit }

(* Labels match [Cost]'s per-node labels so estimate and actual line up. *)
let node_label = function
  | Plan.Scan { table; alias; _ } ->
    Printf.sprintf "Scan %s%s" table
      (match alias with Some a when a <> table -> " AS " ^ a | _ -> "")
  | Plan.Values { name; _ } -> Printf.sprintf "Materialized %s" name
  | Plan.Filter _ -> "Filter"
  | Plan.Project _ -> "Project"
  | Plan.Nl_join _ -> "Nested Loop"
  | Plan.Hash_join _ -> "Hash Join"
  | Plan.Index_nl_join { table; alias; _ } ->
    Printf.sprintf "Index Nested Loop (%s%s)" table
      (match alias with Some a when a <> table -> " AS " ^ a | _ -> "")
  | Plan.Group _ -> "HashAggregate"
  | Plan.Distinct _ -> "Distinct"
  | Plan.Order_by _ -> "Sort"
  | Plan.Limit (k, _) -> Printf.sprintf "Limit %d" k
  | Plan.Semijoin _ -> "Hash Semi Join (IN)"
  | Plan.Rename (alias, _) -> "Subquery " ^ alias

let empty_row : Row.t = [||]

let rec run ?(workers = 1) ?recorder ?(path = []) ?(filters = []) catalog plan =
  let rel = exec_node ~workers ~recorder ~path ~filters catalog plan in
  (match recorder with
   | Some r -> r.rec_rows path (node_label plan) (Relation.cardinality rel)
   | None -> ());
  rel

and exec_node ~workers ~recorder ~path ~filters catalog plan =
  let child i p = run ~workers ?recorder ~path:(path @ [ i ]) ~filters catalog p in
  match plan with
  | Plan.Scan { table; alias; filter } -> scan ~filters catalog table alias filter
  | Plan.Values { name; rel } -> Relation.requalify name rel
  | Plan.Filter (pred, p) -> Ops.select pred (child 0 p)
  | Plan.Project (outs, p) -> Ops.project outs (child 0 p)
  | Plan.Nl_join _ | Plan.Hash_join _ | Plan.Index_nl_join _ ->
    collect ~workers (stream ~workers ~recorder ~path ~filters catalog plan)
  | Plan.Group { group_cols; aggs; input } ->
    group ~workers ~recorder ~path ~filters catalog group_cols aggs input
  | Plan.Distinct p -> Ops.distinct (child 0 p)
  | Plan.Order_by (keys, p) -> Ops.order_by keys (child 0 p)
  | Plan.Limit (n, p) -> Ops.limit n (child 0 p)
  | Plan.Semijoin { keys; sub; input } ->
    let i = child 0 input in
    let s = child 1 sub in
    Ops.semijoin keys s i
  | Plan.Rename (alias, p) ->
    let rel = child 0 p in
    Relation.with_schema
      (Schema.requalify alias (Schema.unqualified rel.Relation.schema))
      rel

(* Build a streamed view of a plan.  Joins stream; anything else
   materializes and streams its rows trivially.  Join children are
   annotated under [path @ [0]] / [path @ [1]]; the join node itself is
   recorded by whoever consumes the stream (collect's caller via
   cardinality, or [group] via an emit counter). *)
and stream ~workers ~recorder ~path ~filters catalog plan : streamed =
  match plan with
  | Plan.Nl_join { pred; left; right } ->
    let l = run ~workers ?recorder ~path:(path @ [ 0 ]) ~filters catalog left in
    let r = run ~workers ?recorder ~path:(path @ [ 1 ]) ~filters catalog right in
    let schema = Schema.append l.Relation.schema r.Relation.schema in
    (* Force the inner rows here, on the spawning domain: [feed] runs on
       worker domains and must not race on the relation's lazy row cache. *)
    let rrows = Relation.rows r in
    let feed chunk emit =
      let ok = Compile.join_pred l.Relation.schema r.Relation.schema pred in
      let nr = Array.length rrows in
      Array.iter
        (fun lrow ->
          for j = 0 to nr - 1 do
            let rrow = rrows.(j) in
            if ok lrow rrow then emit lrow rrow
          done)
        chunk
    in
    { schema; left_arity = Schema.arity l.Relation.schema; outer = l; feed }
  | Plan.Hash_join { keys; residual; left; right } ->
    let l = run ~workers ?recorder ~path:(path @ [ 0 ]) ~filters catalog left in
    let r = run ~workers ?recorder ~path:(path @ [ 1 ]) ~filters catalog right in
    let schema = Schema.append l.Relation.schema r.Relation.schema in
    (* Build the hash table on the smaller input and stream the larger one.
       Delta-maintenance runs put a tiny append batch on one side of the
       join; hashing that side instead of the full table keeps the build
       O(delta) regardless of which side the planner placed it on. *)
    let build_left = Relation.cardinality l < Relation.cardinality r in
    let build, probe =
      if build_left then (l, r) else (r, l)
    in
    let build_cols, probe_cols =
      if build_left then (List.map fst keys, List.map snd keys)
      else (List.map snd keys, List.map fst keys)
    in
    let bkey = Compile.row_fn build.Relation.schema build_cols in
    let tbl = Row.Tbl.create (max 16 (Relation.cardinality build)) in
    Relation.iter
      (fun brow ->
        let key = bkey brow in
        (* SQL: NULL join keys match nothing; keep them out of the table. *)
        if not (Row.has_null key) then
          match Row.Tbl.find_opt tbl key with
          | Some cell -> cell := brow :: !cell
          | None -> Row.Tbl.add tbl key (ref [ brow ]))
      build;
    let feed chunk emit =
      let pkey = Compile.row_fn probe.Relation.schema probe_cols in
      let ok = Compile.join_pred l.Relation.schema r.Relation.schema residual in
      (* [emit] expects (left row, right row) in plan order. *)
      let emit_match =
        if build_left then (fun brow prow -> if ok brow prow then emit brow prow)
        else fun brow prow -> if ok prow brow then emit prow brow
      in
      Array.iter
        (fun prow ->
          let key = pkey prow in
          match Row.Tbl.find_opt tbl key with
          | None -> ()
          | Some cell -> List.iter (fun brow -> emit_match brow prow) !cell)
        chunk
    in
    { schema; left_arity = Schema.arity l.Relation.schema; outer = probe; feed }
  | Plan.Index_nl_join { pred; left; table; alias; key_col; lo; hi } ->
    (match sorted_index_for catalog table key_col with
     | None ->
       (* No BT index: degrade to a plain nested loop over the table. *)
       stream ~workers ~recorder ~path ~filters catalog
         (Plan.Nl_join { pred; left; right = Plan.Scan { table; alias; filter = None } })
     | Some index ->
       let l = run ~workers ?recorder ~path:(path @ [ 0 ]) ~filters catalog left in
       let tbl = Catalog.find catalog table in
       let q = Option.value alias ~default:tbl.Catalog.name in
       let right_schema = Schema.requalify q tbl.Catalog.rel.Relation.schema in
       let schema = Schema.append l.Relation.schema right_schema in
       let make_bound = compile_bound l.Relation.schema lo hi in
       let feed chunk emit =
         let ok = Compile.join_pred l.Relation.schema right_schema pred in
         let bound = make_bound () in
         Array.iter
           (fun lrow ->
             let blo, bhi = bound lrow in
             Index.Sorted.iter_range index ~lo:blo ~hi:bhi (fun rrow ->
                 if ok lrow rrow then emit lrow rrow))
           chunk
       in
       { schema; left_arity = Schema.arity l.Relation.schema; outer = l; feed })
  | _ ->
    let rel = run ~workers ?recorder ~path ~filters catalog plan in
    {
      schema = rel.Relation.schema;
      left_arity = Schema.arity rel.Relation.schema;
      outer = rel;
      feed = (fun chunk emit -> Array.iter (fun row -> emit row empty_row) chunk);
    }

(* Materialize a streamed node (possibly in parallel). *)
and collect ~workers s =
  let collect_chunk chunk =
    let out = ref [] in
    s.feed chunk (fun lrow rrow ->
        out := (if Array.length rrow = 0 then lrow else Row.append lrow rrow) :: !out);
    List.rev !out
  in
  if workers <= 1 then Relation.of_rows s.schema (collect_chunk (Relation.rows s.outer))
  else begin
    let results = Parallel.run_chunks ~workers (Relation.rows s.outer) collect_chunk in
    Relation.of_rows s.schema (List.concat results)
  end

(* Hash aggregation over a streamed input; parallel chunks build partial
   tables merged via the aggregates' algebraic [merge]. *)
and group ~workers ~recorder ~path ~filters catalog group_cols aggs input =
  (* Compressed-execution fast path: a global aggregate directly over a
     base-table scan (no residual filter, no transferred Blooms) can often
     be answered from the encoded blocks without decoding ({!Colagg}).
     Skipped under a recorder — EXPLAIN ANALYZE wants real per-node row
     counts, which would force the full decode anyway. *)
  let direct =
    match (recorder, group_cols, input) with
    | None, [], Plan.Scan { table; alias; filter = None } ->
      let tbl = Catalog.find catalog table in
      let q = Option.value alias ~default:tbl.Catalog.name in
      (match filters_for filters q with
       | [] ->
         Colagg.try_global ~group_cols ~aggs
           (Relation.requalify q tbl.Catalog.rel)
       | _ :: _ -> None)
    | _ -> None
  in
  match direct with
  | Some r -> r
  | None ->
  let s = stream ~workers ~recorder ~path:(path @ [ 0 ]) ~filters catalog input in
  (* A join feeding this aggregate never materializes; count its emitted
     rows so the recorder still sees the node's actual cardinality. *)
  let counted =
    match recorder, input with
    | Some _, (Plan.Nl_join _ | Plan.Hash_join _ | Plan.Index_nl_join _) ->
      Some (Atomic.make 0)
    | _ -> None
  in
  let out_schema = Schema.of_cols (List.map snd group_cols @ List.map snd aggs) in
  let arity = Schema.arity s.schema in
  let build chunk =
    let gexprs = Array.of_list (List.map (fun (e, _) -> Compile.scalar s.schema e) group_cols) in
    let compiled = Array.of_list (List.map (fun (f, _) -> Agg.compile s.schema f) aggs) in
    let nagg = Array.length compiled in
    let groups = Row.Tbl.create 256 in
    let scratch = Array.make arity Value.Null in
    let ng = Array.length gexprs in
    (* Probe with a reusable key buffer; copy only on first insertion. *)
    let key_buf = Array.make ng Value.Null in
    let emitted = ref 0 in
    s.feed chunk (fun lrow rrow ->
        incr emitted;
        let ll = Array.length lrow in
        Array.blit lrow 0 scratch 0 ll;
        if Array.length rrow > 0 then Array.blit rrow 0 scratch ll (Array.length rrow);
        for i = 0 to ng - 1 do
          key_buf.(i) <- gexprs.(i) scratch
        done;
        let states =
          match Row.Tbl.find_opt groups key_buf with
          | Some st -> st
          | None ->
            let st = Array.map (fun (c : Agg.compiled) -> c.Agg.fresh ()) compiled in
            Row.Tbl.add groups (Array.copy key_buf) st;
            st
        in
        for i = 0 to nagg - 1 do
          compiled.(i).Agg.step states.(i) scratch
        done);
    (match counted with
     | Some c -> ignore (Atomic.fetch_and_add c !emitted)
     | None -> ());
    (compiled, groups)
  in
  let partials =
    if workers <= 1 || Relation.cardinality s.outer < 2048 then
      [ build (Relation.rows s.outer) ]
    else Parallel.run_chunks ~workers (Relation.rows s.outer) build
  in
  (match recorder, counted with
   | Some r, Some c -> r.rec_rows (path @ [ 0 ]) (node_label input) (Atomic.get c)
   | _ -> ());
  match partials with
  | [] -> Relation.empty out_schema
  | (compiled0, merged) :: rest ->
    List.iter
      (fun (_, groups) ->
        Row.Tbl.iter
          (fun key states ->
            match Row.Tbl.find_opt merged key with
            | None -> Row.Tbl.add merged key states
            | Some acc ->
              Array.iteri (fun i c -> c.Agg.merge acc.(i) states.(i)) compiled0)
          groups)
      rest;
    let finalize key states =
      Array.append key (Array.map2 (fun (c : Agg.compiled) st -> c.Agg.final st) compiled0 states)
    in
    if group_cols = [] && Row.Tbl.length merged = 0 then
      let states = Array.map (fun (c : Agg.compiled) -> c.Agg.fresh ()) compiled0 in
      Relation.of_rows out_schema [ finalize [||] states ]
    else begin
      let rows = ref [] in
      Row.Tbl.iter (fun key states -> rows := finalize key states :: !rows) merged;
      Relation.of_rows out_schema !rows
    end
