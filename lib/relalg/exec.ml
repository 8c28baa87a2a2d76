(* Plan interpretation is push-based where it matters: joins stream their
   output rows directly into the consumer (a collector, or the aggregation
   operator), so a join feeding GROUP BY never materializes its full result
   — matching how the paper's baseline systems pipeline their plans.
   Blocking operators (grouping, sort, distinct) materialize.

   To keep the hot loops allocation-light, a streamed node emits each output
   row as the positions of its (left part, right part) in the two input
   arrays; consumers either concatenate (materialization) or read both
   parts in place (aggregation).

   Hash join, hash aggregation and IN filters key their tables by packed
   ints when the key values allow it, and by [Row.Tbl] otherwise ([Keys]);
   each such node decides once per execution, counts the decision and
   notes it for EXPLAIN ANALYZE.

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
  lschema : Schema.t;  (* output rows are (left part, right part) *)
  rschema : Schema.t;
  lrows : Row.t array;
  rrows : Row.t array;  (* [| [||] |] under a materialized node *)
  outer_n : int;  (* the outer side's row count, chunkable *)
  (* [feed lo hi emit] streams the node's output for outer rows [lo, hi)
     as (left position, right position) pairs; safe to run concurrently
     on disjoint ranges. *)
  feed : int -> int -> (int -> int -> unit) -> unit;
}

type recorder = {
  rec_rows : int list -> string -> int -> unit;
  rec_note : int list -> string -> unit;
}

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

let note_keys ~recorder ~path kp =
  Keys.count kp;
  match recorder with Some r -> r.rec_note path (Keys.describe kp) | None -> ()

(* IN sets count themselves when built; a node testing one notes its path. *)
let note_in_sets ~recorder ~path pred =
  match recorder with
  | Some r ->
    List.iter
      (fun set -> r.rec_note path (Keys.describe (Expr.row_set_path set)))
      (Expr.in_sets pred)
  | None -> ()

let col_name schema i = Schema.col_to_string (Schema.nth schema i)

(* The input column each key reads, or the first key that is not a bare
   column. *)
let key_cols schema es =
  let rec go acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | Expr.Col c :: rest -> go (Schema.index_of_col schema c :: acc) rest
    | e :: _ -> Error (Printf.sprintf "key %s is an expression" (Expr.to_string e))
  in
  go [] es

(* A hash join's build side: one key chain per distinct key, from
   [head.(id)] through [next], newest row first as a list cons would keep
   them, and [lookup prow], the chain id of a probe row's key or -1.  NULL
   and NaN keys match nothing, so their rows join no chain. *)
let hash_build ~names brows bschema bkeys pschema pkeys =
  let nb = Array.length brows in
  let head = Array.make (max nb 1) (-1) and next = Array.make nb (-1) in
  let chain i id =
    next.(i) <- head.(id);
    head.(id) <- i
  in
  let packed =
    match key_cols bschema bkeys, key_cols pschema pkeys with
    | Ok bcols, Ok pcols ->
      let comps =
        Array.map (fun c -> Keys.column ~name:(col_name bschema c) brows c) bcols
      in
      let doms = Array.map (fun (c : Keys.column) -> c.dom) comps in
      Result.map (fun mult -> (comps, doms, mult, pcols)) (Keys.pack doms)
    | Error why, _ | _, Error why -> Error why
  in
  let path, lookup =
    match packed with
    | Ok (comps, doms, mult, pcols) ->
      let k = Array.length comps in
      let tbl = Keys.Itbl.create nb in
      for i = 0 to nb - 1 do
        let key = ref 0 and c = ref 0 in
        while !c < k do
          let code = comps.(!c).codes.(i) in
          if code < 2 then c := k + 1
          else begin
            key := !key + (code * mult.(!c));
            incr c
          end
        done;
        if !c = k then chain i (Keys.Itbl.intern tbl !key)
      done;
      let lookup prow =
        let key = ref 0 and c = ref 0 in
        while !c < k do
          let code = Keys.code doms.(!c) prow.(pcols.(!c)) in
          if code < 2 then c := k + 1
          else begin
            key := !key + (code * mult.(!c));
            incr c
          end
        done;
        if !c = k then Keys.Itbl.find tbl !key else -1
      in
      (Keys.Packed names, lookup)
    | Error why ->
      let bkey = Compile.row_fn bschema bkeys and pkey = Compile.row_fn pschema pkeys in
      let tbl = Row.Tbl.create (max 16 nb) in
      for i = 0 to nb - 1 do
        let key = bkey brows.(i) in
        if not (Row.has_null key) then
          chain i
            (match Row.Tbl.find_opt tbl key with
             | Some id -> id
             | None ->
               let id = Row.Tbl.length tbl in
               Row.Tbl.add tbl key id;
               id)
      done;
      let lookup prow =
        match Row.Tbl.find_opt tbl (pkey prow) with Some id -> id | None -> -1
      in
      (Keys.Generic why, lookup)
  in
  (path, head, next, lookup)

(* Groups in first-seen order: each one's representative key row (its
   first row's values) and aggregate states, found by packed key or by
   key row. *)
type index = Packed_index of Keys.Itbl.t | Generic_index of int Row.Tbl.t

type groups = {
  index : index;
  mutable n : int;
  mutable keys : Row.t array;
  mutable states : Agg.state array array;
}

let new_groups index = { index; n = 0; keys = Array.make 64 [||]; states = Array.make 64 [||] }

let add_group g key states =
  if g.n = Array.length g.keys then begin
    let grow a = Array.append a (Array.make (Array.length a) [||]) in
    g.keys <- grow g.keys;
    g.states <- grow g.states
  end;
  g.keys.(g.n) <- key;
  g.states.(g.n) <- states;
  g.n <- g.n + 1

(* Fold a later chunk's groups into [acc], in the chunk's first-seen
   order; a group both hold merges its states with the aggregates'
   [merge]. *)
let merge_groups compiled acc part =
  for id = 0 to part.n - 1 do
    let target =
      match acc.index, part.index with
      | Packed_index t, Packed_index pt -> Keys.Itbl.intern t (Keys.Itbl.key pt id)
      | Generic_index t, _ ->
        (match Row.Tbl.find_opt t part.keys.(id) with
         | Some x -> x
         | None ->
           Row.Tbl.add t part.keys.(id) acc.n;
           acc.n)
      | Packed_index _, Generic_index _ -> invalid_arg "Exec.merge_groups"
    in
    if target = acc.n then add_group acc part.keys.(id) part.states.(id)
    else
      Array.iteri
        (fun a (c : Agg.compiled) -> c.Agg.merge acc.states.(target).(a) part.states.(id).(a))
        compiled
  done

let rec run ?(workers = 1) ?recorder ?(path = []) ?(filters = []) catalog plan =
  let rel = exec_node ~workers ~recorder ~path ~filters catalog plan in
  (match recorder with
   | Some r -> r.rec_rows path (node_label plan) (Relation.cardinality rel)
   | None -> ());
  rel

and exec_node ~workers ~recorder ~path ~filters catalog plan =
  let child i p = run ~workers ?recorder ~path:(path @ [ i ]) ~filters catalog p in
  match plan with
  | Plan.Scan { table; alias; filter } ->
    Option.iter (note_in_sets ~recorder ~path) filter;
    scan ~filters catalog table alias filter
  | Plan.Values { name; rel } -> Relation.requalify name rel
  | Plan.Filter (pred, p) ->
    note_in_sets ~recorder ~path pred;
    Ops.select pred (child 0 p)
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
    let pred = Expr.In_set (keys, Ops.row_set (child 1 sub)) in
    note_in_sets ~recorder ~path pred;
    Ops.select pred i
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
  let sides left right =
    let l = run ~workers ?recorder ~path:(path @ [ 0 ]) ~filters catalog left in
    let r = run ~workers ?recorder ~path:(path @ [ 1 ]) ~filters catalog right in
    (* Force both sides' rows here, on the spawning domain: [feed] runs on
       worker domains and must not race on a relation's lazy row cache. *)
    (l.Relation.schema, Relation.rows l, r.Relation.schema, Relation.rows r)
  in
  match plan with
  | Plan.Nl_join { pred; left; right } ->
    let lschema, lrows, rschema, rrows = sides left right in
    let ok = Compile.join_pred lschema rschema pred in
    let nr = Array.length rrows in
    let feed lo hi emit =
      for i = lo to hi - 1 do
        let lrow = lrows.(i) in
        for j = 0 to nr - 1 do
          if ok lrow rrows.(j) then emit i j
        done
      done
    in
    { schema = Schema.append lschema rschema; lschema; rschema; lrows; rrows;
      outer_n = Array.length lrows; feed }
  | Plan.Hash_join { keys; residual; left; right } ->
    let lschema, lrows, rschema, rrows = sides left right in
    (* Build the hash table on the smaller input and stream the larger one.
       Delta-maintenance runs put a tiny append batch on one side of the
       join; hashing that side instead of the full table keeps the build
       O(delta) regardless of which side the planner placed it on. *)
    let build_left = Array.length lrows < Array.length rrows in
    let lkeys = List.map fst keys and rkeys = List.map snd keys in
    let names = List.map Expr.to_string lkeys in
    let brows, prows, (kp, head, next, lookup) =
      if build_left then (lrows, rrows, hash_build ~names lrows lschema lkeys rschema rkeys)
      else (rrows, lrows, hash_build ~names rrows rschema rkeys lschema lkeys)
    in
    note_keys ~recorder ~path kp;
    let ok = Compile.join_pred lschema rschema residual in
    let feed lo hi emit =
      for p = lo to hi - 1 do
        let prow = prows.(p) in
        let id = lookup prow in
        if id >= 0 then begin
          let b = ref head.(id) in
          while !b >= 0 do
            (* [emit] expects (left, right) in plan order. *)
            if build_left then (if ok brows.(!b) prow then emit !b p)
            else if ok prow brows.(!b) then emit p !b;
            b := next.(!b)
          done
        end
      done
    in
    { schema = Schema.append lschema rschema; lschema; rschema; lrows; rrows;
      outer_n = Array.length prows; feed }
  | Plan.Index_nl_join { pred; left; table; alias; key_col; lo; hi } ->
    (match sorted_index_for catalog table key_col with
     | None ->
       (* No BT index: degrade to a plain nested loop over the table. *)
       stream ~workers ~recorder ~path ~filters catalog
         (Plan.Nl_join { pred; left; right = Plan.Scan { table; alias; filter = None } })
     | Some index ->
       let l = run ~workers ?recorder ~path:(path @ [ 0 ]) ~filters catalog left in
       let lschema = l.Relation.schema and lrows = Relation.rows l in
       let tbl = Catalog.find catalog table in
       let q = Option.value alias ~default:tbl.Catalog.name in
       let rschema = Schema.requalify q tbl.Catalog.rel.Relation.schema in
       let rrows = Index.Sorted.rows index in
       let bound = compile_bound lschema lo hi () in
       let ok = Compile.join_pred lschema rschema pred in
       let feed lo hi emit =
         for i = lo to hi - 1 do
           let lrow = lrows.(i) in
           let blo, bhi = bound lrow in
           let start, stop = Index.Sorted.bounds index ~lo:blo ~hi:bhi in
           for j = start to stop - 1 do
             if ok lrow rrows.(j) then emit i j
           done
         done
       in
       { schema = Schema.append lschema rschema; lschema; rschema; lrows; rrows;
         outer_n = Array.length lrows; feed })
  | _ ->
    let rel = run ~workers ?recorder ~path ~filters catalog plan in
    let rows = Relation.rows rel in
    {
      schema = rel.Relation.schema;
      lschema = rel.Relation.schema;
      rschema = Schema.of_cols [];
      lrows = rows;
      rrows = [| empty_row |];
      outer_n = Array.length rows;
      feed =
        (fun lo hi emit ->
          for i = lo to hi - 1 do
            emit i 0
          done);
    }

(* Materialize a streamed node (possibly in parallel). *)
and collect ~workers s =
  let whole = Schema.arity s.rschema = 0 in
  let collect_range lo hi =
    let out = ref [] in
    s.feed lo hi (fun i j ->
        out := (if whole then s.lrows.(i) else Row.append s.lrows.(i) s.rrows.(j)) :: !out);
    List.rev !out
  in
  if workers <= 1 then Relation.of_rows s.schema (collect_range 0 s.outer_n)
  else
    Relation.of_rows s.schema
      (List.concat (Parallel.run_ranges ~workers s.outer_n collect_range))

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
    let compiled, g =
      group_states ~workers ~recorder ~path ~filters catalog group_cols aggs input
    in
    let out_schema = Schema.of_cols (List.map snd group_cols @ List.map snd aggs) in
    let finalize key states =
      Array.append key (Array.map2 (fun (c : Agg.compiled) st -> c.Agg.final st) compiled states)
    in
    if group_cols = [] && g.n = 0 then
      let states = Array.map (fun (c : Agg.compiled) -> c.Agg.fresh ()) compiled in
      Relation.of_rows out_schema [ finalize [||] states ]
    else Relation.make out_schema (Array.init g.n (fun id -> finalize g.keys.(id) g.states.(id)))

(* Each group's aggregate states, before [final], in first-seen order.
   The group keys are coded once per input row, before the input is split
   into chunks, so every chunk's packed keys agree; parallel chunks build
   partial groups merged in chunk order. *)
and group_states ~workers ~recorder ~path ~filters catalog group_cols aggs input =
  let s = stream ~workers ~recorder ~path:(path @ [ 0 ]) ~filters catalog input in
  (* A join feeding this aggregate never materializes; count its emitted
     rows so the recorder still sees the node's actual cardinality. *)
  let counted =
    match recorder, input with
    | Some _, (Plan.Nl_join _ | Plan.Hash_join _ | Plan.Index_nl_join _) ->
      Some (Atomic.make 0)
    | _ -> None
  in
  let lrows = s.lrows and rrows = s.rrows in
  let compiled = Array.of_list (List.map (fun (f, _) -> Agg.compile s.schema f) aggs) in
  let steps = Array.of_list (List.map (fun (f, _) -> Agg.pair_step s.lschema s.rschema f) aggs) in
  let nagg = Array.length steps in
  let fresh () = Array.map (fun (c : Agg.compiled) -> c.Agg.fresh ()) compiled in
  let step states lrow rrow =
    for a = 0 to nagg - 1 do
      steps.(a) states.(a) lrow rrow
    done
  in
  let la = Schema.arity s.lschema in
  (* Each key column as (reads the left part, position in that part). *)
  let srcs =
    Result.map
      (Array.map (fun i -> if i < la then (true, i) else (false, i - la)))
      (key_cols s.schema (List.map fst group_cols))
  in
  let packed =
    Result.bind srcs (fun srcs ->
        let comps =
          Array.map
            (fun (left, i) ->
              Keys.column
                ~name:(col_name s.schema (if left then i else la + i))
                (if left then lrows else rrows) i)
            srcs
        in
        Result.map
          (fun mult -> (srcs, comps, mult))
          (Keys.pack (Array.map (fun (c : Keys.column) -> c.dom) comps)))
  in
  let build =
    match packed with
    | Ok (srcs, comps, mult) ->
      if group_cols <> [] then
        note_keys ~recorder ~path
          (Keys.Packed (List.map (fun (e, _) -> Expr.to_string e) group_cols));
      let codes = Array.map (fun (c : Keys.column) -> c.codes) comps in
      let left = Array.map fst srcs in
      let key =
        match codes with
        | [||] -> fun _ _ -> 0
        | [| c0 |] -> if left.(0) then fun i _ -> c0.(i) else fun _ j -> c0.(j)
        | [| c0; c1 |] ->
          let l0 = left.(0) and l1 = left.(1) and m1 = mult.(1) in
          fun i j -> c0.(if l0 then i else j) + (m1 * c1.(if l1 then i else j))
        | _ ->
          fun i j ->
            let k = ref 0 in
            for c = 0 to Array.length codes - 1 do
              k := !k + (mult.(c) * codes.(c).(if left.(c) then i else j))
            done;
            !k
      in
      let key_row lrow rrow =
        Array.map (fun (l, i) -> if l then lrow.(i) else rrow.(i)) srcs
      in
      fun lo hi ->
        let tbl = Keys.Itbl.create 256 in
        let g = new_groups (Packed_index tbl) in
        let emitted = ref 0 in
        s.feed lo hi (fun i j ->
            incr emitted;
            let lrow = lrows.(i) and rrow = rrows.(j) in
            let id = Keys.Itbl.intern tbl (key i j) in
            if id = g.n then add_group g (key_row lrow rrow) (fresh ());
            step g.states.(id) lrow rrow);
        (g, !emitted)
    | Error why ->
      note_keys ~recorder ~path (Keys.Generic why);
      let gexprs =
        Array.of_list
          (List.map (fun (e, _) -> Compile.join_scalar s.lschema s.rschema e) group_cols)
      in
      let ng = Array.length gexprs in
      fun lo hi ->
        let tbl = Row.Tbl.create 256 in
        let g = new_groups (Generic_index tbl) in
        (* Probe with a reusable key buffer; copy only on first insertion. *)
        let key_buf = Array.make ng Value.Null in
        let emitted = ref 0 in
        s.feed lo hi (fun i j ->
            incr emitted;
            let lrow = lrows.(i) and rrow = rrows.(j) in
            for k = 0 to ng - 1 do
              key_buf.(k) <- gexprs.(k) lrow rrow
            done;
            let id =
              match Row.Tbl.find_opt tbl key_buf with
              | Some id -> id
              | None ->
                let key = Array.copy key_buf in
                Row.Tbl.add tbl key g.n;
                add_group g key (fresh ());
                g.n - 1
            in
            step g.states.(id) lrow rrow);
        (g, !emitted)
  in
  let build lo hi =
    let g, emitted = build lo hi in
    Option.iter (fun c -> ignore (Atomic.fetch_and_add c emitted)) counted;
    g
  in
  let partials =
    if workers <= 1 || s.outer_n < 2048 then [ build 0 s.outer_n ]
    else Parallel.run_ranges ~workers s.outer_n build
  in
  (match recorder, counted with
   | Some r, Some c -> r.rec_rows (path @ [ 0 ]) (node_label input) (Atomic.get c)
   | _ -> ());
  match partials with
  | [] -> (compiled, new_groups (Generic_index (Row.Tbl.create 1)))
  | acc :: rest ->
    List.iter (merge_groups compiled acc) rest;
    (compiled, acc)

let group_states catalog ~group_cols ~aggs input =
  let compiled, g =
    group_states ~workers:1 ~recorder:None ~path:[] ~filters:[] catalog group_cols aggs input
  in
  let tbl = Row.Tbl.create (max 16 g.n) in
  for id = 0 to g.n - 1 do
    Row.Tbl.replace tbl g.keys.(id) g.states.(id)
  done;
  (compiled, tbl)
