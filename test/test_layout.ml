(* Differential layout testing: every operator and every optimizer
   configuration must produce the same bag of rows whether base tables are
   stored row-primary or column-primary.  The columnar path adds zone-map
   block skipping and typed scan kernels, so this is the safety net that
   data skipping never drops or invents rows. *)
open Core
open Relalg
open Helpers

let pick rng xs = List.nth xs (Workload.Prng.int rng (List.length xs))

let random_value rng =
  match Workload.Prng.int rng 10 with
  | 0 | 1 | 2 | 3 -> iv (Workload.Prng.int rng 20 - 5)
  | 4 | 5 -> fv (float_of_int (Workload.Prng.int rng 20) /. 2.)
  | 6 | 7 -> sv (pick rng [ "a"; "b"; "c"; "d" ])
  | 8 -> Value.Null
  | _ -> Value.Bool (Workload.Prng.int rng 2 = 0)

(* Columns are mostly type-homogeneous (so typed vectors and dictionary
   blocks actually form) with occasional wildcard columns that force the
   mixed-block fallback. *)
let random_relation rng names =
  (* the first column is always numeric-or-null so arithmetic projections
     and join keys are well-typed; the rest roam freely *)
  let kinds =
    List.mapi
      (fun i _ ->
        if i = 0 then if Workload.Prng.int rng 2 = 0 then `Int else `Int_nulls
        else
          match Workload.Prng.int rng 6 with
          | 0 | 1 -> `Int
          | 2 -> `Float
          | 3 -> `Str
          | 4 -> `Mixed
          | _ -> `Int_nulls)
      names
  in
  let gen kind =
    match kind with
    | `Int -> iv (Workload.Prng.int rng 12)
    | `Float -> fv (float_of_int (Workload.Prng.int rng 12) /. 2.)
    | `Str -> sv (pick rng [ "a"; "b"; "c" ])
    | `Mixed -> random_value rng
    | `Int_nulls ->
      if Workload.Prng.int rng 5 = 0 then Value.Null
      else iv (Workload.Prng.int rng 12)
  in
  let n = 30 + Workload.Prng.int rng 200 in
  let rows = Array.init n (fun _ -> Array.of_list (List.map gen kinds)) in
  Relation.make (Schema.of_names names) rows

(* Small block size so multi-block relations (and thus real skipping
   decisions) occur at fuzz-sized inputs. *)
let columnar rel =
  Relation.of_cstore
    (Column.Cstore.of_rows ~block_size:16 rel.Relation.schema (Relation.rows rel))

let random_pred rng names =
  let conj () =
    let c = pick rng names in
    let op = pick rng Expr.[ Eq; Ne; Lt; Le; Gt; Ge ] in
    let v =
      match Workload.Prng.int rng 8 with
      | 0 -> Value.Null
      | 1 -> sv (pick rng [ "a"; "b"; "zz" ])
      | 2 -> fv (float_of_int (Workload.Prng.int rng 12) /. 2.)
      | _ -> iv (Workload.Prng.int rng 12)
    in
    if Workload.Prng.int rng 2 = 0 then
      Expr.Cmp (op, Expr.col c, Expr.Const v)
    else Expr.Cmp (op, Expr.Const v, Expr.col c)
  in
  match Workload.Prng.int rng 4 with
  | 0 -> conj ()
  | 1 -> Expr.And (conj (), conj ())
  | 2 -> Expr.And (conj (), Expr.And (conj (), conj ()))
  | _ ->
    (* outside the zone-probe shape: forces the per-row fallback *)
    Expr.Or (conj (), conj ())

let check_op msg row_result col_result =
  if not (Relation.equal_bag row_result col_result) then
    QCheck.Test.fail_reportf "%s: layouts disagree\nrow (%d rows):\n%scolumn (%d rows):\n%s"
      msg
      (Relation.cardinality row_result)
      (Relation.to_string ~max_rows:30 (Relation.sorted row_result))
      (Relation.cardinality col_result)
      (Relation.to_string ~max_rows:30 (Relation.sorted col_result))

(* σ, π, ⋈ and γ applied to the same data in both layouts. *)
let check_ops seed =
  let rng = Workload.Prng.create seed in
  let names = [ "a"; "b"; "c" ] in
  let r = random_relation rng names in
  let rc = columnar r in
  let s = random_relation rng [ "d"; "e" ] in
  let sc = columnar s in
  (* σ: both the zone-probe path and the fallback *)
  let p = random_pred rng names in
  check_op (Printf.sprintf "select %s" (Expr.to_string p))
    (Ops.select p r) (Ops.select p rc);
  (* π with computed columns *)
  let outs =
    [ (Expr.col "b", Schema.col "b");
      (Expr.Binop (Expr.Add, Expr.col "a", Expr.int 1), Schema.col "a1") ]
  in
  check_op "project" (Ops.project outs r) (Ops.project outs rc);
  (* ⋈: nested loop with a θ-predicate, and hashed equi-join *)
  let jp = Expr.Cmp (pick rng Expr.[ Eq; Le ], Expr.col "a", Expr.col "d") in
  let join mk a b = exec (mk (values "r" a) (values "s" b)) in
  let nl left right = Plan.Nl_join { pred = jp; left; right } in
  let hash left right =
    Plan.Hash_join
      { keys = [ (Expr.col "a", Expr.col "d") ]; residual = Expr.tt; left; right }
  in
  check_op "nl_join" (join nl r s) (join nl rc sc);
  check_op "hash_join" (join hash r s) (join hash rc sc);
  (* γ over a group column with a mix of aggregates *)
  let aggs =
    [ (Agg.Count_star, Schema.col "n");
      (Agg.Sum (Expr.col "a"), Schema.col "s");
      (Agg.Min (Expr.col "c"), Schema.col "m") ]
  in
  check_op "group_by"
    (exec_group ~group_cols:[ (Expr.col "b", Schema.col "b") ] ~aggs r)
    (exec_group ~group_cols:[ (Expr.col "b", Schema.col "b") ] ~aggs rc);
  true

(* Full iceberg queries under the optimizer: the row-layout baseline result
   is the oracle; the column-layout catalog must match it for the plain
   baseline AND for NLJP with pruning + memoization. *)
let iceberg_query rng =
  match Workload.Prng.int rng 2 with
  | 0 ->
    let cmp = pick rng [ "<="; "<" ] in
    let agg = pick rng [ "COUNT(*)"; "COUNT(*), SUM(R.x)"; "COUNT(*), MIN(R.y)" ] in
    Printf.sprintf
      "SELECT L.id, %s FROM object L, object R WHERE L.x %s R.x AND L.y %s R.y GROUP BY L.id HAVING COUNT(*) >= %d"
      agg cmp cmp
      (1 + Workload.Prng.int rng 10)
  | _ ->
    Printf.sprintf
      "SELECT i1.item, i2.item, COUNT(*) FROM basket i1, basket i2 WHERE i1.bid = i2.bid GROUP BY i1.item, i2.item HAVING COUNT(*) %s %d"
      (pick rng [ ">="; "<=" ])
      (1 + Workload.Prng.int rng 4)

let check_queries seed =
  let rng = Workload.Prng.create seed in
  let sql = iceberg_query rng in
  let q = Sqlfront.Parser.parse sql in
  let base = Runner.run_baseline (random_catalog (seed * 13)) q in
  let col_catalog = random_catalog (seed * 13) in
  Catalog.set_all_layouts col_catalog `Column;
  let configs =
    [ ("baseline", fun c -> Runner.run_baseline c q);
      ("all techniques", fun c -> fst (Runner.run ~tech:Optimizer.all_techniques c q));
      ("pruning", fun c -> fst (Runner.run ~tech:(Optimizer.only `Pruning) c q));
      ("memo", fun c -> fst (Runner.run ~tech:(Optimizer.only `Memo) c q)) ]
  in
  List.for_all
    (fun (name, run) ->
      let r = run col_catalog in
      let ok = Relation.equal_bag base r in
      if not ok then
        QCheck.Test.fail_reportf
          "column-layout %s differs from row baseline for:\n%s\nbase %d rows, got %d"
          name sql (Relation.cardinality base) (Relation.cardinality r);
      ok)
    configs

(* NLJP with prune + memo over a columnar outer, parallel and sequential:
   the wave-sliced block iteration must cover exactly the outer's rows. *)
let check_nljp_parallel seed =
  let rng = Workload.Prng.create seed in
  let sql =
    Printf.sprintf
      "SELECT L.id, COUNT(*), SUM(R.x) FROM object L, object R WHERE L.x <= R.x AND L.y <= R.y GROUP BY L.id HAVING COUNT(*) >= %d"
      (1 + Workload.Prng.int rng 8)
  in
  let q = Sqlfront.Parser.parse sql in
  let base = Runner.run_baseline (random_catalog seed) q in
  List.for_all
    (fun workers ->
      let catalog = random_catalog seed in
      Catalog.set_all_layouts catalog `Column;
      let r, rep = Runner.run ~workers catalog q in
      let ok = Relation.equal_bag base r in
      if not ok then
        QCheck.Test.fail_reportf "columnar NLJP workers=%d differs for:\n%s" workers sql;
      ignore rep;
      ok)
    [ 1; 3 ]

let suite =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"σ/π/⋈/γ agree across layouts" ~count:60
         (QCheck.int_range 1 1_000_000) check_ops);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"optimized iceberg queries agree across layouts" ~count:25
         (QCheck.int_range 1 1_000_000) check_queries);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"columnar NLJP (prune+memo, parallel) matches row baseline" ~count:10
         (QCheck.int_range 1 1_000_000) check_nljp_parallel) ]
