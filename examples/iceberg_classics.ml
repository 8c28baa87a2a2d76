(* The classic Fang et al. iceberg algorithms (the paper's reference [9])
   on the market-basket workload: compute frequent item pairs over the
   self-join with probabilistic counting instead of a full group table,
   then contrast with the Smart-Iceberg framework, which avoids computing
   most of the join in the first place.

     dune exec examples/iceberg_classics.exe -- [baskets] [threshold]
*)
open Relalg

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let () =
  let baskets = try int_of_string Sys.argv.(1) with _ -> 1500 in
  let threshold = try int_of_string Sys.argv.(2) with _ -> 25 in
  let catalog = Catalog.create () in
  let n = Workload.Basket.register catalog ~baskets ~items:300 ~avg_size:6 ~seed:1 in
  Printf.printf "basket: %d rows, threshold %d\n\n" n threshold;

  (* The join the iceberg sits on. *)
  let side q =
    Plan.Scan { table = Workload.Basket.table_name; alias = Some q; filter = None }
  in
  let joined, t_join =
    time (fun () ->
        Exec.run catalog
          (Plan.Hash_join
             { keys = [ (Expr.col ~q:"i1" "bid", Expr.col ~q:"i2" "bid") ];
               residual = Expr.tt; left = side "i1"; right = side "i2" }))
  in
  Printf.printf "self-join materialized: %d pairs in %.3fs\n\n"
    (Relation.cardinality joined) t_join;

  let item1 = Schema.index_of joined.Relation.schema ~q:"i1" "item" in
  let item2 = Schema.index_of joined.Relation.schema ~q:"i2" "item" in
  let config =
    { Fang.default_config with
      Fang.buckets = max 1024 (4 * Relation.cardinality joined / threshold) }
  in
  Printf.printf "%-12s %9s %11s %15s %14s\n" "algorithm" "time" "candidates"
    "false positives" "exact counters";
  List.iter
    (fun (name, alg) ->
      let (_, stats), t =
        time (fun () ->
            Fang.iceberg_count ~config ~algorithm:alg joined ~key:[ item1; item2 ]
              ~threshold)
      in
      Printf.printf "%-12s %8.3fs %11d %15d %14d\n" name t stats.Fang.candidates
        stats.Fang.false_positives stats.Fang.exact_counters)
    [ ("naive", Fang.Naive); ("coarse", Fang.Coarse_count);
      ("defer-count", Fang.Defer_count); ("multi-stage", Fang.Multi_stage) ];

  (* Smart-Iceberg never materializes the join at all. *)
  print_newline ();
  let q = Sqlfront.Parser.parse (Workload.Queries.listing1 ~threshold) in
  let (result, report), t_smart = time (fun () -> Core.Runner.run catalog q) in
  Printf.printf
    "Smart-Iceberg (a-priori + NLJP): %.3fs for %d frequent pairs —\n\
     the reducer shrinks the join input before any pair is formed:\n"
    t_smart (Relation.cardinality result);
  List.iter
    (fun rw -> Printf.printf "  %s\n" rw.Core.Optimizer.reducer_sql)
    report.Core.Runner.apriori
