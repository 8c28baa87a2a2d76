open Relalg
open Helpers

let t name f = Alcotest.test_case name `Quick f

let zipf_relation ~rows ~keys ~seed =
  let rng = Workload.Prng.create seed in
  let sample = Workload.Prng.zipf_sampler rng ~n:keys ~s:1.1 in
  rel [ "k"; "payload" ]
    (List.init rows (fun i -> [ iv (sample ()); iv i ]))

let algorithms =
  [ ("naive", Fang.Naive); ("coarse", Fang.Coarse_count);
    ("defer-count", Fang.Defer_count); ("multi-stage", Fang.Multi_stage) ]

let run_alg ?config alg rel threshold =
  Fang.iceberg_count ?config ~algorithm:alg rel ~key:[ 0 ] ~threshold

let unit_tests =
  [ t "all algorithms agree with the naive oracle" (fun () ->
        let data = zipf_relation ~rows:3000 ~keys:200 ~seed:5 in
        let oracle, _ = run_alg Fang.Naive data 25 in
        List.iter
          (fun (name, alg) ->
            let r, _ = run_alg alg data 25 in
            check_bag name oracle r)
          algorithms);
    t "no results below threshold" (fun () ->
        let data = zipf_relation ~rows:2000 ~keys:100 ~seed:9 in
        let r, _ = run_alg Fang.Defer_count data 40 in
        Relation.iter
          (fun row ->
            match row.(1) with
            | Value.Int n when n < 40 -> Alcotest.fail "below threshold"
            | _ -> ())
          r);
    t "multi-stage produces no more candidates than coarse" (fun () ->
        let data = zipf_relation ~rows:5000 ~keys:400 ~seed:3 in
        let config = { Fang.default_config with Fang.buckets = 64 } in
        let _, coarse = run_alg ~config Fang.Coarse_count data 30 in
        let _, multi = run_alg ~config Fang.Multi_stage data 30 in
        Alcotest.(check bool)
          (Printf.sprintf "coarse %d >= multi %d" coarse.Fang.candidates
             multi.Fang.candidates)
          true
          (coarse.Fang.candidates >= multi.Fang.candidates));
    t "defer-count tracks far fewer exact counters than naive" (fun () ->
        let data = zipf_relation ~rows:5000 ~keys:800 ~seed:11 in
        let _, naive = run_alg Fang.Naive data 50 in
        let _, defer = run_alg Fang.Defer_count data 50 in
        Alcotest.(check bool)
          (Printf.sprintf "naive %d > defer %d" naive.Fang.exact_counters
             defer.Fang.exact_counters)
          true
          (naive.Fang.exact_counters > 2 * defer.Fang.exact_counters));
    t "empty input" (fun () ->
        let data = rel [ "k" ] [] in
        List.iter
          (fun (name, alg) ->
            let r, _ =
              Fang.iceberg_count ~algorithm:alg data ~key:[ 0 ] ~threshold:1
            in
            Alcotest.(check int) name 0 (Relation.cardinality r))
          algorithms);
    t "threshold 1 returns every distinct key" (fun () ->
        let data = zipf_relation ~rows:500 ~keys:50 ~seed:2 in
        let oracle, _ = run_alg Fang.Naive data 1 in
        let r, _ = run_alg Fang.Multi_stage data 1 in
        check_bag "all groups" oracle r);
    t "composes with a join result" (fun () ->
        (* run the market-basket iceberg over the self-join, using Fang for
           the grouping stage and comparing against SQL *)
        let catalog = random_catalog 21 in
        let sql_groups =
          run_sql catalog
            "SELECT i1.item, i2.item, COUNT(*) FROM basket i1, basket i2 \
             WHERE i1.bid = i2.bid GROUP BY i1.item, i2.item HAVING COUNT(*) >= 4"
        in
        let tbl = (Catalog.find catalog "basket").Catalog.rel in
        let joined =
          exec
            (Plan.Nl_join
               { pred = Expr.Cmp (Expr.Eq, Expr.col ~q:"i1" "bid", Expr.col ~q:"i2" "bid");
                 left = values "i1" tbl;
                 right = values "i2" tbl })
        in
        let item1 = Schema.index_of joined.Relation.schema ~q:"i1" "item" in
        let item2 = Schema.index_of joined.Relation.schema ~q:"i2" "item" in
        let r, _ =
          Fang.iceberg_count ~algorithm:Fang.Defer_count joined
            ~key:[ item1; item2 ] ~threshold:4
        in
        check_bag "fang over join" sql_groups r) ]

let sum_tests =
  [ t "SUM metric matches SQL (the paper's opening revenue example)" (fun () ->
        (* lineitem(partkey, revenue): groups with SUM(revenue) >= T *)
        let rng = Workload.Prng.create 31 in
        let data =
          rel [ "partkey"; "revenue" ]
            (List.init 2000 (fun _ ->
                 [ iv (Workload.Prng.int rng 80); iv (Workload.Prng.int rng 50) ]))
        in
        let catalog = Catalog.create () in
        Catalog.add_table catalog ~nonneg:[ "revenue" ] "lineitem" data;
        let sql_result =
          run_sql catalog
            "SELECT partkey, SUM(revenue) FROM lineitem GROUP BY partkey \
             HAVING SUM(revenue) >= 700"
        in
        List.iter
          (fun (name, alg) ->
            let r, _ =
              Fang.iceberg_count ~metric:(`Sum 1) ~algorithm:alg data ~key:[ 0 ]
                ~threshold:700
            in
            check_bag ("sum " ^ name) sql_result r)
          algorithms);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"SUM variants never lose a group" ~count:40
         (QCheck.pair (QCheck.int_range 0 9999) (QCheck.int_range 10 400))
         (fun (seed, threshold) ->
           let rng = Workload.Prng.create seed in
           let data =
             rel [ "k"; "v" ]
               (List.init 500 (fun _ ->
                    [ iv (Workload.Prng.int rng 40); iv (Workload.Prng.int rng 30) ]))
           in
           let oracle, _ =
             Fang.iceberg_count ~metric:(`Sum 1) ~algorithm:Fang.Naive data ~key:[ 0 ]
               ~threshold
           in
           List.for_all
             (fun (_, alg) ->
               let r, _ =
                 Fang.iceberg_count ~metric:(`Sum 1) ~algorithm:alg data ~key:[ 0 ]
                   ~threshold
               in
               Relation.equal_bag oracle r)
             algorithms)) ]

let props =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"probabilistic variants never lose a group" ~count:60
         (QCheck.triple (QCheck.int_range 0 9999) (QCheck.int_range 1 20)
            (QCheck.int_range 8 128))
         (fun (seed, threshold, buckets) ->
           let data = zipf_relation ~rows:800 ~keys:60 ~seed in
           let config = { Fang.default_config with Fang.buckets } in
           let oracle, _ = run_alg Fang.Naive data threshold in
           List.for_all
             (fun (_, alg) ->
               let r, _ = run_alg ~config alg data threshold in
               Relation.equal_bag oracle r)
             algorithms)) ]

let suite = unit_tests @ sum_tests @ props
