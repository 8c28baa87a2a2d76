open Core
open Relalg
open Helpers

let t name f = Alcotest.test_case name `Quick f

let analyze catalog sql left =
  Qspec.analyze catalog (Sqlfront.Parser.parse sql) ~left_aliases:left

let skyband_sql k = Workload.Queries.listing2 ~k

(* Both techniques on unless a test switches one off. *)
let build ?(pruning = true) ?(memo = true) ?(config = Nljp.default_config) catalog spec =
  Nljp.build ~pruning ~memo catalog spec config

let run_nljp ?pruning ?memo ?config catalog sql left =
  let spec = analyze catalog sql left in
  match build ?pruning ?memo ?config catalog spec with
  | Error e -> Alcotest.failf "NLJP build failed: %s" e
  | Ok op -> Nljp.execute op

(* (name, pruning, memo, config) *)
let configs =
  [ ("prune+memo", true, true, Nljp.default_config);
    ("prune only", true, false, Nljp.default_config);
    ("memo only", false, true, Nljp.default_config);
    ("neither", false, false, Nljp.default_config);
    ("no CI", true, true, { Nljp.default_config with Nljp.cache_index = false });
    ("no BT", true, true, { Nljp.default_config with Nljp.inner_index = false }) ]

let equivalence =
  [ t "skyband: all configurations agree with baseline" (fun () ->
        let catalog = random_catalog 7 in
        let sql = skyband_sql 5 in
        let base = Core.Runner.run_baseline catalog (Sqlfront.Parser.parse sql) in
        List.iter
          (fun (name, pruning, memo, config) ->
            let r, _ = run_nljp ~pruning ~memo ~config catalog sql [ "L" ] in
            check_bag (Printf.sprintf "config %s" name) base r)
          configs);
    t "market basket via NLJP agrees with baseline (G_R non-empty)" (fun () ->
        let catalog = random_catalog 11 in
        let sql =
          "SELECT i1.item, i2.item, COUNT(*) FROM basket i1, basket i2 \
           WHERE i1.bid = i2.bid GROUP BY i1.item, i2.item HAVING COUNT(*) >= 3"
        in
        let base = Core.Runner.run_baseline catalog (Sqlfront.Parser.parse sql) in
        let r, _ = run_nljp catalog sql [ "i1" ] in
        check_bag "basket" base r);
    t "non-key outer side combines algebraic partials" (fun () ->
        (* group by x only: several object rows share x, so G_L is not a key
           and results must combine across outer tuples *)
        let catalog = random_catalog 13 in
        let sql =
          "SELECT L.x, COUNT(*) FROM object L, object R \
           WHERE L.y <= R.y GROUP BY L.x HAVING COUNT(*) >= 3"
        in
        let base = Core.Runner.run_baseline catalog (Sqlfront.Parser.parse sql) in
        let r, stats = run_nljp catalog sql [ "L" ] in
        check_bag "combined" base r;
        Alcotest.(check bool) "pruning off in non-key case" false stats.Nljp.pruning_on);
    t "avg and sum aggregates through the operator" (fun () ->
        let catalog = random_catalog 17 in
        let sql =
          "SELECT L.id, COUNT(*), AVG(R.x), SUM(R.y), MIN(R.x), MAX(R.y) \
           FROM object L, object R WHERE L.x <= R.x AND L.y <= R.y \
           GROUP BY L.id HAVING COUNT(*) <= 8"
        in
        let base = Core.Runner.run_baseline catalog (Sqlfront.Parser.parse sql) in
        let r, _ = run_nljp catalog sql [ "L" ] in
        check_bag "aggs" base r) ]

let behavior =
  [ t "memoization hits on duplicate bindings" (fun () ->
        let catalog =
          objects_catalog [ (1, 1); (1, 1); (1, 1); (2, 2); (2, 2); (9, 9) ]
        in
        let _, stats =
          run_nljp ~pruning:false catalog (skyband_sql 50) [ "L" ]
        in
        Alcotest.(check bool) "memo on" true stats.Nljp.memo_on;
        Alcotest.(check int) "hits" 3 stats.Nljp.memo_hits;
        Alcotest.(check int) "inner evals" 3 stats.Nljp.inner_evals);
    t "pruning short-circuits dominated bindings (the §5 example)" (fun () ->
        (* (10,10) is dominated by > k others; all points below it must be
           pruned after it is cached *)
        let points =
          (10, 10) :: (5, 5) :: (3, 7) :: (7, 3)
          :: List.init 20 (fun i -> (20 + i, 20 + i))
        in
        let catalog = objects_catalog points in
        let _, stats =
          run_nljp ~memo:false catalog (skyband_sql 3) [ "L" ]
        in
        Alcotest.(check bool) "pruning on" true stats.Nljp.pruning_on;
        Alcotest.(check bool) "pruned some" true (stats.Nljp.pruned >= 3));
    t "regression: empty join set must remain promising (anti-monotone)" (fun () ->
        (* the maximum point joins nothing; caching it as unpromising would
           prune everything below it *)
        let catalog = objects_catalog [ (9, 9); (1, 1); (2, 2); (3, 3) ] in
        let sql = skyband_sql 5 in
        let base = Core.Runner.run_baseline catalog (Sqlfront.Parser.parse sql) in
        let r, _ = run_nljp ~memo:false catalog sql [ "L" ] in
        check_bag "no over-pruning" base r);
    t "stats cache accounting is consistent" (fun () ->
        let catalog = random_catalog 23 in
        let _, stats = run_nljp catalog (skyband_sql 5) [ "L" ] in
        Alcotest.(check bool) "bytes positive when rows cached" true
          (stats.Nljp.prune_cache_rows + stats.Nljp.memo_cache_rows = 0
          || stats.Nljp.cache_bytes > 0);
        Alcotest.(check bool) "outer rows seen" true (stats.Nljp.outer_rows > 0));
    t "each execution returns its own stats" (fun () ->
        let catalog = random_catalog 23 in
        let spec = analyze catalog (skyband_sql 5) [ "L" ] in
        match build catalog spec with
        | Error e -> Alcotest.fail e
        | Ok op ->
          let counts () =
            let _, s = Nljp.execute op in
            [ s.Nljp.outer_rows; s.Nljp.inner_evals; s.Nljp.pruned; s.Nljp.memo_hits;
              s.Nljp.prune_cache_rows; s.Nljp.memo_cache_rows; s.Nljp.waves ]
          in
          let first = counts () in
          Alcotest.(check bool) "first run counts rows" true (List.hd first > 0);
          Alcotest.(check (list int)) "second run counts the same" first (counts ()));
    t "describe mentions the component queries" (fun () ->
        let catalog = random_catalog 3 in
        let spec = analyze catalog (skyband_sql 5) [ "L" ] in
        match build catalog spec with
        | Error e -> Alcotest.fail e
        | Ok op ->
          let d = Nljp.describe op in
          List.iter
            (fun needle ->
              Alcotest.(check bool) needle true (contains d needle))
            [ "Q_B"; "Q_R"; "Q_C"; "Q_P" ]);
    t "build rejects HAVING over the outer side" (fun () ->
        let catalog = random_catalog 3 in
        let sql =
          "SELECT L.id, COUNT(L.x) FROM object L, object R WHERE L.x <= R.x \
           GROUP BY L.id HAVING COUNT(L.x) >= 1"
        in
        let spec = analyze catalog sql [ "L" ] in
        match build catalog spec with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "Φ references the outer side: must be rejected");
    t "memo disabled when J_L determines the outer side" (fun () ->
        (* join on the key: bindings never repeat *)
        let catalog = random_catalog 3 in
        let sql =
          "SELECT L.id, COUNT(*) FROM object L, object R WHERE L.id <= R.id \
           GROUP BY L.id HAVING COUNT(*) >= 1"
        in
        let spec = analyze catalog sql [ "L" ] in
        match build catalog spec with
        | Error e -> Alcotest.fail e
        | Ok op ->
          let _, stats = Nljp.execute op in
          Alcotest.(check bool) "memo off" false stats.Nljp.memo_on) ]

let random_equivalence =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"NLJP equals baseline on random skyband instances"
         ~count:40 (QCheck.pair (QCheck.int_range 0 9999) (QCheck.int_range 1 12))
         (fun (seed, k) ->
           let catalog = random_catalog seed in
           let sql = skyband_sql k in
           let base = Core.Runner.run_baseline catalog (Sqlfront.Parser.parse sql) in
           List.for_all
             (fun (_, pruning, memo, config) ->
               let spec = analyze catalog sql [ "L" ] in
               match build ~pruning ~memo ~config catalog spec with
               | Error _ -> false
               | Ok op -> Relation.equal_bag base (fst (Nljp.execute op)))
             configs));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"NLJP equals baseline on random monotone-threshold instances" ~count:30
         (QCheck.pair (QCheck.int_range 0 9999) (QCheck.int_range 1 6))
         (fun (seed, c) ->
           let catalog = random_catalog seed in
           let sql =
             Printf.sprintf
               "SELECT L.id, COUNT(*) FROM object L, object R \
                WHERE L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) \
                GROUP BY L.id HAVING COUNT(*) >= %d"
               c
           in
           let base = Core.Runner.run_baseline catalog (Sqlfront.Parser.parse sql) in
           let spec = analyze catalog sql [ "L" ] in
           match build catalog spec with
           | Error _ -> false
           | Ok op -> Relation.equal_bag base (fst (Nljp.execute op)))) ]

let suite = equivalence @ behavior @ random_equivalence
