(* The paper's §7 future-work knobs, implemented as opt-in extensions:
   Q_B exploration order, bounded caches with keep-first replacement, and
   the static-rewrite memoization strategy. *)
open Core
open Relalg
open Helpers

let t name f = Alcotest.test_case name `Quick f

let analyze catalog sql left =
  Qspec.analyze catalog (Sqlfront.Parser.parse sql) ~left_aliases:left

let sky k = Workload.Queries.listing2 ~k

let run_config ?(memo = true) catalog sql config =
  let spec = analyze catalog sql [ "L" ] in
  match Nljp.build ~pruning:true ~memo catalog spec config with
  | Error e -> Alcotest.failf "build: %s" e
  | Ok op -> Nljp.execute op

let ordering =
  [ t "outer ordering preserves results" (fun () ->
        let catalog = random_catalog 51 in
        let base = Core.Runner.run_baseline catalog (Sqlfront.Parser.parse (sky 5)) in
        List.iter
          (fun order ->
            let r, _ =
              run_config catalog (sky 5)
                { Nljp.default_config with Nljp.outer_order = order }
            in
            check_bag "ordered run" base r)
          [ `Default; `Auto; `Asc 0; `Desc 0; `Asc 1; `Desc 1; `Asc 99 ]);
    t "ordering changes pruning effectiveness" (fun () ->
        (* anti-monotone skyband prunes b when some cached unpromising point
           lies componentwise above it — processing large coordinates first
           (descending) populates the cache with the most useful entries *)
        let catalog = random_catalog 52 in
        let pruned order =
          let _, stats =
            run_config ~memo:false catalog (sky 3)
              { Nljp.default_config with Nljp.outer_order = order }
          in
          stats.Nljp.pruned
        in
        let asc = pruned (`Asc 0) and desc = pruned (`Desc 0) in
        Alcotest.(check bool)
          (Printf.sprintf "asc prunes %d, desc prunes %d" asc desc)
          true (desc >= asc));
    t "auto order matches the best hand-picked direction" (fun () ->
        (* anti-monotone skyband with p⪰ ≡ componentwise ≤: auto must pick
           the descending exploration *)
        let catalog = random_catalog 58 in
        let pruned order =
          let _, stats =
            run_config ~memo:false catalog (sky 3)
              { Nljp.default_config with Nljp.outer_order = order }
          in
          stats.Nljp.pruned
        in
        Alcotest.(check int) "auto = desc" (pruned (`Desc 0)) (pruned `Auto)) ]

let bounded_cache =
  [ t "bounded caches preserve results" (fun () ->
        let catalog = random_catalog 53 in
        let base = Core.Runner.run_baseline catalog (Sqlfront.Parser.parse (sky 5)) in
        List.iter
          (fun cap ->
            let r, stats =
              run_config catalog (sky 5)
                { Nljp.default_config with Nljp.max_cache_rows = Some cap }
            in
            check_bag (Printf.sprintf "cap %d" cap) base r;
            Alcotest.(check bool) "prune cache within cap" true
              (stats.Nljp.prune_cache_rows <= cap);
            Alcotest.(check bool) "memo cache within cap" true
              (stats.Nljp.memo_cache_rows <= cap))
          [ 0; 1; 3; 1000 ]);
    t "zero cap disables caching but not correctness" (fun () ->
        let catalog = random_catalog 54 in
        let _, stats =
          run_config catalog (sky 5)
            { Nljp.default_config with Nljp.max_cache_rows = Some 0 }
        in
        Alcotest.(check int) "no cache rows" 0
          (stats.Nljp.prune_cache_rows + stats.Nljp.memo_cache_rows);
        Alcotest.(check int) "nothing pruned" 0 stats.Nljp.pruned) ]

let static_memo =
  [ t "static-rewrite strategy matches baseline (skyband)" (fun () ->
        let catalog = random_catalog 55 in
        let q = Sqlfront.Parser.parse (sky 6) in
        let base = Core.Runner.run_baseline catalog q in
        let r, rep =
          Core.Runner.run ~tech:(Optimizer.only `Memo) ~memo_strategy:`Static_rewrite
            catalog q
        in
        check_bag "static memo" base r;
        Alcotest.(check bool) "used the rewrite" true
          (List.exists (fun n -> contains n "static rewrite") rep.Core.Runner.notes));
    t "static-rewrite strategy matches baseline (market basket)" (fun () ->
        let catalog = random_catalog 56 in
        let q =
          Sqlfront.Parser.parse
            "SELECT i1.item, i2.item, COUNT(*) FROM basket i1, basket i2 \
             WHERE i1.bid = i2.bid GROUP BY i1.item, i2.item HAVING COUNT(*) >= 2"
        in
        let base = Core.Runner.run_baseline catalog q in
        let r, _ =
          Core.Runner.run ~tech:(Optimizer.only `Memo) ~memo_strategy:`Static_rewrite
            catalog q
        in
        check_bag "static memo basket" base r);
    t "pick_static_memo returns a WITH-free multi-stage query" (fun () ->
        let catalog = random_catalog 57 in
        match Optimizer.pick_static_memo catalog (Sqlfront.Parser.parse (sky 6)) with
        | None -> Alcotest.fail "should apply"
        | Some q ->
          let sql = Sqlfront.Pretty.query q in
          Alcotest.(check bool) "has distinct bindings stage" true
            (contains sql "SELECT DISTINCT"));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"static and NLJP memoization agree on random instances" ~count:25
         (QCheck.pair (QCheck.int_range 0 9999) (QCheck.int_range 1 10))
         (fun (seed, k) ->
           let catalog = random_catalog seed in
           let q = Sqlfront.Parser.parse (sky k) in
           let nljp, _ = Core.Runner.run ~tech:(Optimizer.only `Memo) catalog q in
           let stat, _ =
             Core.Runner.run ~tech:(Optimizer.only `Memo)
               ~memo_strategy:`Static_rewrite catalog q
           in
           Relation.equal_bag nljp stat)) ]

let suite = ordering @ bounded_cache @ static_memo
