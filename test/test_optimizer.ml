open Core
open Helpers

let t name f = Alcotest.test_case name `Quick f

let suite =
  [ t "proper_subsets enumerates smallest first" (fun () ->
        let subs = Optimizer.proper_subsets [ "a"; "b"; "c" ] in
        Alcotest.(check int) "2^3 - 2" 6 (List.length subs);
        (match subs with
         | [ "a" ] :: _ -> ()
         | _ -> Alcotest.fail "singletons first");
        let last = List.nth subs (List.length subs - 1) in
        Alcotest.(check int) "largest last" 2 (List.length last));
    t "proper_subsets of a pair" (fun () ->
        Alcotest.(check int) "2" 2 (List.length (Optimizer.proper_subsets [ "x"; "y" ])));
    t "decide with all techniques off does nothing" (fun () ->
        let catalog = random_catalog 3 in
        let q = Sqlfront.Parser.parse (Workload.Queries.listing2 ~k:5) in
        let d =
          Optimizer.decide catalog q ~tech:Optimizer.no_techniques
            ~nljp_config:Nljp.default_config
        in
        Alcotest.(check bool) "no rewrites" true (d.Optimizer.apriori_rewrites = []);
        Alcotest.(check bool) "no nljp" true (d.Optimizer.nljp = None));
    t "a-priori rewrites target disjoint alias sets" (fun () ->
        let catalog = Relalg.Catalog.create () in
        Relalg.Catalog.add_table catalog ~keys:[ [ "id"; "attr" ] ]
          ~fds:[ ([ "id" ], [ "category" ]) ] ~nonneg:[ "val" ] "product"
          (rel [ "id"; "category"; "attr"; "val" ]
             (List.concat_map
                (fun id ->
                  List.map
                    (fun a -> [ iv id; sv "c"; sv a; iv (id * 7 mod 13) ])
                    [ "a"; "b" ])
                (List.init 12 Fun.id)));
        let q = Sqlfront.Parser.parse (Workload.Queries.listing3 ~threshold:3) in
        let d =
          Optimizer.decide catalog q ~tech:Optimizer.all_techniques
            ~nljp_config:Nljp.default_config
        in
        let considered = List.map (fun rw -> rw.Optimizer.considered) d.Optimizer.apriori_rewrites in
        let rec disjoint = function
          | [] -> true
          | s :: rest ->
            List.for_all (fun s' -> List.for_all (fun a -> not (List.mem a s')) s) rest
            && disjoint rest
        in
        Alcotest.(check bool) "disjoint" true (disjoint considered));
    t "NLJP outer side compatible with a-priori groupings" (fun () ->
        let catalog = random_catalog 5 in
        let q =
          Sqlfront.Parser.parse
            "SELECT i1.item, i2.item, COUNT(*) FROM basket i1, basket i2 \
             WHERE i1.bid = i2.bid GROUP BY i1.item, i2.item HAVING COUNT(*) >= 2"
        in
        let d =
          Optimizer.decide catalog q ~tech:Optimizer.all_techniques
            ~nljp_config:Nljp.default_config
        in
        match d.Optimizer.nljp with
        | None -> () (* acceptable: memo/prune may not apply *)
        | Some (_, outer) ->
          List.iter
            (fun rw ->
              let grp = rw.Optimizer.reduced in
              let all_in = List.for_all (fun a -> List.mem a outer) grp in
              let none_in = List.for_all (fun a -> not (List.mem a outer)) grp in
              Alcotest.(check bool) "compatible" true (all_in || none_in))
            d.Optimizer.apriori_rewrites);
    t "rewritten_query substitutes reduced tables" (fun () ->
        let catalog = random_catalog 7 in
        let q =
          Sqlfront.Parser.parse
            "SELECT i1.item, i2.item, COUNT(*) FROM basket i1, basket i2 \
             WHERE i1.bid = i2.bid GROUP BY i1.item, i2.item HAVING COUNT(*) >= 2"
        in
        let d =
          Optimizer.decide catalog q ~tech:(Optimizer.only `Apriori)
            ~nljp_config:Nljp.default_config
        in
        Alcotest.(check bool) "found rewrites" true (d.Optimizer.apriori_rewrites <> []);
        let sql = Sqlfront.Pretty.query (Optimizer.rewritten_query d) in
        Alcotest.(check bool) "has IN semijoin" true (contains sql "IN (SELECT"));
    t "NLJP verdict: the memo pays or the rewrite-only plan runs" (fun () ->
        let q = Sqlfront.Parser.parse (Workload.Queries.listing1 ~threshold:2) in
        let run catalog =
          let r, rep = Runner.run catalog q in
          check_bag "bag-equal to the baseline" (Runner.run_baseline catalog q) r;
          rep
        in
        (* one partition per inner row of a binding: the rewrite-only plan *)
        let rep = run (basket_catalog ()) in
        Alcotest.(check bool) "NLJP skipped" true (rep.Runner.nljp_stats = None);
        Alcotest.(check bool) "rewrite-only plan" true
          (contains (Runner.report_to_string rep) "plan: 2 a-priori reducers, baseline join");
        (* twelve rows per basket fold into two items: NLJP with memo hits *)
        let catalog = Relalg.Catalog.create () in
        Relalg.Catalog.add_table catalog "basket" (rel [ "bid"; "item" ] Oracle.memo_pays_basket);
        match (run catalog).Runner.nljp_stats with
        | None -> Alcotest.fail "NLJP skipped where the memo pays"
        | Some s -> Alcotest.(check bool) "memo hits" true (s.Nljp.memo_hits > 0));
    t "technique constructors" (fun () ->
        Alcotest.(check bool) "only memo" true
          (Optimizer.only `Memo).Optimizer.memo;
        Alcotest.(check bool) "only memo no pruning" false
          (Optimizer.only `Memo).Optimizer.pruning) ]
