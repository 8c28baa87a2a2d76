(* Plan-tree and executor coverage: schema derivation for every node kind,
   EXPLAIN output shapes (the Appendix E comparison), streaming vs
   materializing paths, and parallel-domain equivalence. *)
open Relalg
open Helpers

let t name f = Alcotest.test_case name `Quick f

let catalog () =
  let c = Catalog.create () in
  Catalog.add_table c ~keys:[ [ "id" ] ] "pts"
    (rel [ "id"; "x"; "grp" ]
       (List.init 60 (fun i -> [ iv i; iv (i mod 12); iv (i mod 4) ])));
  Catalog.build_sorted_index c "pts" [ "x" ];
  c

let scan alias = Plan.Scan { table = "pts"; alias = Some alias; filter = None }

let schema_tests =
  [ t "scan schema is alias-qualified" (fun () ->
        let s = Plan.schema_of (catalog ()) (scan "a") in
        Alcotest.(check string) "cols" "(a.id, a.x, a.grp)" (Schema.to_string s));
    t "join schema concatenates" (fun () ->
        let s =
          Plan.schema_of (catalog ())
            (Plan.Nl_join { pred = Expr.tt; left = scan "a"; right = scan "b" })
        in
        Alcotest.(check int) "arity" 6 (Schema.arity s));
    t "group schema is group cols then aggs" (fun () ->
        let s =
          Plan.schema_of (catalog ())
            (Plan.Group
               {
                 group_cols = [ (Expr.col ~q:"a" "grp", Schema.col ~q:"a" "grp") ];
                 aggs = [ (Agg.Count_star, Schema.col "n") ];
                 input = scan "a";
               })
        in
        Alcotest.(check string) "cols" "(a.grp, n)" (Schema.to_string s));
    t "rename unqualifies then requalifies" (fun () ->
        let s = Plan.schema_of (catalog ()) (Plan.Rename ("z", scan "a")) in
        Alcotest.(check string) "cols" "(z.id, z.x, z.grp)" (Schema.to_string s));
    t "values schema uses the embedded name" (fun () ->
        let s =
          Plan.schema_of (catalog ())
            (Plan.Values { name = "v"; rel = rel [ "k" ] [ [ iv 1 ] ] })
        in
        Alcotest.(check string) "cols" "(v.k)" (Schema.to_string s)) ]

let explain_tests =
  [ t "appendix E shape: index scan under nested loop" (fun () ->
        let c = catalog () in
        let plan =
          Sqlfront.Binder.bind c
            (Sqlfront.Parser.parse
               "SELECT a.id, COUNT(*) FROM pts a, pts b WHERE a.x < b.x \
                GROUP BY a.id HAVING COUNT(*) <= 5")
        in
        let text = Plan.explain plan in
        List.iter
          (fun needle -> Alcotest.(check bool) needle true (contains text needle))
          [ "HashAggregate"; "Nested Loop"; "Index Scan"; "Filter: __agg0" ]) ]

let exec_tests =
  [ t "filter above a join" (fun () ->
        let c = catalog () in
        let r =
          run_sql c
            "SELECT a.id, b.id FROM pts a, pts b \
             WHERE a.grp = b.grp AND a.x + b.x = 22"
        in
        (* cross-check against a nested-loop-only formulation *)
        let r2 =
          Exec.run c
            (Plan.Filter
               ( Expr.Cmp
                   ( Expr.Eq,
                     Expr.Binop (Expr.Add, Expr.col ~q:"a" "x", Expr.col ~q:"b" "x"),
                     Expr.int 22 ),
                 Plan.Nl_join
                   {
                     pred = Expr.Cmp (Expr.Eq, Expr.col ~q:"a" "grp", Expr.col ~q:"b" "grp");
                     left = scan "a";
                     right = scan "b";
                   } ))
        in
        Alcotest.(check int) "same cardinality" (Relation.cardinality r2)
          (Relation.cardinality r));
    t "index join falls back without the index" (fun () ->
        let c = catalog () in
        let plan =
          Plan.Index_nl_join
            {
              pred = Expr.Cmp (Expr.Lt, Expr.col ~q:"a" "x", Expr.col ~q:"b" "x");
              left = scan "a";
              table = "pts";
              alias = Some "b";
              key_col = "x";
              lo = Some (Expr.col ~q:"a" "x", `Strict);
              hi = None;
            }
        in
        let with_index = Exec.run c plan in
        Catalog.drop_indexes c "pts";
        let without = Exec.run c plan in
        check_bag "fallback equal" with_index without);
    t "parallel collect equals sequential for materialized joins" (fun () ->
        let c = catalog () in
        let plan =
          Plan.Nl_join
            {
              pred = Expr.Cmp (Expr.Le, Expr.col ~q:"a" "x", Expr.col ~q:"b" "x");
              left = scan "a";
              right = scan "b";
            }
        in
        check_bag "par=seq" (Exec.run c plan) (Exec.run ~workers:4 c plan));
    t "parallel group over index join equals sequential" (fun () ->
        let c = catalog () in
        let q =
          Sqlfront.Parser.parse
            "SELECT a.grp, COUNT(*), SUM(b.x) FROM pts a, pts b WHERE a.x < b.x \
             GROUP BY a.grp HAVING COUNT(*) >= 1"
        in
        check_bag "par=seq" (Sqlfront.Binder.run c q) (Sqlfront.Binder.run ~workers:3 c q));
    t "semijoin plan node" (fun () ->
        let c = catalog () in
        let sub = Plan.Project ([ (Expr.col ~q:"a" "grp", Schema.col "g") ],
                                Plan.Filter (Expr.Cmp (Expr.Eq, Expr.col ~q:"a" "id", Expr.int 1), scan "a")) in
        let plan =
          Plan.Semijoin { keys = [ Expr.col ~q:"b" "grp" ]; sub; input = scan "b" }
        in
        let r = Exec.run c plan in
        Alcotest.(check int) "grp of id 1 only" 15 (Relation.cardinality r));
    t "limit above sort is stable under workers" (fun () ->
        let c = catalog () in
        let q =
          Sqlfront.Parser.parse "SELECT id FROM pts ORDER BY x DESC, id ASC LIMIT 3"
        in
        check_bag "same" (Sqlfront.Binder.run c q) (Sqlfront.Binder.run ~workers:4 c q)) ]

let pretty_tests =
  [ t "rewritten queries re-parse (a-priori output is valid SQL)" (fun () ->
        let catalog = basket_catalog () in
        let spec =
          Core.Qspec.analyze catalog
            (Sqlfront.Parser.parse
               "SELECT i1.item, i2.item, COUNT(*) FROM basket i1, basket i2 \
                WHERE i1.bid = i2.bid GROUP BY i1.item, i2.item HAVING COUNT(*) >= 2")
            ~left_aliases:[ "i1" ]
        in
        let sql = Sqlfront.Pretty.query (Core.Apriori.apply spec `Left) in
        let reparsed = Sqlfront.Parser.parse sql in
        Alcotest.(check string) "fixpoint" sql (Sqlfront.Pretty.query reparsed));
    t "memo rewrite output re-parses" (fun () ->
        let catalog = random_catalog 71 in
        let spec =
          Core.Qspec.analyze catalog
            (Sqlfront.Parser.parse (Workload.Queries.listing2 ~k:5))
            ~left_aliases:[ "L" ]
        in
        let sql = Sqlfront.Pretty.query (Core.Memo_rewrite.rewrite catalog spec) in
        let reparsed = Sqlfront.Parser.parse sql in
        Alcotest.(check string) "fixpoint" sql (Sqlfront.Pretty.query reparsed)) ]

let suite = schema_tests @ explain_tests @ exec_tests @ pretty_tests
