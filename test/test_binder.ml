open Relalg
open Helpers

let t name f = Alcotest.test_case name `Quick f

let catalog_with tables =
  let catalog = Catalog.create () in
  List.iter (fun (name, keys, r) -> Catalog.add_table catalog ~keys name r) tables;
  catalog

let emp () =
  catalog_with
    [ ( "emp",
        [ [ "id" ] ],
        rel [ "id"; "dept"; "salary" ]
          [ [ iv 1; sv "eng"; iv 100 ]; [ iv 2; sv "eng"; iv 120 ];
            [ iv 3; sv "ops"; iv 90 ]; [ iv 4; sv "hr"; iv 80 ] ] );
      ( "dept",
        [ [ "name" ] ],
        rel [ "name"; "floor" ] [ [ sv "eng"; iv 3 ]; [ sv "ops"; iv 1 ] ] ) ]

let sql_results =
  [ t "projection and filter" (fun () ->
        check_rows "result"
          (rel [ "id" ] [ [ iv 1 ]; [ iv 2 ] ])
          (run_sql (emp ()) "SELECT id FROM emp WHERE salary >= 100"));
    t "computed select item" (fun () ->
        check_rows "result"
          (rel [ "x" ] [ [ iv 200 ]; [ iv 240 ]; [ iv 180 ]; [ iv 160 ] ])
          (run_sql (emp ()) "SELECT salary * 2 AS x FROM emp"));
    t "equi join via hash join" (fun () ->
        let plan =
          Sqlfront.Binder.bind (emp ())
            (Sqlfront.Parser.parse
               "SELECT e.id, d.floor FROM emp e, dept d WHERE e.dept = d.name")
        in
        (match plan with
         | Plan.Project (_, Plan.Hash_join _) -> ()
         | _ -> Alcotest.failf "expected hash join, got:\n%s" (Plan.explain plan));
        check_rows "rows"
          (rel [ "id"; "floor" ] [ [ iv 1; iv 3 ]; [ iv 2; iv 3 ]; [ iv 3; iv 1 ] ])
          (run_sql (emp ()) "SELECT e.id, d.floor FROM emp e, dept d WHERE e.dept = d.name"));
    t "group by + having" (fun () ->
        check_rows "result"
          (rel [ "dept"; "n" ] [ [ sv "eng"; iv 2 ] ])
          (run_sql (emp ())
             "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept HAVING COUNT(*) >= 2"));
    t "having may use aggregates not in select" (fun () ->
        check_rows "result"
          (rel [ "dept" ] [ [ sv "eng" ] ])
          (run_sql (emp ()) "SELECT dept FROM emp GROUP BY dept HAVING SUM(salary) > 150"));
    t "global aggregate" (fun () ->
        check_rows "result"
          (rel [ "n"; "s" ] [ [ iv 4; iv 390 ] ])
          (run_sql (emp ()) "SELECT COUNT(*) AS n, SUM(salary) AS s FROM emp"));
    t "avg returns float" (fun () ->
        check_rows "result"
          (rel [ "a" ] [ [ fv 97.5 ] ])
          (run_sql (emp ()) "SELECT AVG(salary) AS a FROM emp"));
    t "order by limit" (fun () ->
        let r =
          run_sql (emp ()) "SELECT id FROM emp ORDER BY salary DESC LIMIT 2"
        in
        check_rows "top2" (rel [ "id" ] [ [ iv 2 ]; [ iv 1 ] ]) r);
    t "distinct" (fun () ->
        Alcotest.(check int) "3 depts" 3
          (Relation.cardinality (run_sql (emp ()) "SELECT DISTINCT dept FROM emp")));
    t "in subquery" (fun () ->
        check_rows "result"
          (rel [ "id" ] [ [ iv 1 ]; [ iv 2 ]; [ iv 3 ] ])
          (run_sql (emp ())
             "SELECT id FROM emp WHERE dept IN (SELECT name FROM dept)"));
    t "tuple in subquery" (fun () ->
        check_rows "result"
          (rel [ "id" ] [ [ iv 1 ] ])
          (run_sql (emp ())
             "SELECT id FROM emp WHERE (dept, salary) IN (SELECT name, floor * 0 + 100 FROM dept)"));
    t "cte used twice materialized once" (fun () ->
        let r =
          run_sql (emp ())
            "WITH rich AS (SELECT id, salary FROM emp WHERE salary >= 100) \
             SELECT a.id, b.id FROM rich a, rich b WHERE a.salary < b.salary"
        in
        check_rows "pairs" (rel [ "id"; "id" ] [ [ iv 1; iv 2 ] ]) r);
    t "from subquery" (fun () ->
        check_rows "result"
          (rel [ "d" ] [ [ sv "eng" ] ])
          (run_sql (emp ())
             "SELECT s.d FROM (SELECT dept AS d, COUNT(*) AS n FROM emp GROUP BY dept) s \
              WHERE s.n >= 2"));
    t "self join with aliases" (fun () ->
        let r =
          run_sql (emp ())
            "SELECT a.id, b.id FROM emp a, emp b WHERE a.salary < b.salary AND a.dept = b.dept"
        in
        check_rows "pairs" (rel [ "id"; "id" ] [ [ iv 1; iv 2 ] ]) r);
    t "unknown table raises" (fun () ->
        match run_sql (emp ()) "SELECT x FROM nope" with
        | exception Sqlfront.Binder.Bind_error _ -> ()
        | _ -> Alcotest.fail "expected bind error");
    t "unknown column raises" (fun () ->
        match run_sql (emp ()) "SELECT nope FROM emp" with
        | exception Schema.Unknown_column _ -> ()
        | _ -> Alcotest.fail "expected unknown column");
    t "ambiguous column raises" (fun () ->
        match run_sql (emp ()) "SELECT id FROM emp a, emp b WHERE a.id = b.id" with
        | exception Schema.Ambiguous_column _ -> ()
        | _ -> Alcotest.fail "expected ambiguity error") ]

let index_plans =
  [ t "inequality join uses sorted index when available" (fun () ->
        let catalog = emp () in
        Catalog.build_sorted_index catalog "emp" [ "salary" ];
        let plan =
          Sqlfront.Binder.bind catalog
            (Sqlfront.Parser.parse
               "SELECT a.id, COUNT(*) FROM emp a, emp b WHERE a.salary < b.salary GROUP BY a.id HAVING COUNT(*) >= 1")
        in
        let rec has_index = function
          | Plan.Index_nl_join _ -> true
          | Plan.Project (_, p) | Plan.Filter (_, p) | Plan.Distinct p
          | Plan.Order_by (_, p) | Plan.Limit (_, p) | Plan.Rename (_, p) ->
            has_index p
          | Plan.Group { input; _ } -> has_index input
          | Plan.Nl_join { left; right; _ } | Plan.Hash_join { left; right; _ } ->
            has_index left || has_index right
          | Plan.Semijoin { sub; input; _ } -> has_index sub || has_index input
          | Plan.Scan _ | Plan.Values _ -> false
        in
        Alcotest.(check bool) "index join" true (has_index plan));
    t "index join result equals nl join result" (fun () ->
        let sql =
          "SELECT a.id, COUNT(*) FROM emp a, emp b WHERE a.salary < b.salary \
           GROUP BY a.id HAVING COUNT(*) >= 1"
        in
        let without = run_sql (emp ()) sql in
        let catalog = emp () in
        Catalog.build_sorted_index catalog "emp" [ "salary" ];
        let with_idx = run_sql catalog sql in
        check_bag "same" without with_idx);
    t "parallel execution equals sequential" (fun () ->
        let sql =
          "SELECT a.dept, COUNT(*) FROM emp a, emp b WHERE a.salary <= b.salary \
           GROUP BY a.dept HAVING COUNT(*) >= 1"
        in
        let q = Sqlfront.Parser.parse sql in
        let seq = Sqlfront.Binder.run (emp ()) q in
        let par = Sqlfront.Binder.run ~workers:4 (emp ()) q in
        check_bag "par = seq" seq par) ]

let suite = sql_results @ index_plans
