(* EXPLAIN ANALYZE (Core.Analyze) and cost-model calibration
   (Core.Calibrate): Q-error arithmetic, span-tree conversion, the
   estimate-vs-actual goldens, differential equality of the instrumented
   path against plain execution, and the JSON payload. *)

open Core
open Relalg
open Helpers

let t name f = Alcotest.test_case name `Quick f

let family_catalog = Test_runner.family_catalog

let parse = Sqlfront.Parser.parse

(* ---- Q-error ---- *)

let qerror_tests =
  [ t "overestimate 10x" (fun () ->
        Alcotest.(check (float 1e-9)) "q" 10. (Analyze.qerror ~est:1000. ~act:100.));
    t "underestimate 10x" (fun () ->
        Alcotest.(check (float 1e-9)) "q" 10. (Analyze.qerror ~est:10. ~act:100.));
    t "exact" (fun () ->
        Alcotest.(check (float 1e-9)) "q" 1. (Analyze.qerror ~est:42. ~act:42.));
    t "both zero clamp to 1" (fun () ->
        Alcotest.(check (float 1e-9)) "q" 1. (Analyze.qerror ~est:0. ~act:0.));
    t "zero estimate, small actual" (fun () ->
        (* est clamps to 1, act stays 5 *)
        Alcotest.(check (float 1e-9)) "q" 5. (Analyze.qerror ~est:0. ~act:5.));
    t "sub-1 estimate clamps" (fun () ->
        Alcotest.(check (float 1e-9)) "q" 2. (Analyze.qerror ~est:0.25 ~act:2.)) ]

(* ---- summarize on a hand-built tree ---- *)

let node ?est ?act ?(children = []) label : Analyze.node =
  {
    Analyze.n_label = label;
    n_est_rows = est;
    n_est_cost = None;
    n_rows_in = None;
    n_rows_out = act;
    n_total_ms = 0.;
    n_self_ms = 0.;
    n_counters = [];
    n_notes = [];
    n_children = children;
  }

let summary_tests =
  [ t "max, median and worst over a mixed tree" (fun () ->
        (* Q-errors present: 8 (a), 2 (b), 4 (c), 1 (root) -> sorted
           [1;2;4;8]: median = (2+4)/2 = 3, max = 8. *)
        let tree =
          node ~est:100. ~act:100 "root"
            ~children:
              [ node ~est:80. ~act:10 "a";
                node ~est:10. ~act:20 "b";
                node ~est:4. ~act:1 "c";
                node "no-estimate" ]
        in
        let s = Analyze.summarize tree in
        Alcotest.(check int) "nodes" 5 s.Analyze.s_nodes;
        Alcotest.(check int) "compared" 4 s.Analyze.s_compared;
        Alcotest.(check (float 1e-9)) "max" 8. s.Analyze.s_max_q;
        Alcotest.(check (float 1e-9)) "median" 3. s.Analyze.s_median_q;
        (match s.Analyze.s_worst with
         | (label, est, act, q) :: _ ->
           Alcotest.(check string) "worst label" "a" label;
           Alcotest.(check (float 1e-9)) "worst est" 80. est;
           Alcotest.(check int) "worst act" 10 act;
           Alcotest.(check (float 1e-9)) "worst q" 8. q
         | [] -> Alcotest.fail "expected worst entries");
        Alcotest.(check (list string)) "flips default empty" [] s.Analyze.s_flips);
    t "flips are carried through" (fun () ->
        let s = Analyze.summarize ~flips:[ "pick_x: off" ] (node "root") in
        Alcotest.(check (list string)) "flips" [ "pick_x: off" ] s.Analyze.s_flips);
    t "no estimates yields neutral summary" (fun () ->
        let s = Analyze.summarize (node "root") in
        Alcotest.(check int) "compared" 0 s.Analyze.s_compared;
        Alcotest.(check (float 1e-9)) "max" 1. s.Analyze.s_max_q) ]

(* ---- of_span: self time is total minus children, clamped ---- *)

let of_span_tests =
  [ t "self time derives from children" (fun () ->
        let root = Obs.Span.enter "query" in
        let child = Obs.Span.enter ~parent:root "execute" in
        child.Obs.Span.dur_ms <- 4.;
        root.Obs.Span.dur_ms <- 10.;
        root.Obs.Span.rows_out <- Some 7;
        let n = Analyze.of_span root in
        Alcotest.(check (float 1e-9)) "total" 10. n.Analyze.n_total_ms;
        Alcotest.(check (float 1e-9)) "self" 6. n.Analyze.n_self_ms;
        Alcotest.(check (option int)) "rows_out" (Some 7) n.Analyze.n_rows_out;
        (match n.Analyze.n_children with
         | [ c ] -> Alcotest.(check (float 1e-9)) "child self" 4. c.Analyze.n_self_ms
         | _ -> Alcotest.fail "expected one child"));
    t "self time clamps at zero" (fun () ->
        (* Zero-duration plan-annotation spans under a timed parent. *)
        let root = Obs.Span.enter "execute" in
        let child = Obs.Span.enter ~parent:root "Scan t" in
        child.Obs.Span.dur_ms <- 5.;
        root.Obs.Span.dur_ms <- 3.;
        let n = Analyze.of_span root in
        Alcotest.(check (float 1e-9)) "clamped" 0. n.Analyze.n_self_ms) ]

(* ---- differential: Analyze.run is bag-equal to plain execution ---- *)

let techniques =
  [ ("all", Optimizer.all_techniques);
    ("apriori", Optimizer.only `Apriori);
    ("memo", Optimizer.only `Memo);
    ("pruning", Optimizer.only `Pruning) ]

let queries =
  [ ("skyband", Workload.Queries.listing2 ~k:8);
    ("pairs", Workload.Queries.listing4 ~c:2 ~k:4);
    ("complex", Workload.Queries.listing3 ~threshold:6) ]

let differential =
  List.concat_map
    (fun (qname, sql) ->
      List.concat_map
        (fun (tname, tech) ->
          List.concat_map
            (fun layout ->
              List.map
                (fun workers ->
                  let lname = match layout with `Row -> "row" | `Column -> "col" in
                  t
                    (Printf.sprintf "%s/%s/%s/workers=%d bag-equal" qname tname
                       lname workers)
                    (fun () ->
                      let catalog = family_catalog 100 in
                      if layout = `Column then
                        Catalog.set_all_layouts catalog `Column;
                      let q = parse sql in
                      let base = Runner.run_baseline catalog q in
                      let r, _, _ = Analyze.run ~tech ~workers catalog q in
                      check_bag
                        (Printf.sprintf "%s %s %s w=%d" qname tname lname workers)
                        base r))
                [ 1; 4 ])
            [ `Row; `Column ])
        techniques)
    queries

(* ---- goldens over the annotated tree ---- *)

let analyze_family sql =
  let catalog = family_catalog 100 in
  let q = parse sql in
  let rel, rep, n = Analyze.run catalog q in
  (catalog, rel, rep, n)

(* The parent of every [stats build] node, in tree order. *)
let stats_builds n =
  let rec go acc (n : Analyze.node) =
    List.fold_left go
      (List.filter_map
         (fun (c : Analyze.node) ->
           if c.Analyze.n_label = "stats build" then Some n.Analyze.n_label else None)
         n.Analyze.n_children
      @ acc)
      n.Analyze.n_children
  in
  go [] n

let golden_tests =
  [ t "a table's first Stats build is a span of the work that needed it" (fun () ->
        (* basket pairs: the NLJP verdict reads Stats while optimizing *)
        let catalog = basket_catalog () in
        let q = parse (Workload.Queries.listing1 ~threshold:2) in
        let builds () =
          let _, _, n = Analyze.run catalog q in
          stats_builds n
        in
        Alcotest.(check (list string)) "first ANALYZE" [ "optimize" ] (builds ());
        Alcotest.(check (list string)) "second ANALYZE" [] (builds ());
        (* a skyband keeps NLJP for its pruning; the block estimate builds *)
        let catalog = family_catalog 100 in
        let q = parse (Workload.Queries.listing2 ~k:8) in
        let _, _, n = Analyze.run catalog q in
        Alcotest.(check (list string)) "skyband" [ "block estimate" ] (stats_builds n));
    t "complex query: NLJP sides and probe loop annotated" (fun () ->
        let _, _, _, n =
          analyze_family (Workload.Queries.listing3 ~threshold:6)
        in
        let s = Analyze.to_text n in
        List.iter
          (fun needle ->
            if not (contains s needle) then
              Alcotest.failf "missing %S in:\n%s" needle s)
          [ "query"; "execute"; "Q_B (outer side)"; "Q_R (inner side)";
            "NLJP probe loop"; "est~"; "q="; "est_distinct_bindings";
            "outer_rows=" ])
      ;
    t "complex query: summary lists worst estimates" (fun () ->
        let catalog, _, rep, n =
          analyze_family (Workload.Queries.listing3 ~threshold:6)
        in
        let flips = Analyze.decision_flips catalog rep n in
        let s = Analyze.summary_to_text (Analyze.summarize ~flips n) in
        List.iter
          (fun needle ->
            if not (contains s needle) then
              Alcotest.failf "missing %S in:\n%s" needle s)
          [ "plan summary:"; "Q-error max"; "worst estimates:"; "decision flips" ])
      ;
    t "CTE query: block labelled cte:<name> in tree and report" (fun () ->
        let _, _, rep, n =
          analyze_family (Workload.Queries.listing4 ~c:2 ~k:4)
        in
        let s = Analyze.to_text n in
        if not (contains s "cte:pair") then
          Alcotest.failf "missing cte:pair in:\n%s" s;
        let r = Runner.report_to_string rep in
        if not (contains r "cte:pair:") then
          Alcotest.failf "missing cte:pair: in report:\n%s" r)
      ;
    t "CTE report renders nested notes" (fun () ->
        let _, _, rep, _ =
          analyze_family (Workload.Queries.listing4 ~c:2 ~k:4)
        in
        (match rep.Runner.cte_reports with
         | [] -> Alcotest.fail "expected a CTE report"
         | (name, sub) :: _ ->
           Alcotest.(check string) "cte name" "pair" name;
           if sub.Runner.notes = [] then
             Alcotest.fail "expected notes inside the CTE report";
           let rendered = Runner.report_to_string rep in
           List.iter
             (fun note ->
               if not (contains rendered note) then
                 Alcotest.failf "nested note %S not rendered in:\n%s" note
                   rendered)
             sub.Runner.notes))
      ;
    t "baseline fallback: per-plan-node actuals attach to Cost labels"
      (fun () ->
        (* Single-table aggregate: outside the iceberg shape, so the block
           runs as the instrumented baseline plan. *)
        let _, _, _, n =
          analyze_family
            "SELECT id, COUNT(*) FROM object GROUP BY id HAVING COUNT(*) >= 1"
        in
        let s = Analyze.to_text n in
        List.iter
          (fun needle ->
            if not (contains s needle) then
              Alcotest.failf "missing %S in:\n%s" needle s)
          [ "HashAggregate"; "Scan object"; "act=120"; "pipelined" ])
      ;
    t "Q_B misestimate surfaces as a pick_memprune flip" (fun () ->
        (* Hand-built tree: a Q_B node off by 8x must be flagged. *)
        let tree =
          node "query"
            ~children:[ node ~est:10. ~act:80 "Q_B (outer side)" ]
        in
        let catalog = family_catalog 100 in
        let rep =
          {
            Runner.technique = Optimizer.no_techniques;
            apriori = [];
            nljp_outer = None;
            nljp_stats = None;
            nljp_describe = None;
            transfer = None;
            notes = [];
            cte_reports = [];
          }
        in
        let flips = Analyze.decision_flips catalog rep tree in
        match flips with
        | [ f ] ->
          if not (contains f "pick_memprune") then
            Alcotest.failf "unexpected flip text: %s" f
        | other ->
          Alcotest.failf "expected exactly one flip, got %d" (List.length other))
  ]

(* ---- JSON payload ---- *)

let json_tests =
  [ t "document round-trips through the Obs.Json parser" (fun () ->
        let catalog, _, rep, n =
          analyze_family (Workload.Queries.listing3 ~threshold:6)
        in
        let flips = Analyze.decision_flips catalog rep n in
        let doc = Analyze.document n (Analyze.summarize ~flips n) in
        let reparsed = Obs.Json.of_string (Obs.Json.to_string doc) in
        (match Obs.Json.member "analyze" reparsed with
         | Some (Obs.Json.Obj _ as tree) ->
           (match Obs.Json.member "label" tree with
            | Some (Obs.Json.Str l) -> Alcotest.(check string) "root" "query" l
            | _ -> Alcotest.fail "missing label")
         | _ -> Alcotest.fail "missing analyze tree");
        match Obs.Json.member "summary" reparsed with
        | Some (Obs.Json.Obj _ as s) ->
          (match Obs.Json.member "nodes" s with
           | Some (Obs.Json.Num x) ->
             if x < 1. then Alcotest.fail "node count missing"
           | _ -> Alcotest.fail "missing nodes")
        | _ -> Alcotest.fail "missing summary") ]

(* ---- calibration ---- *)

let calibrate_tests =
  [ t "calibrate emits cardinality and technique rows" (fun () ->
        let catalog = family_catalog 100 in
        let rows =
          Calibrate.calibrate ~workload:"test" catalog
            [ ("skyband", Workload.Queries.listing2 ~k:8) ]
        in
        if rows = [] then Alcotest.fail "expected calibration rows";
        List.iter
          (fun r ->
            if r.Calibrate.c_q < 1. then
              Alcotest.failf "q-error below 1 on %s" r.Calibrate.c_metric)
          rows;
        let has prefix =
          List.exists
            (fun r ->
              String.length r.Calibrate.c_metric >= String.length prefix
              && String.sub r.Calibrate.c_metric 0 (String.length prefix)
                 = prefix)
            rows
        in
        if not (has "cardinality:") then Alcotest.fail "no cardinality rows";
        if not (has "prune:inner_evals") then Alcotest.fail "no prune row")
      ;
    t "worst sorts by descending Q-error" (fun () ->
        let catalog = family_catalog 100 in
        let rows =
          Calibrate.calibrate ~workload:"test" catalog
            [ ("complex", Workload.Queries.listing3 ~threshold:6) ]
        in
        let w = Calibrate.worst 3 rows in
        let qs = List.map (fun r -> r.Calibrate.c_q) w in
        Alcotest.(check (list (float 1e-9)))
          "sorted desc" (List.sort (fun a b -> Float.compare b a) qs) qs)
      ;
    t "to_text and to_json cover every row" (fun () ->
        let catalog = family_catalog 100 in
        let rows =
          Calibrate.calibrate ~workload:"test" catalog
            [ ("skyband", Workload.Queries.listing2 ~k:8) ]
        in
        let txt = Calibrate.to_text rows in
        List.iter
          (fun r ->
            if not (contains txt r.Calibrate.c_metric) then
              Alcotest.failf "metric %s missing from text" r.Calibrate.c_metric)
          rows;
        match Calibrate.to_json rows with
        | Obs.Json.Arr l ->
          Alcotest.(check int) "arity" (List.length rows) (List.length l)
        | _ -> Alcotest.fail "expected a JSON array") ]

let suite =
  qerror_tests @ summary_tests @ of_span_tests @ differential @ golden_tests
  @ json_tests @ calibrate_tests
