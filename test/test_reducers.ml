(* A-priori reducers run through the smart path (Runner.run with the
   parent query's technique, workers and transfer setting); the baseline
   executor stays the reference.  Differential over the reducer-bearing
   query families on data with NULLs, NaNs, duplicate join keys and
   boundary integers. *)
open Relalg
open Core
open Helpers

let t name f = Alcotest.test_case name `Quick f

(* Rewrite a table's rows in place of the generated ones, keeping its keys,
   FDs and domain facts. *)
let mutate_rows c name f =
  let tbl = Catalog.find c name in
  let schema = tbl.Catalog.rel.Relation.schema in
  let rows = Array.map Array.copy (Relation.rows tbl.Catalog.rel) in
  Array.iteri (fun i r -> f (Schema.index_of schema) i r) rows;
  Catalog.replace_rows c name (Relation.of_rows schema (Array.to_list rows))

let hostile_catalog () =
  let c = Catalog.create () in
  ignore (Workload.Baseball.register c ~rows:600 ~seed:11);
  ignore (Workload.Baseball.register_unpivoted c ~rows:120 ~seed:11);
  ignore (Workload.Basket.register c ~baskets:50 ~items:9 ~avg_size:3 ~seed:11);
  (* player_performance: key (playerid, year, round) and FD playerid →
     teamid stay true; NULL team for whole players, every third year moved
     to the int boundary, NaN and NULL statistics. *)
  mutate_rows c Workload.Baseball.table_name (fun idx i r ->
      (match r.(idx "playerid") with
       | Value.Int p when p mod 5 = 0 -> r.(idx "teamid") <- Value.Null
       | _ -> ());
      (match r.(idx "year") with
       | Value.Int y when y mod 3 = 0 -> r.(idx "year") <- Value.Int (max_int - y)
       | _ -> ());
      if i mod 97 = 0 then r.(idx "b_h") <- Value.Float Float.nan;
      if i mod 89 = 0 then r.(idx "b_hr") <- Value.Null);
  (* perf_kv: key (id, attr) and FD id → category stay true. *)
  mutate_rows c Workload.Baseball.unpivoted_name (fun idx i r ->
      (match r.(idx "id") with
       | Value.Int id when id mod 6 = 0 -> r.(idx "category") <- Value.Null
       | _ -> ());
      let v =
        match i mod 23 with
        | 0 | 9 -> Some Value.Null
        | 3 | 15 -> Some (Value.Float Float.nan)
        | 5 | 17 -> Some (Value.Int max_int)
        | 7 -> Some (Value.Int min_int)
        | 11 | 12 | 13 -> Some (Value.Int 7)  (* duplicate values *)
        | _ -> None
      in
      Option.iter (fun v -> r.(idx "val") <- v) v);
  (* basket: a basket id at the int boundary and one that is NULL. *)
  Catalog.append_rows c Workload.Basket.table_name
    (Array.of_list
       (List.concat_map
          (fun bid ->
            List.map (fun it -> [| bid; sv it |]) [ "item0001"; "item0002"; "item0003" ])
          [ Value.Int max_int; Value.Null ]));
  c

let families =
  [ ("complex k=1", Workload.Queries.complex ~threshold:1);
    ("complex k=3", Workload.Queries.complex ~threshold:3);
    ("complex_filtered", Workload.Queries.complex_filtered ~category:"team1" ~threshold:1 ());
    ("basket pairs", Workload.Queries.listing1 ~threshold:2);
    ("Q4", Workload.Queries.pairs ~agg:`Avg ~c:2 ~k:20 ()) ]

let rec reducer_lines (rep : Runner.report) =
  List.filter (String.starts_with ~prefix:"reducer over {") rep.Runner.notes
  @ List.concat_map (fun (_, r) -> reducer_lines r) rep.Runner.cte_reports

let techs = [ ("all", Optimizer.all_techniques); ("apriori only", Optimizer.only `Apriori) ]

let test_differential () =
  let c = hostile_catalog () in
  let saw_smart_reducer = ref false in
  List.iter
    (fun (name, sql) ->
      let q = Sqlfront.Parser.parse sql in
      let baseline = Runner.run_baseline c q in
      Alcotest.(check bool) (name ^ ": non-empty answer") true
        (Relation.cardinality baseline > 0);
      List.iter
        (fun (tname, tech) ->
          List.iter
            (fun workers ->
              let label = Printf.sprintf "%s/%s/workers=%d" name tname workers in
              let rel, rep = Runner.run ~tech ~workers c q in
              check_bag label baseline rel;
              let lines = reducer_lines rep in
              if tech.Optimizer.memo || tech.Optimizer.pruning then begin
                if List.exists (fun l -> contains l "NLJP outer") lines then
                  saw_smart_reducer := true
              end
              else
                List.iter
                  (fun l ->
                    if contains l "NLJP" then
                      Alcotest.failf "%s: apriori-only reducer ran NLJP: %s" label l)
                  lines;
              (* Prepared plans take the same evaluator. *)
              let prepared = Runner.prepare ~tech ~workers c q in
              check_bag (label ^ " (prepared)") baseline (fst (Runner.run_prepared prepared)))
            [ 1; 2 ])
        techs)
    families;
  Alcotest.(check bool) "some reducer ran through NLJP" true !saw_smart_reducer

(* One grid pins EXPLAIN to the run and [run] to [prepare] + [run_prepared]:
   technique (all, a-priori only, memo only through the Listing 8 static
   rewrite) × layout × workers × transfer, over the reducer families (Q4
   is a CTE text) plus a skyband and a non-iceberg text.  The plan lines,
   reducer lines (a mirror reducer's [shared with …] included) and the
   optimizer notes (the NLJP verdict included) must be the run's. *)
let grid_techs =
  [ ("all", Optimizer.all_techniques, `Nljp);
    ("apriori only", Optimizer.only `Apriori, `Nljp);
    ("memo static", Optimizer.only `Memo, `Static_rewrite) ]

let grid_queries =
  families
  @ [ ("skyband", Workload.Queries.skyband ~k:20 ());
      ("non-iceberg", "SELECT item, COUNT(*) FROM basket GROUP BY item") ]

let trimmed_lines prefix text =
  List.filter (String.starts_with ~prefix)
    (List.map String.trim (String.split_on_char '\n' text))

(* Counter names on every [execute] span of a trace, reducers' included. *)
let execute_counters root =
  let rec go acc (s : Obs.Span.t) =
    let acc =
      if String.equal s.Obs.Span.name "execute" then List.map fst s.Obs.Span.counters @ acc
      else acc
    in
    List.fold_left go acc (Obs.Span.children s)
  in
  List.sort_uniq String.compare (go [] root)

let traced f =
  let root = Obs.Span.enter "query" in
  let rel, rep = f root in
  Obs.Span.finish root;
  (rel, rep, execute_counters root)

let test_explain_lines () =
  let seen = Hashtbl.create 4 in
  let saved_force = !Optimizer.transfer_force in
  Fun.protect ~finally:(fun () -> Optimizer.transfer_force := saved_force)
  @@ fun () ->
  List.iter
    (fun layout ->
      let c = hostile_catalog () in
      Catalog.set_all_layouts c layout;
      List.iter
        (fun (name, sql) ->
          let q = Sqlfront.Parser.parse sql in
          let baseline = Runner.run_baseline c q in
          List.iter
            (fun (tname, tech, memo_strategy) ->
              List.iter
                (fun (workers, transfer) ->
                  Optimizer.transfer_force := transfer;
                  let label =
                    Printf.sprintf "%s/%s/%s/workers=%d/transfer=%b" name tname
                      (match layout with `Row -> "row" | `Column -> "column")
                      workers transfer
                  in
                  let explained =
                    Explain.query ~tech ~memo_strategy ~workers ~transfer c q
                  in
                  let rel, rep, counters =
                    traced (fun span ->
                        Runner.run ~span ~tech ~memo_strategy ~workers ~transfer c q)
                  in
                  let prel, prep, pcounters =
                    traced (fun span ->
                        Runner.run_prepared ~span
                          (Runner.prepare ~tech ~memo_strategy ~workers ~transfer c q))
                  in
                  if rep.Runner.transfer <> None then Hashtbl.replace seen "transfer" ();
                  List.iter
                    (fun n ->
                      if contains n "static rewrite (Listing 8)" then
                        Hashtbl.replace seen "Listing 8" ();
                      if contains n "outside the iceberg query shape" then
                        Hashtbl.replace seen "non-iceberg" ();
                      if String.starts_with ~prefix:"NLJP: skipped (" n then
                        Hashtbl.replace seen "NLJP skipped" ())
                    rep.Runner.notes;
                  if List.exists (fun l -> contains l "NLJP outer") (reducer_lines rep) then
                    Hashtbl.replace seen "reducer through NLJP" ();
                  if List.exists (fun l -> contains l ": shared with ") (reducer_lines rep) then
                    Hashtbl.replace seen "shared reducer" ();
                  check_bag (label ^ ": run") baseline rel;
                  check_bag (label ^ ": prepared") baseline prel;
                  let plans rep = trimmed_lines "plan: " (Runner.report_to_string rep) in
                  let sorted = List.sort String.compare in
                  Alcotest.(check (list string)) (label ^ ": EXPLAIN's plan lines = run's")
                    (sorted (trimmed_lines "plan: " explained)) (sorted (plans rep));
                  let predicted = trimmed_lines "reducer over {" explained in
                  if tech.Optimizer.apriori && String.starts_with ~prefix:"complex" name
                     && predicted = []
                  then Alcotest.failf "%s: EXPLAIN shows no reducer plan" label;
                  Alcotest.(check (list string)) (label ^ ": EXPLAIN's reducer plans = run's")
                    (List.sort_uniq String.compare predicted)
                    (List.sort_uniq String.compare (reducer_lines rep));
                  (* The main block's optimizer notes (unindented) are the run's. *)
                  List.iter
                    (fun line ->
                      let n = String.sub line 6 (String.length line - 6) in
                      if not (List.mem n rep.Runner.notes) then
                        Alcotest.failf "%s: EXPLAIN note %S not in the run's notes" label n)
                    (List.filter (String.starts_with ~prefix:"note: ")
                       (String.split_on_char '\n' explained));
                  Alcotest.(check (list string)) (label ^ ": run plan = prepared plan")
                    (plans rep) (plans prep);
                  Alcotest.(check (list string)) (label ^ ": run notes = prepared notes")
                    rep.Runner.notes prep.Runner.notes;
                  Alcotest.(check (list string)) (label ^ ": execute counters") counters
                    pcounters)
                [ (1, false); (1, true); (2, false); (2, true) ])
            grid_techs)
        grid_queries)
    [ `Row; `Column ];
  List.iter
    (fun k -> Alcotest.(check bool) ("the grid reaches " ^ k) true (Hashtbl.mem seen k))
    [ "transfer"; "Listing 8"; "non-iceberg"; "reducer through NLJP"; "NLJP skipped";
      "shared reducer" ]

let optimizer_counters () =
  List.filter
    (fun (n, _) -> String.starts_with ~prefix:"optimizer." n)
    (Obs.Metrics.snapshot ())

let test_baseline_untouched () =
  let c = hostile_catalog () in
  List.iter
    (fun (name, sql) ->
      let q = Sqlfront.Parser.parse sql in
      (* an a-priori rewrite of the query, so the baseline meets IN-subqueries *)
      let rewritten =
        match
          Optimizer.decide c q ~tech:Optimizer.all_techniques
            ~nljp_config:Nljp.default_config
        with
        | d -> Optimizer.rewritten_query d
        | exception Qspec.Unsupported _ -> q
      in
      let before = optimizer_counters () in
      ignore (Runner.run_baseline c q : Relation.t);
      ignore (Runner.run_baseline c rewritten : Relation.t);
      Alcotest.(check (list (pair string int)))
        (name ^ ": run_baseline moves no optimizer counter") before (optimizer_counters ()))
    (List.filter (fun (_, sql) -> not (contains sql "WITH")) families)

let test_reducer_spans () =
  let c = hostile_catalog () in
  let q = Sqlfront.Parser.parse (Workload.Queries.complex ~threshold:1) in
  let root = Obs.Span.enter "query" in
  ignore (Runner.run ~span:root c q);
  Obs.Span.finish root;
  let rec under side (s : Obs.Span.t) =
    List.exists
      (fun (ch : Obs.Span.t) ->
        (String.equal s.Obs.Span.name side
         && String.starts_with ~prefix:"reducer over {" ch.Obs.Span.name)
        || under side ch)
      (Obs.Span.children s)
  in
  Alcotest.(check bool) "a reducer span nests under Q_B" true (under "Q_B (outer side)" root)

(* Mirror reducers share one plan, and one result per execution; the σ on
   S1 alone makes complex_filtered's two reducers differ, so they do not
   share.  Both stay bag-equal to the baseline. *)
let mirror_catalog () =
  let c = Catalog.create () in
  Catalog.add_table c ~keys:[ [ "id"; "attr" ] ] ~fds:[ ([ "id" ], [ "category" ]) ]
    ~nonneg:[ "val" ] "perf_kv"
    (rel [ "id"; "category"; "attr"; "val" ] Oracle.mirror_kv);
  c

let test_mirror_sharing () =
  let c = mirror_catalog () in
  let shared = Obs.Metrics.counter "reducers.shared" in
  let mirror = "reducer over {S2, T2}: shared with reducer over {S1, T1}" in
  List.iter
    (fun (name, sql, expect) ->
      let q = Sqlfront.Parser.parse sql in
      let baseline = Runner.run_baseline c q in
      let explained = Explain.query c q in
      Alcotest.(check bool) (name ^ ": EXPLAIN's shared line") expect (contains explained mirror);
      List.iter
        (fun workers ->
          let label = Printf.sprintf "%s/workers=%d" name workers in
          let before = Obs.Metrics.read shared in
          let rel, rep = Runner.run ~workers c q in
          check_bag label baseline rel;
          Alcotest.(check int) (label ^ ": two reducers") 2 (List.length rep.Runner.apriori);
          Alcotest.(check bool) (label ^ ": run's shared line") expect
            (List.mem mirror (reducer_lines rep));
          if expect then
            Alcotest.(check bool) (label ^ ": share counted") true
              (Obs.Metrics.read shared > before))
        [ 1; 2 ])
    [ ("complex", Workload.Queries.complex ~threshold:1, true);
      ("complex_filtered", Workload.Queries.complex_filtered ~category:"c1" ~threshold:1 (), false) ]

(* A nested WITH drops its temp table before the next CTE of the same
   name takes the name again, so one query text can bind reducers with one
   canonical key over two different tables: the complex query over [x],
   once inside CTE [a] over a filtered [x], once in the main block over an
   unfiltered [x].  The main block's reducers run over its own [x]; reading
   the nested block's result instead loses rows. *)
let test_nested_with_reducers () =
  let c = mirror_catalog () in
  let x where =
    Printf.sprintf
      "SELECT id, attr, MIN(category) AS category, MAX(val) AS val FROM perf_kv %s GROUP BY id, attr"
      where
  in
  let complex_over_x =
    "SELECT S1.id, S1.attr, S2.attr, COUNT(*) FROM x S1, x S2, x T1, x T2 \
     WHERE S1.id = S2.id AND T1.id = T2.id AND S1.category = T1.category \
     AND T1.attr = S1.attr AND T2.attr = S2.attr AND T1.val > S1.val AND T2.val > S2.val \
     GROUP BY S1.id, S1.attr, S2.attr HAVING COUNT(*) >= 1"
  in
  let q =
    Sqlfront.Parser.parse
      (Printf.sprintf "WITH a AS (WITH x AS (%s) %s), x AS (%s) %s" (x "WHERE val >= 5")
         complex_over_x (x "") complex_over_x)
  in
  let baseline = Runner.run_baseline c q in
  Alcotest.(check bool) "the main block has rows" true (Relation.cardinality baseline > 0);
  List.iter
    (fun workers ->
      let rel, rep = Runner.run ~workers c q in
      Alcotest.(check int) "the main block binds two reducers" 2 (List.length rep.Runner.apriori);
      check_bag (Printf.sprintf "workers=%d" workers) baseline rel)
    [ 1; 2 ]

let suite =
  [ t "reducers through the smart path match the baseline" test_differential;
    t "mirror reducers share; an asymmetric pair does not" test_mirror_sharing;
    t "a nested WITH's reducers are not read by the outer block" test_nested_with_reducers;
    t "EXPLAIN prints the plan each reducer and block runs; run = prepared run"
      test_explain_lines;
    t "run_baseline keeps the baseline evaluator" test_baseline_untouched;
    t "reducer spans nest under the side that binds them" test_reducer_spans ]
