(* The range count is the catalog's when Q_R is a bare base table — built
   once per table version, with its x order from the BT index when one
   leads with a bounded column — and one sorted per execution otherwise.
   Shapes the range count rejects — a SUM beside the COUNT, an inner GROUP
   BY, two disjunctions — scan the inner side and say why.  EXPLAIN must
   print the path the run then used, results must match the baseline
   executor, and an append to the inner table must be seen by the next run
   — also by a plan prepared before it. *)
open Relalg
open Core
open Helpers

let t name f = Alcotest.test_case name `Quick f

let access_lines text =
  List.filter
    (fun l -> String.starts_with ~prefix:"inner access path: " l)
    (List.map String.trim (String.split_on_char '\n' text))

let rec executed (rep : Runner.report) =
  List.concat_map (fun (_, r) -> executed r) rep.Runner.cte_reports
  @
  match rep.Runner.nljp_stats with
  | Some s -> [ "inner access path: " ^ Nljp.access_to_string s.Nljp.access ]
  | None -> []

let player_catalog ~bt layout =
  let c = Catalog.create () in
  ignore (Workload.Baseball.register c ~rows:300 ~seed:2017);
  Workload.Baseball.build_indexes ~bt c;
  Catalog.set_all_layouts c layout;
  c

(* Skyband Q1 with a SUM beside the COUNT: outside the range count's shape *)
let skyband_sum =
  "SELECT R.playerid, R.year, R.round, COUNT(1), SUM(L.b_bb) \
   FROM player_performance L, player_performance R \
   WHERE L.b_h >= R.b_h AND L.b_hr >= R.b_hr AND (L.b_h > R.b_h OR L.b_hr > R.b_hr) \
   GROUP BY R.playerid, R.year, R.round HAVING COUNT(1) <= 20"

(* (name, SQL, the note of a shape that scans) *)
let queries =
  [ ("skyband Q1", Workload.Queries.skyband ~a:("b_h", "b_hr") ~k:20 (), None);
    ("skyband Q3", Workload.Queries.skyband ~a:("b_2b", "b_3b") ~k:20 (), None);
    ("skyband Q1 + SUM", skyband_sum, Some "range count off: SUM(L.b_bb) is not COUNT(*)");
    ("pairs", Workload.Queries.pairs ~c:2 ~k:20 (), None);
    (* a local predicate on the inner side: Q_R is no longer the bare table *)
    ( "skyband Q1, inner σ",
      "SELECT R.playerid, R.year, R.round, COUNT(1) \
       FROM player_performance L, player_performance R \
       WHERE L.b_h >= R.b_h AND L.b_hr >= R.b_hr AND (L.b_h > R.b_h OR L.b_hr > R.b_hr) \
       AND L.b_bb >= 20 \
       GROUP BY R.playerid, R.year, R.round HAVING COUNT(1) <= 20",
      None );
    ( "skyband Q1, inner GROUP BY",
      "SELECT R.playerid, R.year, R.round, L.teamid, COUNT(1) \
       FROM player_performance L, player_performance R \
       WHERE L.b_h >= R.b_h AND L.b_hr >= R.b_hr AND (L.b_h > R.b_h OR L.b_hr > R.b_hr) \
       GROUP BY R.playerid, R.year, R.round, L.teamid HAVING COUNT(1) <= 20",
      Some "range count off: inner GROUP BY columns (G_R)" );
    ( "skyband, two disjunctions",
      "SELECT R.playerid, R.year, R.round, COUNT(1) \
       FROM player_performance L, player_performance R \
       WHERE L.b_h >= R.b_h AND L.b_hr >= R.b_hr AND L.b_2b >= R.b_2b \
       AND (L.b_h > R.b_h OR L.b_hr > R.b_hr) AND (L.b_hr > R.b_hr OR L.b_2b > R.b_2b) \
       GROUP BY R.playerid, R.year, R.round HAVING COUNT(1) <= 20",
      Some "range count off: Θ has more than one disjunction" ) ]

let sql_of name =
  let _, sql, _ = List.find (fun (n, _, _) -> n = name) queries in
  sql

(* Rows for player_performance: copies of existing rows under new keys,
   two of them with every compared statistic past the table's maximum (so
   they dominate the skyband), and two sharing one another's statistics. *)
let fresh_rows c =
  let tbl = Catalog.find c Workload.Baseball.table_name in
  let schema = tbl.Catalog.rel.Relation.schema in
  let idx = Schema.index_of schema in
  let src = Relation.rows tbl.Catalog.rel in
  let stats = [ "b_h"; "b_hr"; "b_2b"; "b_3b" ] in
  Array.init 4 (fun i ->
      let r = Array.copy src.(i) in
      r.(idx "playerid") <- iv (1_000_000 + i);
      List.iter
        (fun col -> r.(idx col) <- (if i < 2 then iv (10_000 + i) else src.(0).(idx col)))
        stats;
      r)

(* EXPLAIN = executed and bag-equal to the baseline; a query with a
   [scan_note] must scan, with that note in EXPLAIN and in the run. *)
let check_cell ?scan_note label c sql ~workers seen =
  let q = Sqlfront.Parser.parse sql in
  let explained = Explain.query c q in
  let predicted = access_lines explained in
  let rel, rep = Runner.run ~workers c q in
  let ran = executed rep in
  Alcotest.(check (list string)) (label ^ ": EXPLAIN = executed") predicted ran;
  List.iter (fun l -> Hashtbl.replace seen l ()) ran;
  Option.iter
    (fun note ->
      Alcotest.(check (list string)) (label ^ ": scans")
        [ "inner access path: row scan" ] ran;
      Alcotest.(check bool) (label ^ ": EXPLAIN notes " ^ note) true
        (contains explained note);
      let notes =
        match rep.Runner.nljp_stats with Some s -> s.Nljp.notes | None -> []
      in
      Alcotest.(check bool) (label ^ ": the run notes " ^ note) true (List.mem note notes))
    scan_note;
  check_bag (label ^ ": bag-equal to baseline") (Runner.run_baseline c q) rel

let test_grid () =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun layout ->
      List.iter
        (fun bt ->
          let c = player_catalog ~bt layout in
          List.iter
            (fun (name, sql, scan_note) ->
              List.iter
                (fun workers ->
                  check_cell ?scan_note
                    (Printf.sprintf "%s/%s/bt=%b/workers=%d" name
                       (match layout with `Row -> "row" | `Column -> "column")
                       bt workers)
                    c sql ~workers seen)
                [ 1; 2 ])
            queries)
        [ true; false ])
    [ `Row; `Column ];
  let reached line = Hashtbl.mem seen ("inner access path: " ^ line) in
  List.iter
    (fun line -> Alcotest.(check bool) ("grid reaches " ^ line) true (reached line))
    [ "range count on L.b_h, L.b_hr (catalog)";
      "range count on L.b_h, L.b_hr (built per execution)";
      "row scan" ]

let test_bt_off () =
  let c = player_catalog ~bt:false `Row in
  List.iter
    (fun (sql, line) ->
      let _, rep = Runner.run c (Sqlfront.Parser.parse sql) in
      Alcotest.(check (list string)) "no catalog index: the catalog's structure"
        [ "inner access path: " ^ line ] (executed rep))
    [ (sql_of "skyband Q1", "range count on L.b_h, L.b_hr (catalog)");
      (sql_of "skyband Q3", "range count on L.b_2b, L.b_3b (catalog)") ]

let test_append () =
  List.iter
    (fun (layout, (sql, line, scan_note)) ->
      let c = player_catalog ~bt:true layout in
      let q = Sqlfront.Parser.parse sql in
      let prepared = Runner.prepare c q in
      let fresh = fresh_rows c in
      Catalog.append_rows c Workload.Baseball.table_name fresh;
      let tbl = Catalog.find c Workload.Baseball.table_name in
      (match Catalog.sorted_index_on tbl "b_h" with
       | None -> Alcotest.fail "append dropped the catalog index"
       | Some idx ->
         Alcotest.(check int) "catalog index covers the appended rows"
           (Relation.cardinality tbl.Catalog.rel)
           (Index.Sorted.cardinality idx));
      let seen = Hashtbl.create 2 in
      check_cell ?scan_note "after append" c sql ~workers:1 seen;
      check_cell ?scan_note "after append, 2 workers" c sql ~workers:2 seen;
      Alcotest.(check bool) ("after the append: " ^ line) true
        (Hashtbl.mem seen ("inner access path: " ^ line));
      let baseline = Runner.run_baseline c q in
      Alcotest.(check bool) "appended rows change the answer" false
        (Relation.equal_bag baseline
           (Runner.run_baseline (player_catalog ~bt:true layout) q));
      (* A plan prepared before the append is stale; prepared again, it
         reads the rebuilt index. *)
      check_stale "prepared before the append" c prepared;
      let rel, _ = Runner.run_prepared (Runner.prepare c q) in
      check_bag "prepared again after the append" baseline rel)
    (List.concat_map
       (fun layout ->
         [ (layout, (sql_of "skyband Q1", "range count on L.b_h, L.b_hr (catalog)", None));
           ( layout,
             ( skyband_sum,
               "row scan",
               Some "range count off: SUM(L.b_bb) is not COUNT(*)" ) ) ])
       [ `Row; `Column ])

(* ---- the structure lives with the table version ---- *)

let m_builds = Obs.Metrics.counter "nljp.range_count_builds"
let m_reuses = Obs.Metrics.counter "nljp.range_count_reuses"

let rec build_spans (n : Analyze.node) =
  List.fold_left
    (fun acc c -> acc + build_spans c)
    (if n.Analyze.n_label = "inner index build" then 1 else 0)
    n.Analyze.n_children

(* One execution under ANALYZE, bag-equal to the baseline: whether it
   built the range count or reused the catalog's, by the counters and by
   the [inner index build] spans. *)
let expect label c q how =
  let b0 = Obs.Metrics.read m_builds and r0 = Obs.Metrics.read m_reuses in
  let rel, rep, tree = Analyze.run c q in
  check_bag (label ^ ": bag-equal to baseline") (Runner.run_baseline c q) rel;
  Alcotest.(check (list string)) (label ^ ": the catalog's structure")
    [ "inner access path: range count on L.b_h, L.b_hr (catalog)" ] (executed rep);
  let built = if how = `Built then 1 else 0 in
  if Obs.enabled then
    Alcotest.(check (pair int int)) (label ^ ": range count builds, reuses")
      (built, 1 - built)
      (Obs.Metrics.read m_builds - b0, Obs.Metrics.read m_reuses - r0);
  Alcotest.(check int) (label ^ ": inner index build spans") built (build_spans tree)

let with_sic f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "catalog_index_%d_%s.sic" (Unix.getpid ()) Workload.Baseball.table_name)
  in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* Player catalogs in row and column layout with the BT indexes, and one
   over a paged .sic table with none (as `--table x.sic` opens it). *)
let derived_catalogs path =
  let paged =
    let src = player_catalog ~bt:false `Column in
    let tbl = Catalog.find src Workload.Baseball.table_name in
    Sic.save path tbl.Catalog.rel;
    let c = Catalog.create () in
    Catalog.add_table c ~keys:tbl.Catalog.keys ~fds:tbl.Catalog.fds ~nonneg:tbl.Catalog.nonneg
      Workload.Baseball.table_name (Sic.load ~mode:`Paged path);
    c
  in
  [ ("row", player_catalog ~bt:true `Row);
    ("column", player_catalog ~bt:true `Column);
    ("paged .sic", paged) ]

let test_built_once () =
  with_sic (fun path ->
      List.iter
        (fun (label, c) ->
          let name = Workload.Baseball.table_name in
          let q = Sqlfront.Parser.parse (sql_of "skyband Q1") in
          let prepared = Runner.prepare c q in
          expect (label ^ ", first run") c q `Built;
          expect (label ^ ", second run") c q `Reused;
          (* an append: a plan prepared before it is stale, the next run,
             through the plan prepared again, rebuilds, and the run after
             that reuses *)
          Catalog.append_rows c name (fresh_rows c);
          check_stale (label ^ ": prepared before the append") c prepared;
          let b0 = Obs.Metrics.read m_builds in
          let rel, _ = Runner.run_prepared (Runner.prepare c q) in
          check_bag (label ^ ": prepared again after the append")
            (Runner.run_baseline c q) rel;
          if Obs.enabled then
            Alcotest.(check int) (label ^ ": the re-prepared plan rebuilt") 1
              (Obs.Metrics.read m_builds - b0);
          expect (label ^ ", after the append") c q `Reused;
          (* every other change of the table version rebuilds once *)
          List.iter
            (fun (change, f) ->
              f ();
              expect (Printf.sprintf "%s, after %s" label change) c q `Built;
              expect (Printf.sprintf "%s, again after %s" label change) c q `Reused)
            [ ( "replace_rows",
                fun () ->
                  let rel = (Catalog.find c name).Catalog.rel in
                  Catalog.replace_rows c name
                    (Relation.make rel.Relation.schema
                       (Array.of_list (List.rev (Array.to_list (Relation.rows rel))))) );
              ("set_layout", fun () -> Catalog.set_layout c name `Row);
              ("drop_indexes", fun () -> Catalog.drop_indexes c name);
              ("build_sorted_index", fun () -> Catalog.build_sorted_index c name [ "b_h" ]) ])
        (derived_catalogs path))

(* A table keeps the structures of its four most recently used column
   lists: a fifth list pushes out the least recently used one, which its
   next run rebuilds, while a recently used one is still reused. *)
let test_kept_bound () =
  let c = player_catalog ~bt:false `Row in
  let builds a =
    let q = Sqlfront.Parser.parse (Workload.Queries.skyband ~a ~k:20 ()) in
    let rel, _, tree = Analyze.run c q in
    check_bag "bag-equal to baseline" (Runner.run_baseline c q) rel;
    build_spans tree
  in
  let lists =
    [ ("b_h", "b_hr"); ("b_2b", "b_3b"); ("b_bb", "b_sb"); ("b_h", "b_bb"); ("b_hr", "b_sb") ]
  in
  List.iter
    (fun a -> Alcotest.(check int) (fst a ^ ", " ^ snd a ^ ": first run builds") 1 (builds a))
    lists;
  Alcotest.(check int) "the oldest kept list is reused" 0 (builds ("b_2b", "b_3b"));
  Alcotest.(check int) "the least recently used list was pushed out" 1
    (builds ("b_h", "b_hr"));
  Alcotest.(check int) "a reuse counts as a use" 0 (builds ("b_2b", "b_3b"))

let suite =
  [ t "EXPLAIN's index source is the executed one; results match the baseline"
      test_grid;
    t "without a catalog index the run reads the catalog's range count" test_bt_off;
    t "the range count is built once per table version" test_built_once;
    t "a table keeps the range counts of its four latest column lists" test_kept_bound;
    t "an append to the inner table reaches the catalog index" test_append ]
