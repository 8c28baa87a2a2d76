(* NLJP's inner access paths and the column layout.

   EXPLAIN must print the access path the run then uses, over a grid of
   queries, layouts, worker counts, transfer and configs that reaches every
   path.  The baseline executor over row storage is the oracle for NLJP
   over column storage: the same bag of rows across worker counts and
   prune/memo configurations, with NULL-heavy inner columns,
   dictionary-coded G_R, bindings whose join set is empty (the
   [empty_finals] path), NULL binding bounds, NaN values, mixed-type
   comparisons and SUMs at the int boundary. *)
open Core
open Relalg
open Helpers

(* Inner event table: int key with nulls, float measure with nulls, small
   string domain (dictionary-coded in columnar form).  Outer probe table:
   keyed id plus a (lo, hi) window drawn from a small grid so bindings
   repeat (memoization hits) and occasionally go NULL. *)
let window_catalog seed =
  let rng = Workload.Prng.create seed in
  let catalog = Catalog.create () in
  let n = 150 + Workload.Prng.int rng 150 in
  Catalog.add_table catalog "ev"
    (rel [ "k"; "x"; "s" ]
       (List.init n (fun _ ->
            [ (if Workload.Prng.int rng 6 = 0 then Value.Null
               else iv (Workload.Prng.int rng 200));
              (if Workload.Prng.int rng 7 = 0 then Value.Null
               else fv (float_of_int (Workload.Prng.int rng 50) /. 4.));
              sv (Printf.sprintf "s%d" (Workload.Prng.int rng 4)) ])));
  let m = 25 + Workload.Prng.int rng 25 in
  Catalog.add_table catalog ~keys:[ [ "id" ] ] "probe"
    (rel [ "id"; "lo"; "hi" ]
       (List.init m (fun i ->
            let lo = 15 * Workload.Prng.int rng 12 in
            [ iv i;
              (if Workload.Prng.int rng 12 = 0 then Value.Null else iv lo);
              (if Workload.Prng.int rng 12 = 0 then Value.Null
               else iv (lo + 40)) ])));
  catalog

let iceberg_sql rng =
  let t = 1 + Workload.Prng.int rng 8 in
  match Workload.Prng.int rng 6 with
  | 0 ->
    Printf.sprintf
      "SELECT L.id, COUNT(*) FROM probe L, ev R WHERE R.k >= L.lo AND R.k <= L.hi GROUP BY L.id HAVING COUNT(*) >= %d"
      t
  | 1 ->
    Printf.sprintf
      "SELECT L.id, COUNT(*), SUM(R.x) FROM probe L, ev R WHERE R.k >= L.lo AND R.k <= L.hi GROUP BY L.id HAVING COUNT(*) >= %d"
      t
  | 2 ->
    Printf.sprintf
      "SELECT L.id, MIN(R.x), MAX(R.k), AVG(R.x) FROM probe L, ev R WHERE R.k >= L.lo AND R.k <= L.hi GROUP BY L.id HAVING COUNT(*) >= %d"
      t
  | 3 ->
    (* G_R on the dictionary-coded string column *)
    Printf.sprintf
      "SELECT L.id, R.s, COUNT(*), SUM(R.x) FROM probe L, ev R WHERE R.k >= L.lo AND R.k <= L.hi GROUP BY L.id, R.s HAVING COUNT(*) >= %d"
      t
  | 4 ->
    (* MIN over a string column *)
    Printf.sprintf
      "SELECT L.id, MIN(R.s), COUNT(*) FROM probe L, ev R WHERE R.k >= L.lo AND R.k <= L.hi GROUP BY L.id HAVING COUNT(*) >= %d"
      t
  | _ ->
    (* threshold far above any group: every binding is unpromising, and
       bindings with an empty join set go through [empty_finals] *)
    "SELECT L.id, COUNT(*) FROM probe L, ev R WHERE R.k >= L.lo AND R.k <= L.hi GROUP BY L.id HAVING COUNT(*) >= 100000"

let stats_invariant name sql (rep : Runner.report) =
  match rep.Runner.nljp_stats with
  | None -> ()
  | Some s ->
    if s.Nljp.outer_rows <> s.Nljp.inner_evals + s.Nljp.pruned + s.Nljp.memo_hits
    then
      QCheck.Test.fail_reportf
        "%s: stats do not partition the outer rows for:\n\
         %s\n\
         outer=%d inner_evals=%d pruned=%d memo_hits=%d"
        name sql s.Nljp.outer_rows s.Nljp.inner_evals s.Nljp.pruned
        s.Nljp.memo_hits

let check_layouts seed =
  let rng = Workload.Prng.create seed in
  let sql = iceberg_sql rng in
  let q = Sqlfront.Parser.parse sql in
  let base = Runner.run_baseline (window_catalog seed) q in
  let columnar () =
    let c = window_catalog seed in
    Catalog.set_all_layouts c `Column;
    c
  in
  let configs =
    [ ("column", Nljp.default_config, 1);
      ("column workers=2", Nljp.default_config, 2);
      ("column no-prune", { Nljp.default_config with Nljp.pruning = false }, 1);
      ("column no-memo", { Nljp.default_config with Nljp.memo = false }, 1);
      ( "column neither",
        { Nljp.default_config with Nljp.pruning = false; memo = false },
        2 ) ]
  in
  List.for_all
    (fun (name, cfg, workers) ->
      let r, rep = Runner.run ~nljp_config:cfg ~workers (columnar ()) q in
      let ok = Relation.equal_bag base r in
      if not ok then
        QCheck.Test.fail_reportf
          "%s differs from the row baseline for:\n%s\nbase %d rows, got %d" name
          sql
          (Relation.cardinality base)
          (Relation.cardinality r);
      stats_invariant name sql rep;
      ok)
    configs

(* ---- deterministic cases ---- *)

(* A window query over an inner table stored in small column blocks: its
   SUM keeps it off the range count, and one bounded column would too. *)
let clustered_catalog ?(catalog = Catalog.create ()) () =
  let n = 2000 in
  let schema = Schema.of_names [ "k"; "x" ] in
  let rows =
    Array.init n (fun i -> row [ iv i; fv (float_of_int (i mod 97)) ])
  in
  Catalog.add_table catalog "ev"
    (Relation.of_cstore (Column.Cstore.of_rows ~block_size:64 schema rows));
  Catalog.add_table catalog ~keys:[ [ "id" ] ] "probe"
    (rel [ "id"; "lo"; "hi" ]
       (List.init 30 (fun i ->
            let lo = i * 61 mod 1800 in
            [ iv i; iv lo; iv (lo + 80) ])));
  catalog

let clustered_sql =
  "SELECT L.id, COUNT(*), SUM(R.x) FROM probe L, ev R WHERE R.k >= L.lo AND \
   R.k <= L.hi GROUP BY L.id HAVING COUNT(*) >= 1"

let test_hash_precedence () =
  let catalog = basket_catalog () in
  Catalog.set_all_layouts catalog `Column;
  let q =
    Sqlfront.Parser.parse
      "SELECT i1.item, i2.item, COUNT(*) FROM basket i1, basket i2 WHERE \
       i1.bid = i2.bid GROUP BY i1.item, i2.item HAVING COUNT(*) >= 2"
  in
  let _, rep = Runner.run catalog q in
  match rep.Runner.nljp_stats with
  | None -> Alcotest.fail "no NLJP stats"
  | Some s ->
    Alcotest.(check string)
      "hash probe wins" "hash probe (1 equality conjunct)"
      (Nljp.access_to_string s.Nljp.access)

(* EXPLAIN and execution read one access decision: over the paper's query
   families, the range-window query and a 4-D skyband over the catalog's
   BT indexes, every layout × workers × transfer × config cell must print
   the path the run then used — and the grid must reach all three paths,
   the range count at k = 2 and k = 4. *)
let test_explain_agrees () =
  let catalog () =
    let c = Catalog.create () in
    ignore (Workload.Baseball.register c ~rows:150 ~seed:2017);
    ignore (Workload.Baseball.register_unpivoted c ~rows:60 ~seed:2017);
    ignore (Workload.Basket.register c ~baskets:80 ~items:12 ~avg_size:4 ~seed:7);
    clustered_catalog ~catalog:c ()
  in
  let queries =
    [ Workload.Queries.skyband ~k:20 ();
      Workload.Queries.skyband_avg ~k:20 ();
      Workload.Queries.pairs ~c:2 ~k:20 ();
      Workload.Queries.complex ~threshold:2;
      Workload.Queries.complex_filtered ~threshold:1 ();
      Workload.Queries.listing1 ~threshold:3;
      clustered_sql;
      (* b_bb has no index: b_2b, the first column that has one, leads *)
      "SELECT R.playerid, R.year, R.round, COUNT(1) \
       FROM player_performance L, player_performance R \
       WHERE L.b_bb >= R.b_bb AND L.b_2b >= R.b_2b AND L.b_h >= R.b_h \
       AND L.b_hr >= R.b_hr AND (L.b_bb > R.b_bb OR L.b_2b > R.b_2b \
       OR L.b_h > R.b_h OR L.b_hr > R.b_hr) \
       GROUP BY R.playerid, R.year, R.round HAVING COUNT(1) <= 20" ]
  in
  let configs =
    [ Nljp.default_config; { Nljp.default_config with Nljp.inner_index = false } ]
  in
  let rec executed (rep : Runner.report) =
    List.concat_map (fun (_, r) -> executed r) rep.Runner.cte_reports
    @ match rep.Runner.nljp_stats with Some s -> [ s.Nljp.access ] | None -> []
  in
  let explained text =
    List.filter
      (fun l -> String.starts_with ~prefix:"inner access path: " l)
      (List.map String.trim (String.split_on_char '\n' text))
  in
  let seen = Hashtbl.create 4 in
  let saved_force = !Optimizer.transfer_force in
  Fun.protect ~finally:(fun () -> Optimizer.transfer_force := saved_force)
  @@ fun () ->
  List.iter
    (fun layout ->
      let c = catalog () in
      Catalog.set_all_layouts c layout;
      List.iter
        (fun sql ->
          let q = Sqlfront.Parser.parse sql in
          List.iter
            (fun nljp_config ->
              let predicted = explained (Explain.query ~nljp_config c q) in
              List.iter
                (fun (workers, transfer) ->
                  Optimizer.transfer_force := transfer;
                  let _, rep = Runner.run ~nljp_config ~workers ~transfer c q in
                  let ran = executed rep in
                  if rep.Runner.transfer <> None then Hashtbl.replace seen "transfer" ();
                  List.iter
                    (fun a ->
                      Hashtbl.replace seen
                        (match a with
                         | Nljp.A_hash _ -> "hash"
                         | Nljp.A_range_count { cols; _ } ->
                           Printf.sprintf "range count, k=%d" (List.length cols)
                         | Nljp.A_scan -> "scan")
                        ())
                    ran;
                  Alcotest.(check (list string))
                    (Printf.sprintf "%s (workers=%d transfer=%b)" sql workers transfer)
                    predicted
                    (List.map
                       (fun a -> "inner access path: " ^ Nljp.access_to_string a)
                       ran))
                [ (1, false); (1, true); (2, false); (2, true) ])
            configs)
        queries)
    [ `Row; `Column ];
  List.iter
    (fun path -> Alcotest.(check bool) ("grid reaches " ^ path) true (Hashtbl.mem seen path))
    [ "hash"; "range count, k=2"; "range count, k=4"; "scan"; "transfer" ]

(* A bound whose binding column is a string compared against the numeric
   inner key, over column storage: the comparison mixes types per row. *)
let str_probe_catalog () =
  let catalog = Catalog.create () in
  Catalog.add_table catalog "ev"
    (rel [ "k"; "x" ]
       (List.init 200 (fun i -> [ iv i; fv (float_of_int (i mod 13)) ])));
  Catalog.add_table catalog ~keys:[ [ "id" ] ] "probe"
    (rel [ "id"; "lo" ]
       [ [ iv 0; sv "m" ]; [ iv 1; sv "a" ]; [ iv 2; iv 120 ]; [ iv 3; Value.Null ] ]);
  catalog

let test_str_probe_constant () =
  let sql =
    "SELECT L.id, COUNT(*), SUM(R.x) FROM probe L, ev R WHERE R.k >= L.lo \
     GROUP BY L.id HAVING COUNT(*) >= 1"
  in
  let q = Sqlfront.Parser.parse sql in
  let base = Runner.run_baseline (str_probe_catalog ()) q in
  let catalog = str_probe_catalog () in
  Catalog.set_all_layouts catalog `Column;
  (* must not raise, and must agree with the row oracle *)
  let r, _ = Runner.run catalog q in
  check_bag "Str probe constant agrees with the row path" base r

(* NaN-bearing float columns, both as the compared key and as the
   aggregated measure, differentially across layouts: NaN comparisons and
   aggregates must come out identical to the row baseline. *)
let nan_catalog seed =
  let rng = Workload.Prng.create seed in
  let catalog = Catalog.create () in
  let n = 120 + Workload.Prng.int rng 120 in
  Catalog.add_table catalog "ev"
    (rel [ "k"; "x" ]
       (List.init n (fun _ ->
            [ (match Workload.Prng.int rng 8 with
               | 0 -> fv Float.nan
               | 1 -> Value.Null
               | _ -> fv (float_of_int (Workload.Prng.int rng 150)));
              (match Workload.Prng.int rng 6 with
               | 0 -> fv Float.nan
               | _ -> fv (float_of_int (Workload.Prng.int rng 40) /. 4.)) ])));
  Catalog.add_table catalog ~keys:[ [ "id" ] ] "probe"
    (rel [ "id"; "lo"; "hi" ]
       (List.init 25 (fun i ->
            let lo = float_of_int (10 * Workload.Prng.int rng 14) in
            [ iv i; fv lo; fv (lo +. 35.) ])));
  catalog

let check_nan seed =
  let rng = Workload.Prng.create seed in
  let agg =
    match Workload.Prng.int rng 3 with
    | 0 -> "COUNT(*), SUM(R.x)"
    | 1 -> "MIN(R.x), MAX(R.x)"
    | _ -> "COUNT(*), AVG(R.x)"
  in
  let sql =
    Printf.sprintf
      "SELECT L.id, %s FROM probe L, ev R WHERE R.k >= L.lo AND R.k <= L.hi \
       GROUP BY L.id HAVING COUNT(*) >= 1"
      agg
  in
  let q = Sqlfront.Parser.parse sql in
  let base = Runner.run_baseline (nan_catalog seed) q in
  List.for_all
    (fun lay ->
      let catalog = nan_catalog seed in
      if lay = `Column then Catalog.set_all_layouts catalog `Column;
      let r, _ = Runner.run catalog q in
      if not (Relation.equal_bag base r) then
        QCheck.Test.fail_reportf
          "NaN columns diverge from the row baseline (%s layout) for:\n%s"
          (match lay with `Row -> "row" | `Column -> "column")
          sql;
      true)
    [ `Row; `Column ]

(* SUM at the int boundary over column storage: it must promote to float
   exactly where the row path's [Value.add] does, instead of wrapping. *)
let test_sum_overflow_boundary () =
  let near = max_int - 1 in
  let mk () =
    let catalog = Catalog.create () in
    Catalog.add_table catalog "ev"
      (rel [ "k"; "x" ]
         [ [ iv 0; iv near ]; [ iv 1; iv near ]; [ iv 2; iv 5 ];
           [ iv 3; iv (-7) ]; [ iv 10; iv 1 ] ]);
    Catalog.add_table catalog ~keys:[ [ "id" ] ] "probe"
      (rel [ "id"; "lo"; "hi" ] [ [ iv 0; iv 0; iv 3 ]; [ iv 1; iv 10; iv 10 ] ]);
    catalog
  in
  let q =
    Sqlfront.Parser.parse
      "SELECT L.id, SUM(R.x), COUNT(*) FROM probe L, ev R WHERE R.k >= L.lo \
       AND R.k <= L.hi GROUP BY L.id HAVING COUNT(*) >= 1"
  in
  let base = Runner.run_baseline (mk ()) q in
  let catalog = mk () in
  Catalog.set_all_layouts catalog `Column;
  let r, _ = Runner.run catalog q in
  check_bag "overflowing SUM agrees with the row path" base r;
  (* the overflowed group really is a float, not a wrapped int *)
  let saw_float = ref false in
  Relation.iter
    (fun row ->
      match row.(1) with
      | Value.Float f ->
        saw_float := true;
        Alcotest.(check bool) "promoted sum is positive" true (f > 0.)
      | Value.Int s -> Alcotest.(check bool) "unwrapped" true (s > 0)
      | _ -> ())
    r;
  Alcotest.(check bool) "boundary group promoted to float" true !saw_float

let suite =
  [ Alcotest.test_case "Str-typed probe constant falls back gracefully" `Quick
      test_str_probe_constant;
    Alcotest.test_case "SUM promotes to float at the max_int boundary" `Quick
      test_sum_overflow_boundary;
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"NaN-bearing columns agree across layouts"
         ~count:30
         (QCheck.int_range 1 1_000_000)
         check_nan);
    Alcotest.test_case "equality conjuncts keep the hash probe path" `Quick
      test_hash_precedence;
    Alcotest.test_case "EXPLAIN prints the access path execution runs" `Quick
      test_explain_agrees;
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"column-layout NLJP agrees with the row oracle"
         ~count:40
         (QCheck.int_range 1 1_000_000)
         check_layouts) ]
