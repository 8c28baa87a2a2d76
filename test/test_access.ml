(* NLJP's inner access paths: EXPLAIN prints the path the run then uses,
   over a grid that reaches every path; plus pinned column-layout cases (a
   Str probe constant against an int key, SUM at the int boundary). *)
open Core
open Relalg
open Helpers

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
  with_ref Optimizer.transfer_force !Optimizer.transfer_force @@ fun () ->
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
    Alcotest.test_case "equality conjuncts keep the hash probe path" `Quick
      test_hash_precedence;
    Alcotest.test_case "EXPLAIN prints the access path execution runs" `Quick
      test_explain_agrees ]
