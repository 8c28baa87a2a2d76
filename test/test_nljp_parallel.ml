(* Parallel NLJP: chunking the outer relation across Domains with per-domain
   caches must be invisible in the result.  For each workload query we run
   the smart path sequentially and with 2 and 4 workers and require bag
   equality, plus the per-binding accounting invariant
   [outer_rows = inner_evals + pruned + memo_hits] (every binding is either
   answered from the memo, pruned via p-subsumption, or evaluated).  A grid
   over the loop's modes pins its counts. *)
open Core
open Relalg
open Helpers

let t name f = Alcotest.test_case name `Quick f

let baseball_catalog rows =
  let catalog = Catalog.create () in
  ignore (Workload.Baseball.register catalog ~rows ~seed:2017);
  ignore (Workload.Baseball.register_unpivoted catalog ~rows ~seed:2017);
  Workload.Baseball.build_indexes catalog;
  catalog

let rec check_accounting name rep =
  (match rep.Runner.nljp_stats with
   | Some s ->
     Alcotest.(check int)
       (Printf.sprintf "%s: outer = inner + pruned + memo" name)
       s.Nljp.outer_rows
       (s.Nljp.inner_evals + s.Nljp.pruned + s.Nljp.memo_hits)
   | None -> ());
  List.iter (fun (cte, r) -> check_accounting (name ^ "/" ^ cte) r) rep.Runner.cte_reports

let check_query catalog name sql =
  let q = Sqlfront.Parser.parse sql in
  let seq, seq_rep = Runner.run catalog q in
  check_accounting (name ^ " seq") seq_rep;
  List.iter
    (fun workers ->
      let par, par_rep = Runner.run ~workers catalog q in
      if not (Relation.equal_bag seq par) then
        Alcotest.failf "%s: %d-worker result differs from sequential\n%s" name
          workers sql;
      check_accounting (Printf.sprintf "%s w=%d" name workers) par_rep;
      (* Chunking must not lose or duplicate bindings. *)
      match seq_rep.Runner.nljp_stats, par_rep.Runner.nljp_stats with
      | Some a, Some b ->
        Alcotest.(check int)
          (Printf.sprintf "%s w=%d: same outer cardinality" name workers)
          a.Nljp.outer_rows b.Nljp.outer_rows
      | _ -> ())
    [ 2; 4 ]

(* ---- loop modes ----

   Every combination of technique, cache cap, worker count and Q_B order
   runs the same probe loop; each run must be bag-equal to the baseline
   executor and keep the accounting invariant, and its counts are pinned.
   Capped runs on two workers are not pinned: which entries a full cache
   keeps depends on the order the chunks' caches are merged in. *)

(* [random_catalog] plus a product table (id, category, attr, val) for the
   complex query, with the FD id → category its pruning needs. *)
let grid_catalog seed =
  let catalog = random_catalog seed in
  let rng = Workload.Prng.create (seed + 1) in
  Catalog.add_table catalog ~keys:[ [ "id"; "attr" ] ]
    ~fds:[ ([ "id" ], [ "category" ]) ]
    ~nonneg:[ "val" ] "product"
    (rel [ "id"; "category"; "attr"; "val" ]
       (List.concat_map
          (fun id ->
            List.filter_map
              (fun a ->
                if Workload.Prng.int rng 4 = 0 then None
                else
                  Some
                    [ iv id; sv (Printf.sprintf "c%d" (id mod 3)); sv a;
                      iv (Workload.Prng.int rng 10) ])
              [ "a"; "b"; "c" ])
          (List.init 120 Fun.id)));
  catalog

let grid_queries =
  [ ("skyband", Workload.Queries.listing2 ~k:5, [ "L" ]);
    ("pairs", Workload.Queries.listing1 ~threshold:3, [ "i1" ]);
    ("complex", Workload.Queries.listing3 ~threshold:3, [ "S1"; "S2" ]) ]

let grid_techs = [ ("all", true, true); ("prune", true, false); ("memo", false, true) ]

(* One line per pinned run: its coordinates, then inner evals, prunes, memo
   hits, prune and memo cache rows, and waves. *)
let run_grid catalog =
  List.concat_map
    (fun (qname, sql, left) ->
      let q = Sqlfront.Parser.parse sql in
      let base = Runner.run_baseline catalog q in
      let spec = Qspec.analyze catalog q ~left_aliases:left in
      List.concat_map
        (fun (tname, pruning, memo) ->
          List.concat_map
            (fun cap ->
              List.concat_map
                (fun workers ->
                  List.filter_map
                    (fun (oname, outer_order) ->
                      let config =
                        { Nljp.default_config with
                          Nljp.max_cache_rows = cap; workers; outer_order }
                      in
                      let name =
                        Printf.sprintf "%s %s cap=%s w=%d %s" qname tname
                          (match cap with None -> "-" | Some c -> string_of_int c)
                          workers oname
                      in
                      match Nljp.build ~pruning ~memo catalog spec config with
                      | Error e -> Alcotest.failf "%s: build failed: %s" name e
                      | Ok op ->
                        let r, s = Nljp.execute op in
                        check_bag name base r;
                        Alcotest.(check int) (name ^ ": outer = inner + pruned + memo")
                          s.Nljp.outer_rows
                          (s.Nljp.inner_evals + s.Nljp.pruned + s.Nljp.memo_hits);
                        (match cap with
                         | Some c ->
                           Alcotest.(check bool) (name ^ ": caps hold") true
                             (s.Nljp.prune_cache_rows <= c && s.Nljp.memo_cache_rows <= c)
                         | None -> ());
                        if cap <> None && workers > 1 then None
                        else
                          Some
                            (Printf.sprintf "%s: %d %d %d %d %d %d" name s.Nljp.inner_evals
                               s.Nljp.pruned s.Nljp.memo_hits s.Nljp.prune_cache_rows
                               s.Nljp.memo_cache_rows s.Nljp.waves))
                    [ ("default", `Default); ("desc0", `Desc 0) ])
                [ 1; 2 ])
            [ None; Some 5 ])
        grid_techs)
    grid_queries

let grid_pins =
  [ "skyband all cap=- w=1 default: 22 46 6 11 22 1";
    "skyband all cap=- w=1 desc0: 19 50 5 8 19 1";
    "skyband all cap=- w=2 default: 31 38 5 19 29 1";
    "skyband all cap=- w=2 desc0: 22 47 5 11 22 1";
    "skyband all cap=5 w=1 default: 42 31 1 5 5 1";
    "skyband all cap=5 w=1 desc0: 25 45 4 5 5 1";
    "skyband prune cap=- w=1 default: 25 49 0 11 0 1";
    "skyband prune cap=- w=1 desc0: 22 52 0 8 0 1";
    "skyband prune cap=- w=2 default: 33 41 0 19 0 1";
    "skyband prune cap=- w=2 desc0: 25 49 0 11 0 1";
    "skyband prune cap=5 w=1 default: 42 32 0 5 0 1";
    "skyband prune cap=5 w=1 desc0: 27 47 0 5 0 1";
    "skyband memo cap=- w=1 default: 56 0 18 0 56 1";
    "skyband memo cap=- w=1 desc0: 56 0 18 0 56 1";
    "skyband memo cap=- w=2 default: 63 0 11 0 56 1";
    "skyband memo cap=- w=2 desc0: 56 0 18 0 56 1";
    "skyband memo cap=5 w=1 default: 73 0 1 0 5 1";
    "skyband memo cap=5 w=1 desc0: 70 0 4 0 5 1";
    "pairs all cap=- w=1 default: 25 0 51 0 25 1";
    "pairs all cap=- w=1 desc0: 25 0 51 0 25 1";
    "pairs all cap=- w=2 default: 41 0 35 0 25 1";
    "pairs all cap=- w=2 desc0: 26 0 50 0 25 1";
    "pairs all cap=5 w=1 default: 65 0 11 0 5 1";
    "pairs all cap=5 w=1 desc0: 66 0 10 0 5 1";
    "pairs prune cap=- w=1 default: 76 0 0 0 0 1";
    "pairs prune cap=- w=1 desc0: 76 0 0 0 0 1";
    "pairs prune cap=- w=2 default: 76 0 0 0 0 1";
    "pairs prune cap=- w=2 desc0: 76 0 0 0 0 1";
    "pairs prune cap=5 w=1 default: 76 0 0 0 0 1";
    "pairs prune cap=5 w=1 desc0: 76 0 0 0 0 1";
    "pairs memo cap=- w=1 default: 25 0 51 0 25 1";
    "pairs memo cap=- w=1 desc0: 25 0 51 0 25 1";
    "pairs memo cap=- w=2 default: 41 0 35 0 25 1";
    "pairs memo cap=- w=2 desc0: 26 0 50 0 25 1";
    "pairs memo cap=5 w=1 default: 65 0 11 0 5 1";
    "pairs memo cap=5 w=1 desc0: 66 0 10 0 5 1";
    "complex all cap=- w=1 default: 358 73 202 100 358 1";
    "complex all cap=- w=1 desc0: 359 72 202 101 359 1";
    "complex all cap=- w=2 default: 428 57 148 127 374 2";
    "complex all cap=- w=2 desc0: 381 63 189 114 368 2";
    "complex all cap=5 w=1 default: 612 11 10 5 5 1";
    "complex all cap=5 w=1 desc0: 611 15 7 5 5 1";
    "complex prune cap=- w=1 default: 526 107 0 100 0 1";
    "complex prune cap=- w=1 desc0: 527 106 0 101 0 1";
    "complex prune cap=- w=2 default: 553 80 0 127 0 2";
    "complex prune cap=- w=2 desc0: 540 93 0 114 0 2";
    "complex prune cap=5 w=1 default: 618 15 0 5 0 1";
    "complex prune cap=5 w=1 desc0: 618 15 0 5 0 1";
    "complex memo cap=- w=1 default: 424 0 209 0 424 1";
    "complex memo cap=- w=1 desc0: 424 0 209 0 424 1";
    "complex memo cap=- w=2 default: 480 0 153 0 424 2";
    "complex memo cap=- w=2 desc0: 437 0 196 0 424 2";
    "complex memo cap=5 w=1 default: 623 0 10 0 5 1";
    "complex memo cap=5 w=1 desc0: 626 0 7 0 5 1" ]

let suite =
  [ t "figure 1 queries: 2- and 4-worker NLJP bag-equal to sequential" (fun () ->
        let catalog = baseball_catalog 400 in
        List.iter
          (fun (name, sql) -> check_query catalog name sql)
          Workload.Queries.figure1);
    t "skyband and pairs at larger k" (fun () ->
        let catalog = baseball_catalog 500 in
        check_query catalog "skyband k=20" (Workload.Queries.skyband ~k:20 ());
        check_query catalog "pairs c=3 k=10" (Workload.Queries.pairs ~c:3 ~k:10 ()));
    t "complex query over the unpivoted table" (fun () ->
        let catalog = baseball_catalog 400 in
        check_query catalog "complex" (Workload.Queries.complex ~threshold:3));
    t "parallel run matches the baseline engine too" (fun () ->
        let catalog = baseball_catalog 300 in
        let sql = Workload.Queries.skyband ~k:10 () in
        let q = Sqlfront.Parser.parse sql in
        let base = Runner.run_baseline catalog q in
        let par, _ = Runner.run ~workers:4 catalog q in
        Alcotest.(check bool) "bag-equal to baseline" true
          (Relation.equal_bag base par));
    t "loop modes: technique x cap x workers x order match the baseline and pinned counts"
      (fun () ->
        Alcotest.(check (list string)) "pinned counts" grid_pins (run_grid (grid_catalog 5))) ]
