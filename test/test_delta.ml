(* The append path and incremental maintenance (DESIGN.md §14): delta
   blocks in the storage layer, per-table delta epochs in the catalog,
   §6 algebraic partial-state folding, and in-place revalidation of a
   prepared NLJP plan's shared cache tier. *)

open Relalg
open Helpers

(* ---- Relation.append / slice_from ---- *)

let test_relation_append () =
  let base = rel [ "a"; "b" ] [ [ iv 1; sv "x" ]; [ iv 2; sv "y" ] ] in
  let fresh = [| row [ iv 3; sv "z" ]; row [ iv 4; sv "w" ] |] in
  List.iter
    (fun layout ->
      let r0 = Relation.to_layout layout base in
      let r1 = Relation.append r0 fresh in
      Alcotest.(check int) "cardinality grows" 4 (Relation.cardinality r1);
      check_bag "append keeps layout contents"
        (rel [ "a"; "b" ]
           [ [ iv 1; sv "x" ]; [ iv 2; sv "y" ]; [ iv 3; sv "z" ];
             [ iv 4; sv "w" ] ])
        r1;
      (* the base relation is untouched (append is functional) *)
      Alcotest.(check int) "base untouched" 2 (Relation.cardinality r0);
      check_bag "slice_from is the delta view"
        (rel [ "a"; "b" ] [ [ iv 3; sv "z" ]; [ iv 4; sv "w" ] ])
        (Relation.slice_from r1 2))
    [ `Row; `Column ];
  (* column-primary appends land in delta blocks, never rebuilding base *)
  let c0 = Relation.to_layout `Column base in
  let c1 = Relation.append c0 fresh in
  Alcotest.(check int) "delta rows tracked" 2
    (Column.Cstore.delta_rows (Relation.cstore c1));
  Alcotest.(check int) "fresh store has no delta" 0
    (Column.Cstore.delta_rows (Relation.cstore c0))

let test_cstore_delta_blocks () =
  let names = [ "a"; "b" ] in
  let base = Relation.cstore (Relation.to_layout `Column
    (rel names (List.init 10 (fun i -> [ iv i; sv (string_of_int i) ])))) in
  (* many tiny appends: correctness must survive lazy coalescing *)
  let st = ref base in
  for k = 10 to 40 do
    st := Column.Cstore.append_rows !st [| row [ iv k; sv (string_of_int k) ] |]
  done;
  Alcotest.(check int) "length includes deltas" 41 (Column.Cstore.length !st);
  let all = Column.Cstore.rows_from !st 0 in
  Alcotest.(check int) "decode sees every row" 41 (Array.length all);
  Array.iteri
    (fun i r ->
      Alcotest.(check value_testable)
        (Printf.sprintf "row %d col a" i)
        (iv i) r.(0))
    all;
  (* suffix decode touches only the tail *)
  let tail = Column.Cstore.rows_from !st 38 in
  Alcotest.(check int) "suffix length" 3 (Array.length tail);
  Alcotest.(check value_testable) "suffix starts at lo" (iv 38) tail.(0).(0)

(* ---- Catalog stamps and delta_since ---- *)

let test_catalog_stamp () =
  let catalog = basket_catalog () in
  let s0 = Catalog.stamp catalog "basket" in
  Alcotest.(check int) "seed length" 8 s0.Catalog.s_len;
  let v0 = Catalog.version catalog in
  let fresh = [| row [ iv 9; sv "z" ]; row [ iv 9; sv "w" ] |] in
  Catalog.append_rows catalog "basket" fresh;
  Alcotest.(check bool) "append bumps version" true
    (Catalog.version catalog > v0);
  let s1 = Catalog.stamp catalog "basket" in
  Alcotest.(check int) "same generation across append" s0.Catalog.s_gen
    s1.Catalog.s_gen;
  Alcotest.(check int) "length grew" 10 s1.Catalog.s_len;
  (* the delta since the old stamp is exactly the appended rows *)
  (match Catalog.delta_since catalog "basket" s0 with
   | `Delta d ->
     check_bag "delta_since returns the appended suffix"
       (rel [ "bid"; "item" ] [ [ iv 9; sv "z" ]; [ iv 9; sv "w" ] ])
       d
   | `Invalid -> Alcotest.fail "append must keep the stamp deltable");
  (* since the current stamp: empty delta, still valid *)
  (match Catalog.delta_since catalog "basket" s1 with
   | `Delta d -> Alcotest.(check int) "empty delta" 0 (Relation.cardinality d)
   | `Invalid -> Alcotest.fail "current stamp must be valid");
  (* a structural rewrite starts a new generation: delta reasoning ends *)
  let tbl = Catalog.find catalog "basket" in
  Catalog.replace_rows catalog "basket" tbl.Catalog.rel;
  (match Catalog.delta_since catalog "basket" s1 with
   | `Invalid -> ()
   | `Delta _ -> Alcotest.fail "replace_rows must invalidate old stamps");
  Alcotest.(check bool) "replace bumps generation" true
    ((Catalog.stamp catalog "basket").Catalog.s_gen > s1.Catalog.s_gen);
  (* stamps: normalized multi-table form *)
  let st = Catalog.stamps catalog [ "BASKET" ] in
  Alcotest.(check int) "stamps normalizes names" 1 (List.length st);
  Alcotest.(check string) "lowercase key" "basket" (fst (List.hd st))

let test_catalog_append_keeps_indexes () =
  let catalog = basket_catalog () in
  Catalog.append_rows catalog "basket" [| row [ iv 9; sv "z" ] |];
  (* indexes were rebuilt over the grown table and queries still work *)
  let r =
    Core.Runner.run_baseline catalog
      (Sqlfront.Parser.parse "SELECT bid FROM basket WHERE item = 'z'")
  in
  check_bag "index-backed lookup sees the delta" (rel [ "bid" ] [ [ iv 9 ] ]) r

(* ---- Core.Delta: §6 partial-state maintenance ---- *)

let parse = Sqlfront.Parser.parse

let test_delta_supported () =
  let catalog = basket_catalog () in
  let sup sql = Core.Delta.supported catalog (parse sql) in
  Alcotest.(check bool) "iceberg self-join" true
    (sup
       "SELECT i1.item, COUNT(*) FROM basket i1, basket i2 WHERE i1.bid = \
        i2.bid GROUP BY i1.item HAVING COUNT(*) >= 2");
  Alcotest.(check bool) "algebraic aggregates" true
    (sup
       "SELECT item, COUNT(*), SUM(bid), MIN(bid), MAX(bid), AVG(bid) FROM \
        basket GROUP BY item");
  Alcotest.(check bool) "DISTINCT is refused" false
    (sup "SELECT DISTINCT item FROM basket");
  Alcotest.(check bool) "COUNT DISTINCT is holistic" false
    (sup "SELECT item, COUNT(DISTINCT bid) FROM basket GROUP BY item");
  Alcotest.(check bool) "ORDER BY is refused" false
    (sup "SELECT item, COUNT(*) FROM basket GROUP BY item ORDER BY item");
  Alcotest.(check bool) "WITH is refused" false
    (sup
       "WITH t AS (SELECT bid FROM basket) SELECT bid, COUNT(*) FROM t GROUP \
        BY bid")

let basket_sql =
  "SELECT i1.item, COUNT(*) FROM basket i1, basket i2 WHERE i1.bid = i2.bid \
   GROUP BY i1.item HAVING COUNT(*) >= 2"

(* Append [fresh] to [table] in [catalog] and fold it into [st], asserting
   the maintained result stays bag-equal to a from-scratch recompute. *)
let fold_and_check ?expect catalog st table sql fresh =
  Catalog.append_rows catalog table fresh;
  let schema = (Catalog.find catalog table).Catalog.rel.Relation.schema in
  let delta = Relation.make schema fresh in
  (match (Core.Delta.apply st ~table ~delta, expect) with
   | Ok got, Some want ->
     if got <> want then Alcotest.failf "unexpected apply outcome for %s" sql
   | Ok _, None -> ()
   | Error m, _ -> Alcotest.failf "apply failed for %s: %s" sql m);
  let want = Core.Runner.run_baseline catalog (parse sql) in
  check_bag ("maintained result for " ^ sql) want (Core.Delta.result st)

let test_delta_basket () =
  let catalog = basket_catalog () in
  let st =
    match Core.Delta.init catalog (parse basket_sql) with
    | Some st -> st
    | None -> Alcotest.fail "basket_sql must have a delta rule"
  in
  Alcotest.(check (list string)) "tables" [ "basket" ] (Core.Delta.tables st);
  check_bag "initial state round-trips"
    (Core.Runner.run_baseline catalog (parse basket_sql))
    (Core.Delta.result st);
  (* three bursts through the k=2 telescoping path: rows that extend
     existing groups, create a new group, and push a group over the
     HAVING threshold *)
  (* 2 delta rows at each of the 2 occurrences survive local filtering *)
  fold_and_check catalog st "basket" basket_sql
    ~expect:(`Incremental 4)
    [| row [ iv 1; sv "z" ]; row [ iv 1; sv "w" ] |];
  fold_and_check catalog st "basket" basket_sql
    [| row [ iv 7; sv "solo" ] |];
  fold_and_check catalog st "basket" basket_sql
    [| row [ iv 7; sv "pair" ]; row [ iv 2; sv "z" ] |];
  Alcotest.(check bool) "groups span both threshold sides" true
    (Core.Delta.groups st > 0)

let test_delta_revalidate () =
  let catalog =
    objects_catalog (List.init 20 (fun i -> (i mod 4, i mod 3)))
  in
  let sql =
    "SELECT o1.x, COUNT(*) FROM object o1, object o2 WHERE o1.x = o2.x AND \
     o1.y < 2 AND o2.y < 2 GROUP BY o1.x HAVING COUNT(*) >= 2"
  in
  let st =
    match Core.Delta.init catalog (parse sql) with
    | Some st -> st
    | None -> Alcotest.fail "query must have a delta rule"
  in
  (* every occurrence carries y < 2 locally: a delta of y = 50 rows is
     refuted without running any join *)
  fold_and_check catalog st "object" sql
    ~expect:`Revalidated
    [| row [ iv 100; iv 1; iv 50 ]; row [ iv 101; iv 2; iv 50 ] |];
  (* a joinable delta row goes through the incremental path instead
     (placed at each of the 2 occurrences) *)
  fold_and_check catalog st "object" sql
    ~expect:(`Incremental 2)
    [| row [ iv 102; iv 1; iv 0 ] |]

let test_delta_oversized () =
  let catalog = basket_catalog () in
  let st =
    match Core.Delta.init catalog (parse basket_sql) with
    | Some st -> st
    | None -> Alcotest.fail "basket_sql must have a delta rule"
  in
  (* a delta bigger than half the table: folding would cost more than a
     recompute, so apply refuses and the caller starts over *)
  let fresh =
    Array.init 30 (fun i -> row [ iv (100 + i); sv "bulk" ])
  in
  Catalog.append_rows catalog "basket" fresh;
  let schema = (Catalog.find catalog "basket").Catalog.rel.Relation.schema in
  (match
     Core.Delta.apply st ~table:"basket" ~delta:(Relation.make schema fresh)
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "oversized delta must be refused")

(* A partial SUM keeps its ints and floats apart until it finishes, so a
   merged partial finishes as a recompute does: ints {2^50} with floats
   {0.125} finish as 2^50, and a merge of finished values with a later
   0.25 would give 2^50 + 0.25 where a recompute gives 2^50 + 0.5.  Group
   1 holds [old] and is appended [fresh]; AVG keeps the same sum. *)
let test_delta_float_sum () =
  let sql = "SELECT g, SUM(v), AVG(v) FROM t GROUP BY g" in
  List.iter
    (fun (label, old, fresh, exact) ->
      let catalog = Catalog.create () in
      Catalog.add_table catalog "t"
        (rel [ "g"; "v" ]
           (List.map (fun v -> [ iv 1; v ]) old
           @ List.init 20 (fun i -> [ iv 2; iv i ])));
      let st =
        match Core.Delta.init catalog (parse sql) with
        | Some st -> st
        | None -> Alcotest.fail "SUM must have a delta rule"
      in
      let fresh = Array.of_list (List.map (fun v -> row [ iv 1; v ]) fresh) in
      Catalog.append_rows catalog "t" fresh;
      let schema = (Catalog.find catalog "t").Catalog.rel.Relation.schema in
      let recompute = Core.Runner.run_baseline catalog (parse sql) in
      let sum1 rel =
        Array.find_map
          (fun r -> if r.(0) = iv 1 then Some r.(1) else None)
          (Relation.rows rel)
      in
      Alcotest.(check (option value_testable)) (label ^ ": the recompute")
        (Some exact) (sum1 recompute);
      (match Core.Delta.apply st ~table:"t" ~delta:(Relation.make schema fresh) with
       | Ok _ -> ()
       | Error m -> Alcotest.failf "%s: the fold refused: %s" label m);
      check_bag (label ^ ": merged = recompute") recompute (Core.Delta.result st))
    [ ( "ints {2^50}, floats {0.125}, then 0.25",
        [ iv (1 lsl 50); fv 0.125 ],
        [ fv 0.25 ],
        fv (0x1p50 +. 0.5) );
      ( "ints {2^50, 3}, floats {0.125}, then ints {-3}, floats {0.25, 0.125}",
        [ iv (1 lsl 50); iv 3; fv 0.125 ],
        [ iv (-3); fv 0.25; fv 0.125 ],
        fv (0x1p50 +. 0.5) );
      ( "ints past max_int, then back",
        [ iv max_int; iv 5 ],
        [ iv (-10) ],
        iv (max_int - 5) ) ]

(* Views sharing one state: threshold and SELECT variants of one shape
   have one partials key; each view finalizes the state for its own
   SELECT and HAVING, and one fold of an append serves them all. *)
let test_delta_shared_views () =
  let catalog = basket_catalog () in
  let shape = " FROM basket i1, basket i2 WHERE i1.bid = i2.bid GROUP BY i1.item" in
  let variants =
    [ basket_sql;
      "SELECT i1.item" ^ shape ^ " HAVING COUNT(*) >= 3";
      "SELECT i1.item, COUNT(*) AS n" ^ shape ^ " HAVING COUNT(*) < 3" ]
  in
  let key sql = Core.Delta.partials_key catalog (parse sql) in
  List.iter
    (fun sql ->
      Alcotest.(check (option string)) ("same shape: " ^ sql) (key basket_sql)
        (key sql))
    variants;
  let other_where =
    "SELECT i1.item, COUNT(*) FROM basket i1, basket i2 WHERE i1.bid = i2.bid \
     AND i1.bid < 3 GROUP BY i1.item HAVING COUNT(*) >= 2"
  in
  let other_aggs =
    "SELECT i1.item, COUNT(*)" ^ shape ^ " HAVING SUM(i2.bid) >= 2"
  in
  List.iter
    (fun sql ->
      Alcotest.(check bool) ("different shape: " ^ sql) true
        (key sql <> key basket_sql))
    [ other_where; other_aggs ];
  Alcotest.(check (option string)) "DISTINCT has no key" None
    (key "SELECT DISTINCT item FROM basket");
  let v0 =
    match Core.Delta.init catalog (parse basket_sql) with
    | Some v -> v
    | None -> Alcotest.fail "basket_sql must have a delta rule"
  in
  let st = Core.Delta.state v0 in
  Alcotest.(check bool) "a view of another shape is refused" true
    (Core.Delta.view st (parse other_aggs) = None);
  let views =
    List.map
      (fun sql ->
        match Core.Delta.view st (parse sql) with
        | Some v -> (sql, v)
        | None -> Alcotest.failf "no view for %s" sql)
      variants
  in
  let check_views what =
    List.iter
      (fun (sql, v) ->
        check_bag
          (Printf.sprintf "%s: %s" what sql)
          (Core.Runner.run_baseline catalog (parse sql))
          (Core.Delta.result v))
      views
  in
  check_views "fresh views";
  let schema = (Catalog.find catalog "basket").Catalog.rel.Relation.schema in
  List.iter
    (fun fresh ->
      Catalog.append_rows catalog "basket" fresh;
      (match
         Core.Delta.fold st ~table:"basket" ~delta:(Relation.make schema fresh)
       with
       | Ok _ -> ()
       | Error m -> Alcotest.failf "fold failed: %s" m);
      check_views "after one fold")
    [ [| row [ iv 1; sv "z" ]; row [ iv 1; sv "w" ] |];
      [| row [ iv 7; sv "a" ]; row [ iv 7; sv "b" ]; row [ iv 7; sv "z" ] |] ]

(* Two WHERE constants that a six-digit [%g] prints alike select different
   rows; they must not share a state. *)
let test_delta_keys_lossless () =
  let catalog = basket_catalog () in
  let sql c =
    "SELECT i1.item, COUNT(*) FROM basket i1, basket i2 WHERE i1.bid = i2.bid \
     AND i1.bid < " ^ c ^ " GROUP BY i1.item HAVING COUNT(*) >= 1"
  in
  let above = sql "2.0000001" and below = sql "1.9999999" in
  let key s = Core.Delta.partials_key catalog (parse s) in
  Alcotest.(check bool) "keys differ" true (key above <> key below);
  let v =
    match Core.Delta.init catalog (parse above) with
    | Some v -> v
    | None -> Alcotest.fail "delta rule expected"
  in
  Alcotest.(check bool) "no view over the other WHERE" true
    (Core.Delta.view (Core.Delta.state v) (parse below) = None);
  check_bag "state answers its own WHERE"
    (Core.Runner.run_baseline catalog (parse above))
    (Core.Delta.result v)

(* ---- prepared plans across appends ---- *)

(* An append moves the catalog version: a plan prepared before it is
   refused, and the plan prepared again answers over the grown table. *)
let test_stale_prepared () =
  let catalog = basket_catalog () in
  let q = parse basket_sql in
  let p = Core.Runner.prepare catalog q in
  ignore (Core.Runner.run_prepared p);
  Catalog.append_rows catalog "basket" [| row [ iv 1; sv "z" ]; row [ iv 5; sv "a" ] |];
  check_stale "after the append" catalog p;
  let p = Core.Runner.prepare catalog q in
  Alcotest.(check int) "prepared again at the live version"
    (Catalog.version catalog)
    (Core.Runner.prepared_version p);
  check_bag "re-prepared plan over the grown table"
    (Core.Runner.run_baseline catalog q)
    (fst (Core.Runner.run_prepared p));
  (* a second append makes the new plan stale in turn *)
  Catalog.append_rows catalog "basket" [| row [ iv 2; sv "q" ] |];
  check_stale "after the second append" catalog p;
  check_bag "prepared again after the second append"
    (Core.Runner.run_baseline catalog q)
    (fst (Core.Runner.run_prepared (Core.Runner.prepare catalog q)))

(* The version is the catalog's, not the table's: an append to another
   table makes the plan stale too. *)
let test_stale_prepared_unrelated () =
  let catalog = basket_catalog () in
  Catalog.add_table catalog ~keys:[ [ "id" ] ] ~nonneg:[ "x"; "y" ] "object"
    (rel [ "id"; "x"; "y" ]
       (List.init 12 (fun i -> [ iv i; iv (i mod 4); iv (i mod 3) ])));
  let q =
    parse
      "SELECT o1.x, COUNT(*) FROM object o1, object o2 WHERE o1.x = o2.x GROUP \
       BY o1.x HAVING COUNT(*) >= 2"
  in
  let p = Core.Runner.prepare catalog q in
  ignore (Core.Runner.run_prepared p);
  Catalog.append_rows catalog "basket" [| row [ iv 9; sv "z" ] |];
  check_stale "after an unrelated append" catalog p;
  check_bag "prepared again after an unrelated append"
    (Core.Runner.run_baseline catalog q)
    (fst (Core.Runner.run_prepared (Core.Runner.prepare catalog q)))

let suite =
  [
    Alcotest.test_case "relation append" `Quick test_relation_append;
    Alcotest.test_case "cstore delta blocks" `Quick test_cstore_delta_blocks;
    Alcotest.test_case "catalog stamp" `Quick test_catalog_stamp;
    Alcotest.test_case "append keeps indexes" `Quick
      test_catalog_append_keeps_indexes;
    Alcotest.test_case "delta supported" `Quick test_delta_supported;
    Alcotest.test_case "delta basket" `Quick test_delta_basket;
    Alcotest.test_case "delta revalidate" `Quick test_delta_revalidate;
    Alcotest.test_case "delta oversized" `Quick test_delta_oversized;
    Alcotest.test_case "delta float sum" `Quick test_delta_float_sum;
    Alcotest.test_case "delta shared views" `Quick test_delta_shared_views;
    Alcotest.test_case "delta keys lossless" `Quick test_delta_keys_lossless;
    Alcotest.test_case "stale prepared plan" `Quick test_stale_prepared;
    Alcotest.test_case "stale prepared unrelated" `Quick
      test_stale_prepared_unrelated;
  ]
