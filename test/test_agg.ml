open Relalg
open Helpers

let t name f = Alcotest.test_case name `Quick f

let schema = Schema.of_names [ "a" ]

let feed func rows =
  let c = Agg.compile schema func in
  let st = c.Agg.fresh () in
  List.iter (fun r -> c.Agg.step st (row r)) rows;
  c.Agg.final st

let check_v = Alcotest.check Helpers.value_testable

let basics =
  [ t "count star" (fun () ->
        check_v "3" (iv 3) (feed Agg.Count_star [ [ iv 1 ]; [ iv 2 ]; [ iv 3 ] ]));
    t "sum of empty is null" (fun () ->
        check_v "null" Value.Null (feed (Agg.Sum (Expr.col "a")) []));
    t "sum" (fun () ->
        check_v "6" (iv 6) (feed (Agg.Sum (Expr.col "a")) [ [ iv 1 ]; [ iv 2 ]; [ iv 3 ] ]));
    t "sum skips null" (fun () ->
        check_v "3" (iv 3) (feed (Agg.Sum (Expr.col "a")) [ [ iv 3 ]; [ Value.Null ] ]));
    t "min" (fun () ->
        check_v "1" (iv 1) (feed (Agg.Min (Expr.col "a")) [ [ iv 3 ]; [ iv 1 ]; [ iv 2 ] ]));
    t "max" (fun () ->
        check_v "3" (iv 3) (feed (Agg.Max (Expr.col "a")) [ [ iv 3 ]; [ iv 1 ]; [ iv 2 ] ]));
    t "avg" (fun () ->
        check_v "2.0" (fv 2.) (feed (Agg.Avg (Expr.col "a")) [ [ iv 1 ]; [ iv 3 ] ]));
    t "avg of empty is null" (fun () ->
        check_v "null" Value.Null (feed (Agg.Avg (Expr.col "a")) []));
    t "count distinct ignores duplicates and nulls" (fun () ->
        check_v "2" (iv 2)
          (feed (Agg.Count_distinct (Expr.col "a"))
             [ [ iv 1 ]; [ iv 1 ]; [ iv 2 ]; [ Value.Null ] ])) ]

(* merge (f^o over partial states) must agree with a single-pass run. *)
let merge_agrees func rows_a rows_b =
  let c = Agg.compile schema func in
  let st_a = c.Agg.fresh () and st_b = c.Agg.fresh () in
  List.iter (fun r -> c.Agg.step st_a (row r)) rows_a;
  List.iter (fun r -> c.Agg.step st_b (row r)) rows_b;
  c.Agg.merge st_a st_b;
  let merged = c.Agg.final st_a in
  let single = feed func (rows_a @ rows_b) in
  Value.equal_total merged single

let merging =
  let all_funcs =
    [ ("count_star", Agg.Count_star);
      ("count", Agg.Count (Expr.col "a"));
      ("sum", Agg.Sum (Expr.col "a"));
      ("min", Agg.Min (Expr.col "a"));
      ("max", Agg.Max (Expr.col "a"));
      ("avg", Agg.Avg (Expr.col "a"));
      ("count_distinct", Agg.Count_distinct (Expr.col "a")) ]
  in
  List.map
    (fun (name, func) ->
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make
           ~name:(Printf.sprintf "merge agrees with single pass (%s)" name)
           ~count:200
           (QCheck.pair
              (QCheck.list_of_size (QCheck.Gen.int_range 0 15) (QCheck.int_range 0 20))
              (QCheck.list_of_size (QCheck.Gen.int_range 0 15) (QCheck.int_range 0 20)))
           (fun (xs, ys) ->
             merge_agrees func
               (List.map (fun x -> [ iv x ]) xs)
               (List.map (fun y -> [ iv y ]) ys))))
    all_funcs

let algebraic =
  [ t "classification" (fun () ->
        Alcotest.(check bool) "sum algebraic" true (Agg.is_algebraic (Agg.Sum (Expr.col "a")));
        Alcotest.(check bool) "avg algebraic" true (Agg.is_algebraic (Agg.Avg (Expr.col "a")));
        Alcotest.(check bool) "count distinct not" false
          (Agg.is_algebraic (Agg.Count_distinct (Expr.col "a"))));
    t "decompose avg has sum and count partials" (fun () ->
        match Agg.decompose (Agg.Avg (Expr.col "a")) ~name:"x" with
        | `Algebraic (partials, outers, _) ->
          Alcotest.(check int) "partials" 2 (List.length partials);
          Alcotest.(check int) "outers" 2 (List.length outers)
        | `Holistic -> Alcotest.fail "avg should be algebraic");
    t "decompose count distinct is holistic" (fun () ->
        match Agg.decompose (Agg.Count_distinct (Expr.col "a")) ~name:"x" with
        | `Holistic -> ()
        | `Algebraic _ -> Alcotest.fail "count distinct should be holistic") ]

(* Run decompose through relational operators: partials per sub-group, outer
   re-aggregation, final expression — must equal a direct aggregation. *)
let decompose_end_to_end func name =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(Printf.sprintf "decompose round-trips through grouping (%s)" name)
       ~count:100
       (QCheck.list_of_size (QCheck.Gen.int_range 1 30)
          (QCheck.pair (QCheck.int_range 0 3) (QCheck.int_range 0 9)))
       (fun pairs ->
         let data =
           rel [ "g"; "a" ] (List.map (fun (g, a) -> [ iv g; iv a ]) pairs)
         in
         match Agg.decompose func ~name:"p" with
         | `Holistic -> true
         | `Algebraic (partials, outers, final) ->
           (* stage 1: partial aggregates per (g, sub) where sub splits rows *)
           let with_sub =
             Ops.project
               [ (Expr.col "g", Schema.col "g");
                 (Expr.col "a", Schema.col "a");
                 (Expr.Binop (Expr.Sub, Expr.col "a", Expr.col "a"), Schema.col "z") ]
               data
           in
           (* Split into two sub-groups per g via a mod 2. *)
           let with_sub =
             Ops.project
               [ (Expr.col "g", Schema.col "g");
                 (Expr.col "a", Schema.col "a");
                 ( Expr.Binop
                     ( Expr.Sub,
                       Expr.col "a",
                       Expr.Binop
                         (Expr.Mul, Expr.Binop (Expr.Div, Expr.col "a", Expr.int 2), Expr.int 2)
                     ),
                   Schema.col "sub" ) ]
               with_sub
           in
           let stage1 =
             exec_group
               ~group_cols:
                 [ (Expr.col "g", Schema.col "g"); (Expr.col "sub", Schema.col "sub") ]
               ~aggs:(List.map (fun (n, f) -> (f, Schema.col n)) partials)
               with_sub
           in
           let stage2 =
             exec_group
               ~group_cols:[ (Expr.col "g", Schema.col "g") ]
               ~aggs:(List.map (fun (n, f) -> (f, Schema.col n)) outers)
               stage1
           in
           let combined =
             Ops.project
               [ (Expr.col "g", Schema.col "g"); (final, Schema.col "v") ]
               stage2
           in
           let direct =
             exec_group
               ~group_cols:[ (Expr.col "g", Schema.col "g") ]
               ~aggs:[ (func, Schema.col "v") ]
               data
           in
           (* AVG combines through floats; compare numerically. *)
           let to_sorted r = Relation.rows (Relation.sorted r) in
           let ca = to_sorted combined and cb = to_sorted direct in
           Array.length ca = Array.length cb
           && Array.for_all2
                (fun x y ->
                  Value.equal_total x.(0) y.(0)
                  && Float.abs (Value.to_float x.(1) -. Value.to_float y.(1)) < 1e-9)
                ca cb))

let decompose_props =
  [ decompose_end_to_end Agg.Count_star "count_star";
    decompose_end_to_end (Agg.Count (Expr.col "a")) "count";
    decompose_end_to_end (Agg.Sum (Expr.col "a")) "sum";
    decompose_end_to_end (Agg.Min (Expr.col "a")) "min";
    decompose_end_to_end (Agg.Max (Expr.col "a")) "max";
    decompose_end_to_end (Agg.Avg (Expr.col "a")) "avg" ]

let suite = basics @ merging @ algebraic @ decompose_props
