open Core

let t name f = Alcotest.test_case name `Quick f

let cls ?(nonneg = fun _ -> false) sql =
  Monotone.classify ~nonneg (Sqlfront.Parser.parse_pred sql)

let check = Alcotest.(check string)
let show c = Monotone.to_string c

(* Table 2, with the MIN rows in the mathematically consistent direction
   (see the note in monotone.mli). *)
let table2 =
  [ t "COUNT(*) >= c monotone" (fun () ->
        check "m" "monotone" (show (cls "COUNT(*) >= 20")));
    t "COUNT(*) <= c anti-monotone" (fun () ->
        check "a" "anti-monotone" (show (cls "COUNT(*) <= 20")));
    t "COUNT(a) >= c monotone" (fun () ->
        check "m" "monotone" (show (cls "COUNT(a) >= 5")));
    t "COUNT(a) <= c anti-monotone" (fun () ->
        check "a" "anti-monotone" (show (cls "COUNT(a) <= 5")));
    t "COUNT(DISTINCT a) >= c monotone" (fun () ->
        check "m" "monotone" (show (cls "COUNT(DISTINCT a) >= 5")));
    t "COUNT(DISTINCT a) <= c anti-monotone" (fun () ->
        check "a" "anti-monotone" (show (cls "COUNT(DISTINCT a) <= 5")));
    t "SUM >= c monotone only for non-negative domains" (fun () ->
        check "neither without fact" "neither" (show (cls "SUM(a) >= 5"));
        check "monotone with fact" "monotone"
          (show (cls ~nonneg:(fun _ -> true) "SUM(a) >= 5")));
    t "SUM <= c anti-monotone with non-negative domain" (fun () ->
        check "a" "anti-monotone" (show (cls ~nonneg:(fun _ -> true) "SUM(a) <= 5")));
    t "MAX >= c monotone" (fun () -> check "m" "monotone" (show (cls "MAX(a) >= 5")));
    t "MAX <= c anti-monotone" (fun () ->
        check "a" "anti-monotone" (show (cls "MAX(a) <= 5")));
    t "MIN >= c anti-monotone" (fun () ->
        check "a" "anti-monotone" (show (cls "MIN(a) >= 5")));
    t "MIN <= c monotone" (fun () -> check "m" "monotone" (show (cls "MIN(a) <= 5"))) ]

let combinations =
  [ t "strict thresholds classify like non-strict" (fun () ->
        check "m" "monotone" (show (cls "COUNT(*) > 20"));
        check "a" "anti-monotone" (show (cls "COUNT(*) < 20")));
    t "flipped operand order" (fun () ->
        check "m" "monotone" (show (cls "20 <= COUNT(*)")));
    t "equality is neither" (fun () -> check "n" "neither" (show (cls "COUNT(*) = 20")));
    t "AVG thresholds are neither" (fun () ->
        check "n" "neither" (show (cls "AVG(a) >= 5")));
    t "conjunction of same class keeps class" (fun () ->
        check "m" "monotone" (show (cls "COUNT(*) >= 20 AND MAX(a) >= 3")));
    t "disjunction of same class keeps class" (fun () ->
        check "a" "anti-monotone" (show (cls "COUNT(*) <= 20 OR MAX(a) <= 3")));
    t "mixed classes are neither" (fun () ->
        check "n" "neither" (show (cls "COUNT(*) >= 20 AND COUNT(*) <= 100")));
    t "negation flips" (fun () ->
        check "a" "anti-monotone" (show (cls "NOT COUNT(*) > 20")));
    t "aggregate-free atoms are set-insensitive" (fun () ->
        check "both" "set-insensitive" (show (cls "a >= 5")));
    t "set-insensitive combines with either class" (fun () ->
        check "m" "monotone" (show (cls "a >= 5 AND COUNT(*) >= 20"));
        check "a" "anti-monotone" (show (cls "a >= 5 AND COUNT(*) <= 20")));
    t "sum of products of non-negative columns" (fun () ->
        check "m" "monotone"
          (show (cls ~nonneg:(fun _ -> true) "SUM(numsales * price) >= 1000000")));
    t "sum with subtraction is unknown" (fun () ->
        check "n" "neither" (show (cls ~nonneg:(fun _ -> true) "SUM(a - b) >= 5")));
    t "aggregate vs aggregate is neither" (fun () ->
        check "n" "neither" (show (cls "COUNT(*) >= MAX(a)"))) ]

(* Semantic spot-check of Definition 1 by brute force: for random small
   multisets T ⊆ T', a condition classified monotone must satisfy
   Φ(T) ⇒ Φ(T'). *)
let semantic_props =
  let eval_phi sql values =
    (* values: the multiset of a-values *)
    let open Relalg in
    let rel = Relation.of_rows (Schema.of_names [ "a" ]) (List.map (fun x -> [| Value.Int x |]) values) in
    let grouped =
      Helpers.exec_group ~group_cols:[]
        ~aggs:
          [ (Agg.Count_star, Schema.col "__agg0");
            (Agg.Sum (Expr.col "a"), Schema.col "__agg1");
            (Agg.Min (Expr.col "a"), Schema.col "__agg2");
            (Agg.Max (Expr.col "a"), Schema.col "__agg3") ]
        rel
    in
    let p = Sqlfront.Parser.parse_pred sql in
    let mapping =
      [ (Sqlfront.Ast.A_count_star, "__agg0");
        (Sqlfront.Ast.A_sum (Sqlfront.Ast.col "a"), "__agg1");
        (Sqlfront.Ast.A_min (Sqlfront.Ast.col "a"), "__agg2");
        (Sqlfront.Ast.A_max (Sqlfront.Ast.col "a"), "__agg3") ]
    in
    let p' =
      Aggmap.pred
        (fun a ->
          match List.find_opt (fun (x, _) -> Sqlfront.Ast.equal_agg x a) mapping with
          | Some (_, n) -> Sqlfront.Ast.col n
          | None -> invalid_arg "unsupported agg in test")
        p
    in
    let e = Sqlfront.Binder.pred_expr (Relalg.Catalog.create ()) p' in
    match values with
    | [] -> false (* empty groups do not arise *)
    | _ -> Expr.eval_bool grouped.Relation.schema (Relation.rows grouped).(0) e
  in
  let conditions =
    [ "COUNT(*) >= 3"; "COUNT(*) <= 3"; "SUM(a) >= 10"; "SUM(a) <= 10";
      "MIN(a) >= 2"; "MIN(a) <= 2"; "MAX(a) >= 4"; "MAX(a) <= 4" ]
  in
  List.map
    (fun sql ->
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make
           ~name:(Printf.sprintf "Definition 1 brute force: %s" sql)
           ~count:200
           (QCheck.pair
              (QCheck.list_of_size (QCheck.Gen.int_range 1 6) (QCheck.int_range 0 6))
              (QCheck.list_of_size (QCheck.Gen.int_range 0 4) (QCheck.int_range 0 6)))
           (fun (base, extra) ->
             let cls = cls ~nonneg:(fun _ -> true) sql in
             let small = eval_phi sql base in
             let large = eval_phi sql (base @ extra) in
             (match cls with
              | Monotone.Monotone -> (not small) || large
              | Monotone.Anti_monotone -> (not large) || small
              | Monotone.Both | Monotone.Neither -> true))))
    conditions

let suite = table2 @ combinations @ semantic_props
