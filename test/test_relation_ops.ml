open Relalg
open Helpers

let t name f = Alcotest.test_case name `Quick f

let people () =
  rel [ "id"; "dept"; "salary" ]
    [ [ iv 1; sv "eng"; iv 100 ]; [ iv 2; sv "eng"; iv 120 ];
      [ iv 3; sv "ops"; iv 90 ]; [ iv 4; sv "ops"; iv 90 ]; [ iv 5; sv "hr"; iv 80 ] ]

let select_project =
  [ t "select by predicate" (fun () ->
        let r =
          Ops.select
            (Expr.Cmp (Expr.Gt, Expr.col "salary", Expr.int 90))
            (people ())
        in
        Alcotest.(check int) "rows" 2 (Relation.cardinality r));
    t "select keeps duplicates" (fun () ->
        let r =
          Ops.select (Expr.Cmp (Expr.Eq, Expr.col "salary", Expr.int 90)) (people ())
        in
        Alcotest.(check int) "rows" 2 (Relation.cardinality r));
    t "project computes expressions" (fun () ->
        let r =
          Ops.project
            [ (Expr.Binop (Expr.Mul, Expr.col "salary", Expr.int 2), Schema.col "double") ]
            (people ())
        in
        check_rows "doubled"
          (rel [ "double" ] [ [ iv 200 ]; [ iv 240 ]; [ iv 180 ]; [ iv 180 ]; [ iv 160 ] ])
          r);
    t "project is duplicate-preserving" (fun () ->
        let r = Ops.project [ (Expr.col "dept", Schema.col "dept") ] (people ()) in
        Alcotest.(check int) "rows" 5 (Relation.cardinality r));
    t "distinct removes duplicates" (fun () ->
        let r =
          Ops.distinct (Ops.project [ (Expr.col "dept", Schema.col "dept") ] (people ()))
        in
        Alcotest.(check int) "rows" 3 (Relation.cardinality r)) ]

(* The engine's join operators over two embedded relations. *)
let nl_join ?workers ~pred l r =
  exec ?workers (Plan.Nl_join { pred; left = values "l" l; right = values "r" r })

let hash_join ?workers ~keys ~residual l r =
  exec ?workers
    (Plan.Hash_join { keys; residual; left = values "l" l; right = values "r" r })

let joins =
  let depts =
    rel [ "name"; "floor" ] [ [ sv "eng"; iv 3 ]; [ sv "ops"; iv 1 ]; [ sv "sales"; iv 2 ] ]
  in
  let dept_keys = [ (Expr.col "dept", Expr.col "name") ] in
  [ t "nl join theta" (fun () ->
        let r =
          nl_join
            ~pred:(Expr.Cmp (Expr.Eq, Expr.col "dept", Expr.col "name"))
            (people ()) depts
        in
        Alcotest.(check int) "rows" 4 (Relation.cardinality r));
    t "hash join equals nl join" (fun () ->
        let nl =
          nl_join
            ~pred:(Expr.Cmp (Expr.Eq, Expr.col "dept", Expr.col "name"))
            (people ()) depts
        in
        let hj = hash_join ~keys:dept_keys ~residual:Expr.tt (people ()) depts in
        check_bag "hash=nl" nl hj);
    t "hash join residual filters" (fun () ->
        let hj =
          hash_join ~keys:dept_keys
            ~residual:(Expr.Cmp (Expr.Gt, Expr.col "salary", Expr.int 100))
            (people ()) depts
        in
        Alcotest.(check int) "rows" 1 (Relation.cardinality hj));
    t "cross product size" (fun () ->
        Alcotest.(check int) "5*3" 15
          (Relation.cardinality (nl_join ~pred:Expr.tt (people ()) depts)));
    t "semijoin keeps matching" (fun () ->
        let sub = rel [ "d" ] [ [ sv "eng" ] ] in
        let r = Ops.semijoin [ Expr.col "dept" ] sub (people ()) in
        Alcotest.(check int) "rows" 2 (Relation.cardinality r)) ]

let grouping =
  [ t "group by dept count" (fun () ->
        let r =
          exec_group
            ~group_cols:[ (Expr.col "dept", Schema.col "dept") ]
            ~aggs:[ (Agg.Count_star, Schema.col "n") ]
            (people ())
        in
        check_rows "counts"
          (rel [ "dept"; "n" ] [ [ sv "eng"; iv 2 ]; [ sv "ops"; iv 2 ]; [ sv "hr"; iv 1 ] ])
          r);
    t "group by sum" (fun () ->
        let r =
          exec_group
            ~group_cols:[ (Expr.col "dept", Schema.col "dept") ]
            ~aggs:[ (Agg.Sum (Expr.col "salary"), Schema.col "s") ]
            (people ())
        in
        check_rows "sums"
          (rel [ "dept"; "s" ]
             [ [ sv "eng"; iv 220 ]; [ sv "ops"; iv 180 ]; [ sv "hr"; iv 80 ] ])
          r);
    t "global aggregate over empty input yields one row" (fun () ->
        let r =
          exec_group ~group_cols:[]
            ~aggs:[ (Agg.Count_star, Schema.col "n") ]
            (rel [ "a" ] [])
        in
        check_rows "count 0" (rel [ "n" ] [ [ iv 0 ] ]) r);
    t "grouped aggregate over empty input yields no rows" (fun () ->
        let r =
          exec_group
            ~group_cols:[ (Expr.col "a", Schema.col "a") ]
            ~aggs:[ (Agg.Count_star, Schema.col "n") ]
            (rel [ "a" ] [])
        in
        Alcotest.(check int) "rows" 0 (Relation.cardinality r));
    t "min max avg" (fun () ->
        let r =
          exec_group ~group_cols:[]
            ~aggs:
              [ (Agg.Min (Expr.col "salary"), Schema.col "mn");
                (Agg.Max (Expr.col "salary"), Schema.col "mx");
                (Agg.Avg (Expr.col "salary"), Schema.col "av") ]
            (people ())
        in
        check_rows "mma" (rel [ "mn"; "mx"; "av" ] [ [ iv 80; iv 120; fv 96. ] ]) r);
    t "count distinct" (fun () ->
        let r =
          exec_group ~group_cols:[]
            ~aggs:[ (Agg.Count_distinct (Expr.col "dept"), Schema.col "n") ]
            (people ())
        in
        check_rows "cd" (rel [ "n" ] [ [ iv 3 ] ]) r);
    t "count skips nulls, count star does not" (fun () ->
        let data = rel [ "a" ] [ [ iv 1 ]; [ Value.Null ]; [ iv 2 ] ] in
        let r =
          exec_group ~group_cols:[]
            ~aggs:
              [ (Agg.Count (Expr.col "a"), Schema.col "c");
                (Agg.Count_star, Schema.col "cs") ]
            data
        in
        check_rows "nulls" (rel [ "c"; "cs" ] [ [ iv 2; iv 3 ] ]) r) ]

let ordering =
  [ t "order by desc" (fun () ->
        let r = Ops.order_by [ (Expr.col "salary", `Desc) ] (people ()) in
        Alcotest.(check bool) "first is 120" true
          (Value.equal_total (Relation.rows r).(0).(2) (Value.Int 120)));
    t "limit truncates" (fun () ->
        Alcotest.(check int) "2" 2 (Relation.cardinality (Ops.limit 2 (people ()))));
    t "limit larger than input" (fun () ->
        Alcotest.(check int) "5" 5 (Relation.cardinality (Ops.limit 100 (people ())))) ]

let bag_equality =
  [ t "equal_bag ignores order" (fun () ->
        let a = rel [ "x" ] [ [ iv 1 ]; [ iv 2 ] ] in
        let b = rel [ "x" ] [ [ iv 2 ]; [ iv 1 ] ] in
        Alcotest.(check bool) "eq" true (Relation.equal_bag a b));
    t "equal_bag respects multiplicity" (fun () ->
        let a = rel [ "x" ] [ [ iv 1 ]; [ iv 1 ] ] in
        let b = rel [ "x" ] [ [ iv 1 ]; [ iv 2 ] ] in
        Alcotest.(check bool) "neq" false (Relation.equal_bag a b)) ]

let props =
  let point_list =
    QCheck.(list_of_size (Gen.int_range 0 40) (pair (int_range 0 10) (int_range 0 10)))
  in
  (* (join key, payload) rows; [None] is a NULL key. *)
  let side = QCheck.(list_of_size (Gen.int_range 0 40) (pair (option (int_range 0 6)) small_nat)) in
  let key = function Some k -> iv k | None -> Value.Null in
  let to_rel names rows = rel names (List.map (fun (k, p) -> [ key k; iv p ]) rows) in
  (* Every join of [ls] ⋈ [rs] on key equality must equal the SQL answer,
     where a NULL key matches nothing.  Both orientations run, so Hash_join
     builds on its left input whenever the sides differ in size. *)
  let agrees ls rs =
    let expected =
      rel [ "a"; "b"; "c"; "d" ]
        (List.concat_map
           (fun (a, b) ->
             List.filter_map
               (fun (c, d) ->
                 match (a, c) with
                 | Some x, Some y when x = y -> Some [ iv x; iv b; iv y; iv d ]
                 | _ -> None)
               rs)
           ls)
    in
    let left = to_rel [ "a"; "b" ] ls and right = to_rel [ "c"; "d" ] rs in
    let pred = Expr.Cmp (Expr.Eq, Expr.col "a", Expr.col "c") in
    let keys = [ (Expr.col "a", Expr.col "c") ] in
    List.for_all
      (fun workers ->
        List.for_all (Relation.equal_bag expected)
          [ nl_join ~workers ~pred left right;
            hash_join ~workers ~keys ~residual:Expr.tt left right ])
      [ 1; 2 ]
  in
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"hash join agrees with nl join on random data"
         ~count:100 (QCheck.pair side side)
         (fun (ls, rs) -> agrees ls rs && agrees rs ls));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"group counts sum to input size" ~count:100 point_list
         (fun pts ->
           let data = rel [ "a"; "b" ] (List.map (fun (a, b) -> [ iv a; iv b ]) pts) in
           let grouped =
             exec_group
               ~group_cols:[ (Expr.col "a", Schema.col "a") ]
               ~aggs:[ (Agg.Count_star, Schema.col "n") ]
               data
           in
           let total =
             Relation.fold
               (fun acc row -> acc + match row.(1) with Value.Int n -> n | _ -> 0)
               0 grouped
           in
           total = Relation.cardinality data)) ]

(* Packed and generic key paths against references that do not run
   [Exec]'s hash tables: sort-based grouping, a nested-loop join and
   [Row.Tbl] membership, each at workers 1 and 2 and in both layouts.
   A key column draws its kind first: numbers (Int, integral Float, -0.0,
   NaN, NULL, the int extremes), strings with NULL, or anything (also
   non-integral floats, which keep [Row.Tbl]). *)
let key_props =
  let open QCheck2 in
  let num =
    Gen.frequency
      [ (8, Gen.map iv (Gen.int_range (-3) 5));
        (3, Gen.map (fun k -> fv (float_of_int k)) (Gen.int_range (-3) 5));
        (1, Gen.oneofl [ fv (-0.); fv 0.; fv Float.nan; Value.Null; iv max_int; iv min_int ]) ]
  in
  let str = Gen.frequency [ (6, Gen.map (fun k -> sv (Printf.sprintf "s%d" k)) (Gen.int_range 0 3)); (1, Gen.pure Value.Null) ] in
  let any = Gen.oneof [ num; str; Gen.map (fun k -> fv (float_of_int k +. 0.5)) (Gen.int_range 0 2) ] in
  let kind = Gen.oneofl [ num; str; any ] in
  (* rows of [arity] key columns plus one small dyadic payload, so sums are exact *)
  let table ~arity size =
    Gen.(
      list_repeat arity kind >>= fun kinds ->
      list_size size
        (map2
           (fun ks v -> ks @ [ v ])
           (flatten_l kinds)
           (frequency [ (6, map iv (int_range 0 9)); (2, map (fun k -> fv (float_of_int k /. 4.)) (int_range 0 9)); (1, pure Value.Null) ])))
  in
  let key_names arity = List.init arity (Printf.sprintf "k%d") in
  let layouts r = [ r; Relation.to_layout `Column r ] in
  let print_rows rows = String.concat "; " (List.map (fun r -> Row.to_string (Array.of_list r)) rows) in
  let group_ok arity rows =
    let names = key_names arity in
    let data = rel (names @ [ "v" ]) rows in
    let key r = Array.sub r 0 arity and v r = r.(arity) in
    let runs =
      let sorted = List.stable_sort (fun a b -> Row.compare (key a) (key b)) (List.map Array.of_list rows) in
      List.fold_left
        (fun acc r ->
          match acc with
          | (r0 :: _ as run) :: rest when Row.compare (key r0) (key r) = 0 -> (r :: run) :: rest
          | _ -> [ r ] :: acc)
        [] sorted
    in
    let expected =
      rel (names @ [ "n"; "s"; "a"; "m" ])
        (List.map
           (fun run ->
             let run = List.rev run in
             let sum = Value.Sum.create () and n = ref 0 and m = ref Value.Null in
             List.iter
               (fun r ->
                 Value.Sum.add sum (v r);
                 if not (Value.is_null (v r)) then begin
                   incr n;
                   if Value.is_null !m || Value.compare_total (v r) !m < 0 then m := v r
                 end)
               run;
             Array.to_list (key (List.hd run))
             @ [ iv (List.length run); Value.Sum.value sum;
                 (if !n = 0 then Value.Null else fv (Value.Sum.to_float sum /. float_of_int !n));
                 !m ])
           runs)
    in
    let plan r =
      Plan.Group
        { group_cols = List.map (fun n -> (Expr.col n, Schema.col n)) names;
          aggs =
            [ (Agg.Count_star, Schema.col "n"); (Agg.Sum (Expr.col "v"), Schema.col "s");
              (Agg.Avg (Expr.col "v"), Schema.col "a"); (Agg.Min (Expr.col "v"), Schema.col "m") ];
          input = values "t" r }
    in
    List.for_all
      (fun r -> List.for_all (fun workers -> Relation.equal_bag expected (exec ~workers (plan r))) [ 1; 2 ])
      (layouts data)
  in
  let matches a b =
    Array.length a = Array.length b
    && Array.for_all2 (fun x y -> not (Row.has_null [| x |]) && Value.equal_total x y) a b
  in
  let join_ok arity (ls, rs) =
    let lnames = List.map (( ^ ) "l") (key_names arity) and rnames = List.map (( ^ ) "r") (key_names arity) in
    let left = rel (lnames @ [ "lv" ]) ls and right = rel (rnames @ [ "rv" ]) rs in
    let key r = Array.sub (Array.of_list r) 0 arity in
    let expected =
      rel (lnames @ [ "lv" ] @ rnames @ [ "rv" ])
        (List.concat_map (fun l -> List.filter_map (fun r -> if matches (key l) (key r) then Some (l @ r) else None) rs) ls)
    in
    let keys = List.map2 (fun a b -> (Expr.col a, Expr.col b)) lnames rnames in
    List.for_all
      (fun (l, r) ->
        List.for_all
          (fun workers -> Relation.equal_bag expected (hash_join ~workers ~keys ~residual:Expr.tt l r))
          [ 1; 2 ])
      (List.combine (layouts left) (layouts right))
  in
  let semijoin_ok (subs, rows) =
    let sub = rel [ "k" ] (List.map (fun r -> [ List.hd r ]) subs) and data = rel [ "k"; "v" ] rows in
    let members = Row.Tbl.create 16 in
    List.iter (fun r -> Row.Tbl.replace members [| List.hd r |] ()) subs;
    let expected = rel [ "k"; "v" ] (List.filter (fun r -> Row.Tbl.mem members [| List.hd r |]) rows) in
    List.for_all (fun d -> Relation.equal_bag expected (Ops.semijoin [ Expr.col "k" ] sub d)) (layouts data)
  in
  let to_alcotest = QCheck_alcotest.to_alcotest in
  [ to_alcotest
      (Test.make ~name:"grouping on packed and generic keys agrees with a sort-based reference"
         ~count:150 ~print:(fun (_, rows) -> print_rows rows)
         Gen.(int_range 1 3 >>= fun a -> map (fun rows -> (a, rows)) (table ~arity:a (int_range 0 60)))
         (fun (arity, rows) -> group_ok arity rows));
    to_alcotest
      (Test.make ~name:"grouping over 2048+ rows merges parallel chunks like the reference"
         ~count:6 ~print:(fun (_, rows) -> print_rows rows)
         Gen.(int_range 1 2 >>= fun a -> map (fun rows -> (a, rows)) (table ~arity:a (int_range 2048 2300)))
         (fun (arity, rows) -> group_ok arity rows));
    to_alcotest
      (Test.make ~name:"hash join on mixed key domains agrees with a nested-loop reference"
         ~count:150 ~print:(fun (_, (l, r)) -> print_rows l ^ " | " ^ print_rows r)
         Gen.(int_range 1 3 >>= fun a ->
              map2 (fun l r -> (a, (l, r))) (table ~arity:a (int_range 0 30)) (table ~arity:a (int_range 0 30)))
         (fun (arity, sides) -> join_ok arity sides && join_ok arity (snd sides, fst sides)));
    to_alcotest
      (Test.make ~name:"semijoin agrees with Row.Tbl membership" ~count:150
         ~print:(fun (s, r) -> print_rows s ^ " | " ^ print_rows r)
         Gen.(pair (table ~arity:1 (int_range 0 20)) (table ~arity:1 (int_range 0 40)))
         semijoin_ok) ]

let suite = select_project @ joins @ grouping @ ordering @ bag_equality @ props @ key_props
