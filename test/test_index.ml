open Relalg
open Helpers

let t name f = Alcotest.test_case name `Quick f

let data () =
  rel [ "k"; "v" ]
    [ [ iv 5; sv "e" ]; [ iv 1; sv "a" ]; [ iv 3; sv "c" ]; [ iv 3; sv "c2" ];
      [ iv 9; sv "i" ]; [ iv 7; sv "g" ] ]

let hash_tests =
  [ t "probe hit" (fun () ->
        let idx = Index.Hash.build (data ()) [ 0 ] in
        Alcotest.(check int) "two rows for k=3" 2
          (List.length (Index.Hash.probe idx (row [ iv 3 ]))));
    t "probe miss" (fun () ->
        let idx = Index.Hash.build (data ()) [ 0 ] in
        Alcotest.(check int) "none for k=4" 0
          (List.length (Index.Hash.probe idx (row [ iv 4 ]))));
    t "distinct keys" (fun () ->
        let idx = Index.Hash.build (data ()) [ 0 ] in
        Alcotest.(check int) "5 keys" 5 (Index.Hash.distinct_keys idx));
    t "composite key probe" (fun () ->
        let idx = Index.Hash.build (data ()) [ 0; 1 ] in
        Alcotest.(check int) "one row" 1
          (List.length (Index.Hash.probe idx (row [ iv 3; sv "c" ])))) ]

let range_list idx ~lo ~hi = List.of_seq (Index.Sorted.range idx ~lo ~hi)

let sorted_tests =
  [ t "unbounded range returns all sorted" (fun () ->
        let idx = Index.Sorted.build (data ()) [ 0 ] in
        let ks =
          List.map (fun r -> r.(0)) (range_list idx ~lo:None ~hi:None)
        in
        Alcotest.(check (list int)) "sorted" [ 1; 3; 3; 5; 7; 9 ]
          (List.map (function Value.Int i -> i | _ -> -1) ks));
    t "inclusive bounds" (fun () ->
        let idx = Index.Sorted.build (data ()) [ 0 ] in
        Alcotest.(check int) "3..7 incl" 4
          (List.length
             (range_list idx
                ~lo:(Some (iv 3, `Inclusive))
                ~hi:(Some (iv 7, `Inclusive)))));
    t "strict bounds" (fun () ->
        let idx = Index.Sorted.build (data ()) [ 0 ] in
        Alcotest.(check int) "3..7 strict" 1
          (List.length
             (range_list idx ~lo:(Some (iv 3, `Strict)) ~hi:(Some (iv 7, `Strict)))));
    t "iter_range agrees with range" (fun () ->
        let idx = Index.Sorted.build (data ()) [ 0 ] in
        let collected = ref [] in
        Index.Sorted.iter_range idx ~lo:(Some (iv 3, `Inclusive)) ~hi:None (fun r ->
            collected := r :: !collected);
        Alcotest.(check int) "same count"
          (List.length (range_list idx ~lo:(Some (iv 3, `Inclusive)) ~hi:None))
          (List.length !collected)) ]

(* Row positions after a build, read off the last column. *)
let build_order rows cols =
  let names = List.init (Array.length (List.hd rows)) (Printf.sprintf "c%d") in
  let data = rel names (List.map Array.to_list rows) in
  List.map
    (fun r -> r.(Array.length r - 1))
    (range_list (Index.Sorted.build data cols) ~lo:None ~hi:None)

let stable_order rows cols =
  let cmp a b =
    List.fold_left
      (fun c i -> if c <> 0 then c else Value.compare_total a.(i) b.(i))
      0 cols
  in
  List.map (fun r -> r.(Array.length r - 1)) (List.stable_sort cmp rows)

let build_tests =
  [ t "ties keep input order" (fun () ->
        let rows =
          List.mapi (fun i (a, b) -> [| iv a; iv b; iv i |])
            [ (3, 1); (1, 9); (3, 0); (3, 1); (1, 9); (2, 5) ]
        in
        Alcotest.(check (list value_testable)) "one key"
          (List.map iv [ 1; 4; 5; 0; 2; 3 ]) (build_order rows [ 0 ]);
        Alcotest.(check (list value_testable)) "two keys"
          (List.map iv [ 1; 4; 5; 2; 0; 3 ]) (build_order rows [ 0; 1 ]));
    t "mixed key types order by compare_total" (fun () ->
        let keys =
          [ fv 2.5; iv 2; Value.Null; sv "b"; fv Float.nan; iv 3; fv 2.; sv "a"; Value.Null ]
        in
        let rows = List.mapi (fun i k -> [| k; iv i |]) keys in
        Alcotest.(check (list value_testable)) "stable sort"
          (stable_order rows [ 0 ]) (build_order rows [ 0 ])) ]

let props =
  let pts = QCheck.(list_of_size (Gen.int_range 0 60) (int_range 0 30)) in
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"sorted range equals filter" ~count:200
         (QCheck.triple pts (QCheck.int_range 0 30) (QCheck.int_range 0 30))
         (fun (xs, a, b) ->
           let lo = min a b and hi = max a b in
           let data = rel [ "k" ] (List.map (fun x -> [ iv x ]) xs) in
           let idx = Index.Sorted.build data [ 0 ] in
           let via_index =
             List.length
               (range_list idx
                  ~lo:(Some (iv lo, `Inclusive))
                  ~hi:(Some (iv hi, `Strict)))
           in
           let via_filter = List.length (List.filter (fun x -> x >= lo && x < hi) xs) in
           via_index = via_filter));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"hash probe equals filter" ~count:200
         (QCheck.pair pts (QCheck.int_range 0 30))
         (fun (xs, k) ->
           let data = rel [ "k" ] (List.map (fun x -> [ iv x ]) xs) in
           let idx = Index.Hash.build data [ 0 ] in
           List.length (Index.Hash.probe idx (row [ iv k ]))
           = List.length (List.filter (fun x -> x = k) xs)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"sorted build is a stable sort by compare_total" ~count:200
         QCheck.(list_of_size (Gen.int_range 1 40) (pair (int_range 0 6) (int_range 0 4)))
         (fun ks ->
           (* int keys take the unboxed path; a float or NULL key the generic one *)
           let mk f = List.mapi (fun i (a, b) -> [| f a; iv b; iv i |]) ks in
           let ints = mk iv in
           let mixed =
             mk (fun a -> if a = 0 then Value.Null else if a = 1 then fv 1.5 else iv a)
           in
           List.for_all
             (fun (rows, cols) -> build_order rows cols = stable_order rows cols)
             [ (ints, [ 0 ]); (ints, [ 0; 1 ]); (ints, [ 1; 0 ]); (mixed, [ 0; 1 ]) ])) ]

let suite = hash_tests @ sorted_tests @ build_tests @ props
