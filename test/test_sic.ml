(* Compressed storage + .sic disk tier: codec round-trips, direct int
   kernels, byte-weighted LRU and file round-trips (resident and paged).
   Queries over resident and paged .sic tables against the row baseline are
   the oracle's storage dimension (oracle.ml). *)

open Relalg
module Cstore = Column.Cstore
module Encode = Column.Encode
module Bitset = Column.Bitset

let tmp_path =
  let ctr = ref 0 in
  fun name ->
    incr ctr;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sic_test_%d_%d_%s.sic" (Unix.getpid ()) !ctr name)

let with_tmp name f =
  let path = tmp_path name in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* ---- Encode round-trips ---- *)

let decoded_equal a b =
  match (a, b) with
  | Cstore.C_int (x, bx), Cstore.C_int (y, by)
  | Cstore.C_dict (x, bx), Cstore.C_dict (y, by) ->
    x = y
    && (match (bx, by) with
        | None, None -> true
        | Some bx, Some by ->
          Bitset.length bx = Bitset.length by
          && (let ok = ref true in
              for i = 0 to Bitset.length bx - 1 do
                if Bitset.get bx i <> Bitset.get by i then ok := false
              done;
              !ok)
        | _ -> false)
  | _ -> false

let roundtrip_ints a bm =
  let len = Array.length a in
  let col = Encode.of_cvec ~len (Cstore.C_int (a, bm)) in
  (* serialize too *)
  let buf = Buffer.create 64 in
  Encode.write buf col;
  let col', n = Encode.read (Buffer.to_bytes buf) 0 in
  Alcotest.(check int) "consumed" (Buffer.length buf) n;
  let dec = Encode.to_cvec col' in
  if not (decoded_equal (Cstore.C_int (a, bm)) dec) then
    Alcotest.failf "int round-trip mismatch (n=%d)" len

let test_encode_edges () =
  roundtrip_ints [||] None;
  roundtrip_ints [| 0 |] None;
  roundtrip_ints [| max_int; min_int; 0; -1; 1 |] None;
  roundtrip_ints (Array.init 100 (fun i -> i)) None;
  roundtrip_ints (Array.make 100 42) None;
  (* forces raw: range overflows 63-bit int *)
  roundtrip_ints [| min_int; max_int |] None;
  (* width > 57 *)
  roundtrip_ints [| 0; 1 lsl 58 |] None;
  (* nulls: leading, trailing, alternating *)
  let bm100 pat =
    let b = Bitset.create 100 in
    Array.iteri (fun i () -> if pat i then Bitset.set b i) (Array.make 100 ());
    Some b
  in
  roundtrip_ints (Array.init 100 (fun i -> i * 3)) (bm100 (fun i -> i < 10));
  roundtrip_ints (Array.init 100 (fun i -> i * 3)) (bm100 (fun i -> i >= 90));
  roundtrip_ints (Array.init 100 (fun i -> i mod 7)) (bm100 (fun i -> i mod 2 = 0));
  roundtrip_ints (Array.make 100 0) (bm100 (fun _ -> true))

let test_encode_qcheck =
  QCheck.Test.make ~name:"encode round-trip (random int blocks)" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 300)
           (oneof [ int; int_range (-5) 5; int_range 0 1 ]))
        (list small_int))
    (fun (vals, null_pos) ->
      let a = Array.of_list vals in
      let n = Array.length a in
      let bm =
        if null_pos = [] || n = 0 then None
        else begin
          let b = Bitset.create n in
          let any = ref false in
          List.iter
            (fun p ->
              if n > 0 then begin
                Bitset.set b (p mod n);
                any := true
              end)
            null_pos;
          if !any then Some b else None
        end
      in
      (* null slots are zeroed like Cstore.build_col produces them *)
      (match bm with
       | Some b ->
         for i = 0 to n - 1 do
           if Bitset.get b i then a.(i) <- 0
         done
       | None -> ());
      let col = Encode.of_cvec ~len:n (Cstore.C_int (a, bm)) in
      let buf = Buffer.create 64 in
      Encode.write buf col;
      let col', _ = Encode.read (Buffer.to_bytes buf) 0 in
      decoded_equal (Cstore.C_int (a, bm)) (Encode.to_cvec col'))

(* Direct kernels agree with decoded evaluation. *)
let test_direct_kernels =
  QCheck.Test.make ~name:"direct int kernels vs decoded" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 200) (int_range (-8) 8))
        (pair (int_range (-8) 8) (list small_int)))
    (fun (vals, (k, null_pos)) ->
      let a = Array.of_list vals in
      let n = Array.length a in
      let bm =
        if null_pos = [] then None
        else begin
          let b = Bitset.create n in
          List.iter (fun p -> Bitset.set b (p mod n)) null_pos;
          for i = 0 to n - 1 do
            if Bitset.get b i then a.(i) <- 0
          done;
          Some b
        end
      in
      let isnull i = match bm with Some b -> Bitset.get b i | None -> false in
      let col = Encode.of_cvec ~len:n (Cstore.C_int (a, bm)) in
      List.for_all
        (fun cmp ->
          let want i =
            (not (isnull i))
            &&
            match cmp with
            | Column.Zmap.Eq -> a.(i) = k
            | Column.Zmap.Ne -> a.(i) <> k
            | Column.Zmap.Lt -> a.(i) < k
            | Column.Zmap.Le -> a.(i) <= k
            | Column.Zmap.Gt -> a.(i) > k
            | Column.Zmap.Ge -> a.(i) >= k
          in
          let sel = Array.make n 0 in
          let cnt =
            match Encode.sel_fill_int col cmp k sel with
            | Some c -> c
            | None -> Alcotest.fail "sel_fill_int refused an int column"
          in
          let expected = List.filter want (List.init n Fun.id) in
          let got = Array.to_list (Array.sub sel 0 cnt) in
          let test =
            match Encode.int_test col cmp k with
            | Some t -> t
            | None -> Alcotest.fail "int_test refused an int column"
          in
          got = expected && List.for_all (fun i -> want i = test i) (List.init n Fun.id))
        [ Column.Zmap.Eq; Column.Zmap.Ne; Column.Zmap.Lt; Column.Zmap.Le;
          Column.Zmap.Gt; Column.Zmap.Ge ])

(* ---- byte-weighted LRU ---- *)

let test_lru_weighted () =
  let c = Cache.Lru.create 100 in
  Cache.Lru.put ~weight:40 c "a" 1;
  Cache.Lru.put ~weight:40 c "b" 2;
  Cache.Lru.put ~weight:40 c "c" 3;
  (* a (LRU) must have been evicted to fit c *)
  Alcotest.(check (option int)) "a evicted" None (Cache.Lru.find c "a");
  Alcotest.(check (option int)) "b kept" (Some 2) (Cache.Lru.find c "b");
  Alcotest.(check int) "weight" 80 (Cache.Lru.weight c);
  (* oversized entry evicts everything else but is itself kept *)
  Cache.Lru.put ~weight:500 c "big" 9;
  Alcotest.(check (option int)) "big kept" (Some 9) (Cache.Lru.find c "big");
  Alcotest.(check int) "only big" 1 (Cache.Lru.length c);
  (* overwrite adjusts weight *)
  Cache.Lru.put ~weight:10 c "big" 10;
  Alcotest.(check int) "weight after overwrite" 10 (Cache.Lru.weight c);
  let s = Cache.Lru.stats c in
  Alcotest.(check int) "weight in stats" 10 s.Cache.Lru.s_weight

(* ---- file round-trip ---- *)

let mixed_rel n =
  let rows =
    List.init n (fun i ->
        [| Value.Int i;
           (if i mod 7 = 0 then Value.Null else Value.Int (i mod 5));
           Value.Str (Printf.sprintf "s%d" (i mod 11));
           Value.Float (float_of_int (i mod 13) /. 4.);
           (if i mod 3 = 0 then Value.Bool (i mod 2 = 0) else Value.Bool true)
        |])
  in
  Relation.of_rows (Schema.of_names [ "id"; "grp"; "tag"; "x"; "b" ]) rows

let test_file_roundtrip () =
  let rel = Relation.to_layout `Column (mixed_rel 1000) in
  with_tmp "roundtrip" (fun path ->
      Sic.save path rel;
      let back = Sic.load ~mode:`Resident path in
      Alcotest.(check bool) "resident bag-equal" true (Relation.equal_bag rel back);
      let paged = Sic.load ~mode:`Paged path in
      Alcotest.(check bool) "paged bag-equal" true (Relation.equal_bag rel paged))

let test_streaming_writer () =
  let schema = Schema.of_names [ "a"; "b" ] in
  let rows =
    Seq.init 10_000 (fun i -> [| Value.Int i; Value.Str (string_of_int (i mod 3)) |])
  in
  with_tmp "stream" (fun path ->
      Sic.save_rows ~block_size:256 path schema rows;
      let back = Sic.load ~mode:`Resident path in
      Alcotest.(check int) "rows" 10_000 (Relation.cardinality back);
      let expect = Relation.of_rows schema (List.of_seq rows) in
      Alcotest.(check bool) "bag-equal" true (Relation.equal_bag expect back))

let test_empty_relation () =
  let schema = Schema.of_names [ "a"; "b" ] in
  let rel = Relation.to_layout `Column (Relation.empty schema) in
  with_tmp "empty" (fun path ->
      Sic.save path rel;
      let back = Sic.load ~mode:`Resident path in
      Alcotest.(check int) "rows" 0 (Relation.cardinality back);
      let paged = Sic.load ~mode:`Paged path in
      Alcotest.(check int) "paged rows" 0 (Relation.cardinality paged))

let suite =
  [ Alcotest.test_case "encode edge cases" `Quick test_encode_edges;
    QCheck_alcotest.to_alcotest test_encode_qcheck;
    QCheck_alcotest.to_alcotest test_direct_kernels;
    Alcotest.test_case "byte-weighted lru" `Quick test_lru_weighted;
    Alcotest.test_case "file round-trip" `Quick test_file_roundtrip;
    Alcotest.test_case "streaming writer" `Quick test_streaming_writer;
    Alcotest.test_case "empty relation" `Quick test_empty_relation ]
