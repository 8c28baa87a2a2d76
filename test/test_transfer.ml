(* Predicate transfer (DESIGN.md §11): Bloom-filter units, the optimizer
   gate's verdicts and one end-to-end reduction check.  That transfer-on
   results equal the baseline's — under tiny, collision-heavy filters
   ([Bloom.test_force_bits]) too — is the oracle's job (oracle.ml). *)
open Core
open Relalg
open Helpers

(* ---- Bloom filter units ---- *)

let test_bloom_membership () =
  let bl = Column.Bloom.create ~expected:64 () in
  let vals =
    List.init 64 (fun i ->
        if i mod 3 = 0 then Value.Str (Printf.sprintf "s%d" i)
        else Value.Int (i * 7919))
  in
  List.iter (Column.Bloom.add bl) vals;
  List.iter
    (fun v ->
      Alcotest.(check bool) "no false negative" true (Column.Bloom.mem bl v))
    vals;
  Alcotest.(check int) "count" 64 (Column.Bloom.count bl)

let test_bloom_null_and_empty () =
  let bl = Column.Bloom.create ~expected:8 () in
  Alcotest.(check bool) "empty filter" false (Column.Bloom.mem bl (iv 3));
  Column.Bloom.add bl Value.Null;
  Alcotest.(check int) "null add ignored" 0 (Column.Bloom.count bl);
  Column.Bloom.add bl (iv 1);
  Alcotest.(check bool) "null probe" false (Column.Bloom.mem bl Value.Null);
  Alcotest.(check bool) "real member" true (Column.Bloom.mem bl (iv 1))

let test_bloom_int_float_equality () =
  (* SQL equality: 2 = 2.0, so the filter must agree across numeric types. *)
  let bl = Column.Bloom.create ~expected:4 () in
  Column.Bloom.add bl (Value.Float 2.0);
  Alcotest.(check bool) "int image member" true (Column.Bloom.mem bl (iv 2))

let test_bloom_forced_tiny () =
  with_ref Column.Bloom.test_force_bits (Some 63) @@ fun () ->
  let bl = Column.Bloom.create ~expected:10_000 () in
  Alcotest.(check int) "clamped to forced bits" 63 (Column.Bloom.nbits bl);
  let vals = List.init 500 (fun i -> Value.Int i) in
  List.iter (Column.Bloom.add bl) vals;
  (* A saturated filter answers true a lot — but never false for a member. *)
  List.iter
    (fun v ->
      Alcotest.(check bool) "saturated, no false negative" true
        (Column.Bloom.mem bl v))
    vals

let test_bloom_range_skip () =
  let bl = Column.Bloom.create ~expected:4 () in
  List.iter (Column.Bloom.add bl) [ iv 100; iv 200 ];
  let zm vals = List.fold_left Column.Zmap.observe Column.Zmap.empty vals in
  Alcotest.(check bool) "overlapping block" true
    (Column.Bloom.range_may_match bl (zm [ iv 150; iv 250 ]));
  Alcotest.(check bool) "disjoint block refuted" false
    (Column.Bloom.range_may_match bl (zm [ iv 300; iv 400 ]))

(* ---- catalogs and queries ---- *)

let kv_catalog ?(rows = 400) ?(layout = `Row) () =
  let catalog = Catalog.create () in
  ignore (Workload.Baseball.register_unpivoted catalog ~rows ~seed:2017);
  Workload.Baseball.build_indexes catalog ~bt:true;
  if layout = `Column then Catalog.set_all_layouts catalog `Column;
  catalog

(* A category value that actually occurs, read off the generated table, so
   the filtered query is selective but non-empty at any scale. *)
let some_category catalog =
  let tbl = Catalog.find catalog Workload.Baseball.unpivoted_name in
  let i = Schema.index_of tbl.Catalog.rel.Relation.schema "category" in
  let found = ref None in
  Relation.iter
    (fun row -> if !found = None then found := Some (Value.to_string row.(i)))
    tbl.Catalog.rel;
  Option.get !found

let decide ?(tech = Optimizer.all_techniques) ?(transfer = true) catalog sql =
  Optimizer.decide ~transfer catalog
    (Sqlfront.Parser.parse sql)
    ~tech ~nljp_config:Nljp.default_config

let has_note needle (d : Optimizer.decision) =
  List.exists (fun n -> contains n needle) d.Optimizer.notes

(* ---- gate verdicts ---- *)

let test_gate_rows_floor () =
  let catalog = kv_catalog ~rows:200 () in
  let sql = Workload.Queries.complex_filtered ~threshold:2 () in
  let d = decide catalog sql in
  Alcotest.(check bool) "no spec" true (d.Optimizer.transfer = None);
  Alcotest.(check bool) "floor note" true (has_note "inputs below" d)

let test_gate_disabled () =
  let catalog = kv_catalog () in
  let d =
    decide ~transfer:false catalog (Workload.Queries.complex_filtered ~threshold:2 ())
  in
  Alcotest.(check bool) "no spec" true (d.Optimizer.transfer = None);
  Alcotest.(check bool) "disabled note" true (has_note "disabled by configuration" d)

let test_gate_only_apriori_sources () =
  with_ref Optimizer.transfer_force true @@ fun () ->
  let catalog = kv_catalog () in
  (* The stock complex query has no single-alias σ; with all techniques the
     a-priori reducers install IN conjuncts, which the gate declines to
     re-execute as transfer sources by default. *)
  let d = decide catalog (Workload.Queries.complex ~threshold:3) in
  Alcotest.(check bool) "no spec" true (d.Optimizer.transfer = None);
  Alcotest.(check bool) "costed rejection" true
    (has_note "only a-priori IN sources" d);
  (* Without a-priori there is no source predicate at all. *)
  let d2 =
    decide ~tech:(Optimizer.only `Pruning) catalog
      (Workload.Queries.complex ~threshold:3)
  in
  Alcotest.(check bool) "no sources note" true
    (has_note "no selective source predicates" d2)

let test_gate_accepts_filtered () =
  with_ref Optimizer.transfer_force true @@ fun () ->
  let catalog = kv_catalog () in
  let cat = some_category catalog in
  let d =
    decide catalog (Workload.Queries.complex_filtered ~category:cat ~threshold:2 ())
  in
  match d.Optimizer.transfer with
  | None -> Alcotest.fail "expected a transfer spec"
  | Some spec ->
    Alcotest.(check int) "join edges" 5 (List.length spec.Transfer.t_edges);
    Alcotest.(check bool) "accepted note" true (has_note "transfer: on" d);
    let s1_locals =
      Option.value ~default:[] (List.assoc_opt "S1" spec.Transfer.t_locals)
    in
    Alcotest.(check bool) "S1 carries the σ" true (s1_locals <> []);
    Alcotest.(check bool) "no IN sources by default" true
      (List.for_all
         (fun (_, ps) ->
           List.for_all
             (function Sqlfront.Ast.P_in _ -> false | _ -> true)
             ps)
         spec.Transfer.t_locals)

(* ---- end-to-end reduction ---- *)

let test_transfer_reduces_and_agrees () =
  with_ref Optimizer.transfer_force true @@ fun () ->
  List.iter
    (fun layout ->
      let catalog = kv_catalog ~layout () in
      let cat = some_category catalog in
      let q =
        Sqlfront.Parser.parse
          (Workload.Queries.complex_filtered ~category:cat ~threshold:2 ())
      in
      let off, _ = Runner.run ~transfer:false catalog q in
      let on, rep = Runner.run ~transfer:true catalog q in
      check_bag "transfer on = off" off on;
      match rep.Runner.transfer with
      | None -> Alcotest.fail "expected a transfer result in the report"
      | Some r ->
        Alcotest.(check bool) "filters produced" true (r.Transfer.r_filters <> []);
        let reduced =
          List.exists (fun (_, (k, t)) -> k < t) r.Transfer.r_kept
        in
        Alcotest.(check bool) "some alias reduced" true reduced)
    [ `Row; `Column ]

let test_transfer_counters_move () =
  with_ref Optimizer.transfer_force true @@ fun () ->
  let catalog = kv_catalog ~layout:`Column () in
  let cat = some_category catalog in
  let q =
    Sqlfront.Parser.parse
      (Workload.Queries.complex_filtered ~category:cat ~threshold:2 ())
  in
  let _, p0, _ = Colscan.transfer_counters () in
  let built0 = Transfer.filters_built () in
  let _ = Runner.run ~transfer:true catalog q in
  let _, p1, _ = Colscan.transfer_counters () in
  Alcotest.(check bool) "filters built" true (Transfer.filters_built () > built0);
  Alcotest.(check bool) "rows probed" true (p1 > p0)

let suite =
  [
    Alcotest.test_case "bloom membership" `Quick test_bloom_membership;
    Alcotest.test_case "bloom null and empty" `Quick test_bloom_null_and_empty;
    Alcotest.test_case "bloom int/float equality" `Quick
      test_bloom_int_float_equality;
    Alcotest.test_case "bloom forced tiny" `Quick test_bloom_forced_tiny;
    Alcotest.test_case "bloom range skip" `Quick test_bloom_range_skip;
    Alcotest.test_case "gate rows floor" `Quick test_gate_rows_floor;
    Alcotest.test_case "gate disabled" `Quick test_gate_disabled;
    Alcotest.test_case "gate only a-priori sources" `Quick
      test_gate_only_apriori_sources;
    Alcotest.test_case "gate accepts filtered complex" `Quick
      test_gate_accepts_filtered;
    Alcotest.test_case "transfer reduces and agrees" `Quick
      test_transfer_reduces_and_agrees;
    Alcotest.test_case "transfer counters move" `Quick
      test_transfer_counters_move;
  ]
