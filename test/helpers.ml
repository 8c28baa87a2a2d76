(* Shared fixtures and assertion helpers for the test suites. *)
open Relalg

let value_testable =
  Alcotest.testable Value.pp Value.equal_total

(* Tier-1 is deterministic: QCheck_alcotest seeds every property from
   QCHECK_SEED, and a run that leaves it unset (or not an int) gets 42 here.
   Helpers links before every suite (the oracle and most suites open it), so
   the variable is set before the first property reads it.  CI rotates it. *)
let qcheck_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some seed -> seed
  | None ->
    Unix.putenv "QCHECK_SEED" "42";
    42

let row l : Row.t = Array.of_list l
let iv i = Value.Int i
let fv f = Value.Float f
let sv s = Value.Str s

let rel names rows = Relation.of_rows (Schema.of_names names) (List.map row rows)

(* Joins and aggregation exist only in the plan interpreter: tests run them
   through [Exec.run] with relations embedded as [Plan.Values] leaves (each
   leaf requalifies its columns with its name). *)
let values name r = Plan.Values { name; rel = r }
let exec ?workers plan = Exec.run ?workers (Catalog.create ()) plan

let exec_group ~group_cols ~aggs r =
  exec (Plan.Group { group_cols; aggs; input = values "t" r })

let check_bag msg expected actual =
  if not (Relation.equal_bag expected actual) then
    Alcotest.failf "%s:\nexpected:\n%sactual:\n%s" msg
      (Relation.to_string ~max_rows:50 (Relation.sorted expected))
      (Relation.to_string ~max_rows:50 (Relation.sorted actual))

let check_rows msg expected actual =
  check_bag msg expected actual

(* Small catalogs used across suites. *)

let basket_catalog () =
  let catalog = Catalog.create () in
  Catalog.add_table catalog ~keys:[ [ "bid"; "item" ] ] "basket"
    (rel [ "bid"; "item" ]
       [ [ iv 1; sv "a" ]; [ iv 1; sv "b" ]; [ iv 2; sv "a" ]; [ iv 2; sv "b" ];
         [ iv 3; sv "a" ]; [ iv 3; sv "c" ]; [ iv 4; sv "b" ]; [ iv 4; sv "a" ] ]);
  catalog

let objects_catalog points =
  let catalog = Catalog.create () in
  Catalog.add_table catalog ~keys:[ [ "id" ] ] ~nonneg:[ "x"; "y" ] "object"
    (rel [ "id"; "x"; "y" ]
       (List.mapi (fun i (x, y) -> [ iv i; iv x; iv y ]) points));
  catalog

(* A deterministic pseudo-random catalog for equivalence testing: tables
   basket-like and object-like with duplicates and skew. *)
let random_catalog seed =
  let rng = Workload.Prng.create seed in
  let catalog = Catalog.create () in
  let n = 40 + Workload.Prng.int rng 60 in
  Catalog.add_table catalog ~keys:[ [ "id" ] ] ~nonneg:[ "x"; "y" ] "object"
    (rel [ "id"; "x"; "y" ]
       (List.init n (fun i ->
            [ iv i; iv (Workload.Prng.int rng 12); iv (Workload.Prng.int rng 12) ])));
  let rows = 60 + Workload.Prng.int rng 80 in
  Catalog.add_table catalog ~keys:[ [ "bid"; "item" ] ] "basket"
    (rel [ "bid"; "item" ]
       (let seen = Hashtbl.create 64 in
        List.filter_map
          (fun _ ->
            let bid = Workload.Prng.int rng 25 in
            let item = Workload.Prng.int rng 10 in
            if Hashtbl.mem seen (bid, item) then None
            else begin
              Hashtbl.add seen (bid, item) ();
              Some [ iv bid; sv (Printf.sprintf "i%d" item) ]
            end)
          (List.init rows (fun i -> i))));
  catalog

let run_sql catalog sql = Sqlfront.Binder.run catalog (Sqlfront.Parser.parse sql)

let with_ref r v f =
  let saved = !r in
  r := v;
  Fun.protect ~finally:(fun () -> r := saved) f

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_sql_equiv ?tech catalog sql =
  let q = Sqlfront.Parser.parse sql in
  let base = Core.Runner.run_baseline catalog q in
  let opt, _ = Core.Runner.run ?tech catalog q in
  if not (Relation.equal_bag base opt) then
    Alcotest.failf "optimized result differs for:\n%s\nbase:\n%sopt:\n%s" sql
      (Relation.to_string ~max_rows:50 (Relation.sorted base))
      (Relation.to_string ~max_rows:50 (Relation.sorted opt))

(* A plan prepared before a catalog mutation is refused, naming the
   version it was prepared at and the catalog's. *)
let check_stale msg catalog prepared =
  match Core.Runner.run_prepared prepared with
  | _ -> Alcotest.failf "%s: a stale plan ran" msg
  | exception Invalid_argument m ->
    List.iter
      (fun v ->
        if not (contains m (Printf.sprintf "version %d" v)) then
          Alcotest.failf "%s: %S does not name version %d" msg m v)
      [ Core.Runner.prepared_version prepared; Catalog.version catalog ]
