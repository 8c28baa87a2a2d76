(* NLJP's range count: a k-D COUNT Q_R(b) answered from a block-sorted
   structure instead of walking the sorted index.  The structure itself is
   checked against brute force at k = 2, 3 and 4; the access path
   differentially against the baseline executor, on data with NULL, NaN,
   duplicate points, boundary integers and a mixed Int/Float column, across
   layouts, workers and the catalog's BT indexes, before and after an append
   — and its prune and memo decisions must be those of the row path. *)
open Relalg
open Core
open Helpers

let t name f = Alcotest.test_case name `Quick f

(* ---- the structure against brute force ---- *)

(* The structure holds no point with a NULL or NaN coordinate, bounded or
   not: NLJP bounds every column, and no bound holds on such a value. *)
let within (lo, hi) v =
  let ok op b = Compile.value_cmp op v b in
  (not (Value.is_null v || Value.is_nan v))
  && (match lo with
   | None -> true
   | Some (b, `Inclusive) -> ok Expr.Ge b
   | Some (b, `Strict) -> ok Expr.Gt b)
  &&
  match hi with
  | None -> true
  | Some (b, `Inclusive) -> ok Expr.Le b
  | Some (b, `Strict) -> ok Expr.Lt b

let brute rows ~cols box =
  Array.fold_left
    (fun n r ->
      if List.for_all2 (fun c range -> within range r.(c)) cols (Array.to_list box)
      then n + 1
      else n)
    0 rows

let test_structure () =
  let rng = Workload.Prng.create 18 in
  let int_value () =
    match Workload.Prng.int rng 40 with
    | 0 -> Value.Null
    | 1 -> iv max_int
    | 2 -> iv (max_int - 1)
    | 3 -> iv min_int
    | _ -> iv (Workload.Prng.int rng 50)
  in
  let mixed_value () =
    match Workload.Prng.int rng 30 with
    | 0 -> fv Float.nan
    | 1 -> Value.Null
    | k when k < 15 -> iv (Workload.Prng.int rng 50)
    | _ -> fv (float_of_int (Workload.Prng.int rng 100) /. 2.)
  in
  let wide_value () = iv (Workload.Prng.int rng 5000) in
  let bound value =
    match Workload.Prng.int rng 5 with
    | 0 -> None
    | 1 -> Some (value (), `Strict)
    | _ -> Some (value (), `Inclusive)
  in
  (* a bound is never NULL or NaN: NLJP answers those without a count *)
  let rec comparable_value () =
    match mixed_value () with
    | Value.Null -> comparable_value ()
    | v when Value.is_nan v -> comparable_value ()
    | v -> v
  in
  let rec int_bound_value () =
    match int_value () with Value.Null -> int_bound_value () | v -> v
  in
  List.iter
    (fun (label, n, xv, yv) ->
      let rows = Array.init n (fun i -> [| xv (); yv (); iv i |]) in
      let sorted =
        Index.Sorted.build (Relation.of_rows (Schema.of_names [ "x"; "y"; "i" ])
                              (Array.to_list rows)) [ 0 ]
      in
      let structures =
        [ ("sorted here", Index.Range_count.build rows ~cols:[ 0; 1 ]);
          ("from the index", Index.Range_count.of_sorted sorted ~cols:[ 0; 1 ]) ]
      in
      for _ = 1 to 300 do
        let value () =
          match Workload.Prng.int rng 3 with
          | 0 -> int_bound_value ()
          | 1 -> comparable_value ()
          | _ -> wide_value ()
        in
        let xlo = bound value and xhi = bound value in
        let ylo = bound value and yhi = bound value in
        let box = [| (xlo, xhi); (ylo, yhi) |] in
        let expected = brute rows ~cols:[ 0; 1 ] box in
        List.iter
          (fun (how, rc) ->
            Alcotest.(check int)
              (Printf.sprintf "%s, %s" label how)
              expected
              (Index.Range_count.count rc box))
          structures
      done)
    [ ("int points", 1500, int_value, int_value);
      ("mixed points", 1300, mixed_value, mixed_value);
      ("wide int points", 1100, wide_value, wide_value);
      ("int x, mixed y", 700, int_value, mixed_value);
      ("small", 40, int_value, int_value);
      ("no points", 6, (fun () -> Value.Null), int_value) ]

(* k = 3 and 4 over Int, Float and mixed columns.  NULL and NaN sit in
   the extra dimensions only, so x and y stay comparable and only the
   blocks' extra coordinates must drop them.  Coordinates come from small
   domains (many duplicate points) plus the int boundary, and most bounds
   are coordinates of the points themselves, so every bound ties with
   points, strictly and inclusively.  The sizes straddle the 256-point
   block. *)
let test_structure_kd () =
  let rng = Workload.Prng.create 20 in
  let nonempty = ref 0 in
  let pick n = Workload.Prng.int rng n in
  let int_value () =
    match pick 30 with
    | 0 -> iv max_int
    | 1 -> iv min_int
    | 2 -> iv (max_int - 1)
    | _ -> iv (pick 6)
  in
  let float_value () = fv (float_of_int (pick 8) /. 2.) in
  let mixed_value () =
    match pick 3 with
    | 0 -> iv (pick 4)
    | 1 -> fv (float_of_int (pick 4))
    | _ -> fv (float_of_int (pick 4) +. 0.5)
  in
  let with_missing value () =
    match pick 12 with 0 -> Value.Null | 1 -> fv Float.nan | _ -> value ()
  in
  let kinds =
    [ ("int", [ int_value; int_value; int_value; int_value ]);
      ("float", [ float_value; float_value; float_value; float_value ]);
      ("mixed", [ mixed_value; mixed_value; mixed_value; mixed_value ]);
      ("int x, float y, mixed and int extra",
       [ int_value; float_value; mixed_value; int_value ]) ]
  in
  List.iter
    (fun k ->
      List.iter
        (fun (kind, values) ->
          let values = List.filteri (fun d _ -> d < k) values in
          let gens = List.mapi (fun d v -> if d >= 2 then with_missing v else v) values in
          List.iter
            (fun n ->
              let rows =
                Array.init n (fun i ->
                    Array.of_list (List.map (fun g -> g ()) gens @ [ iv i ]))
              in
              let cols = List.init k Fun.id in
              let sorted =
                Index.Sorted.build
                  (Relation.of_rows
                     (Schema.of_names (List.init (k + 1) (Printf.sprintf "c%d")))
                     (Array.to_list rows))
                  [ 0 ]
              in
              let structures =
                [ ("sorted here", Index.Range_count.build rows ~cols);
                  ("from the index", Index.Range_count.of_sorted sorted ~cols) ]
              in
              (* a bound: mostly a point's own (comparable) coordinate *)
              let bound_value d =
                let rec go tries =
                  let v =
                    if n > 0 && tries > 0 && pick 4 > 0 then rows.(pick n).(d)
                    else (List.nth values d) ()
                  in
                  if Value.is_null v || Value.is_nan v then go (tries - 1) else v
                in
                go 3
              in
              let bound v = Some (v, if pick 3 = 0 then `Strict else `Inclusive) in
              let range d =
                match pick 4 with
                | 0 -> (None, None)
                | 1 -> (bound (bound_value d), None)
                | 2 -> (None, bound (bound_value d))
                | _ ->
                  let a = bound_value d and b = bound_value d in
                  if Value.compare_total a b <= 0 then (bound a, bound b)
                  else (bound b, bound a)
              in
              for _ = 1 to 120 do
                let box = Array.init k range in
                let expected = brute rows ~cols box in
                if expected > 0 then incr nonempty;
                List.iter
                  (fun (how, rc) ->
                    Alcotest.(check int)
                      (Printf.sprintf "k=%d, %s, n=%d, %s" k kind n how)
                      expected
                      (Index.Range_count.count rc box))
                  structures
              done)
            [ 0; 1; 255; 256; 257; 1000 ])
        kinds)
    [ 3; 4 ];
  (* 2 × 4 × 5 non-empty sizes × 120 boxes *)
  Alcotest.(check bool) "a third of the boxes hold points" true (!nonempty >= 1600)

(* ---- the access path against the baseline executor ---- *)

(* pts(id, g, x, y, m, z): x, y and z integers with NULLs, the int
   boundary and many duplicate points; m mixes Int and Float (3 next to 3.0)
   with NaN and NULL. *)
let point rng i =
  let x =
    if i mod 17 = 0 then Value.Null
    else if i mod 23 = 0 then iv max_int
    else if i mod 31 = 0 then iv (max_int - 1)
    else if i mod 29 = 0 then iv min_int
    else iv (Workload.Prng.int rng 20)
  in
  let y =
    if i mod 13 = 0 then Value.Null
    else if i mod 19 = 0 then iv max_int
    else iv (Workload.Prng.int rng 15)
  in
  let k = Workload.Prng.int rng 12 in
  let m =
    if i mod 11 = 0 then fv Float.nan
    else if i mod 37 = 0 then Value.Null
    else
      match i mod 3 with
      | 0 -> fv (float_of_int k +. 0.5)
      | 1 -> iv k
      | _ -> fv (float_of_int k)
  in
  let z =
    if i mod 41 = 0 then Value.Null
    else if i mod 43 = 0 then iv min_int
    else iv (i * 7 mod 13)
  in
  [| iv i; iv (i mod 40); x; y; m; z |]

let pts_catalog ~bt layout =
  let rng = Workload.Prng.create 2017 in
  let c = Catalog.create () in
  Catalog.add_table c ~keys:[ [ "id" ] ] "pts"
    (Relation.of_rows
       (Schema.of_names [ "id"; "g"; "x"; "y"; "m"; "z" ])
       (List.init 600 (point rng)));
  if bt then begin
    Catalog.build_sorted_index c "pts" [ "x"; "y" ];
    Catalog.build_sorted_index c "pts" [ "m" ]
  end;
  Catalog.set_all_layouts c layout;
  c

(* New rows: repeats of existing points under new ids (ties with the
   bindings already there), NULL and boundary coordinates. *)
let appended c =
  let src = Relation.rows (Catalog.find c "pts").Catalog.rel in
  Array.init 8 (fun i ->
      let r = Array.copy src.(3 * i) in
      r.(0) <- iv (10_000 + i);
      if i = 4 then r.(5) <- iv min_int;
      if i = 5 then r.(2) <- iv max_int;
      if i = 6 then r.(3) <- Value.Null;
      if i = 7 then r.(4) <- fv Float.nan;
      r)

let queries =
  [ (* skyband Q1: ≥ bounds and the strict disjunction, x order from [x; y] *)
    ( "skyband Q1",
      "SELECT R.id, COUNT(1) FROM pts L, pts R \
       WHERE L.x >= R.x AND L.y >= R.y AND (L.x > R.x OR L.y > R.y) \
       GROUP BY R.id HAVING COUNT(1) <= 150",
      ( "range count on L.x, L.y (catalog)",
        "range count on L.x, L.y (catalog)" ) );
    (* skyband Q3 on the mixed column, x order from [m] *)
    ( "skyband Q3, mixed",
      "SELECT R.id, COUNT(*) FROM pts L, pts R \
       WHERE L.m >= R.m AND L.x >= R.x AND (L.m > R.m OR L.x > R.x) \
       GROUP BY R.id HAVING COUNT(*) <= 120",
      ( "range count on L.m, L.x (catalog)",
        "range count on L.m, L.x (catalog)" ) );
    (* the ≤/< mirror, y bounded first: the index led by x is still used;
       without it the first bounded column leads *)
    ( "mirror",
      "SELECT R.id, COUNT(1) FROM pts L, pts R \
       WHERE L.y <= R.y AND L.x <= R.x AND (L.y < R.y OR L.x < R.x) \
       GROUP BY R.id HAVING COUNT(1) <= 200",
      ( "range count on L.x, L.y (catalog)",
        "range count on L.y, L.x (catalog)" ) );
    (* a window: two bounds on x, one of them computed (it overflows to a
       float at the int boundary); two on y that tie, the strict one wins *)
    ( "window",
      "SELECT R.id, COUNT(*) FROM pts L, pts R \
       WHERE L.x >= R.x AND L.x <= R.x + 3 AND L.y >= R.y AND L.y > R.y \
       GROUP BY R.id HAVING COUNT(*) >= 2",
      ( "range count on L.x, L.y (catalog)",
        "range count on L.x, L.y (catalog)" ) );
    (* skyband_avg: strict bounds over a CTE, sorted per execution *)
    ( "skyband_avg",
      "WITH p AS (SELECT g, AVG(x) AS x, AVG(y) AS y FROM pts GROUP BY g) \
       SELECT L.g, COUNT(*) FROM p L, p R WHERE L.x < R.x AND L.y < R.y \
       GROUP BY L.g HAVING COUNT(*) <= 10",
      ( "range count on R.x, R.y (built per execution)",
        "range count on R.x, R.y (built per execution)" ) );
    (* the pairs' shape (Q4-Q7), mirrored so that every x range starts at
       the first point and spans full blocks: four bounds and the 4-way OR
       of their strict forms.  z, first, has no index: x, the first column
       that has one, leads *)
    ( "pairs shape",
      "SELECT R.id, COUNT(*) FROM pts L, pts R \
       WHERE L.z <= R.z AND L.x <= R.x AND L.m <= R.m AND L.y <= R.y \
       AND (L.z < R.z OR L.x < R.x OR L.m < R.m OR L.y < R.y) \
       GROUP BY R.id HAVING COUNT(*) <= 40",
      ( "range count on L.x, L.z, L.m, L.y (catalog)",
        "range count on L.z, L.x, L.m, L.y (catalog)" ) );
    (* the same over AVG columns of a CTE, as Q4 and Q6 run it: all-Float
       coordinates, NULL and NaN averages *)
    ( "pairs over a CTE",
      "WITH p AS (SELECT id, AVG(x) AS a, AVG(y) AS b, AVG(m) AS c, AVG(z) AS d \
       FROM pts GROUP BY id) \
       SELECT L.id, COUNT(*) FROM p L, p R \
       WHERE R.a >= L.a AND R.b >= L.b AND R.c >= L.c AND R.d >= L.d \
       AND (R.a > L.a OR R.b > L.b OR R.c > L.c OR R.d > L.d) \
       GROUP BY L.id HAVING COUNT(*) <= 40",
      ( "range count on R.a, R.b, R.c, R.d (built per execution)",
        "range count on R.a, R.b, R.c, R.d (built per execution)" ) );
    (* three columns, a window on one, and a 3-way OR whose disjuncts
       repeat a column and nest *)
    ( "3-D window",
      "SELECT R.id, COUNT(*) FROM pts L, pts R \
       WHERE L.y <= R.y AND L.z <= R.z AND L.x <= R.x AND L.x > R.x - 6 \
       AND ((L.y < R.y OR L.z < R.z) OR L.y < R.y - 2) \
       GROUP BY R.id HAVING COUNT(*) >= 3",
      ( "range count on L.x, L.y, L.z (catalog)",
        "range count on L.y, L.z, L.x (catalog)" ) ) ]

let rec main_stats (rep : Runner.report) =
  match rep.Runner.nljp_stats with
  | Some s -> Some s
  | None -> List.find_map (fun (_, r) -> main_stats r) rep.Runner.cte_reports

let row_path = { Nljp.default_config with Nljp.inner_index = false }

let check_query ~label ~bt c (name, sql, (with_bt, without_bt)) baseline =
  let q = Sqlfront.Parser.parse sql in
  List.iter
    (fun workers ->
      let label = Printf.sprintf "%s/%s/workers=%d" label name workers in
      let rel, rep = Runner.run ~workers c q in
      let rel0, rep0 = Runner.run ~nljp_config:row_path ~workers c q in
      check_bag (label ^ ": bag-equal to baseline") baseline rel;
      check_bag (label ^ ": bag-equal to the row path") baseline rel0;
      match main_stats rep, main_stats rep0 with
      | Some s, Some s0 ->
        Alcotest.(check string) (label ^ ": access path")
          (if bt then with_bt else without_bt)
          (Nljp.access_to_string s.Nljp.access);
        let counters s = Nljp.[ s.inner_evals; s.pruned; s.memo_hits ] in
        Alcotest.(check (list int))
          (label ^ ": inner_evals, pruned, memo_hits as on the row path")
          (counters s0) (counters s)
      | _ -> Alcotest.failf "%s: no NLJP run" label)
    [ 1; 2 ]

let test_differential () =
  let nonempty = ref 0 in
  List.iter
    (fun bt ->
      List.iter
        (fun layout ->
          let c = pts_catalog ~bt layout in
          let label =
            Printf.sprintf "%s/bt=%b"
              (match layout with `Row -> "row" | `Column -> "column")
              bt
          in
          let prepared =
            List.map
              (fun (_, sql, _) -> Runner.prepare c (Sqlfront.Parser.parse sql))
              queries
          in
          List.iter
            (fun ((_, sql, _) as query) ->
              let baseline = Runner.run_baseline c (Sqlfront.Parser.parse sql) in
              if Relation.cardinality baseline > 0 then incr nonempty;
              check_query ~label ~bt c query baseline)
            queries;
          Catalog.append_rows c "pts" (appended c);
          List.iter2
            (fun ((name, sql, _) as query) prepared ->
              let q = Sqlfront.Parser.parse sql in
              let baseline = Runner.run_baseline c q in
              check_query ~label:(label ^ "/appended") ~bt c query baseline;
              (* a plan prepared before the append is stale; prepared
                 again, it answers for the new rows *)
              let label = Printf.sprintf "%s/%s" label name in
              check_stale (label ^ ": prepared before the append") c prepared;
              let rel, _ = Runner.run_prepared (Runner.prepare c q) in
              check_bag (label ^ ": prepared again after the append") baseline rel)
            queries prepared)
        [ `Row; `Column ])
    [ true; false ];
  Alcotest.(check bool) "most results are not empty" true
    (!nonempty >= 3 * List.length queries)

(* ---- why the shape misses ---- *)

let test_off_notes () =
  let c = pts_catalog ~bt:true `Row in
  List.iter
    (fun (sql, access, note) ->
      let _, rep = Runner.run c (Sqlfront.Parser.parse sql) in
      match main_stats rep with
      | None -> Alcotest.fail "no NLJP run"
      | Some s ->
        Alcotest.(check string) (sql ^ ": access") access
          (Nljp.access_to_string s.Nljp.access);
        let off =
          List.filter (String.starts_with ~prefix:"range count off: ") s.Nljp.notes
        in
        Alcotest.(check (list string)) (sql ^ ": note") note off)
    [ ( "SELECT R.id, COUNT(*), SUM(L.g) FROM pts L, pts R \
         WHERE L.x >= R.x AND L.y >= R.y GROUP BY R.id HAVING COUNT(*) <= 9",
        "row scan",
        [ "range count off: SUM(L.g) is not COUNT(*)" ] );
      (* three bounded columns are counted *)
      ( "SELECT R.id, COUNT(*) FROM pts L, pts R \
         WHERE L.x >= R.x AND L.y >= R.y AND L.m > R.m GROUP BY R.id HAVING COUNT(*) <= 9",
        "range count on L.x, L.y, L.m (catalog)", [] );
      ( "SELECT R.id, COUNT(*) FROM pts L, pts R \
         WHERE L.x >= R.x AND L.y >= R.y AND (L.x > R.x OR L.m > R.m) \
         GROUP BY R.id HAVING COUNT(*) <= 9",
        "row scan",
        [ "range count off: a disjunct bounds an inner column the conjunction \
           does not" ] );
      ( "SELECT R.id, COUNT(*) FROM pts L, pts R \
         WHERE L.x >= R.x AND L.y >= R.y AND L.z >= R.z \
         AND (L.x > R.x OR L.y > R.y) AND (L.y > R.y OR L.z > R.z) \
         GROUP BY R.id HAVING COUNT(*) <= 9",
        "row scan",
        [ "range count off: Θ has more than one disjunction" ] );
      ( "SELECT R.id, COUNT(*), SUM(L.g) FROM pts L, pts R \
         WHERE L.x >= R.x AND L.y >= R.y AND L.z >= R.z AND (L.x > R.x OR L.z > R.z) \
         GROUP BY R.id HAVING COUNT(*) <= 9",
        "row scan",
        [ "range count off: SUM(L.g) is not COUNT(*)" ] );
      ( "SELECT R.id, COUNT(*) FROM pts L, pts R \
         WHERE L.x >= R.x AND L.x < R.x + 4 GROUP BY R.id HAVING COUNT(*) <= 9",
        "row scan",
        [ "range count off: bounds span 1 inner column" ] );
      (* an equality conjunct takes the hash probe: no range-count note *)
      ( "SELECT R.id, COUNT(*) FROM pts L, pts R \
         WHERE L.g = R.g AND L.x >= R.x AND L.y >= R.y GROUP BY R.id HAVING COUNT(*) <= 9",
        "hash probe (1 equality conjunct)", [] ) ]

(* ---- a Θ column that stops being numeric ---- *)

let m_domain_builds = Obs.Metrics.counter "catalog.domain_builds"

(* A string appended into the all-Int x column turns the column's numeric
   fact off — judged from the appended row alone — so the p⪰ derived under
   it is dropped: a plan prepared before the append is stale, like every
   plan after an append, and the plan prepared again runs without pruning
   and says why.  Results stay bag-equal to the baseline. *)
let test_string_append () =
  let sql =
    let _, sql, _ = List.find (fun (n, _, _) -> n = "skyband Q1") queries in
    sql
  in
  let q = Sqlfront.Parser.parse sql in
  List.iter
    (fun layout ->
      let label = match layout with `Row -> "row" | `Column -> "column" in
      let c = pts_catalog ~bt:true layout in
      let tbl () = Catalog.find c "pts" in
      let x = Schema.index_of (tbl ()).Catalog.rel.Relation.schema "x" in
      Alcotest.(check bool) (label ^ ": x is numeric") true
        (Catalog.column_numeric (tbl ()) x);
      let prepared = Runner.prepare c q in
      let _, rep = Runner.run c q in
      (match main_stats rep with
       | Some s -> Alcotest.(check bool) (label ^ ": pruning on") true s.Nljp.pruning_on
       | None -> Alcotest.fail "no NLJP run");
      let r = Array.copy (Relation.rows (tbl ()).Catalog.rel).(5) in
      r.(0) <- iv 20_000;
      r.(x) <- sv "x";
      Catalog.append_rows c "pts" [| r |];
      let d0 = Obs.Metrics.read m_domain_builds in
      Alcotest.(check bool) (label ^ ": x is no longer numeric") false
        (Catalog.column_numeric (tbl ()) x);
      if Obs.enabled then
        Alcotest.(check int) (label ^ ": judged from the appended row") 0
          (Obs.Metrics.read m_domain_builds - d0);
      check_stale (label ^ ": a plan with a stale p⪰") c prepared;
      let rel, rep = Runner.run_prepared (Runner.prepare c q) in
      check_bag (label ^ ": bag-equal to baseline") (Runner.run_baseline c q) rel;
      match main_stats rep with
      | None -> Alcotest.fail "no NLJP run"
      | Some s ->
        Alcotest.(check bool) (label ^ ": pruning off") false s.Nljp.pruning_on;
        Alcotest.(check bool) (label ^ ": the note says why") true
          (List.mem "pruning off: no subsumption predicate derivable from Θ" s.Nljp.notes))
    [ `Row; `Column ]

let suite =
  [ t "range count structure agrees with brute force" test_structure;
    t "k-D range count structure agrees with brute force" test_structure_kd;
    t "range count agrees with the baseline and the row path" test_differential;
    t "the shape's misses are noted" test_off_notes;
    t "a string appended into a Θ column turns pruning off" test_string_append ]
