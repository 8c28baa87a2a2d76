(* The differential oracle (DESIGN.md §16): a case is small tables, a query
   from one of the paper's families and one value per configuration
   dimension; it must return the bag of rows [Runner.run_baseline] returns,
   and every NLJP run must split its outer rows into inner evaluations,
   prunes and memo hits.  A shrunk failure prints as the OCaml value that
   rebuilds it; paste it into [regressions]. *)
open Core
open Relalg
open Helpers
module G = QCheck2.Gen

let pp = Printf.sprintf

type case = {
  family : string;
  tables : (string * Value.t list list) list;
  burst : (string * Value.t list list) option;  (** rows appended after planning *)
  sql : string;
  config : (string * string) list;  (** one value per dimension *)
}

let families = [ "skyband"; "window"; "basket"; "pairs"; "complex"; "plain" ]

(* Each dimension with its values, the default first. *)
let dimensions =
  [ ("tech", [ "all"; "apriori"; "memo"; "pruning"; "none"; "static memo"; "adaptive" ]);
    ("layout", [ "row"; "column" ]);
    ("workers", [ "1"; "2" ]);
    ("transfer", [ "off"; "forced"; "tiny bloom" ]);
    ("bt", [ "on"; "off" ]);
    ("ci", [ "on"; "off" ]);
    ("order", [ "default"; "desc, capped" ]);
    ("plan", [ "run"; "prepared" ]);
    ("storage", [ "memory"; "sic resident"; "sic paged" ]);
    ("disposition", [ "engine"; "partials" ]) ]

let dim c d = List.assoc d c.config

(* ---- tables ---- *)

(* Columns, candidate keys and candidate FDs of every table.  A key or FD
   is declared only where the case's data satisfies it, and a column is
   declared non-negative only where every value is NULL or a number >= 0,
   so the optimizer's safety checks see true facts. *)
let specs =
  [ ("object", ([ "id"; "x"; "y" ], [ [ "id" ] ], []));
    ("probe", ([ "id"; "lo"; "hi" ], [ [ "id" ] ], []));
    ("ev", ([ "k"; "x"; "s" ], [], []));
    ("basket", ([ "bid"; "item" ], [ [ "bid"; "item" ] ], []));
    ("score", ([ "pid"; "teamid"; "year"; "round"; "hits"; "hruns" ], [ [ "pid"; "year"; "round" ] ], [ ([ "pid" ], [ "teamid" ]) ]));
    ("perf_kv", ([ "id"; "category"; "attr"; "val" ], [ [ "id"; "attr" ] ], [ ([ "id" ], [ "category" ]) ]));
    ("t", ([ "id"; "grp"; "tag"; "x"; "score" ], [ [ "id" ] ], [])) ]

let columns name = let cols, _, _ = List.assoc name specs in cols

let project cols names row =
  List.map (fun n -> List.nth row (Option.get (List.find_index (( = ) n) cols))) names

(* [lhs] -> [rhs] over NULL-free values, equal as SQL compares them (2 =
   2.0); with [~key], no two rows agree on [lhs] at all. *)
let holds ?(key = false) cols rows (lhs, rhs) =
  let seen = Row.Tbl.create 16 in
  List.for_all
    (fun row ->
      let l = Array.of_list (project cols lhs row) and r = project cols rhs row in
      (not (Array.mem Value.Null l || List.mem Value.Null r))
      &&
      match Row.Tbl.find_opt seen l with
      | None -> Row.Tbl.add seen l r; true
      | Some r' -> (not key) && List.for_all2 Value.equal_total r r')
    rows

let nonneg cols rows c =
  List.for_all
    (fun row ->
      match project cols [ c ] row with
      | [ Value.Null ] -> true
      | [ (Value.Int _ | Value.Float _) as v ] ->
        (not (Value.is_nan v)) && Value.compare_total v (iv 0) >= 0
      | _ -> false)
    rows

(* Add [name] with the facts [all_rows] (the table after any burst) hold. *)
let add_table catalog name rel all_rows =
  let cols, keys, fds = List.assoc name specs in
  Catalog.add_table catalog name rel
    ~keys:(List.filter (fun k -> holds ~key:true cols all_rows (k, [])) keys)
    ~fds:(List.filter (holds cols all_rows) fds)
    ~nonneg:(List.filter (nonneg cols all_rows) cols)

let final_rows c name =
  List.assoc name c.tables @ match c.burst with Some (t, rows) when t = name -> rows | _ -> []

let to_rows rows = Array.of_list (List.map Array.of_list rows)

(* A plain row-layout catalog over [tables]. *)
let row_catalog tables =
  let catalog = Catalog.create () in
  List.iter
    (fun (name, rows) ->
      add_table catalog name (Relation.make (Schema.of_names (columns name)) (to_rows rows)) rows)
    tables;
  catalog

(* ---- generators ---- *)

(* A number in [lo, hi] — Int mostly, else a half-step Float — or NULL, NaN
   or an int extreme. *)
let num lo hi =
  G.frequency
    [ (12, G.map iv (G.int_range lo hi));
      (3, G.map (fun k -> fv (float_of_int k /. 2.)) (G.int_range (2 * lo) (2 * hi)));
      (1, G.pure Value.Null);
      (1, G.pure (fv Float.nan));
      (1, G.oneofl [ iv max_int; iv min_int ]) ]

let str prefix n = G.map (fun i -> sv (pp "%s%d" prefix i)) (G.int_range 0 (n - 1))

(* Any value: numbers, strings, booleans, NULL and NaN. *)
let value = G.frequency [ (6, num (-3) 8); (2, str "s" 3); (1, G.map (fun b -> Value.Bool b) G.bool) ]

let with_nulls n g = G.frequency [ (n, g); (1, G.pure Value.Null) ]

(* The cells of one column, its kind drawn first: Int (now and then an
   extreme), Int or NULL, Float (now and then -0.0 or an Int) or NaN, or
   the mixed [num].  Single-kind
   columns let Cstore form typed int and float blocks and the range count
   its typed arrays; mixed ones take the fallbacks. *)
let column lo hi =
  let ints = G.frequency [ (30, G.map iv (G.int_range lo hi)); (1, G.oneofl [ iv max_int; iv min_int ]) ] in
  G.oneofl
    [ ints; with_nulls 5 ints;
      G.frequency
        [ (10, G.map (fun k -> fv (float_of_int k /. 2.)) (G.int_range (2 * lo) (2 * hi)));
          (1, G.pure (fv Float.nan));
          (* -0.0 keys with 0; an Int keys with the integral Float it equals *)
          (1, G.pure (fv (-0.)));
          (1, G.map iv (G.int_range lo hi)) ];
      num lo hi ]

(* The row generator of one table, its numeric columns' kinds drawn. *)
let row_gen name =
  let open G in
  let l = flatten_l in
  match name with
  | "object" -> map2 (fun x y -> l [ x; y ]) (column 0 7) (column 0 7)
  | "probe" -> map2 (fun lo hi -> l [ lo; hi ]) (column 0 25) (column 0 35)
  | "ev" ->
    let+ k = column 0 30 in
    l [ k; with_nulls 6 (map (fun k -> fv (float_of_int k /. 4.)) (int_range 0 40));
        with_nulls 8 (str "s" 4) ]
  | "basket" -> map (fun bid -> l [ bid; str "i" 6 ]) (column 0 10)
  | "score" ->
    (* teamid mostly follows pid, so pid -> teamid often holds *)
    let+ hits = column 0 9 and+ hruns = column 0 9 in
    let* pid = int_range 0 7 in
    l [ pure (iv pid); frequency [ (8, pure (iv (pid mod 3))); (1, map iv (int_range 0 2)) ];
        map iv (int_range 0 2); map iv (int_range 1 2); hits; hruns ]
  | "perf_kv" ->
    let+ v = column 0 9 in
    let* id = int_range 0 7 in
    l [ pure (iv id); frequency [ (8, pure (sv (pp "c%d" (id mod 3)))); (1, str "c" 3) ];
        str "a" 3; v ]
  | _ ->
    let+ score = column (-50) 50 in
    l [ with_nulls 8 (map iv (int_range 0 6)); with_nulls 8 (str "tag" 5);
        with_nulls 8
          (frequency
             [ (8, map (fun k -> fv (float_of_int k /. 8.)) (int_range 0 80)); (1, pure (fv Float.nan)) ]);
        score ]

(* [lo]-[hi] rows from [row]; [object], [probe] and [t] are keyed by
   position (from [first] on). *)
let rows ?(first = 0) name lo hi row =
  G.map
    (fun rs ->
      if List.mem name [ "object"; "probe"; "t" ] then List.mapi (fun i r -> iv (first + i) :: r) rs
      else rs)
    (G.list_size (G.int_range lo hi) row)

let family_tables = function
  | "skyband" -> [ ("object", 100) ]
  | "window" -> [ ("probe", 70); ("ev", 120) ]
  | "basket" -> [ ("basket", 90) ]
  | "pairs" -> [ ("score", 60) ]
  | "complex" -> [ ("perf_kv", 50) ]
  | _ -> [ ("t", 200) ]

(* The family's tables, and maybe an append burst of 1-5 rows to one of
   them, drawn with the same column kinds as the table it grows. *)
let gen_data family =
  let open G in
  let* gens =
    flatten_l (List.map (fun (name, n) -> map (fun row -> (name, n, row)) (row_gen name)) (family_tables family))
  in
  let+ tables = flatten_l (List.map (fun (name, n, row) -> map (fun rs -> (name, rs)) (rows name 0 n row)) gens)
  and+ burst =
    option ~ratio:0.5 (oneofl gens >>= fun (name, _, row) -> map (fun rs -> (name, rs)) (rows ~first:1000 name 1 5 row))
  in
  (tables, burst)

let gen_tables family = G.map fst (gen_data family)

(* Listing 4 over [score], its four averages or sums. *)
let pairs_sql f c k =
  pp "WITH pair AS (SELECT s1.pid AS pid1, s2.pid AS pid2, %s(s1.hits) AS hits1, \
      %s(s1.hruns) AS hruns1, %s(s2.hits) AS hits2, %s(s2.hruns) AS hruns2 FROM score s1, \
      score s2 WHERE s1.teamid = s2.teamid AND s1.year = s2.year AND s1.round = s2.round \
      AND s1.pid < s2.pid GROUP BY s1.pid, s2.pid HAVING COUNT(*) >= %d) SELECT L.pid1, \
      L.pid2, COUNT(*) FROM pair L, pair R WHERE R.hits1 >= L.hits1 AND R.hruns1 >= \
      L.hruns1 AND R.hits2 >= L.hits2 AND R.hruns2 >= L.hruns2 AND (R.hits1 > L.hits1 OR \
      R.hruns1 > L.hruns1 OR R.hits2 > L.hits2 OR R.hruns2 > L.hruns2) GROUP BY L.pid1, \
      L.pid2 HAVING COUNT(*) <= %d" f f f f c k

let gen_query family =
  let open G in
  match family with
  | "skyband" ->
    let+ dims = oneofl [ [ "x"; "y" ]; [ "x" ] ]
    and+ cmp = oneofl [ "<="; "<" ]
    and+ strict = bool
    and+ aggs =
      oneofl
        [ "COUNT(*)"; "COUNT(*), SUM(R.x)"; "COUNT(*), AVG(R.y)"; "MIN(R.x), COUNT(*)";
          "MAX(R.y), COUNT(*)"; "COUNT(*), SUM(R.y), AVG(R.x)" ]
    and+ dir = oneofl [ ">="; "<=" ]
    and+ t = int_range 0 15 in
    let bounds = List.map (fun d -> pp "L.%s %s R.%s" d cmp d) dims in
    let strict = if strict && List.length dims = 2 then [ "(L.x < R.x OR L.y < R.y)" ] else [] in
    pp "SELECT L.id, %s FROM object L, object R WHERE %s GROUP BY L.id HAVING COUNT(*) %s %d"
      aggs (String.concat " AND " (bounds @ strict)) dir t
  | "window" ->
    let+ select, group =
      oneofl
        [ ("L.id, COUNT(*)", "L.id"); ("L.id, COUNT(*), SUM(R.x)", "L.id");
          ("L.id, MIN(R.x), MAX(R.k), AVG(R.x)", "L.id");
          ("L.id, R.s, COUNT(*), SUM(R.x)", "L.id, R.s"); ("L.id, MIN(R.s), COUNT(*)", "L.id") ]
    and+ bound = oneofl [ "R.k >= L.lo AND R.k <= L.hi"; "R.k >= L.lo"; "R.k < L.hi" ]
    and+ t = frequency [ (8, int_range 1 8); (1, pure 100000) ] in
    pp "SELECT %s FROM probe L, ev R WHERE %s GROUP BY %s HAVING COUNT(*) >= %d" select bound group t
  | "basket" ->
    let+ group = oneofl [ "i1.item, i2.item"; "i1.item" ]
    and+ extra = oneofl [ ""; " AND i1.bid > 2"; " AND i2.bid < 8"; " AND i1.item < i2.item" ]
    and+ dir = oneofl [ ">="; "<=" ]
    and+ t = int_range 1 6 in
    pp "SELECT %s, COUNT(*) FROM basket i1, basket i2 WHERE i1.bid = i2.bid%s GROUP BY %s \
        HAVING COUNT(*) %s %d" group extra group dir t
  | "pairs" ->
    let+ f = oneofl [ "AVG"; "SUM" ] and+ c = int_range 1 3 and+ k = int_range 0 20 in
    pairs_sql f c k
  | "complex" ->
    let+ category = oneofl [ None; Some "c1"; Some "c9" ] and+ threshold = int_range 1 4 in
    (match category with
     | None -> Workload.Queries.complex ~threshold
     | Some category -> Workload.Queries.complex_filtered ~category ~threshold ())
  | _ ->
    let pred =
      oneof
        [ map (pp "id >= %d") (int_range 0 200); map (pp "score < %d") (int_range (-50) 50);
          map (pp "tag = 'tag%d'") (int_range 0 5); map (pp "tag <> 'tag%d'") (int_range 0 5);
          map (pp "grp = %d") (int_range 0 7); map (pp "x >= %d.5") (int_range 0 9);
          map (pp "x < %d.0") (int_range 0 9);
          (* constants of another type than the column's typed blocks *)
          map (pp "score < %d.5") (int_range (-50) 50); map (pp "x >= %d") (int_range 0 9);
          map (pp "grp <> %d.5") (int_range 0 6); map (pp "tag < %d") (int_range 0 5);
          map (pp "score >= 'tag%d'") (int_range 0 5); pure "x = NULL"; pure "score <> NULL" ]
    in
    oneof
      [ map2 (pp "SELECT id, tag, score FROM t WHERE %s AND %s") pred pred;
        pure
          "SELECT COUNT(*), COUNT(x), COUNT(grp), SUM(score), MIN(score), MAX(score), AVG(x), \
           AVG(score), MIN(x), MAX(x) FROM t";
        map (pp "SELECT COUNT(*), SUM(score), MIN(x), MAX(x) FROM t WHERE %s") pred;
        map (pp "SELECT grp, COUNT(*), SUM(score), MAX(x) FROM t WHERE %s GROUP BY grp") pred ]

let gen_case =
  let open G in
  let* family = oneofl families in
  let+ tables, burst = gen_data family
  and+ sql = gen_query family
  and+ config = flatten_l (List.map (fun (d, vs) -> map (fun v -> (d, v)) (oneofl vs)) dimensions) in
  { family; tables; burst; sql; config }

(* ---- printing: a case prints as the OCaml value that rebuilds it ---- *)

let show_value = function
  | Value.Null -> "Value.Null"
  | Value.Bool b -> pp "Value.Bool %b" b
  | Value.Int n -> pp (if n < 0 then "iv (%d)" else "iv %d") n
  | Value.Float f when Float.is_nan f -> "fv Float.nan"
  | Value.Float f -> pp (if f < 0. then "fv (%F)" else "fv %F") f
  | Value.Str s -> pp "sv %S" s

let show_table (name, rows) =
  pp "(%S, [ %s ])" name
    (String.concat "; " (List.map (fun r -> "[ " ^ String.concat "; " (List.map show_value r) ^ " ]") rows))

let show_case c =
  pp "{ family = %S;\n  tables = [ %s ];\n  burst = %s;\n  sql = %S;\n  config = [ %s ] }" c.family
    (String.concat ";\n      " (List.map show_table c.tables))
    (match c.burst with None -> "None" | Some b -> "Some " ^ show_table b)
    c.sql
    (String.concat "; " (List.map (fun (d, v) -> pp "(%S, %S)" d v) c.config))

(* ---- running a case ---- *)

(* Every dimension value a run exercised, for the coverage test. *)
let seen : (string, unit) Hashtbl.t = Hashtbl.create 64
let saw key = Hashtbl.replace seen key ()

(* The engine catalog: the case's base tables in its storage and layout,
   plus the sorted indexes BT reads. *)
let engine_catalog c ~tmp =
  let catalog = Catalog.create () in
  List.iter
    (fun (name, rows) ->
      let schema = Schema.of_names (columns name) and rows_a = to_rows rows in
      let save block_size rows =
        let path = tmp () in
        Sic.save_rows ~block_size path schema (Array.to_seq rows);
        path
      in
      let rel =
        match dim c "storage" with
        | "sic resident" -> Sic.load ~mode:`Resident (save 16 rows_a)
        | "sic paged" ->
          (* reload, re-save at another block size, run from the copy *)
          Sic.load ~mode:`Paged (save 16 (Relation.rows (Sic.load ~mode:`Paged (save 8 rows_a))))
        | _ -> Relation.of_cstore (Column.Cstore.of_rows ~block_size:16 schema rows_a)
      in
      let rel = if dim c "layout" = "row" then Relation.to_layout `Row rel else rel in
      add_table catalog name rel (final_rows c name))
    c.tables;
  if dim c "bt" = "on" then
    List.iter
      (fun (name, cols) -> if List.mem_assoc name c.tables then Catalog.build_sorted_index catalog name cols)
      [ ("object", [ "x"; "y" ]); ("ev", [ "k" ]); ("perf_kv", [ "val" ]); ("score", [ "hits"; "hruns" ]) ];
  catalog

(* Stats-invariant violations of every block of a report; records the
   access paths, NLJP verdicts, shared reducers and transfer passes that
   ran. *)
let rec stats_errors (rep : Runner.report) =
  if rep.Runner.transfer <> None then saw "transfer ran";
  List.iter
    (fun n ->
      if String.starts_with ~prefix:"NLJP: skipped (" n then saw "verdict rewrite plan";
      if contains n ": shared with reducer over {" then saw "reducer shared")
    rep.Runner.notes;
  if rep.Runner.nljp_stats <> None then saw "verdict NLJP";
  List.concat_map (fun (_, r) -> stats_errors r) rep.Runner.cte_reports
  @
  match rep.Runner.nljp_stats with
  | None -> []
  | Some s ->
    saw
      (match s.Nljp.access with
       | Nljp.A_hash _ -> "access hash probe"
       | Nljp.A_range_count _ -> "access range count"
       | Nljp.A_scan -> "access row scan");
    if s.Nljp.outer_rows = s.Nljp.inner_evals + s.Nljp.pruned + s.Nljp.memo_hits then []
    else
      [ pp "stats do not partition the outer rows: outer=%d inner_evals=%d pruned=%d memo_hits=%d"
          s.Nljp.outer_rows s.Nljp.inner_evals s.Nljp.pruned s.Nljp.memo_hits ]

(* Append the case's burst to [catalog], returning it as a delta. *)
let append c catalog =
  Option.map
    (fun (table, rows) ->
      let fresh = to_rows rows in
      Catalog.append_rows catalog table fresh;
      (table, Relation.make (Catalog.find catalog table).Catalog.rel.Relation.schema fresh))
    c.burst

let engine c catalog q ~problems =
  let tech, memo_strategy, adaptive_apriori =
    match dim c "tech" with
    | "apriori" -> (Optimizer.only `Apriori, `Nljp, false)
    | "memo" -> (Optimizer.only `Memo, `Nljp, false)
    | "pruning" -> (Optimizer.only `Pruning, `Nljp, false)
    | "none" -> (Optimizer.no_techniques, `Nljp, false)
    | "static memo" -> (Optimizer.only `Memo, `Static_rewrite, false)
    | "adaptive" -> (Optimizer.all_techniques, `Nljp, true)
    | _ -> (Optimizer.all_techniques, `Nljp, false)
  in
  let capped = dim c "order" <> "default" in
  let nljp_config =
    { Nljp.default_config with
      Nljp.inner_index = dim c "bt" = "on";
      cache_index = dim c "ci" = "on";
      outer_order = (if capped then `Desc 0 else `Default);
      max_cache_rows = (if capped then Some 3 else None) }
  in
  let prepare () =
    Runner.prepare ~tech ~nljp_config ~workers:(int_of_string (dim c "workers")) ~memo_strategy
      ~adaptive_apriori ~transfer:(dim c "transfer" <> "off") catalog q
  in
  let run p =
    let r, rep = Runner.run_prepared p in
    problems := stats_errors rep @ !problems;
    r
  in
  if dim c "plan" = "run" || c.burst = None then begin
    ignore (append c catalog);
    run (prepare ())
  end
  else begin
    (* the append makes the plan stale: it is refused and prepared again *)
    let p = prepare () in
    ignore (run p);
    ignore (append c catalog);
    (match Runner.run_prepared p with
     | _ -> problems := "a plan prepared before the append ran" :: !problems
     | exception Invalid_argument _ -> ());
    run (prepare ())
  end

(* The partial-state answer, or [None] when the query has no delta rule. *)
let partials c catalog q =
  Option.map
    (fun view ->
      match append c catalog with
      | None -> Delta.result view
      | Some (table, delta) -> (
        match Delta.fold (Delta.state view) ~table ~delta with
        | Ok _ -> Delta.result view
        | Error _ -> Delta.result (Option.get (Delta.init catalog q))))
    (Delta.init catalog q)

(* [Error report] when the case diverges from the baseline. *)
let run_case c =
  let q = Sqlfront.Parser.parse c.sql in
  let expected =
    Runner.run_baseline (row_catalog (List.map (fun (n, _) -> (n, final_rows c n)) c.tables)) q
  in
  let files = ref [] in
  let tmp () =
    let path = Filename.temp_file "oracle" ".sic" in
    files := path :: !files;
    path
  in
  let paged = dim c "storage" = "sic paged" in
  let cache_mb = Column.Blockcache.capacity_bytes () / (1024 * 1024) in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) !files;
      if paged then Column.Blockcache.set_capacity_mb cache_mb)
  @@ fun () ->
  with_ref Optimizer.transfer_force (dim c "transfer" <> "off") @@ fun () ->
  with_ref Column.Bloom.test_force_bits (if dim c "transfer" = "tiny bloom" then Some 63 else None)
  @@ fun () ->
  if paged then Column.Blockcache.set_capacity_mb 1;
  let catalog = engine_catalog c ~tmp in
  let problems = ref [] in
  let got, disposition =
    match if dim c "disposition" = "partials" then partials c catalog q else None with
    | Some r -> (r, "partials")
    | None -> (engine c catalog q ~problems, "engine")
  in
  List.iter
    (fun (d, v) -> saw (d ^ " " ^ v))
    (("disposition", disposition) :: List.remove_assoc "disposition" c.config);
  saw ("family " ^ c.family);
  saw (if c.burst = None then "history fresh" else "history appended");
  if not (Relation.equal_bag expected got) then
    problems :=
      pp "%s result differs from the baseline\nexpected (%d rows):\n%sgot (%d rows):\n%s"
        disposition (Relation.cardinality expected)
        (Relation.to_string ~max_rows:30 (Relation.sorted expected))
        (Relation.cardinality got)
        (Relation.to_string ~max_rows:30 (Relation.sorted got))
      :: !problems;
  match !problems with [] -> Ok () | ps -> Error (String.concat "\n" ps)

(* ---- the suite ---- *)

let defaults = List.map (fun (d, vs) -> (d, List.hd vs)) dimensions

let case ?(config = defaults) family tables sql = { family; tables; burst = None; sql; config }

(* Fixed tables of the NLJP-verdict and mirror-reducer cases, which the
   unit tests of both mechanisms read too. *)
let memo_pays_basket = List.init 48 (fun i -> [ iv (i mod 4); sv (if i mod 3 = 0 then "a" else "b") ])

let mirror_kv =
  List.concat_map
    (fun id -> List.map (fun a -> [ iv id; sv (pp "c%d" (id mod 3)); sv (pp "a%d" a); iv ((id * 7 + a * 3) mod 10) ]) [ 0; 1; 2 ])
    (List.init 8 Fun.id)

(* Shrunk failures, oldest first; each runs before the random cases. *)
let regressions =
  [ (* a-priori took all columns of a keyless table for a superkey: the
       reducer over {i2} dropped i1, yet one i1 row pairs with three i0 *)
    case "basket"
      [ ("basket", [ [ iv 0; sv "i0" ]; [ iv 0; sv "i0" ]; [ iv 0; sv "i0" ]; [ iv 0; sv "i1" ] ]) ]
      (Workload.Queries.listing1 ~threshold:2);
    (* the hash join paired a NaN key with itself; NaN = NaN is false *)
    case "basket"
      [ ("basket", [ [ iv 0; sv "i0" ]; [ fv Float.nan; sv "i0" ] ]) ]
      (Workload.Queries.listing1 ~threshold:1);
    (* a SUM that overflowed mid-fold depended on the fold order: 0 one way,
       1 the other *)
    case "skyband"
      ~config:(("disposition", "partials") :: List.remove_assoc "disposition" defaults)
      [ ("object", [ [ iv 0; iv 0; iv 0 ]; [ iv 1; iv 0; iv max_int ]; [ iv 2; iv 0; iv 2 ]; [ iv 3; iv 0; iv min_int ] ]) ]
      "SELECT L.id, COUNT(*), SUM(R.y) FROM object L, object R WHERE L.x <= R.x GROUP BY L.id HAVING COUNT(*) >= 0";
    (* ints beyond 2^53 compared through floats: min_int + 1 looked equal to
       min_int, so pruning dropped a pair the baseline keeps *)
    case "pairs"
      [ ( "score",
          [ [ iv 0; iv 0; iv 0; iv 1; iv 0; iv 0 ]; [ iv 3; iv 0; iv 0; iv 1; iv 0; iv 0 ];
            [ iv 1; iv 1; iv 2; iv 2; iv min_int; iv 0 ]; [ iv 1; iv 1; iv 0; iv 1; fv 0.; iv 0 ];
            [ iv 1; iv 1; iv 0; iv 2; iv 1; iv 0 ]; [ iv 2; iv 2; iv 0; iv 1; iv min_int; iv 0 ];
            [ iv 3; iv 2; iv 0; iv 1; iv 0; iv 0 ]; [ iv 4; iv 1; iv 2; iv 2; iv 0; iv 0 ];
            [ iv 4; iv 1; iv 0; iv 1; fv 0.; iv 0 ]; [ iv 7; iv 1; iv 2; iv 2; iv 0; iv 0 ];
            [ iv 7; iv 1; iv 0; iv 2; fv 0.; Value.Null ] ] ) ]
      (pairs_sql "SUM" 1 2);
    (* a float partial at 2^52 hides its 0.5: merging the burst's 1 into it
       gave 2^52 + 1, a recompute 2^52 + 2 *)
    { (case "skyband"
         ~config:(("disposition", "partials") :: List.remove_assoc "disposition" defaults)
         [ ("object", [ [ iv 0; iv 0; iv (1 lsl 52) ]; [ iv 1; iv 0; fv 0.5 ] ]) ]
         "SELECT L.id, COUNT(*), SUM(R.y) FROM object L, object R WHERE L.x <= R.x GROUP BY L.id HAVING COUNT(*) >= 0")
      with burst = Some ("object", [ [ iv 1000; iv 0; iv 1 ] ]) };
    (* the memo pays: twelve rows per basket fold into two items, so NLJP
       stays although pruning is off (no key: the rows repeat) *)
    case "basket" [ ("basket", memo_pays_basket) ] (Workload.Queries.listing1 ~threshold:2);
    (* σ on S1 only: the two reducers differ and must not share *)
    case "complex" [ ("perf_kv", mirror_kv) ]
      (Workload.Queries.complex_filtered ~category:"c1" ~threshold:1 ()) ]

let oracle =
  QCheck2.Test.make ~name:"every configuration returns the baseline's rows" ~count:800
    ~print:show_case gen_case (fun c ->
      match run_case c with Ok () -> true | Error m -> QCheck2.Test.fail_report m)

let test_regressions () =
  List.iteri
    (fun i c ->
      match run_case c with
      | Ok () -> ()
      | Error m -> Alcotest.failf "regression %d:\n%s\n%s" i (show_case c) m)
    regressions

(* Every family and every value of every dimension ran in at least one case
   of this seed — the disposition as it took effect (a query without a delta
   rule runs on the engine) — and so did every NLJP inner access path, both
   NLJP verdicts, a shared mirror reducer and a predicate-transfer pass. *)
let test_coverage () =
  let expected =
    List.map (( ^ ) "family ") families
    @ List.concat_map (fun (d, vs) -> List.map (fun v -> d ^ " " ^ v) vs) dimensions
    @ [ "history fresh"; "history appended"; "access hash probe"; "access range count";
        "access row scan"; "transfer ran"; "verdict NLJP"; "verdict rewrite plan";
        "reducer shared" ]
  in
  if Hashtbl.length seen = 0 then Alcotest.fail "run the oracle property first";
  match List.filter (fun k -> not (Hashtbl.mem seen k)) expected with
  | [] -> ()
  | missing -> Alcotest.failf "never exercised: %s" (String.concat ", " missing)

let suite =
  [ Alcotest.test_case "regressions" `Quick test_regressions;
    QCheck_alcotest.to_alcotest oracle;
    Alcotest.test_case "coverage" `Quick test_coverage ]
