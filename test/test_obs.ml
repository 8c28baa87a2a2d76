(* lib/obs: sharded counters (including merge determinism when NLJP runs
   Domain-parallel), trace JSON round-trips, and EXPLAIN golden output. *)
open Relalg
open Helpers

let t name f = Alcotest.test_case name `Quick f

(* ---- counters ---- *)

let test_counter_basics () =
  let c = Obs.Metrics.counter "test.basics" in
  Obs.Metrics.reset c;
  Obs.Metrics.incr c;
  Obs.Metrics.add c 41;
  Alcotest.(check int) "read" 42 (Obs.Metrics.read c);
  Alcotest.(check string) "name" "test.basics" (Obs.Metrics.name c);
  Alcotest.(check bool) "same name, same counter" true
    (Obs.Metrics.read (Obs.Metrics.counter "test.basics") = 42);
  Obs.Metrics.reset c;
  Alcotest.(check int) "reset" 0 (Obs.Metrics.read c)

let test_counter_merge_across_domains () =
  (* Each domain increments its private cell; the joined total must be
     exact — no lost updates, no double counting. *)
  let c = Obs.Metrics.counter "test.merge" in
  Obs.Metrics.reset c;
  let per_domain = 25_000 and domains = 4 in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.Metrics.incr c
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "merged total" (domains * per_domain) (Obs.Metrics.read c)

let test_snapshot_delta () =
  let c = Obs.Metrics.counter "test.delta" in
  Obs.Metrics.reset c;
  let before = Obs.Metrics.snapshot () in
  Obs.Metrics.add c 7;
  let d = Obs.Metrics.delta ~before ~after:(Obs.Metrics.snapshot ()) in
  Alcotest.(check (option int)) "moved counter appears" (Some 7)
    (List.assoc_opt "test.delta" d);
  Alcotest.(check bool) "unmoved counters are absent" false
    (List.mem_assoc "test.basics" d)

(* ---- deterministic totals: sequential vs SI_WORKERS>1 NLJP ---- *)

let obs_catalog () =
  let catalog = Catalog.create () in
  let n = 600 in
  Catalog.add_table catalog "ev"
    (rel [ "k"; "x" ]
       (List.init n (fun i -> [ iv i; fv (float_of_int (i mod 83)) ])));
  Catalog.add_table catalog ~keys:[ [ "id" ] ] "probe"
    (rel [ "id"; "lo"; "hi" ]
       (List.init 40 (fun i ->
            let lo = i * 37 mod 500 in
            [ iv i; iv lo; iv (lo + 60) ])));
  Catalog.set_all_layouts catalog `Column;
  catalog

let obs_sql =
  "SELECT L.id, COUNT(*), SUM(R.x) FROM probe L, ev R WHERE R.k >= L.lo AND \
   R.k <= L.hi GROUP BY L.id HAVING COUNT(*) >= 1"

let run_counting workers =
  let q = Sqlfront.Parser.parse obs_sql in
  let before = Obs.Metrics.snapshot () in
  let r, _ = Core.Runner.run ~workers (obs_catalog ()) q in
  (r, Obs.Metrics.delta ~before ~after:(Obs.Metrics.snapshot ()))

let test_parallel_totals () =
  let counter d name = Option.value (List.assoc_opt name d) ~default:0 in
  let r1, d1 = run_counting 1 in
  let r3, d3 = run_counting 3 in
  check_bag "results agree" r1 r3;
  Alcotest.(check bool) "outer rows flowed" true
    (counter d1 "nljp.outer_rows" > 0);
  (* The outer relation is the same either way, so its size — and the
     memo/prune/eval partition of it — must not depend on the domain
     count. *)
  List.iter
    (fun name ->
      Alcotest.(check int) name (counter d1 name) (counter d3 name))
    [ "nljp.outer_rows"; "nljp.inner_evals"; "nljp.pruned"; "nljp.memo_hits" ];
  List.iter
    (fun d ->
      Alcotest.(check int) "evals + pruned + memo hits partition the outer"
        (counter d "nljp.outer_rows")
        (counter d "nljp.inner_evals" + counter d "nljp.pruned"
        + counter d "nljp.memo_hits"))
    [ d1; d3 ]

(* ---- bucket quantile estimation ---- *)

let test_hist_quantiles () =
  let h = Obs.Metrics.histogram "test.quant_ms" in
  Obs.Metrics.hist_reset h;
  (* 90 fast observations in [2,4), 10 slow in [64,128): p50 must land in
     the fast bucket, p95/p99 in the slow one — within the buckets'
     factor-of-2 resolution. *)
  for _ = 1 to 90 do
    Obs.Metrics.observe h 3.
  done;
  for _ = 1 to 10 do
    Obs.Metrics.observe h 100.
  done;
  let s = Obs.Metrics.hist_read h in
  Alcotest.(check int) "count" 100 s.Obs.Metrics.hs_count;
  let p50 = Obs.Metrics.hist_quantile s 0.5 in
  let p95 = Obs.Metrics.hist_quantile s 0.95 in
  let p99 = Obs.Metrics.hist_quantile s 0.99 in
  Alcotest.(check bool) "p50 in the fast bucket" true (p50 >= 2. && p50 <= 4.);
  Alcotest.(check bool) "p95 in the slow bucket" true
    (p95 >= 64. && p95 <= 128.);
  Alcotest.(check bool) "quantiles are monotone" true (p50 <= p95 && p95 <= p99);
  (* edge cases: empty histogram, and q clamped to [0,1] *)
  Alcotest.(check (float 0.)) "empty reads 0" 0.
    (Obs.Metrics.quantile_of_buckets (Array.make 64 0) 0 0.5);
  Alcotest.(check bool) "q is clamped" true
    (Obs.Metrics.hist_quantile s 2. >= Obs.Metrics.hist_quantile s 1.)

(* ---- rolling windows ---- *)

let feq msg want got =
  if Float.abs (want -. got) > 1e-9 then
    Alcotest.failf "%s: expected %g, got %g" msg want got

let test_rolling_rotation () =
  (* Injected clock: deterministic window boundaries, including a clock
     that skips many windows at once. *)
  let now = ref 0.5 in
  let r =
    Obs.Rolling.roll ~window_s:1. ~windows:3
      ~clock:(fun () -> !now)
      "test.roll_rot"
  in
  Obs.Rolling.reset r;
  Obs.Rolling.observe r 3.;
  Obs.Rolling.observe r 3.;
  let s = Obs.Rolling.read r in
  Alcotest.(check int) "both land in window 0" 2 s.Obs.Rolling.rs_count;
  feq "sum" 6. s.Obs.Rolling.rs_sum;
  Alcotest.(check bool) "p50 in the value's bucket" true
    (s.Obs.Rolling.rs_p50 >= 2. && s.Obs.Rolling.rs_p50 <= 4.);
  (* next window: both windows are inside the 3-window horizon *)
  now := 1.5;
  Obs.Rolling.observe r 3.;
  Alcotest.(check int) "merged across two live windows" 3
    (Obs.Rolling.read r).Obs.Rolling.rs_count;
  (* window 0 ages out of the horizon; window 1 survives *)
  now := 3.2;
  let s = Obs.Rolling.read r in
  Alcotest.(check int) "oldest window aged out" 1 s.Obs.Rolling.rs_count;
  feq "surviving sum" 3. s.Obs.Rolling.rs_sum;
  (* clock skips far past every window: the roll reads empty without any
     catch-up work, and quantiles degrade to 0 *)
  now := 100.25;
  let s = Obs.Rolling.read r in
  Alcotest.(check int) "all windows stale after a skip" 0
    s.Obs.Rolling.rs_count;
  feq "empty rate" 0. s.Obs.Rolling.rs_rate;
  feq "empty p95" 0. s.Obs.Rolling.rs_p95;
  (* the next write recycles a stale cell in place *)
  Obs.Rolling.observe r 5.;
  let s = Obs.Rolling.read r in
  Alcotest.(check int) "write after skip starts fresh" 1
    s.Obs.Rolling.rs_count;
  feq "fresh sum" 5. s.Obs.Rolling.rs_sum

let test_rolling_rate () =
  let now = ref 20.25 in
  let r =
    Obs.Rolling.roll ~window_s:1. ~windows:6
      ~clock:(fun () -> !now)
      "test.roll_rate"
  in
  Obs.Rolling.reset r;
  Obs.Rolling.mark ~n:10 r;
  (* covered span runs from the live window's start (t=20) to now (20.25):
     the rate is not diluted by the five windows that never existed *)
  feq "rate over covered span" 40. (Obs.Rolling.read r).Obs.Rolling.rs_rate;
  now := 21.5;
  Obs.Rolling.mark ~n:5 r;
  (* span 20..21.5, 15 events *)
  feq "rate across two windows" 10. (Obs.Rolling.read r).Obs.Rolling.rs_rate;
  Alcotest.(check bool) "same name returns the same roll" true
    (Obs.Rolling.name (Obs.Rolling.roll "test.roll_rate") = "test.roll_rate")

let test_rolling_concurrent () =
  (* Concurrent observe from several domains: totals must be exact — the
     mutex serializes cell updates; nothing is lost or double-counted.
     The window is far wider than the test's runtime, so no rotation. *)
  let r = Obs.Rolling.roll ~window_s:3600. ~windows:2 "test.roll_conc" in
  Obs.Rolling.reset r;
  let per_domain = 25_000 and domains = 4 in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.Rolling.observe r 2.
            done))
  in
  List.iter Domain.join workers;
  let s = Obs.Rolling.read r in
  Alcotest.(check int) "exact count" (domains * per_domain)
    s.Obs.Rolling.rs_count;
  feq "exact sum" (float_of_int (domains * per_domain) *. 2.)
    s.Obs.Rolling.rs_sum;
  Alcotest.(check bool) "p50 lands in the observed bucket" true
    (s.Obs.Rolling.rs_p50 >= 2. && s.Obs.Rolling.rs_p50 <= 4.)

(* ---- metric-name audit ---- *)

(* DESIGN.md §15: every registered counter, histogram and roll is named
   `subsystem.name` — dotted lowercase [a-z0-9_] segments, at least two —
   so the Prometheus exporter's mangling (dots to underscores) is
   collision-free and dashboards can group by prefix. *)
let valid_metric_name n =
  let ok_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' in
  let parts = String.split_on_char '.' n in
  List.length parts >= 2
  && List.for_all (fun p -> p <> "" && String.for_all ok_char p) parts

let test_metric_name_convention () =
  Alcotest.(check bool) "validator accepts" true
    (List.for_all valid_metric_name
       [ "serve.query_ms"; "nljp.outer_rows"; "sic.cache_hits" ]);
  Alcotest.(check bool) "validator rejects" false
    (List.exists valid_metric_name
       [ "queries"; "Serve.queries"; "serve..x"; "serve."; ".serve";
         "serve.q-ms"; "serve.q ms" ]);
  (* Force-register every subsystem's metrics (most are registered at
     module init by the libraries this binary links), then audit the
     registries. *)
  ignore (Obs.Metrics.counter "test.audit_probe");
  List.iter
    (fun n ->
      if not (valid_metric_name n) then
        Alcotest.failf "counter %S violates the subsystem.name convention" n)
    (List.map fst (Obs.Metrics.snapshot ()));
  List.iter
    (fun (h : Obs.Metrics.hist_summary) ->
      if not (valid_metric_name h.Obs.Metrics.hs_name) then
        Alcotest.failf "histogram %S violates the subsystem.name convention"
          h.Obs.Metrics.hs_name)
    (Obs.Metrics.hist_snapshot ());
  List.iter
    (fun (s : Obs.Rolling.snap) ->
      if not (valid_metric_name s.Obs.Rolling.rs_name) then
        Alcotest.failf "roll %S violates the subsystem.name convention"
          s.Obs.Rolling.rs_name)
    (Obs.Rolling.snapshot_all ())

(* ---- trace JSON ---- *)

let test_span_roundtrip () =
  let root = Obs.Span.enter "query" in
  let child =
    Obs.Span.with_span ~parent:root "execute" (fun s ->
        Obs.Span.set_counter s "outer_rows" 123;
        Obs.Span.set_counter s "memo_hits" 7;
        Obs.Span.note s "range count off: disabled by configuration";
        s.Obs.Span.rows_out <- Some 40;
        s)
  in
  Obs.Span.finish ~rows_in:10 ~rows_out:40 root;
  let r = Obs.Span.of_json_string (Obs.Span.to_json_string root) in
  Alcotest.(check string) "name" "query" r.Obs.Span.name;
  Alcotest.(check (option int)) "rows_in" (Some 10) r.Obs.Span.rows_in;
  Alcotest.(check (option int)) "rows_out" (Some 40) r.Obs.Span.rows_out;
  (match Obs.Span.children r with
   | [ c ] ->
     Alcotest.(check string) "child name" "execute" c.Obs.Span.name;
     Alcotest.(check (option int)) "child rows_out" (Some 40) c.Obs.Span.rows_out;
     Alcotest.(check (list (pair string int))) "counters"
       c.Obs.Span.counters child.Obs.Span.counters;
     Alcotest.(check (list string)) "notes" child.Obs.Span.notes c.Obs.Span.notes;
     Alcotest.(check bool) "duration preserved" true
       (Float.abs (c.Obs.Span.dur_ms -. child.Obs.Span.dur_ms) < 1e-6)
   | cs -> Alcotest.failf "expected 1 child, got %d" (List.length cs));
  (* the EXPLAIN ANALYZE text renders every node *)
  let text = Obs.Span.to_text root in
  Alcotest.(check bool) "text tree mentions both spans" true
    (contains text "query" && contains text "execute")

let test_trace_json_schema () =
  let root = Obs.Span.enter "query" in
  ignore (Obs.Span.with_span ~parent:root "parse" (fun s -> s));
  Obs.Span.finish root;
  let j = Obs.Span.trace_json root in
  (match Obs.Json.member "trace" j with
   | Some tr ->
     Alcotest.(check bool) "trace.name" true
       (Obs.Json.member "name" tr = Some (Obs.Json.Str "query"))
   | None -> Alcotest.fail "no trace member");
  (match Obs.Json.member "metrics" j with
   | Some (Obs.Json.Obj _) -> ()
   | _ -> Alcotest.fail "no metrics object");
  (* the document survives its own printer/parser *)
  match Obs.Json.of_string (Obs.Json.to_string j) with
  | Obs.Json.Obj _ -> ()
  | _ -> Alcotest.fail "trace document did not round-trip"

let test_span_roundtrip_hostile_strings () =
  (* Names and notes with every character class the escaper must handle:
     quotes, backslashes, newlines, tabs, raw control characters, and
     multi-byte UTF-8 (emitted byte-for-byte, not \u-escaped). *)
  let hostile =
    "he said \"hi\\there\"\nline2\ttab \x01\x1f ctrl \xc3\xa9 utf8"
  in
  let root = Obs.Span.enter hostile in
  Obs.Span.note root hostile;
  Obs.Span.set_counter root hostile 3;
  root.Obs.Span.rows_out <- Some 1;
  root.Obs.Span.dur_ms <- 0.5;
  let r = Obs.Span.of_json_string (Obs.Span.to_json_string root) in
  Alcotest.(check string) "name" hostile r.Obs.Span.name;
  Alcotest.(check (list string)) "notes" [ hostile ] r.Obs.Span.notes;
  Alcotest.(check (list (pair string int))) "counters" [ (hostile, 3) ]
    r.Obs.Span.counters

let test_json_escapes () =
  (* \uXXXX escapes decode to UTF-8, including surrogate pairs; printing
     non-finite numbers degrades to null instead of emitting invalid JSON. *)
  (match Obs.Json.of_string "\"\\u00e9 \\u0041 \\ud83d\\ude00\"" with
   | Obs.Json.Str s -> Alcotest.(check string) "decoded" "\xc3\xa9 A \xf0\x9f\x98\x80" s
   | _ -> Alcotest.fail "expected a string");
  Alcotest.(check string) "nan prints as null" "null"
    (Obs.Json.to_string (Obs.Json.Num Float.nan));
  Alcotest.(check string) "inf prints as null" "null"
    (Obs.Json.to_string (Obs.Json.Num Float.infinity));
  let s = Obs.Json.to_string (Obs.Json.Str "\x00\x07\x1b") in
  Alcotest.(check bool) "control chars are escaped" true
    (contains s "\\u0000" && not (contains s "\x00"))

let test_json_parser () =
  let s = "{\"a\": [1, 2.5, null, true, \"x\\n\\\"y\\\"\"], \"b\": {}}" in
  let j = Obs.Json.of_string s in
  (match Obs.Json.member "a" j with
   | Some (Obs.Json.Arr [ Obs.Json.Num 1.; Obs.Json.Num 2.5; Obs.Json.Null;
                          Obs.Json.Bool true; Obs.Json.Str "x\n\"y\"" ]) -> ()
   | _ -> Alcotest.fail "array members");
  Alcotest.(check bool) "reprint parses back" true
    (Obs.Json.of_string (Obs.Json.to_string j) = j)

(* ---- EXPLAIN goldens (substring checks, not byte-for-byte) ---- *)

let test_explain_simple () =
  let catalog = objects_catalog (List.init 30 (fun i -> (i mod 4, i * 5 mod 9))) in
  let q =
    Sqlfront.Parser.parse
      "SELECT L.id, COUNT(*) FROM object L, object R WHERE L.x = R.x AND \
       L.y <= R.y GROUP BY L.id HAVING COUNT(*) <= 3"
  in
  let out = Core.Explain.query catalog q in
  List.iter
    (fun needle ->
      if not (contains out needle) then
        Alcotest.failf "EXPLAIN output missing %S:\n%s" needle out)
    [ "query:"; "NLJP outer side:"; "NLJP component queries:"; "(pruning on)";
      "inner access path: hash probe"; "baseline physical plan (cost model):";
      "Scan object" ]

(* The NLJP verdict, printed with the estimates that decided it: basket
   pairs (each inner row of a binding its own partition) runs the
   rewrite-only plan; with many rows per basket folding into two items the
   memo pays and NLJP stays. *)
let test_explain_verdict () =
  let listing1 = Workload.Queries.listing1 ~threshold:2 in
  let skipped = Obs.Metrics.counter "optimizer.nljp_skipped" in
  let before = Obs.Metrics.read skipped in
  let out = Core.Explain.query (basket_catalog ()) (Sqlfront.Parser.parse listing1) in
  List.iter
    (fun needle ->
      if not (contains out needle) then
        Alcotest.failf "EXPLAIN output missing %S:\n%s" needle out)
    [ "plan: 2 a-priori reducers, baseline join";
      "note: NLJP: skipped (outer side {i1}; pruning off; est 2.0 memo partitions per \
       binding for 2.0 inner rows per binding)";
      "reducer over {i2}: shared with reducer over {i1}" ];
  Alcotest.(check int) "skip counted" (before + 1) (Obs.Metrics.read skipped);
  let catalog = Catalog.create () in
  Catalog.add_table catalog "basket" (rel [ "bid"; "item" ] Oracle.memo_pays_basket);
  let out = Core.Explain.query catalog (Sqlfront.Parser.parse listing1) in
  if not (contains out "est 2.0 memo partitions per binding for 12.0 inner rows per binding)")
  then Alcotest.failf "memo verdict missing:\n%s" out;
  if not (contains out "NLJP outer side: {i1}") then Alcotest.failf "NLJP not kept:\n%s" out

let complex_catalog () =
  (* The real unpivoted baseball table: its catalog facts (keys, value
     domains) are what make the a-priori reducers provably safe. *)
  let catalog = Catalog.create () in
  ignore (Workload.Baseball.register_unpivoted catalog ~rows:400 ~seed:2017);
  catalog

let complex_sql =
  "SELECT S1.id, S1.attr, S2.attr, COUNT(*) FROM perf_kv S1, perf_kv S2, \
   perf_kv T1, perf_kv T2 WHERE S1.id = S2.id AND T1.id = T2.id AND \
   S1.category = T1.category AND T1.attr = S1.attr AND T2.attr = S2.attr \
   AND T1.val > S1.val AND T2.val > S2.val GROUP BY S1.id, S1.attr, S2.attr \
   HAVING COUNT(*) >= 3"

let test_explain_complex () =
  let out =
    Core.Explain.query (complex_catalog ()) (Sqlfront.Parser.parse complex_sql)
  in
  List.iter
    (fun needle ->
      if not (contains out needle) then
        Alcotest.failf "EXPLAIN output missing %S:\n%s" needle out)
    [ "a-priori reducer on"; "NLJP outer side:"; "Q_B (binding query";
      "memoization: on"; "inner access path:";
      "baseline physical plan (cost model):" ];
  (* EXPLAIN must not execute: the same catalog explains a query whose
     execution would throw (division by zero in the HAVING threshold is
     not needed — instead check a filter over a missing-at-runtime value
     is still planned).  Cheap proxy: explaining twice is idempotent and
     leaves no temp tables behind. *)
  let again =
    Core.Explain.query (complex_catalog ()) (Sqlfront.Parser.parse complex_sql)
  in
  Alcotest.(check string) "idempotent" out again

(* EXPLAIN plans without executing: on a column-layout catalog, explaining
   the filtered complex query (whose reducers a run materializes) scans no
   column block. *)
let test_explain_runs_no_reducer () =
  let catalog = Catalog.create () in
  ignore (Workload.Baseball.register_unpivoted catalog ~rows:4000 ~seed:2017);
  Catalog.set_all_layouts catalog `Column;
  let q =
    Sqlfront.Parser.parse (Workload.Queries.complex_filtered ~threshold:3 ())
  in
  let before = Colscan.counters () in
  let out = Core.Explain.query catalog q in
  Alcotest.(check bool) "reducers are explained" true
    (contains out "reducer over {S1, T1}: ");
  Alcotest.(check (pair int int)) "no column block scanned" before (Colscan.counters ())

(* EXPLAIN of a WITH query registers its CTE blocks as temp tables, which
   leave the catalog version alone (caches keyed by it stay valid). *)
let test_explain_cte_keeps_version () =
  let catalog = Catalog.create () in
  ignore (Workload.Baseball.register catalog ~rows:200 ~seed:2017);
  let q = Sqlfront.Parser.parse (Workload.Queries.pairs ~c:2 ~k:20 ()) in
  let v0 = Catalog.version catalog in
  let out = Core.Explain.query catalog q in
  Alcotest.(check bool) "CTE flagged" true (contains out "(materialized for planning)");
  Alcotest.(check int) "version unchanged" v0 (Catalog.version catalog);
  Alcotest.(check (list string)) "temp tables dropped"
    [ Workload.Baseball.table_name ] (Catalog.table_names catalog)

let test_explain_baseline_shape () =
  (* Outside the iceberg shape (no HAVING): flagged, with cost model only. *)
  let catalog = basket_catalog () in
  let q = Sqlfront.Parser.parse "SELECT item FROM basket WHERE bid >= 2" in
  let out = Core.Explain.query catalog q in
  Alcotest.(check bool) "flagged as not optimized" true
    (contains out "not optimized: outside the iceberg query shape");
  Alcotest.(check bool) "still costed" true
    (contains out "baseline physical plan (cost model):")

let suite =
  [ t "counter basics" test_counter_basics;
    t "counter cells merge across domains" test_counter_merge_across_domains;
    t "snapshot delta reports movement only" test_snapshot_delta;
    t "NLJP counter totals match sequential under workers>1"
      test_parallel_totals;
    t "histogram quantile estimation (p50/p95/p99, edges)" test_hist_quantiles;
    t "rolling windows rotate, age out and survive clock skips"
      test_rolling_rotation;
    t "rolling rate covers the live span only" test_rolling_rate;
    t "rolling totals exact under concurrent observe" test_rolling_concurrent;
    t "metric names follow the subsystem.name convention"
      test_metric_name_convention;
    t "span tree round-trips through JSON" test_span_roundtrip;
    t "hostile strings survive the span JSON round-trip"
      test_span_roundtrip_hostile_strings;
    t "json escape handling (\\u decode, non-finite nums)" test_json_escapes;
    t "trace document has trace + metrics members" test_trace_json_schema;
    t "json printer/parser round-trip" test_json_parser;
    t "EXPLAIN simple iceberg query" test_explain_simple;
    t "EXPLAIN prints the NLJP verdict" test_explain_verdict;
    t "EXPLAIN four-way complex query" test_explain_complex;
    t "EXPLAIN runs no a-priori reducer" test_explain_runs_no_reducer;
    t "EXPLAIN of a WITH query keeps the catalog version"
      test_explain_cte_keeps_version;
    t "EXPLAIN non-iceberg query falls back to cost model"
      test_explain_baseline_shape ]
