(* Benchmark harness regenerating every figure of the paper's evaluation
   (§8): Figures 1-8 plus the Appendix E plans.  Run all targets with

     dune exec bench/main.exe

   or individual ones:

     dune exec bench/main.exe -- fig1 fig5 plans micro [--rows N]

   Row counts are scaled down from the paper's 3×10^5 (our substrate is an
   in-memory interpreter, not PostgreSQL on a testbed); the claims under
   test are the *shapes* — who wins, by roughly what factor, where the
   crossovers fall.  See EXPERIMENTS.md for the paper-vs-measured record. *)

open Relalg

let default_rows =
  match Sys.getenv_opt "SI_ROWS" with Some s -> int_of_string s | None -> 6000

let rows = ref default_rows
let seed = 2017

(* SI_WORKERS overrides both the Vendor A domain count and the default
   worker count of the `par` target (also settable with --workers). *)
let env_workers = Option.map int_of_string (Sys.getenv_opt "SI_WORKERS")
let par_workers = ref (Option.value env_workers ~default:4)

(* --layout column (or SI_LAYOUT=column) stores every generated table in
   chunked columnar form, so filtered scans go through the zone-map
   block-skipping path; results are checked bag-equal either way. *)
let layout : [ `Row | `Column ] ref =
  ref
    (match Sys.getenv_opt "SI_LAYOUT" with
     | Some ("column" | "col") -> `Column
     | _ -> `Row)

let layout_name () = match !layout with `Row -> "row" | `Column -> "column"

(* --no-transfer forces predicate transfer off; otherwise the runner's own
   SI_TRANSFER default applies (on unless 0/false/off/no). *)
let transfer_opt : bool option ref = ref None

let transfer_enabled () =
  match !transfer_opt with
  | Some b -> b
  | None ->
    (match Sys.getenv_opt "SI_TRANSFER" with
     | Some ("0" | "false" | "off" | "no") -> false
     | _ -> true)

(* Smart-path runner honoring the bench-wide transfer switch. *)
let run_smart ?tech ?workers ?memo_strategy ?adaptive_apriori catalog q =
  Core.Runner.run ?tech ?workers ?memo_strategy ?adaptive_apriori
    ?transfer:!transfer_opt catalog q

(* ---- machine-readable results (--json FILE) ---- *)

type json_row = {
  j_name : string;
  j_technique : string;
  j_workers : int;
  j_layout : string;
  j_transfer : bool;  (* the SI_TRANSFER / --no-transfer switch *)
  j_ms_raw : float;
  j_ms_scaled : float;
  j_load_ms : float option;
      (* data-load time (synthetic generation / CSV parse + layout build)
         behind this measurement — informational, never a gate *)
  j_counters : (string * int) list;
      (* operator counters under the lib/obs names (nljp., colscan. and
         optimizer. prefixes), captured as snapshot deltas around the run *)
  j_max_rss_mb : float;  (* process peak RSS when the row was recorded *)
}

let json_path = ref None
let json_rows : json_row list ref = ref []

(* Peak resident set of this process in MB, from /proc/self/status (VmHWM),
   with the GC's top-of-heap as a portable fallback.  Process-wide and
   monotonic, so per-row values record "the peak so far", not a per-bench
   footprint — informational, never a gate. *)
let max_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          let line = input_line ic in
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
          else scan ()
        in
        scan ())
  in
  try from_proc ()
  with _ ->
    let st = Gc.quick_stat () in
    float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. (1024. *. 1024.)

(* Short commit identifier stamped into every JSON artifact, so a results
   file can always be traced back to the tree that produced it. *)
let git_sha =
  lazy
    (match Sys.getenv_opt "GITHUB_SHA" with
     | Some s when String.length s >= 7 -> String.sub s 0 7
     | Some s when s <> "" -> s
     | _ ->
       (try
          let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
          let line = try String.trim (input_line ic) with End_of_file -> "" in
          ignore (Unix.close_process_in ic);
          if line = "" then "unknown" else line
        with _ -> "unknown"))

let record ?(workers = 1) ?(counters = []) ?ms_scaled ?load_ms ~technique name
    ms_raw =
  json_rows :=
    {
      j_name = name;
      j_technique = technique;
      j_workers = workers;
      j_layout = layout_name ();
      j_transfer = transfer_enabled ();
      j_ms_raw = ms_raw;
      j_ms_scaled = Option.value ms_scaled ~default:ms_raw;
      j_load_ms = load_ms;
      j_counters = counters;
      j_max_rss_mb = max_rss_mb ();
    }
    :: !json_rows

let counters_json counters : Obs.Json.t =
  Obs.Json.Obj
    (List.map (fun (k, v) -> (k, Obs.Json.Num (float_of_int v))) counters)

let row_to_json r : Obs.Json.t =
  Obs.Json.Obj
    ([
      ("name", Obs.Json.Str r.j_name);
      ("technique", Obs.Json.Str r.j_technique);
      ("workers", Obs.Json.Num (float_of_int r.j_workers));
      ("layout", Obs.Json.Str r.j_layout);
      ("git_sha", Obs.Json.Str (Lazy.force git_sha));
      ("si_transfer", Obs.Json.Bool r.j_transfer);
      ("ms_raw", Obs.Json.Num r.j_ms_raw);
      ("ms_scaled", Obs.Json.Num r.j_ms_scaled);
    ]
    @ (match r.j_load_ms with
       | Some l -> [ ("load_ms", Obs.Json.Num l) ]
       | None -> [])
    @ [ ("max_rss_mb", Obs.Json.Num r.j_max_rss_mb);
        ("counters", counters_json r.j_counters) ])

(* Through the lib/obs serializer — the old Printf "%S" writer produced
   OCaml string escapes, which are not valid JSON for control characters. *)
let write_json path =
  let oc = open_out path in
  output_string oc
    (Obs.Json.to_string (Obs.Json.Arr (List.rev_map row_to_json !json_rows)));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %d benchmark rows to %s\n" (List.length !json_rows) path

(* ---- timing and the Vendor A model ---- *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Like [time], but also captures what the run did to the obs counter
   registry — the counters land in the JSON row next to the timing. *)
let time_obs f =
  let before = Obs.Metrics.snapshot () in
  let r, t = time f in
  (r, t, Obs.Metrics.delta ~before ~after:(Obs.Metrics.snapshot ()))

(* The paper's Vendor A owes its edge to aggressive 4-core parallelism
   (Appendix E).  On a >= 4-core host we run the real Domain-parallel
   executor; this container exposes a single CPU, so there we run
   single-domain and divide by a fixed effective-parallelism factor,
   clearly labelled (see DESIGN.md).  Both the raw measured time and the
   divisor-scaled figure are always reported, so the scaling can never
   silently replace a real measurement. *)
let vendor_workers, vendor_divisor, vendor_label =
  match env_workers with
  | Some w when w > 1 -> (w, 1.0, Printf.sprintf "VendorA(%ddom)" w)
  | _ ->
    if Domain.recommended_domain_count () >= 4 then (4, 1.0, "VendorA(4dom)")
    else (1, 2.5, "VendorA(t/2.5)")

let run_base catalog q = Core.Runner.run_baseline catalog q

let run_vendor catalog q = Core.Runner.run_baseline ~workers:vendor_workers catalog q

(* Returns (result, raw measured seconds, divisor-scaled seconds, counters). *)
let time_vendor catalog q =
  let r, t, c = time_obs (fun () -> run_vendor catalog q) in
  (r, t, t /. vendor_divisor, c)

(* ---- catalog setup ---- *)

let baseball_catalog ?(bt = true) ~rows () =
  let catalog = Catalog.create () in
  ignore (Workload.Baseball.register catalog ~rows ~seed);
  Workload.Baseball.build_indexes catalog ~bt;
  if !layout = `Column then Catalog.set_all_layouts catalog `Column;
  catalog

let unpivoted_catalog ?(bt = true) ~rows () =
  let catalog = Catalog.create () in
  ignore (Workload.Baseball.register_unpivoted catalog ~rows ~seed);
  Workload.Baseball.build_indexes catalog ~bt;
  if !layout = `Column then Catalog.set_all_layouts catalog `Column;
  catalog

let check_equal name a b =
  if not (Relation.equal_bag a b) then
    Printf.printf "!! RESULT MISMATCH on %s — investigate\n%!" name

(* ---- Figure 1 ---- *)

let techniques =
  [ ("pruning", Core.Optimizer.only `Pruning);
    ("memo", Core.Optimizer.only `Memo);
    ("apriori", Core.Optimizer.only `Apriori);
    ("all", Core.Optimizer.all_techniques) ]

type fig1_row = {
  qname : string;
  base_t : float;
  vendor_raw_t : float;  (* measured, before any divisor *)
  vendor_t : float;  (* divisor-scaled *)
  tech_t : (string * float * bool) list;  (* name, seconds, applied? *)
  all_report : Core.Runner.report;
}

let rec report_has_apriori (rep : Core.Runner.report) =
  rep.Core.Runner.apriori <> []
  || List.exists (fun (_, r) -> report_has_apriori r) rep.Core.Runner.cte_reports

let fig1_measure ?load_ms catalog (qname, sql) =
  let q = Sqlfront.Parser.parse sql in
  let base, base_t, base_c = time_obs (fun () -> run_base catalog q) in
  record ~technique:"base" ~counters:base_c ?load_ms qname (base_t *. 1000.);
  let vend, vendor_raw_t, vendor_t, vendor_c = time_vendor catalog q in
  record ~technique:"vendor" ~workers:vendor_workers ~counters:vendor_c
    ~ms_scaled:(vendor_t *. 1000.) ?load_ms qname (vendor_raw_t *. 1000.);
  check_equal (qname ^ "/vendor") base vend;
  let all_report = ref None in
  let tech_t =
    List.map
      (fun (tname, tech) ->
        let (r, rep), t, c = time_obs (fun () -> run_smart ~tech catalog q) in
        check_equal (qname ^ "/" ^ tname) base r;
        if tname = "all" then all_report := Some rep;
        record ~technique:tname ~counters:c ?load_ms qname (t *. 1000.);
        let applied =
          match tname with "apriori" -> report_has_apriori rep | _ -> true
        in
        (tname, t, applied))
      techniques
  in
  Printf.printf "%-6s measured\n%!" qname;
  { qname; base_t; vendor_raw_t; vendor_t; tech_t; all_report = Option.get !all_report }

let fig1 () =
  Printf.printf
    "=== Figure 1: normalized running times (PostgreSQL-baseline = 1.0) ===\n";
  Printf.printf
    "rows = %d; normalized time (absolute seconds); '-' = not applicable\n\n" !rows;
  let catalog, load_t = time (fun () -> baseball_catalog ~rows:!rows ()) in
  let results =
    List.map
      (fig1_measure ~load_ms:(load_t *. 1000.) catalog)
      Workload.Queries.figure1
  in
  print_newline ();
  Printf.printf "%-6s | %-16s | %-16s | %-16s | %-16s | %-16s | %-16s\n" "query"
    "base" vendor_label "pruning" "memo" "apriori" "all";
  List.iter
    (fun r ->
      let cell (t, applied) =
        if not applied then "        -       "
        else Printf.sprintf "%6.3f (%6.2fs)" (t /. r.base_t) t
      in
      let tech name =
        let _, t, a = List.find (fun (n, _, _) -> n = name) r.tech_t in
        cell (t, a)
      in
      Printf.printf "%-6s | %s | %s | %s | %s | %s | %s\n" r.qname
        (cell (r.base_t, true))
        (cell (r.vendor_t, true))
        (tech "pruning") (tech "memo") (tech "apriori") (tech "all"))
    results;
  if vendor_divisor <> 1.0 then begin
    Printf.printf
      "\n%s raw measured times (before the /%.1f effective-parallelism divisor):\n"
      vendor_label vendor_divisor;
    List.iter
      (fun r -> Printf.printf "  %-6s %6.2fs raw -> %6.2fs scaled\n" r.qname
          r.vendor_raw_t r.vendor_t)
      results
  end;
  print_newline ();
  results

(* ---- Figure 2 ---- *)

let pearson xs ys =
  let n = float_of_int (Array.length xs) in
  let mean a = Array.fold_left ( +. ) 0. a /. n in
  let mx = mean xs and my = mean ys in
  let cov = ref 0. and vx = ref 0. and vy = ref 0. in
  Array.iteri
    (fun i x ->
      let dx = x -. mx and dy = ys.(i) -. my in
      cov := !cov +. (dx *. dy);
      vx := !vx +. (dx *. dx);
      vy := !vy +. (dy *. dy))
    xs;
  !cov /. (sqrt (!vx *. !vy) +. 1e-9)

let fig2 () =
  Printf.printf "=== Figure 2: data distributions of the two attribute pairings ===\n";
  Printf.printf
    "(paper: same template query returns 1.8%% of records on one pairing and\n\
    \ 3.1%% on the other at k=500 — the pairings differ in correlation)\n\n";
  let catalog = baseball_catalog ~rows:!rows () in
  let tbl = Catalog.find catalog Workload.Baseball.table_name in
  let col name =
    let i = Schema.index_of tbl.Catalog.rel.Relation.schema name in
    Array.map (fun row -> Value.to_float row.(i)) (Relation.rows tbl.Catalog.rel)
  in
  let total = Relation.cardinality tbl.Catalog.rel in
  List.iter
    (fun (x, y) ->
      let xs = col x and ys = col y in
      let corr = pearson xs ys in
      let k = max 1 (500 * total / 300000) in
      let q = Sqlfront.Parser.parse (Workload.Queries.skyband ~a:(x, y) ~k ()) in
      let result, _ = run_smart catalog q in
      Printf.printf
        "pairing (%-5s, %-5s): pearson %+.2f; skyband k=%d returns %5d rows = %.1f%% of records\n"
        x y corr k
        (Relation.cardinality result)
        (100. *. float_of_int (Relation.cardinality result) /. float_of_int total))
    [ ("b_h", "b_hr"); ("b_2b", "b_3b") ];
  print_newline ()

(* ---- Figure 3 ---- *)

let fig3 fig1_results =
  Printf.printf "=== Figure 3: NLJP cache sizes at end of execution ===\n";
  Printf.printf
    "(paper: no cache above 3000 kB, most below 500 kB, mean 571 kB /\n\
    \ 10371 rows at 3e5 input rows; Q5's rows approach its input size)\n\n";
  Printf.printf "%-6s %12s %12s\n" "query" "cache rows" "cache kB";
  let total_rows = ref 0 and total_kb = ref 0 and n = ref 0 in
  List.iter
    (fun r ->
      let rows = Core.Runner.cache_rows r.all_report in
      let kb = Core.Runner.cache_bytes r.all_report / 1024 in
      total_rows := !total_rows + rows;
      total_kb := !total_kb + kb;
      incr n;
      Printf.printf "%-6s %12d %12d\n" r.qname rows kb)
    fig1_results;
  Printf.printf "mean   %12d %12d\n\n" (!total_rows / max 1 !n) (!total_kb / max 1 !n)

(* ---- Figure 4 ---- *)

let fig4 () =
  Printf.printf
    "=== Figure 4: Q1 under index configurations (PK / PK+BT / PK+BT+CI) ===\n";
  Printf.printf
    "(paper: BT gives PostgreSQL ~2x; our worst case (PK only) still ~64x over\n\
    \ base; CI a further gain on top of BT)\n\n";
  let sql = List.assoc "Q1" Workload.Queries.figure1 in
  let q = Sqlfront.Parser.parse sql in
  let configs = [ ("PK", false, false); ("PK+BT", true, false); ("PK+BT+CI", true, true) ] in
  Printf.printf "%-10s %12s %14s %14s %14s  %s\n" "indexes" "base" "prune" "memo"
    "prune+memo" "inner access path";
  List.iter
    (fun (label, bt, ci) ->
      let catalog = baseball_catalog ~bt ~rows:!rows () in
      let base, base_t = time (fun () -> run_base catalog q) in
      let nljp_config =
        { Core.Nljp.default_config with Core.Nljp.inner_index = bt; cache_index = ci }
      in
      (* the access paths the runs report, in first-seen order *)
      let paths = ref [] in
      let run_tech tech =
        let (r, rep), t = time (fun () -> Core.Runner.run ~tech ~nljp_config catalog q) in
        check_equal ("fig4/" ^ label) base r;
        Option.iter
          (fun s ->
            let p = Core.Nljp.access_to_string s.Core.Nljp.access in
            if not (List.mem p !paths) then paths := !paths @ [ p ])
          rep.Core.Runner.nljp_stats;
        t
      in
      let prune_t = run_tech (Core.Optimizer.only `Pruning) in
      let memo_t = run_tech (Core.Optimizer.only `Memo) in
      let both_t =
        run_tech { Core.Optimizer.no_techniques with memo = true; pruning = true }
      in
      Printf.printf "%-10s %10.2fs %12.3fs %12.3fs %12.3fs  %s\n%!" label base_t prune_t
        memo_t both_t
        (match !paths with [] -> "no NLJP run" | ps -> String.concat " / " ps))
    configs;
  (* Skyband prune caches stay tiny (a few dominators prune everything), so
     CI cannot matter there at any scale.  Its lever is the complex query,
     where p⪰ equates the category/attr dimensions and CI hash-partitions
     the cache on them instead of scanning it linearly. *)
  let rows_kv = !rows / 2 in
  let catalog_kv = unpivoted_catalog ~rows:rows_kv () in
  let q_cplx = Sqlfront.Parser.parse (Workload.Queries.complex ~threshold:(max 5 (rows_kv / 100))) in
  let run_ci ci =
    let nljp_config = { Core.Nljp.default_config with Core.Nljp.cache_index = ci } in
    let (_, rep), t =
      time (fun () ->
          Core.Runner.run ~tech:(Core.Optimizer.only `Pruning) ~nljp_config catalog_kv
            q_cplx)
    in
    (t, Core.Runner.cache_rows rep)
  in
  let t_no, rows_no = run_ci false in
  let t_ci, rows_ci = run_ci true in
  Printf.printf
    "\nCI sensitivity on the complex query (%d unpivoted rows), prune-only:\n\
     without CI (flat cache scan) %.3fs (%d cache rows); with CI\n\
     (cache partitioned on p⪰'s equality dimensions) %.3fs (%d cache rows)\n\n"
    rows_kv t_no rows_no t_ci rows_ci

(* ---- Figures 5-8: parameter sweeps ---- *)

let sweep_header title expectation =
  Printf.printf "=== %s ===\n%s\n\n" title expectation;
  Printf.printf "%-10s %12s %14s %14s %14s\n" "param" "base" "vendor raw" vendor_label
    "smart"

let sweep_row param base_t vendor_raw_t vendor_t smart_t =
  Printf.printf "%-10s %10.2fs %12.2fs %12.2fs %12.3fs\n%!" param base_t vendor_raw_t
    vendor_t smart_t

let fig5 () =
  sweep_header "Figure 5: skyband running time vs HAVING threshold"
    "(paper: base/vendor flat w.r.t. threshold — they apply HAVING last;\n\
    \ ours grows with k, the advantage shrinking as the query gets less picky)";
  let catalog = baseball_catalog ~rows:!rows () in
  List.iter
    (fun k ->
      let q = Sqlfront.Parser.parse (Workload.Queries.skyband ~k ()) in
      let base, base_t = time (fun () -> run_base catalog q) in
      let _, vendor_raw_t, vendor_t, _ = time_vendor catalog q in
      let (r, _), smart_t = time (fun () -> run_smart catalog q) in
      check_equal "fig5" base r;
      sweep_row (Printf.sprintf "k=%d" k) base_t vendor_raw_t vendor_t smart_t)
    (* the last two thresholds scale with the input so the query stops being
       an iceberg at all — the regime where the paper's advantage fades *)
    [ 10; 25; 50; 100; 250; !rows / 4; !rows ];
  print_newline ()

let fig6 () =
  sweep_header "Figure 6: complex query running time vs HAVING threshold"
    "(paper: advantage *increases* with the threshold — >= gets pickier as it\n\
    \ grows; the paper's configuration applies prune+memo only)";
  let rows = !rows / 2 in
  let catalog = unpivoted_catalog ~rows () in
  Printf.printf "(unpivoted rows = %d; '+apriori' adds the Appendix D reducers)\n" rows;
  List.iter
    (fun threshold ->
      let q = Sqlfront.Parser.parse (Workload.Queries.complex ~threshold) in
      let base, base_t = time (fun () -> run_base catalog q) in
      let _, vendor_raw_t, vendor_t, _ = time_vendor catalog q in
      let paper_tech = { Core.Optimizer.no_techniques with memo = true; pruning = true } in
      let (r, _), smart_t = time (fun () -> run_smart ~tech:paper_tech catalog q) in
      let (r2, _), full_t = time (fun () -> run_smart catalog q) in
      check_equal "fig6" base r;
      check_equal "fig6/full" base r2;
      sweep_row (Printf.sprintf "c=%d" threshold) base_t vendor_raw_t vendor_t smart_t;
      Printf.printf "%-10s %40s +apriori: %8.3fs\n" "" "" full_t)
    [ 20; 40; 60; 80 ];
  print_newline ()

let fig7 () =
  sweep_header "Figure 7: skyband running time vs input size"
    "(paper: all grow with size; ours lowest throughout)";
  List.iter
    (fun n ->
      let catalog = baseball_catalog ~rows:n () in
      let q = Sqlfront.Parser.parse (Workload.Queries.skyband ~k:50 ()) in
      let base, base_t = time (fun () -> run_base catalog q) in
      let _, vendor_raw_t, vendor_t, _ = time_vendor catalog q in
      let (r, _), smart_t = time (fun () -> run_smart catalog q) in
      check_equal "fig7" base r;
      sweep_row (string_of_int n) base_t vendor_raw_t vendor_t smart_t)
    [ !rows / 4; !rows / 2; !rows; !rows * 2 ];
  print_newline ()

let fig8 () =
  sweep_header "Figure 8: complex query running time vs input size"
    "(paper: vendor can win at the smallest size, where the fixed threshold is\n\
    \ not selective at all; ours best as size grows)";
  List.iter
    (fun n ->
      let catalog = unpivoted_catalog ~rows:n () in
      let threshold = max 5 (!rows / 100) in
      let q = Sqlfront.Parser.parse (Workload.Queries.complex ~threshold) in
      let base, base_t = time (fun () -> run_base catalog q) in
      let _, vendor_raw_t, vendor_t, _ = time_vendor catalog q in
      let paper_tech = { Core.Optimizer.no_techniques with memo = true; pruning = true } in
      let (r, _), smart_t = time (fun () -> run_smart ~tech:paper_tech catalog q) in
      check_equal "fig8" base r;
      sweep_row (string_of_int n) base_t vendor_raw_t vendor_t smart_t)
    [ !rows / 8; !rows / 4; !rows / 2; !rows ];
  print_newline ()

(* ---- Appendix E: query plans ---- *)

let plans () =
  Printf.printf "=== Appendix E: baseline plans for Q1 ===\n\n";
  let catalog = baseball_catalog ~rows:1000 () in
  let q = Sqlfront.Parser.parse (List.assoc "Q1" Workload.Queries.figure1) in
  let plan = Sqlfront.Binder.bind catalog q in
  Printf.printf
    "PostgreSQL-style plan (indexed nested loop, hash aggregate, HAVING last):\n%s\n"
    (Plan.explain plan);
  Printf.printf
    "Vendor A executes the same plan with the outer side partitioned across\n\
     %d domains (its Parallelism / Gather Streams nodes).\n\n"
    vendor_workers;
  Printf.printf "Smart-Iceberg NLJP decomposition for the same query (cf. Listing 7):\n";
  let _, report = run_smart catalog q in
  (match report.Core.Runner.nljp_describe with
   | Some d -> print_string d
   | None -> print_endline "(NLJP not applied)");
  print_newline ()

(* ---- Ablations of the §7 design knobs (future work in the paper,
   implemented here as opt-in extensions) ---- *)

let ablate () =
  Printf.printf "=== Ablations: Q_B order, cache bound, memo strategy ===\n\n";
  let catalog = baseball_catalog ~rows:!rows () in
  let sql = Workload.Queries.skyband ~k:50 () in
  let q = Sqlfront.Parser.parse sql in
  (* Every variant must return the unbounded storage-order run's rows. *)
  let reference = ref None in
  let check label r =
    match !reference with
    | None -> reference := Some r
    | Some base -> check_equal ("ablate/" ^ label) base r
  in
  (* Q_B exploration order (prune-only, so ordering is the only variable) *)
  Printf.printf "Q_B exploration order (skyband k=50, pruning only):\n";
  List.iter
    (fun (label, order) ->
      let nljp_config = { Core.Nljp.default_config with Core.Nljp.outer_order = order } in
      let (r, rep), t =
        time (fun () ->
            Core.Runner.run ~tech:(Core.Optimizer.only `Pruning) ~nljp_config catalog q)
      in
      check label r;
      let stats = Option.get rep.Core.Runner.nljp_stats in
      Printf.printf "  %-22s %8.3fs  pruned %d / %d, inner evals %d\n%!" label t
        stats.Core.Nljp.pruned stats.Core.Nljp.outer_rows stats.Core.Nljp.inner_evals)
    [ ("storage order", `Default);
      ("binding col 0 asc", `Asc 0);
      ("binding col 0 desc", `Desc 0);
      ("auto (from p⪰)", `Auto) ];
  (* Cache bound *)
  Printf.printf "\nCache bound (skyband k=50, prune+memo, keep-first policy):\n";
  List.iter
    (fun cap ->
      let nljp_config =
        { Core.Nljp.default_config with Core.Nljp.max_cache_rows = cap }
      in
      let cap_label = match cap with None -> "unbounded" | Some c -> string_of_int c in
      let (r, rep), t = time (fun () -> Core.Runner.run ~nljp_config catalog q) in
      check ("cap " ^ cap_label) r;
      let stats = Option.get rep.Core.Runner.nljp_stats in
      Printf.printf "  cap %-12s %8.3fs  cache rows %d, pruned %d, memo hits %d\n%!"
        cap_label t
        (stats.Core.Nljp.prune_cache_rows + stats.Core.Nljp.memo_cache_rows)
        stats.Core.Nljp.pruned stats.Core.Nljp.memo_hits)
    [ None; Some 1000; Some 100; Some 10; Some 0 ];
  (* Memoization strategy: NLJP cache vs Listing 8 static rewrite *)
  Printf.printf "\nMemoization strategy (memo only):\n";
  let (r1, _), t_nljp =
    time (fun () -> run_smart ~tech:(Core.Optimizer.only `Memo) catalog q)
  in
  let (r2, _), t_static =
    time (fun () ->
        run_smart ~tech:(Core.Optimizer.only `Memo)
          ~memo_strategy:`Static_rewrite catalog q)
  in
  check_equal "ablate/memo-strategy" r1 r2;
  Printf.printf "  NLJP cache    %8.3fs\n  static rewrite %7.3fs (Listing 8)\n\n" t_nljp
    t_static;
  (* Adaptive a-priori gate (first cut of the cost-based decisions): the
     pairs query at a low threshold has an unselective reducer that costs
     more than it saves — the gate should drop it. *)
  Printf.printf "Adaptive a-priori gate (pairs query, a-priori only):\n";
  List.iter
    (fun c ->
      let qp = Sqlfront.Parser.parse (Workload.Queries.pairs ~c ~k:50 ()) in
      let (_, rep_off), t_off =
        time (fun () -> run_smart ~tech:(Core.Optimizer.only `Apriori) catalog qp)
      in
      let (_, rep_on), t_on =
        time (fun () ->
            run_smart ~tech:(Core.Optimizer.only `Apriori) ~adaptive_apriori:true
              catalog qp)
      in
      let applied rep =
        List.exists (fun (_, r) -> r.Core.Runner.apriori <> []) rep.Core.Runner.cte_reports
      in
      Printf.printf
        "  c=%-3d gate off: %6.3fs (reducer %s)   gate on: %6.3fs (reducer %s)\n%!" c
        t_off
        (if applied rep_off then "applied" else "absent")
        t_on
        (if applied rep_on then "kept" else "dropped"))
    [ 2; 8 ]

(* ---- Fang et al. grouping-stage baseline (the paper's reference [9]) ---- *)

let fang () =
  Printf.printf
    "=== Fang et al. (VLDB'99) grouping-stage baselines over a join result ===\n";
  Printf.printf
    "(the historical iceberg algorithms the paper builds on: candidates from\n\
    \ probabilistic passes, exact counts only for candidates)\n\n";
  let catalog = Catalog.create () in
  let n =
    Workload.Basket.register catalog ~baskets:(!rows / 3) ~items:400 ~avg_size:6
      ~seed:2017
  in
  let side q =
    Plan.Scan { table = Workload.Basket.table_name; alias = Some q; filter = None }
  in
  let joined =
    Exec.run catalog
      (Plan.Hash_join
         { keys = [ (Expr.col ~q:"i1" "bid", Expr.col ~q:"i2" "bid") ];
           residual = Expr.tt; left = side "i1"; right = side "i2" })
  in
  let item1 = Schema.index_of joined.Relation.schema ~q:"i1" "item" in
  let item2 = Schema.index_of joined.Relation.schema ~q:"i2" "item" in
  let threshold = max 5 (n / 200) in
  (* Size the bucket arrays so an average bucket stays well under the
     threshold — Fang et al.'s memory budget assumption. *)
  let config =
    {
      Fang.default_config with
      Fang.buckets = max 1024 (4 * Relation.cardinality joined / threshold);
    }
  in
  Printf.printf "basket rows %d, joined pairs %d, threshold %d, buckets %d\n\n" n
    (Relation.cardinality joined) threshold config.Fang.buckets;
  Printf.printf "%-12s %10s %12s %14s %12s\n" "algorithm" "time" "candidates"
    "false positives" "counters";
  let reference = ref None in
  List.iter
    (fun (name, alg) ->
      let (r, stats), t =
        time (fun () ->
            Fang.iceberg_count ~config ~algorithm:alg joined ~key:[ item1; item2 ]
              ~threshold)
      in
      (match !reference with
       | None -> reference := Some r
       | Some oracle -> check_equal ("fang/" ^ name) oracle r);
      Printf.printf "%-12s %9.3fs %12d %14d %12d\n%!" name t stats.Fang.candidates
        stats.Fang.false_positives stats.Fang.exact_counters)
    [ ("naive", Fang.Naive); ("coarse", Fang.Coarse_count);
      ("defer-count", Fang.Defer_count); ("multi-stage", Fang.Multi_stage) ];
  print_newline ()

(* ---- Bechamel micro-suite: one Test.make per figure ---- *)

(* Predicate-heavy expression over the baseball schema, used to compare the
   tree-walking interpreter against the staged compiler on identical rows. *)
let heavy_pred =
  let open Expr in
  let c n = col n in
  And
    ( Cmp (Gt, Binop (Add, c "b_h", Binop (Mul, c "b_hr", int 2)), int 60),
      Or
        ( Cmp (Le, c "b_2b", Binop (Mul, c "b_3b", int 3)),
          And (Cmp (Ge, c "b_bb", int 20), Not (Cmp (Eq, c "b_sb", int 0))) ) )

let compile_speedup catalog =
  let tbl = Catalog.find catalog Workload.Baseball.table_name in
  let rel = tbl.Catalog.rel in
  let schema = rel.Relation.schema in
  let reps = 40 in
  let interpreted () =
    let n = ref 0 in
    for _ = 1 to reps do
      Relation.iter (fun row -> if Expr.eval_bool schema row heavy_pred then incr n) rel
    done;
    !n
  in
  let compiled () =
    let p = Compile.pred schema heavy_pred in
    let n = ref 0 in
    for _ = 1 to reps do
      Relation.iter (fun row -> if p row then incr n) rel
    done;
    !n
  in
  let n1, t_interp = time interpreted in
  let n2, t_comp = time compiled in
  assert (n1 = n2);
  (t_interp, t_comp)

let micro () =
  Printf.printf "=== Bechamel micro-suite (one Test.make per figure, small inputs) ===\n\n";
  let open Bechamel in
  let small = max 100 (min !rows 800) in
  let bb = baseball_catalog ~rows:small () in
  let kv = unpivoted_catalog ~rows:(small / 2) () in
  let pred_schema =
    (Catalog.find bb Workload.Baseball.table_name).Catalog.rel.Relation.schema
  in
  let pred_rel = (Catalog.find bb Workload.Baseball.table_name).Catalog.rel in
  let compiled_pred = Compile.pred pred_schema heavy_pred in
  let smart catalog sql () =
    ignore (run_smart catalog (Sqlfront.Parser.parse sql))
  in
  let tests =
    [ Test.make ~name:"fig1_q1_all"
        (Staged.stage (smart bb (List.assoc "Q1" Workload.Queries.figure1)));
      Test.make ~name:"fig2_selectivity"
        (Staged.stage (smart bb (Workload.Queries.skyband ~k:10 ())));
      Test.make ~name:"fig3_cache_accounting"
        (Staged.stage (fun () ->
             let _, rep =
               run_smart bb
                 (Sqlfront.Parser.parse (Workload.Queries.skyband ~k:25 ()))
             in
             ignore (Core.Runner.cache_bytes rep)));
      Test.make ~name:"fig4_q1_no_ci"
        (Staged.stage (fun () ->
             let cfg = { Core.Nljp.default_config with Core.Nljp.cache_index = false } in
             ignore
               (Core.Runner.run ~nljp_config:cfg bb
                  (Sqlfront.Parser.parse (List.assoc "Q1" Workload.Queries.figure1)))));
      Test.make ~name:"fig5_skyband_k50"
        (Staged.stage (smart bb (Workload.Queries.skyband ~k:50 ())));
      Test.make ~name:"fig6_complex"
        (Staged.stage (smart kv (Workload.Queries.complex ~threshold:20)));
      Test.make ~name:"fig7_skyband_sized"
        (Staged.stage (smart bb (Workload.Queries.skyband ~k:25 ())));
      Test.make ~name:"fig8_complex_sized"
        (Staged.stage (smart kv (Workload.Queries.complex ~threshold:10)));
      Test.make ~name:"pairs_q4"
        (Staged.stage (smart bb (Workload.Queries.pairs ~c:3 ~k:20 ())));
      Test.make ~name:"expr_interpreted"
        (Staged.stage (fun () ->
             let n = ref 0 in
             Relation.iter
               (fun row ->
                 if Expr.eval_bool pred_schema row heavy_pred then incr n)
               pred_rel;
             ignore !n));
      Test.make ~name:"expr_compiled"
        (Staged.stage (fun () ->
             let n = ref 0 in
             Relation.iter (fun row -> if compiled_pred row then incr n) pred_rel;
             ignore !n)) ]
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) ->
            record ~technique:"micro" name (est /. 1e6);
            Printf.printf "%-24s %10.3f ms/run\n%!" name (est /. 1e6)
          | _ -> Printf.printf "%-24s (no estimate)\n%!" name)
        analyzed)
    tests;
  let t_interp, t_comp = compile_speedup bb in
  Printf.printf
    "\nclosure compilation on the predicate-heavy scan: interpreter %.3fs, \
     compiled %.3fs — %.1fx speedup\n\n"
    t_interp t_comp (t_interp /. t_comp)

(* ---- parallel NLJP: sequential vs Domain-chunked ---- *)

let par () =
  Printf.printf
    "=== Parallel NLJP: sequential vs workers=%d (fig-scale workloads) ===\n"
    !par_workers;
  Printf.printf
    "(single-CPU hosts fall back to one domain per wave chunk; results are\n\
    \ checked bag-equal against sequential execution either way)\n\n";
  let bb = baseball_catalog ~rows:!rows () in
  let kv = unpivoted_catalog ~rows:(!rows / 2) () in
  Printf.printf "%-22s %12s %14s %10s %8s\n" "query" "sequential" "parallel"
    "speedup" "check";
  List.iter
    (fun (name, catalog, sql) ->
      let q = Sqlfront.Parser.parse sql in
      let (seq, _), seq_t, seq_c = time_obs (fun () -> run_smart catalog q) in
      let (par, _), par_t, par_c =
        time_obs (fun () -> run_smart ~workers:!par_workers catalog q)
      in
      let ok = Relation.equal_bag seq par in
      if not ok then
        Printf.printf "!! RESULT MISMATCH on par/%s — investigate\n%!" name;
      record ~technique:"all" ~counters:seq_c ("par_" ^ name) (seq_t *. 1000.);
      record ~technique:"all" ~workers:!par_workers ~counters:par_c
        ("par_" ^ name) (par_t *. 1000.);
      Printf.printf "%-22s %10.3fs %12.3fs %9.2fx %8s\n%!" name seq_t par_t
        (seq_t /. par_t)
        (if ok then "ok" else "MISMATCH"))
    [ ("skyband_k50", bb, Workload.Queries.skyband ~k:50 ());
      ("q1", bb, List.assoc "Q1" Workload.Queries.figure1);
      ("pairs_c3", bb, Workload.Queries.pairs ~c:3 ~k:50 ());
      ("complex", kv, Workload.Queries.complex ~threshold:(max 5 (!rows / 200))) ];
  print_newline ()

(* ---- columnar zone-map scan: row layout vs block skipping ---- *)

let col () =
  Printf.printf
    "=== Columnar scan: selective filter, zone-map block skipping vs rows ===\n";
  Printf.printf
    "(clustered id column, so consecutive blocks hold disjoint id ranges and\n\
    \ a selective range predicate refutes almost every block's zone map)\n\n";
  let n = max 1_000_000 !rows in
  let schema = Schema.of_names [ "id"; "grp"; "x" ] in
  let data =
    Array.init n (fun i ->
        [| Value.Int i; Value.Int (i mod 97);
           Value.Float (float_of_int (i * 7 mod 1000) /. 10.) |])
  in
  let row_rel = Relation.make schema data in
  let col_rel, build_t = time (fun () -> Relation.to_layout `Column row_rel) in
  (* Selective: an id window covering ~half a block, so the zone maps
     refute all but 1-2 blocks and the output stays small (a large output
     makes both layouts GC-bound on row building, hiding the scan cost). *)
  let lo = n * 9 / 10 in
  let hi = lo + (Column.Cstore.default_block_size / 2) in
  let pred =
    Expr.(
      And
        ( And (Cmp (Ge, col "id", int lo), Cmp (Lt, col "id", int hi)),
          Cmp (Lt, col "grp", int 50) ))
  in
  let reps = 5 in
  let scan rel () =
    let last = ref (Relation.empty schema) in
    for _ = 1 to reps do
      last := Ops.select pred rel
    done;
    !last
  in
  let r_row, t_row, row_c = time_obs (scan row_rel) in
  let r_col, t_col, col_c = time_obs (scan col_rel) in
  let counter_of c name = Option.value (List.assoc_opt name c) ~default:0 in
  let skipped = counter_of col_c "colscan.blocks_skipped"
  and scanned = counter_of col_c "colscan.blocks_scanned" in
  check_equal "col/differential" r_row r_col;
  Printf.printf
    "rows=%d (%d blocks, built in %.2fs), predicate keeps %d rows, %d reps\n"
    n
    (Column.Cstore.nblocks (Relation.cstore col_rel))
    build_t (Relation.cardinality r_col) reps;
  Printf.printf "row layout    %8.3fs\n" t_row;
  Printf.printf "column layout %8.3fs  (blocks skipped=%d scanned=%d per total)\n"
    t_col skipped scanned;
  Printf.printf "speedup %.1fx; footprint row=%d kB column=%d kB\n\n"
    (t_row /. t_col)
    (Relation.approx_bytes row_rel / 1024)
    (Relation.approx_bytes col_rel / 1024);
  record ~technique:"rowscan" ~counters:row_c "colscan_selective"
    (t_row *. 1000.);
  record ~technique:"zonemap"
    ~counters:(("footprint_bytes", Relation.approx_bytes col_rel) :: col_c)
    "colscan_selective" (t_col *. 1000.);
  if skipped = 0 then
    Printf.printf "!! expected blocks to be skipped — investigate\n%!";
  if t_col *. 2. > t_row then
    Printf.printf
      "!! zone-map speedup below 2x (%.1fx) — investigate\n%!"
      (t_row /. t_col);
  (* End-to-end: the same optimized workload queries over row- vs
     column-primary base tables (fresh catalog per layout, same seed). *)
  Printf.printf
    "\n--- end-to-end layouts (optimizer on, fresh catalog per run) ---\n";
  Printf.printf "%-18s %10s %10s %8s %8s\n" "query" "row" "column" "ratio" "check";
  let saved_layout = !layout in
  let basket_catalog () =
    let catalog = Catalog.create () in
    ignore
      (Workload.Basket.register catalog ~baskets:(!rows / 3) ~items:400
         ~avg_size:6 ~seed:2017);
    if !layout = `Column then Catalog.set_all_layouts catalog `Column;
    catalog
  in
  List.iter
    (fun (name, build, sql) ->
      let q = Sqlfront.Parser.parse sql in
      let timed l =
        layout := l;
        let catalog = build () in
        let (r, _), t, c = time_obs (fun () -> run_smart catalog q) in
        record ~technique:"all" ~counters:c ("layout_" ^ name) (t *. 1000.);
        (r, t)
      in
      let r_row, t_r = timed `Row in
      let r_col, t_c = timed `Column in
      layout := saved_layout;
      let ok = Relation.equal_bag r_row r_col in
      if not ok then
        Printf.printf "!! RESULT MISMATCH on layout/%s — investigate\n%!" name;
      Printf.printf "%-18s %9.3fs %9.3fs %7.2fx %8s\n%!" name t_r t_c
        (t_r /. t_c)
        (if ok then "ok" else "MISMATCH"))
    [ ("baseball_q1", (fun () -> baseball_catalog ~rows:!rows ()),
       List.assoc "Q1" Workload.Queries.figure1);
      ("baseball_pairs", (fun () -> baseball_catalog ~rows:!rows ()),
       Workload.Queries.pairs ~c:3 ~k:50 ());
      ("basket_listing1", basket_catalog,
       Workload.Queries.listing1 ~threshold:(max 5 (!rows / 120))) ]

(* ---- compressed columnar storage: the .sic disk tier ---- *)

(* --cache-mb caps the block cache for the capped leg of the sic target
   (default: about a quarter of the decoded dataset, so eviction pressure
   is guaranteed). *)
let cache_mb_opt : int option ref = ref None

(* Synthetic table tuned so every codec engages: [id] clustered (narrow
   FOR deltas), [grp]/[score] small ranges (bit-packing), [tag] in long
   runs (RLE over dict codes), [x] raw floats, plus a sprinkle of NULLs. *)
let sic_table n =
  let tags = [| "alpha"; "beta"; "gamma"; "delta" |] in
  let schema = Schema.of_names [ "id"; "grp"; "tag"; "x"; "score" ] in
  let data =
    Array.init n (fun i ->
        [| Value.Int i;
           (if i mod 101 = 0 then Value.Null else Value.Int (i mod 97));
           Value.Str tags.((i / 1000) mod 4);
           Value.Float (float_of_int (i * 7 mod 1000) /. 10.);
           Value.Int (i * 13 mod 1000) |])
  in
  Relation.make schema data

let sic_queries n =
  let lo = n * 9 / 10 in
  let hi = lo + (Column.Cstore.default_block_size / 2) in
  [ ( "filter_int",
      Printf.sprintf "SELECT id, score FROM ev WHERE id >= %d AND id < %d" lo hi );
    ("filter_str", "SELECT COUNT(*) FROM ev WHERE tag = 'beta' AND id < 2000");
    ( "agg_global",
      "SELECT COUNT(*), SUM(score), MIN(score), MAX(score), AVG(x) FROM ev" ) ]

let sic_bench () =
  Printf.printf
    "=== Compressed columnar storage: .sic cold start, compression ratio, \
     capped-cache disk tier ===\n\n";
  let n = max 200_000 !rows in
  let tmp name =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "si-bench-%d.%s" (Unix.getpid ()) name)
  in
  let csv_path = tmp "csv" and sic_path = tmp "sic" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ csv_path; sic_path ];
      Column.Blockcache.set_capacity_mb Column.Blockcache.default_capacity_mb)
    (fun () ->
      let row_rel = sic_table n in
      Csv.save csv_path row_rel;
      (* Cold start: parse + layout + zone maps from CSV vs one decode pass
         over the .sic blocks (dictionaries, zone maps and Blooms ride in
         the footer). *)
      let col_rel, csv_load_t = time (fun () -> Csv.load ~layout:`Column csv_path) in
      Sic.save sic_path (Relation.to_layout `Column col_rel);
      let resident, sic_load_t, sic_load_c =
        time_obs (fun () -> Sic.load ~mode:`Resident sic_path)
      in
      (* The CLI and server open .sic paged: footer only, blocks on demand.
         That open is what replaces the CSV parse on the serving path. *)
      let _, sic_open_t = time (fun () -> Sic.load ~mode:`Paged sic_path) in
      check_equal "sic/resident" col_rel resident;
      let csv_bytes = (Unix.stat csv_path).Unix.st_size in
      let sic_bytes = (Unix.stat sic_path).Unix.st_size in
      let decoded_bytes = Relation.approx_bytes resident in
      Printf.printf "rows=%d\n" n;
      Printf.printf
        "cold start: CSV parse %8.3fs, .sic paged open %8.3fs (%.0fx), .sic \
         full decode %8.3fs (%.1fx)\n"
        csv_load_t sic_open_t
        (csv_load_t /. Float.max 1e-6 sic_open_t)
        sic_load_t (csv_load_t /. sic_load_t);
      Printf.printf
        "size: csv %d kB, .sic %d kB, decoded %d kB  (%.2fx vs csv, %.2fx vs \
         decoded)\n\n"
        (csv_bytes / 1024) (sic_bytes / 1024) (decoded_bytes / 1024)
        (float_of_int csv_bytes /. float_of_int sic_bytes)
        (float_of_int decoded_bytes /. float_of_int sic_bytes);
      record ~technique:"csv" "sic_cold_start" (csv_load_t *. 1000.)
        ~load_ms:(csv_load_t *. 1000.);
      record ~technique:"sic_paged" "sic_cold_start" (sic_open_t *. 1000.)
        ~load_ms:(sic_open_t *. 1000.);
      record ~technique:"sic_resident" ~counters:sic_load_c "sic_cold_start"
        (sic_load_t *. 1000.) ~load_ms:(sic_load_t *. 1000.);
      record ~technique:"sic"
        ~counters:
          [ ("csv_bytes", csv_bytes); ("sic_bytes", sic_bytes);
            ("decoded_bytes", decoded_bytes) ]
        "sic_compression" 0.;
      if csv_load_t < 5. *. sic_open_t then
        Printf.printf "!! .sic cold start below 5x faster than CSV — investigate\n%!";
      (* Paged execution, uncapped vs a cache capped well below the decoded
         dataset: same answers, bounded resident memory, evictions > 0. *)
      let counter_of c name = Option.value (List.assoc_opt name c) ~default:0 in
      let mk_catalog rel =
        let catalog = Catalog.create () in
        Catalog.add_table catalog "ev" rel;
        catalog
      in
      let resident_cat = mk_catalog resident in
      let queries = List.map (fun (qn, s) -> (qn, Sqlfront.Parser.parse s)) (sic_queries n) in
      let run_leg leg cap_mb =
        Column.Blockcache.set_capacity_mb cap_mb;
        let paged = Sic.load ~mode:`Paged sic_path in
        let catalog = mk_catalog paged in
        List.map
          (fun (qn, q) ->
            let (r, _), t, c = time_obs (fun () -> run_smart catalog q) in
            record ~technique:leg ~counters:c ("sic_" ^ qn) (t *. 1000.);
            Printf.printf
              "%-12s %-10s %8.3fs  direct=%d decoded=%d hits=%d misses=%d \
               evictions=%d\n%!"
              qn leg t
              (counter_of c "sic.blocks_direct")
              (counter_of c "sic.blocks_decoded")
              (counter_of c "sic.cache_hits")
              (counter_of c "sic.cache_misses")
              (counter_of c "sic.cache_evictions");
            (qn, r, c))
          queries
      in
      Printf.printf "%-12s %-10s %9s\n" "query" "cache" "time";
      let uncapped = run_leg "uncapped" (max 64 Column.Blockcache.default_capacity_mb) in
      let cap_mb =
        match !cache_mb_opt with
        | Some m -> max 1 m
        | None -> max 1 (decoded_bytes / 4 / 1_048_576)
      in
      Printf.printf "(capped leg: --cache-mb %d, decoded dataset %d MB)\n%!" cap_mb
        (decoded_bytes / 1_048_576);
      let capped = run_leg "capped" cap_mb in
      List.iter2
        (fun (qn, r_un, _) (_, r_cap, c_cap) ->
          (* Ground truth: the fully decoded resident relation. *)
          let oracle = run_base resident_cat (List.assoc qn queries) in
          check_equal ("sic/" ^ qn ^ "/uncapped") oracle r_un;
          check_equal ("sic/" ^ qn ^ "/capped") oracle r_cap;
          ignore c_cap)
        uncapped capped;
      let evictions =
        List.fold_left
          (fun acc (_, _, c) -> acc + counter_of c "sic.cache_evictions")
          0 capped
      in
      let direct =
        List.fold_left
          (fun acc (_, _, c) -> acc + counter_of c "sic.blocks_direct")
          0 (uncapped @ capped)
      in
      Printf.printf
        "\ncapped leg evictions=%d (cap %d MB vs %d MB decoded); blocks_direct \
         total=%d; peak rss %.0f MB\n\n"
        evictions cap_mb (decoded_bytes / 1_048_576) direct (max_rss_mb ());
      if evictions = 0 then
        Printf.printf "!! expected cache evictions under the capped leg — investigate\n%!";
      if direct = 0 then
        Printf.printf "!! expected compressed-execution blocks_direct > 0 — investigate\n%!")

(* ---- driver ---- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse_args = function
    | [] -> []
    | "--rows" :: n :: rest ->
      rows := int_of_string n;
      parse_args rest
    | "--workers" :: n :: rest ->
      par_workers := int_of_string n;
      parse_args rest
    | "--layout" :: l :: rest ->
      (layout :=
         match l with
         | "row" -> `Row
         | "column" | "col" -> `Column
         | other -> failwith ("unknown layout: " ^ other));
      parse_args rest
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse_args rest
    | "--no-transfer" :: rest ->
      transfer_opt := Some false;
      parse_args rest
    | "--cache-mb" :: n :: rest ->
      cache_mb_opt := Some (int_of_string n);
      parse_args rest
    | x :: rest -> x :: parse_args rest
  in
  let targets = parse_args args in
  let all = targets = [] || List.mem "all" targets in
  let want t = all || List.mem t targets in
  let fig1_results = ref [] in
  if want "fig1" || want "fig3" then fig1_results := fig1 ();
  if want "fig2" then fig2 ();
  if want "fig3" then fig3 !fig1_results;
  if want "fig4" then fig4 ();
  if want "fig5" then fig5 ();
  if want "fig6" then fig6 ();
  if want "fig7" then fig7 ();
  if want "fig8" then fig8 ();
  if want "plans" then plans ();
  if want "ablate" then ablate ();
  if want "fang" then fang ();
  if want "par" then par ();
  if want "col" then col ();
  if want "sic" then sic_bench ();
  if want "micro" then micro ();
  match !json_path with Some path -> write_json path | None -> ()
