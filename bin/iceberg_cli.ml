(* smart-iceberg: command-line front end.

   Load CSV tables (or generate the synthetic workloads), then run iceberg
   SQL with chosen optimization techniques, explain the optimizer's
   decisions, or compare all technique combinations against the baseline.

     dune exec bin/iceberg_cli.exe -- run --table basket.csv \
       "SELECT i1.item, i2.item, COUNT(*) FROM basket i1, basket i2 \
        WHERE i1.bid = i2.bid GROUP BY i1.item, i2.item HAVING COUNT(*) >= 20"
*)

open Relalg
open Cmdliner

(* ---- shared setup ---- *)

let load_tables ?layout ?(sic_mode = `Paged) catalog specs =
  List.iter
    (fun spec ->
      (* spec: path.csv[:key=col1+col2] — a .sic path loads the binary
         columnar format instead of parsing CSV (paged through the block
         cache by default; see --sic-resident). *)
      let path, key =
        match String.split_on_char ':' spec with
        | [ p ] -> (p, None)
        | [ p; k ] ->
          (match String.split_on_char '=' k with
           | [ "key"; cols ] -> (p, Some (String.split_on_char '+' cols))
           | _ -> failwith ("bad table spec: " ^ spec))
        | _ -> failwith ("bad table spec: " ^ spec)
      in
      let name = Filename.remove_extension (Filename.basename path) in
      let rel =
        if Filename.check_suffix path ".sic" then Sic.load ~mode:sic_mode path
        else Csv.load ?layout path
      in
      let keys = match key with Some k -> [ k ] | None -> [] in
      Catalog.add_table catalog ~keys name rel;
      Printf.printf "loaded %s: %d rows %s\n" name (Relation.cardinality rel)
        (Schema.to_string rel.Relation.schema))
    specs

let synth_catalog catalog kind rows =
  match kind with
  | "baseball" ->
    ignore (Workload.Baseball.register catalog ~rows ~seed:2017);
    ignore (Workload.Baseball.register_unpivoted catalog ~rows ~seed:2017);
    Workload.Baseball.build_indexes catalog;
    Printf.printf "generated %s and %s (%d rows each)\n" Workload.Baseball.table_name
      Workload.Baseball.unpivoted_name rows
  | "basket" ->
    let n =
      Workload.Basket.register catalog ~baskets:(rows / 5) ~items:200 ~avg_size:5
        ~seed:2017
    in
    Printf.printf "generated basket (%d rows)\n" n
  | "objects" ->
    ignore (Workload.Objects.register catalog ~n:rows ~dist:Workload.Objects.Independent ~seed:2017);
    Printf.printf "generated object (%d rows)\n" rows
  | other -> failwith ("unknown synthetic workload: " ^ other)

let layout_of_string = function
  | "row" -> `Row
  | "column" | "col" -> `Column
  | other -> failwith ("unknown layout: " ^ other)

let setup ?cache_mb ?(sic_resident = false) tables synth rows layout =
  (match cache_mb with
   | Some mb when mb > 0 -> Column.Blockcache.set_capacity_mb mb
   | _ -> ());
  let catalog = Catalog.create () in
  let layout = layout_of_string layout in
  let sic_mode = if sic_resident then `Resident else `Paged in
  load_tables ~layout ~sic_mode catalog tables;
  List.iter (fun kind -> synth_catalog catalog kind rows) synth;
  (* Synthetic generators register row-form tables; flip them here. *)
  if layout = `Column then Catalog.set_all_layouts catalog `Column;
  catalog

let tech_of_string = function
  | "none" -> Core.Optimizer.no_techniques
  | "apriori" -> Core.Optimizer.only `Apriori
  | "memo" -> Core.Optimizer.only `Memo
  | "pruning" | "prune" -> Core.Optimizer.only `Pruning
  | "all" -> Core.Optimizer.all_techniques
  | other -> failwith ("unknown technique set: " ^ other)

(* ---- commands ---- *)

(* Malformed SQL is the user's mistake, not the tool's: report it on stderr
   and exit 1 rather than as cmdliner's "internal error" (exit 125). *)
let with_sql_errors f =
  try f () with
  | Sqlfront.Parser.Parse_error m ->
    prerr_endline ("parse error: " ^ m);
    1
  | Sqlfront.Lexer.Lex_error (m, off) ->
    Printf.eprintf "lex error at %d: %s\n" off m;
    1

(* EXPLAIN: print the plan the run would execute and return — only CTE
   blocks execute.  [None] transfer defers to the SI_TRANSFER default. *)
let explain_query ?workers ?transfer catalog tech sql =
  let q = Sqlfront.Parser.parse sql in
  print_string
    (Core.Explain.query ~tech:(tech_of_string tech) ?workers ?transfer catalog q);
  0

let run_cmd tables synth rows layout cache_mb sic_resident tech workers
    no_transfer verbose max_rows explain analyze json trace sql =
  with_sql_errors @@ fun () ->
  let catalog = setup ?cache_mb ~sic_resident tables synth rows layout in
  (* [None] defers to the SI_TRANSFER environment default in Runner. *)
  let transfer = if no_transfer then Some false else None in
  if explain then explain_query ~workers ?transfer catalog tech sql
  else if analyze then begin
    (* EXPLAIN ANALYZE: execute with full instrumentation and print the
       annotated tree (estimates next to actuals, per-node Q-error) plus
       the plan-level summary.  Results are bag-equal to a plain run. *)
    let q = Sqlfront.Parser.parse sql in
    let tech_name = tech in
    let tech = tech_of_string tech in
    let t0 = Unix.gettimeofday () in
    let result, rep, node =
      Core.Analyze.run ~tech ~workers ?transfer catalog q
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    let flips = Core.Analyze.decision_flips catalog rep node in
    let s = Core.Analyze.summarize ~flips node in
    if json then
      print_endline (Obs.Json.to_string (Core.Analyze.document node s))
    else begin
      print_string (Relation.to_string ~max_rows (Relation.sorted result));
      Printf.printf "(%d rows in %.3fs, techniques: %s)\n\n"
        (Relation.cardinality result) elapsed tech_name;
      print_string (Core.Analyze.to_text node);
      print_newline ();
      print_string (Core.Analyze.summary_to_text s)
    end;
    0
  end
  else begin
    let root =
      match trace with None -> None | Some _ -> Some (Obs.Span.enter "query")
    in
    let q =
      match root with
      | None -> Sqlfront.Parser.parse sql
      | Some parent ->
        Obs.Span.with_span ~parent "parse" (fun _ -> Sqlfront.Parser.parse sql)
    in
    let t0 = Unix.gettimeofday () in
    let result, report =
      if tech = "none" then (Core.Runner.run_baseline ~workers catalog q, None)
      else
        let r, rep =
          Core.Runner.run ?span:root ~tech:(tech_of_string tech) ~workers ?transfer
            catalog q
        in
        (r, Some rep)
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    print_string (Relation.to_string ~max_rows (Relation.sorted result));
    Printf.printf "(%d rows in %.3fs, techniques: %s)\n" (Relation.cardinality result)
      elapsed tech;
    (match report with
     | Some rep when verbose ->
       print_newline ();
       print_endline "optimizer decisions:";
       print_string (Core.Runner.report_to_string rep)
     | _ -> ());
    (match root, trace with
     | Some sp, Some file ->
       Obs.Span.finish ~rows_out:(Relation.cardinality result) sp;
       let oc = open_out file in
       output_string oc (Obs.Json.to_string (Obs.Span.trace_json sp));
       output_char oc '\n';
       close_out oc;
       Printf.eprintf "trace written to %s\n%!" file
     | _ -> ());
    0
  end

let explain_cmd tables synth rows layout tech sql =
  with_sql_errors @@ fun () ->
  let catalog = setup tables synth rows layout in
  explain_query catalog tech sql

let compare_cmd tables synth rows layout workers sql =
  with_sql_errors @@ fun () ->
  let catalog = setup tables synth rows layout in
  let q = Sqlfront.Parser.parse sql in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let base, base_t = time (fun () -> Core.Runner.run_baseline catalog q) in
  Printf.printf "%-10s %8.3fs  (%d rows)\n" "baseline" base_t (Relation.cardinality base);
  let vendor, vendor_t =
    time (fun () -> Core.Runner.run_baseline ~workers:4 catalog q)
  in
  Printf.printf "%-10s %8.3fs  %.1fx  %s\n" "parallel" vendor_t (base_t /. vendor_t)
    (if Core.Runner.same_result base vendor then "ok" else "RESULT MISMATCH");
  List.iter
    (fun name ->
      let (r, _), t =
        time (fun () ->
            Core.Runner.run ~tech:(tech_of_string name) ~workers catalog q)
      in
      Printf.printf "%-10s %8.3fs  %.1fx  %s\n" name t (base_t /. t)
        (if Core.Runner.same_result base r then "ok" else "RESULT MISMATCH"))
    [ "apriori"; "memo"; "pruning"; "all" ];
  0

let save_cmd tables synth rows name format block_size out =
  (match format with
   | "sic" -> ()
   | other -> failwith ("unknown save format: " ^ other));
  let catalog = setup tables synth rows "column" in
  let name =
    match (name, Catalog.table_names catalog) with
    | Some n, _ -> n
    | None, [ n ] -> n
    | None, names ->
      failwith
        ("--name required when several tables are loaded: "
        ^ String.concat ", " names)
  in
  let table = Catalog.find catalog name in
  let rel = Relation.to_layout `Column table.Catalog.rel in
  (match block_size with
   | None -> Sic.save out rel
   | Some bs ->
     (* Re-block through the streaming writer to honor the requested size. *)
     Sic.save_rows ~block_size:bs out rel.Relation.schema
       (Array.to_seq (Relation.rows rel)));
  let st = Unix.stat out in
  Printf.printf "saved %s: %d rows -> %s (%d bytes)\n" name
    (Relation.cardinality rel) out st.Unix.st_size;
  0

let calibrate_cmd rows layout tech workers json =
  (* Cost-model calibration: replay the synthetic workloads under EXPLAIN
     ANALYZE and tabulate estimated vs actual per technique. *)
  let catalog = setup [] [ "baseball"; "basket"; "objects" ] rows layout in
  let tech = tech_of_string tech in
  let threshold = max 5 (rows / 100) in
  let rows_of ~workload queries =
    Core.Calibrate.calibrate ~tech ~workers ~workload catalog queries
  in
  let all =
    rows_of ~workload:"baseball"
      [ ("skyband_k50", Workload.Queries.skyband ~k:50 ());
        ("pairs_c3_k20", Workload.Queries.pairs ~c:3 ~k:20 ());
        ("complex", Workload.Queries.complex ~threshold) ]
    @ rows_of ~workload:"basket"
        [ ("listing1", Workload.Queries.listing1 ~threshold:(max 5 (rows / 500))) ]
    @ rows_of ~workload:"objects"
        [ ("listing2", Workload.Queries.listing2 ~k:50) ]
  in
  if json then print_endline (Obs.Json.to_string (Core.Calibrate.to_json all))
  else print_string (Core.Calibrate.to_text all);
  0

let serve_cmd tables synth rows layouts cache_mb addr pool queue_cap plan_cap
    result_cap max_rows no_maintain metrics_addr slow_ms slow_log trace_sample =
  let layouts =
    match layouts with
    | "both" -> [ `Row; `Column ]
    | l -> [ layout_of_string l ]
  in
  let catalogs =
    List.map
      (fun l ->
        let cat =
          setup ?cache_mb tables synth rows
            (match l with `Row -> "row" | `Column -> "column")
        in
        (l, cat))
      layouts
  in
  let config =
    {
      Serve.Server.listen = Serve.Protocol.addr_of_string addr;
      pool;
      queue_cap;
      plan_cache_cap = plan_cap;
      result_cache_cap = result_cap;
      max_rows = (if max_rows <= 0 then None else Some max_rows);
      maintain = not no_maintain;
      metrics_addr =
        (match metrics_addr with
         | None | Some "" -> None
         | Some a -> Some (Serve.Protocol.addr_of_string a));
      slow_ms;
      slow_log = Some slow_log;
      trace_sample;
    }
  in
  let srv = Serve.Server.start ~config catalogs in
  Printf.printf "serving on %s (pool=%d queue=%d)\n%!"
    (Serve.Protocol.addr_to_string config.Serve.Server.listen)
    pool queue_cap;
  (match Serve.Server.metrics_addr srv with
   | Some a ->
     Printf.printf "metrics on %s (Prometheus text)\n%!"
       (Serve.Protocol.addr_to_string a)
   | None -> ());
  (match slow_ms with
   | Some th -> Printf.printf "slow-query log: %s (threshold %gms)\n%!" slow_log th
   | None ->
     if trace_sample > 0. then
       Printf.printf "trace-sample log: %s (fraction %g)\n%!" slow_log trace_sample);
  (* Runs until a client sends {"op":"shutdown"} (or the process is killed). *)
  Serve.Server.wait srv;
  print_endline "server stopped";
  0

(* Live terminal view over the server's [metrics] op: qps and rolling
   p50/p95 from the last-minute windows, cache hit rates, queue depth and
   maintenance outcomes, redrawn in place every [interval] seconds. *)
let do_monitor c interval frames =
  let module J = Obs.Json in
  let numf j name = match J.member name j with Some (J.Num x) -> x | _ -> 0. in
  let numi j name = int_of_float (numf j name) in
  let nested j outer name =
    match J.member outer j with Some o -> numf o name | None -> 0.
  in
  let rolling j name field =
    match J.member "rolling" j with
    | Some o -> (match J.member name o with Some r -> numf r field | None -> 0.)
    | None -> 0.
  in
  let pct hits misses =
    let tot = hits +. misses in
    if tot <= 0. then 0. else 100. *. hits /. tot
  in
  let frame = ref 0 in
  let continue = ref true in
  while !continue do
    let m = Serve.Client.metrics c in
    let counters =
      match J.member "counters" m with Some o -> o | None -> J.Obj []
    in
    let b = Buffer.create 1024 in
    let line fmt =
      Printf.ksprintf
        (fun s ->
          Buffer.add_string b s;
          Buffer.add_char b '\n')
        fmt
    in
    line "smart-iceberg monitor   uptime %.1fs   sessions %d   queue %d/%d   pool %d"
      (numf m "uptime_ms" /. 1000.)
      (numi m "sessions") (numi m "queue_depth") (numi m "queue_cap")
      (numi m "pool");
    line "queries       total %d   qps %.1f   errors %d   rejected %d"
      (numi counters "serve.queries")
      (rolling m "serve.queries" "rate")
      (numi counters "serve.errors")
      (numi counters "serve.rejected");
    line "latency       rolling p50 %.2fms  p95 %.2fms  (n=%.0f)   queue wait p95 %.2fms"
      (rolling m "serve.query_ms" "p50")
      (rolling m "serve.query_ms" "p95")
      (rolling m "serve.query_ms" "count")
      (rolling m "serve.queue_wait_ms" "p95");
    line "plan cache    hits %.0f  misses %.0f  (%.1f%%)   entries %.0f  evictions %.0f"
      (nested m "plan_cache" "hits")
      (nested m "plan_cache" "misses")
      (pct (nested m "plan_cache" "hits") (nested m "plan_cache" "misses"))
      (nested m "plan_cache" "entries")
      (nested m "plan_cache" "evictions");
    line "result cache  hits %.0f  misses %.0f  (%.1f%%)   entries %.0f  evictions %.0f"
      (nested m "result_cache" "hits")
      (nested m "result_cache" "misses")
      (pct (nested m "result_cache" "hits") (nested m "result_cache" "misses"))
      (nested m "result_cache" "entries")
      (nested m "result_cache" "evictions");
    line "maintenance   incremental %d  revalidated %d  recompute %d"
      (numi counters "serve.maint_incremental")
      (numi counters "serve.maint_revalidate")
      (numi counters "serve.maint_recompute");
    line "maint latency rolling p50 %.2fms  p95 %.2fms  (n=%.0f)   appends %d"
      (rolling m "serve.maint_ms" "p50")
      (rolling m "serve.maint_ms" "p95")
      (rolling m "serve.maint_ms" "count")
      (numi counters "serve.appends");
    (* home + clear-screen, then the frame: a flicker-free in-place redraw *)
    print_string "\027[H\027[2J";
    print_string (Buffer.contents b);
    flush stdout;
    incr frame;
    if frames > 0 && !frame >= frames then continue := false
    else Unix.sleepf interval
  done

let client_cmd addr analyze sets appends stats shutdown monitor interval frames
    sql =
  let c = Serve.Client.connect (Serve.Protocol.addr_of_string addr) in
  let parse_set kv =
    match String.index_opt kv '=' with
    | None -> failwith ("--set expects key=value, got " ^ kv)
    | Some i ->
      let k = String.sub kv 0 i in
      let v = String.sub kv (i + 1) (String.length kv - i - 1) in
      let j =
        match (bool_of_string_opt v, int_of_string_opt v) with
        | Some b, _ -> Obs.Json.Bool b
        | None, Some n -> Obs.Json.Num (float_of_int n)
        | None, None -> Obs.Json.Str v
      in
      (k, j)
  in
  let print_result j =
    let rel = Serve.Client.relation_of_response j in
    print_string (Relation.to_string (Relation.sorted rel));
    Printf.printf "(%d rows in %.3fms%s%s)\n" (Serve.Client.rows_n j)
      (Serve.Client.ms j)
      (match Obs.Json.member "plan" j with
       | Some (Obs.Json.Str p) -> ", plan " ^ p
       | _ -> "")
      (if Serve.Client.cached j then ", cached" else "");
    match Obs.Json.member "trace" j with
    | Some t -> print_string (Obs.Span.to_text (Obs.Span.of_json t))
    | None -> ()
  in
  (* --append TABLE:v1,v2,... — one row per occurrence; cells are typed by
     shape (int, float, else string), matching the CSV loader's coercions. *)
  let do_append spec =
    match String.index_opt spec ':' with
    | None -> failwith ("--append expects TABLE:v1,v2,..., got " ^ spec)
    | Some i ->
      let table = String.sub spec 0 i in
      let cells =
        String.split_on_char ',' (String.sub spec (i + 1) (String.length spec - i - 1))
      in
      let cell v =
        match (int_of_string_opt v, float_of_string_opt v) with
        | Some n, _ -> Obs.Json.Num (float_of_int n)
        | None, Some f -> Obs.Json.Num f
        | None, None -> Obs.Json.Str v
      in
      let resp = Serve.Client.append c table [ Obs.Json.Arr (List.map cell cells) ] in
      let f n =
        match Obs.Json.member n resp with
        | Some (Obs.Json.Num x) -> int_of_float x
        | _ -> 0
      in
      Printf.printf
        "appended %d row(s) to %s: incremental %d, revalidated %d, invalidated %d\n%!"
        (f "appended") table (f "incremental") (f "revalidated") (f "invalidated")
  in
  let status = ref 0 in
  (try
     if sets <> [] then ignore (Serve.Client.set c (List.map parse_set sets));
     List.iter do_append appends;
     (match sql with
      | Some q -> print_result (Serve.Client.query ~analyze c q)
      | None -> ());
     if stats then print_endline (Obs.Json.to_string (Serve.Client.stats c));
     if monitor then do_monitor c interval frames;
     if shutdown then Serve.Client.shutdown c;
     (* With nothing else to do, read queries from stdin (one per line). *)
     if sql = None && not stats && not shutdown && not monitor && sets = []
        && appends = []
     then begin
       try
         while true do
           let line = String.trim (input_line stdin) in
           if line <> "" then
             try print_result (Serve.Client.query ~analyze c line)
             with Serve.Client.Server_error { code; message } ->
               Printf.printf "error (%s): %s\n%!" code message
         done
       with End_of_file -> ()
     end
   with Serve.Client.Server_error { code; message } ->
     Printf.eprintf "error (%s): %s\n" code message;
     status := 1);
  Serve.Client.close c;
  !status

(* ---- cmdliner plumbing ---- *)

let tables_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "table"; "t" ] ~docv:"FILE.csv[:key=a+b]"
        ~doc:"Load a CSV file as a table named after the file. An optional \
              $(b,key=col1+col2) suffix declares a candidate key (used by the \
              safety checks).")

let synth_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "synth" ] ~docv:"KIND"
        ~doc:"Generate a synthetic workload: $(b,baseball), $(b,basket) or \
              $(b,objects).")

let rows_arg =
  Arg.(
    value & opt int 10000
    & info [ "rows" ] ~docv:"N" ~doc:"Synthetic workload size.")

let layout_arg =
  Arg.(
    value & opt string "row"
    & info [ "layout" ] ~docv:"LAYOUT"
        ~doc:"Physical table layout: $(b,row) (boxed row arrays) or \
              $(b,column) (chunked columnar storage with zone maps; \
              filtered scans skip non-matching blocks).")

let cache_mb_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-mb" ] ~docv:"MB"
        ~env:(Cmd.Env.info "SI_CACHE_MB")
        ~doc:"Block-cache budget for paged $(b,.sic) tables, in megabytes. \
              Decoded blocks and encoded column sets share this byte budget \
              under LRU eviction, so datasets larger than the cap execute \
              with bounded resident memory.")

let sic_resident_arg =
  Arg.(
    value & flag
    & info [ "sic-resident" ]
        ~doc:"Decode $(b,.sic) tables fully at load instead of paging \
              blocks through the cache on demand.")

let sql_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc:"The query.")

let tech_arg =
  Arg.(
    value & opt string "all"
    & info [ "techniques"; "O" ] ~docv:"SET"
        ~doc:"Optimizations to enable: $(b,none), $(b,apriori), $(b,memo), \
              $(b,pruning) or $(b,all).")

let workers_arg =
  Arg.(
    value & opt int 1
    & info [ "workers"; "j" ] ~docv:"N"
        ~doc:"Worker domains for the smart path: NLJP chunks its outer \
              relation across $(docv) domains (and $(b,--techniques none) \
              parallelizes the baseline joins the same way). Results are \
              identical to sequential execution.")

let no_transfer_arg =
  Arg.(
    value & flag
    & info [ "no-transfer" ]
        ~doc:"Disable predicate transfer (Bloom semi-join reduction of the \
              base relations along equality join edges before NLJP). \
              Equivalent to $(b,SI_TRANSFER=0); mainly for ablation.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Show optimizer decisions.")

let max_rows_arg =
  Arg.(
    value & opt int 40
    & info [ "max-rows" ] ~docv:"N" ~doc:"Result rows to display.")

let explain_flag =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:"Print the optimizer's chosen plan (a-priori reducers, NLJP \
              split, inner access path, cost estimates) and exit without \
              executing the query.")

let analyze_flag =
  Arg.(
    value & flag
    & info [ "analyze" ]
        ~doc:"Execute the query with full instrumentation and print the \
              operator tree annotated with estimated vs actual cardinality, \
              per-node Q-error, self/cumulative wall time and operator \
              counters, plus a plan summary (worst estimates, decision \
              flips). Results are identical to a plain run.")

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"With $(b,--analyze) (or under $(b,calibrate)), emit the \
              annotated tree and summary as JSON instead of text.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~env:(Cmd.Env.info "SI_TRACE")
        ~doc:"Record the query lifecycle (parse, optimize, execute spans \
              with row counts and operator counters) and write the trace \
              as JSON to $(docv).")

let run_t =
  Cmd.v (Cmd.info "run" ~doc:"Run an iceberg query")
    Term.(
      const run_cmd $ tables_arg $ synth_arg $ rows_arg $ layout_arg
      $ cache_mb_arg $ sic_resident_arg $ tech_arg
      $ workers_arg $ no_transfer_arg $ verbose_arg
      $ max_rows_arg $ explain_flag $ analyze_flag $ json_flag $ trace_arg
      $ sql_arg)

let save_name_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "name" ] ~docv:"TABLE"
        ~doc:"Table to save (defaults to the only loaded table).")

let save_format_arg =
  Arg.(
    value & opt string "sic"
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Output format; only $(b,sic) (compressed binary columnar).")

let save_block_size_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "block-size" ] ~docv:"N"
        ~doc:"Rows per block (default: the store's block size).")

let save_out_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"OUT.sic" ~doc:"Output path.")

let save_t =
  Cmd.v
    (Cmd.info "save"
       ~doc:"Save a loaded or synthetic table as a compressed .sic columnar \
             file: frame-of-reference/run-length encoded blocks plus a \
             footer with schema, dictionaries, zone maps and Bloom filters, \
             so later runs load it without CSV parsing (and can page \
             blocks on demand)")
    Term.(
      const save_cmd $ tables_arg $ synth_arg $ rows_arg $ save_name_arg
      $ save_format_arg $ save_block_size_arg $ save_out_arg)

let calibrate_t =
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:"Replay the synthetic workloads under EXPLAIN ANALYZE and \
             tabulate the cost model's estimates against measured \
             cardinalities, keep ratios and technique payoffs")
    Term.(
      const calibrate_cmd $ rows_arg $ layout_arg $ tech_arg $ workers_arg
      $ json_flag)

let explain_t =
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show the optimizer's chosen plan without executing the query")
    Term.(
      const explain_cmd $ tables_arg $ synth_arg $ rows_arg $ layout_arg
      $ tech_arg $ sql_arg)

let compare_t =
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Time the query under every technique set against the baseline")
    Term.(
      const compare_cmd $ tables_arg $ synth_arg $ rows_arg $ layout_arg
      $ workers_arg $ sql_arg)

let addr_arg =
  Arg.(
    value
    & opt string "unix:/tmp/iceberg-serve.sock"
    & info [ "addr"; "a" ] ~docv:"ADDR"
        ~doc:"Listen/connect address: $(b,unix:/path/to.sock) or \
              $(b,tcp:host:port).")

let serve_layouts_arg =
  Arg.(
    value & opt string "both"
    & info [ "layout" ] ~docv:"LAYOUT"
        ~doc:"Physical layouts to load: $(b,row), $(b,column) or $(b,both). \
              With $(b,both) each session picks its layout via \
              $(b,set layout=...).")

let pool_arg =
  Arg.(
    value & opt int 2
    & info [ "pool" ] ~docv:"N"
        ~doc:"Worker domains executing queries off the job queue.")

let queue_cap_arg =
  Arg.(
    value & opt int 32
    & info [ "queue-cap" ] ~docv:"N"
        ~doc:"Admission-control high-water mark: requests beyond $(docv) \
              queued jobs are rejected with an $(b,overloaded) response \
              instead of buffered.")

let plan_cap_arg =
  Arg.(
    value & opt int 64
    & info [ "plan-cache" ] ~docv:"N" ~doc:"Plan (prepared-statement) cache capacity.")

let result_cap_arg =
  Arg.(
    value & opt int 128
    & info [ "result-cache" ] ~docv:"N" ~doc:"Result cache capacity.")

let serve_max_rows_arg =
  Arg.(
    value & opt int 0
    & info [ "max-rows" ] ~docv:"N"
        ~doc:"Truncate query responses to $(docv) rows (0 = unlimited).")

let no_maintain_flag =
  Arg.(
    value & flag
    & info [ "no-maintain" ]
        ~doc:"Disable incremental result maintenance: result-cache misses \
              run the engine instead of answering from shared algebraic \
              partial state, and appends drop affected result-cache entries \
              instead of folding the delta into that state.")

let set_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "set" ] ~docv:"KEY=VALUE"
        ~doc:"Session config before anything else runs: $(b,layout=column), \
              $(b,workers=4), $(b,transfer=false), $(b,tech=memo+pruning), \
              $(b,plan_cache=false), $(b,result_cache=false).")

let stats_flag =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print server statistics as JSON.")

let shutdown_flag =
  Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the server to stop.")

let append_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "append" ] ~docv:"TABLE:v1,v2,..."
        ~doc:"Append one row to $(docv) on the server (repeatable). Cells \
              are typed by shape: int, float, else string.")

let client_sql_arg =
  Arg.(
    value & pos 0 (some string) None
    & info [] ~docv:"SQL"
        ~doc:"Query to run; omitted (and with no other action), queries are \
              read from stdin one per line.")

let metrics_addr_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-addr" ] ~docv:"ADDR"
        ~doc:"Expose Prometheus text metrics over plain HTTP on $(docv) \
              (HOST:PORT, port 0 for ephemeral, or a unix:PATH socket).")

let slow_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:"Log queries taking at least $(docv) milliseconds to the \
              slow-query log as JSONL (query text, session config, cache \
              disposition, per-node analyze summary). Per-session \
              overridable with $(b,set slow_ms=...). Off by default.")

let slow_log_arg =
  Arg.(
    value
    & opt string "iceberg-slow.jsonl"
    & info [ "slow-log" ] ~docv:"FILE"
        ~doc:"Slow-query log path (opened lazily on the first record).")

let trace_sample_arg =
  Arg.(
    value & opt float 0.
    & info [ "trace-sample" ] ~docv:"FRACTION"
        ~doc:"Run this fraction (0..1) of queries fully instrumented \
              (bypassing both caches) and log their complete span trees to \
              the slow-query log, so est-vs-actual coverage includes fast \
              queries. Per-session overridable with \
              $(b,set trace_sample=...).")

let monitor_flag =
  Arg.(
    value & flag
    & info [ "monitor" ]
        ~doc:"Live terminal view of server health: qps, rolling p50/p95 \
              latency, cache hit rates, queue depth and maintenance \
              outcomes, polled from the metrics op and redrawn in place.")

let interval_arg =
  Arg.(
    value & opt float 2.
    & info [ "interval" ] ~docv:"SECONDS"
        ~doc:"Refresh interval for $(b,--monitor).")

let frames_arg =
  Arg.(
    value & opt int 0
    & info [ "frames" ] ~docv:"N"
        ~doc:"Exit $(b,--monitor) after $(docv) refreshes (0 = run until \
              interrupted).")

let serve_t =
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Start the multi-session query server: a worker-domain pool \
             behind a bounded admission queue, with a shared plan cache \
             (prepared statements keyed by normalized query + session \
             config) and a stamp-keyed result cache maintained \
             incrementally across appends")
    Term.(
      const serve_cmd $ tables_arg $ synth_arg $ rows_arg $ serve_layouts_arg
      $ cache_mb_arg $ addr_arg $ pool_arg $ queue_cap_arg $ plan_cap_arg
      $ result_cap_arg $ serve_max_rows_arg $ no_maintain_flag
      $ metrics_addr_arg $ slow_ms_arg $ slow_log_arg $ trace_sample_arg)

let client_t =
  Cmd.v
    (Cmd.info "client"
       ~doc:"Connect to a running server and run queries, append rows, \
             tweak session config, fetch statistics or request shutdown")
    Term.(
      const client_cmd $ addr_arg $ analyze_flag $ set_arg $ append_arg
      $ stats_flag $ shutdown_flag $ monitor_flag $ interval_arg $ frames_arg
      $ client_sql_arg)

let main =
  Cmd.group
    (Cmd.info "smart-iceberg" ~version:"1.0"
       ~doc:"Iceberg query optimizer (SIGMOD'17 reproduction)")
    [ run_t; explain_t; compare_t; calibrate_t; save_t; serve_t; client_t ]

let () = exit (Cmd.eval' main)
