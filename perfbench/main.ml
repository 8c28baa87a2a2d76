(* The repository benchmark: three closed-loop workloads driven only through
   the system's public entry points, end-to-end metrics as a client sees
   them, and (with --trace 1) a per-layer ledger timed from outside the
   program around each call.  README.md in this directory maps every
   per-layer metric to the end-to-end metric it should move.

     main.exe --workload adhoc_paper|serve_mixed|stream_append \
              --seed N --seconds S --trace 0|1 [--dir DIR]

   Human-readable lines go first; the last line of standard output is one
   JSON object {"correct", "attempted", "failed", "metrics"}.  The exit
   code is non-zero when any output check fails. *)

open Relalg
module Json = Obs.Json
module Client = Serve.Client

let now = Unix.gettimeofday

(* ---- statistics ---- *)

(* Linear interpolation between order statistics. *)
let quantile q = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        let line = input_line ic in
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        else scan ()
      in
      scan ())

(* ---- counters and histograms, read from the process-global registry ---- *)

type marks = { m_counters : (string * int) list; m_hists : Obs.Metrics.hist_summary list }

let mark () = { m_counters = Obs.Metrics.snapshot (); m_hists = Obs.Metrics.hist_snapshot () }

let counter_delta a b name =
  let get l = Option.value (List.assoc_opt name l) ~default:0 in
  get b.m_counters - get a.m_counters

(* Count, sum and quantiles of the observations a histogram received
   between two marks (bucket-wise difference). *)
let hist_delta a b name =
  let find m = List.find_opt (fun h -> h.Obs.Metrics.hs_name = name) m.m_hists in
  match (find a, find b) with
  | _, None -> (0, 0., fun _ -> 0.)
  | before, Some h1 ->
    let b0 =
      match before with
      | Some h0 -> h0.Obs.Metrics.hs_buckets
      | None -> Array.make (Array.length h1.Obs.Metrics.hs_buckets) 0
    in
    let buckets = Array.mapi (fun i n -> n - b0.(i)) h1.Obs.Metrics.hs_buckets in
    let n = Array.fold_left ( + ) 0 buckets in
    let sum =
      h1.Obs.Metrics.hs_sum
      -. match before with Some h0 -> h0.Obs.Metrics.hs_sum | None -> 0.
    in
    (n, sum, Obs.Metrics.quantile_of_buckets buckets n)

(* ---- run options and results ---- *)

type opts = { workload : string; seed : int; seconds : float; trace : bool; dir : string }

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type outcome = {
  attempted : int;
  failed : int;  (* error responses plus result mismatches *)
  mismatches : int;
  e2e : metric list;  (* the end_to_end metrics of BENCHMARK.json *)
  printed : metric list;  (* end-to-end figures printed beside them only *)
  layers : metric list;
  notes : string list;  (* human-readable breakdown, printed first *)
}

(* One line per kind of request: count and median latency. *)
let breakdown samples =
  let kinds = List.sort_uniq compare (List.map fst samples) in
  List.map
    (fun k ->
      let xs = List.filter_map (fun (k', ms) -> if k = k' then Some ms else None) samples in
      Printf.sprintf "  %-20s n=%4d  p50 %10.3f ms  p90 %10.3f ms" k (List.length xs)
        (median xs) (quantile 0.9 xs))
    kinds

(* The ledger of one mean request: its parts, which add up to [total], and
   the largest of them. *)
let ledger_note what ~total parts =
  let name, _ = List.fold_left (fun (n, v) (n', v') -> if v' > v then (n', v') else (n, v)) ("", neg_infinity) parts in
  Printf.sprintf "  ledger, %s: %.3f ms = %s; largest part: %s" what total
    (String.concat " + " (List.map (fun (n, v) -> Printf.sprintf "%s %.3f" n v) parts))
    name

(* The end-to-end metrics every workload reports, and three printed beside
   them only.  On the serving workloads most queries are cached reads of a
   millisecond or less, whose latency depends on what the other session is
   doing at that instant: over ten seeds the IQR of their median exceeded
   the median on serve_mixed, and of their 90th percentile a third of it on
   stream_append, beyond any bound.  [fresh_ms] is the typical time to an
   answer that reflects new input; each workload says how it is taken. *)
let end_to_end ~setup_s ~qps ~fresh_ms ~lat ~fresh =
  ( [ m "setup_s" "s" setup_s; m "qps" "1/s" qps; m "fresh_ms" "ms" fresh_ms;
      m "peak_rss_mb" "MB" (peak_rss_mb ()) ],
    [ m "latency_p50_ms" "ms" (median lat); m "latency_p90_ms" "ms" (quantile 0.9 lat);
      m "fresh_p90_ms" "ms" (quantile 0.9 fresh) ] )

(* ---- set-up, repeated so setup_s is a median ---- *)

let setup_runs = 3

(* Every set-up part, so each workload reports all of them (0 where a
   workload has no such step). *)
let setup_parts =
  [ "setup.generate_s"; "setup.index_s"; "setup.sic_save_s"; "setup.sic_open_s";
    "setup.start_s"; "setup.warm_s" ]

(* Runs [setup] [setup_runs] times, tearing down all but the last, and
   returns the last environment with the median set-up time and the parts
   of the run that took it.  [setup] wraps each step in the [part] it is
   given; setup_s is the sum of the parts. *)
type part = { part : 'a. string -> (unit -> 'a) -> 'a }

let repeated_setup setup ~teardown =
  let last = ref None in
  let runs =
    List.init setup_runs (fun i ->
        let parts = ref [] in
        let part name f =
          let t0 = now () in
          let r = f () in
          parts := (name, now () -. t0) :: !parts;
          r
        in
        let env = setup { part } in
        if i < setup_runs - 1 then begin
          teardown env;
          Gc.compact ()
        end
        else last := Some env;
        let total = List.fold_left (fun acc (_, s) -> acc +. s) 0. !parts in
        (total, !parts))
  in
  let by_time = List.sort (fun (a, _) (b, _) -> compare a b) runs in
  let setup_s, parts = List.nth by_time (setup_runs / 2) in
  let env = Option.get !last in
  (* Every timed window starts from a compacted heap, whatever garbage
     the set-ups left behind. *)
  Gc.compact ();
  let parts =
    List.map
      (fun name ->
        m name "s" (List.fold_left (fun acc (n, s) -> if n = name then acc +. s else acc) 0. parts))
      setup_parts
  in
  (env, setup_s, parts)

(* ---- shared pieces of the traced ledger ---- *)

(* Engine counters over a window: optimizer, transfer, NLJP, column scan
   and block cache, all read as registry deltas from outside the calls. *)
let engine_layers a b =
  let d = counter_delta a b in
  let outer = d "nljp.outer_rows" and inner = d "nljp.inner_evals" in
  let memo = d "nljp.memo_hits" in
  let scanned = d "colscan.blocks_scanned" and skipped = d "colscan.blocks_skipped" in
  let hits = d "sic.cache_hits" and misses = d "sic.cache_misses" in
  let probed = d "transfer.rows_probed" in
  let c name = m name "count" (float_of_int (d name)) in
  [ c "optimizer.apriori_rewrites"; c "optimizer.nljp_plans"; c "optimizer.transfer_plans";
    c "transfer.rows_probed"; c "transfer.rows_dropped";
    m "transfer.drop_ratio" "ratio" (ratio (d "transfer.rows_dropped") probed);
    c "nljp.outer_rows"; c "nljp.inner_evals"; c "nljp.pruned"; c "nljp.memo_hits";
    c "nljp.vector_fallbacks";
    m "nljp.prune_ratio" "ratio" (ratio (d "nljp.pruned") outer);
    m "nljp.memo_hit_ratio" "ratio" (ratio memo (memo + inner));
    c "colscan.blocks_scanned";
    m "colscan.skip_ratio" "ratio" (ratio skipped (skipped + scanned));
    c "sic.cache_misses"; c "sic.cache_evictions"; c "sic.blocks_decoded";
    m "blockcache.hit_ratio" "ratio" (ratio hits (hits + misses)) ]

(* Layer metrics a workload has no such layer for still appear, as 0, so
   every run reports the same names. *)
let layer_names =
  [ ("sqlfront.parse_ms", "ms"); ("runner.prepare_ms", "ms"); ("runner.execute_ms", "ms");
    ("delta.init_ms", "ms"); ("serve.exec_ms", "ms"); ("serve.outside_exec_ms", "ms");
    ("serve.queue_wait_ms", "ms"); ("serve.maint_ms", "ms"); ("serve.maint_incremental", "count");
    ("serve.maint_revalidate", "count"); ("serve.maint_recompute", "count");
    ("serve.result_hit_ratio", "ratio"); ("serve.plan_hit_ratio", "ratio");
    ("serve.rejected", "count"); ("serve.errors", "count"); ("append_p50_ms", "ms");
    ("append_p90_ms", "ms"); ("unattributed_ms", "ms"); ("trace.overhead_frac", "ratio") ]

let complete_layers given =
  given
  @ List.filter_map
      (fun (name, unit_) ->
        if List.exists (fun x -> x.name = name) given then None else Some (m name unit_ 0.))
      layer_names

(* Time [f] into [acc] (milliseconds) when tracing; run it bare otherwise. *)
let timed traced acc f =
  if not traced then f ()
  else begin
    let t0 = now () in
    let r = f () in
    acc := ((now () -. t0) *. 1000.) :: !acc;
    r
  end

(* In-process parse, prepare and execute of one text, timed per stage. *)
let run_in_process ?(traced = true) cat text (parse, prep, exec) =
  let ast = timed traced parse (fun () -> Sqlfront.Parser.parse text) in
  let p = timed traced prep (fun () -> Core.Runner.prepare cat ast) in
  fst (timed traced exec (fun () -> Core.Runner.run_prepared p))

(* ================================================================ *)
(* adhoc_paper: one in-process client, every text fresh               *)

(* The host this runs on is shared, and its speed moves by up to 2x within
   a minute as other tenants come and go: a fixed loop timed once a second
   read 0.65 to 1.3 times its median.  CPU-bound queries slow with it, and
   timed in wall time alone one seed's runs spread as widely as ten seeds'.
   So on adhoc_paper and serve_mixed every query whose time is gated
   follows a run of [reference_ms], a fixed loop that shares no code with
   the system, and its time is counted in units of the loop: milliseconds
   at reference speed, the time it would take on a host where the loop
   takes 1 ms.  The host's speed cancels; a change to the program moves the
   figure as it moves wall time. *)
let reference_size = 1 lsl 22

let reference_data = lazy (Array.init reference_size (fun i -> i * 7))

(* 50,000 seeded random reads of a 32 MB array, about 1 ms. *)
let reference_ms () =
  let a = Lazy.force reference_data in
  let t0 = now () in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 50_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    acc := !acc + a.(!x land (reference_size - 1))
  done;
  ignore (Sys.opaque_identity !acc);
  (now () -. t0) *. 1000.

(* The host's speed at the [i]-th of [reference] runs, in the order they
   ran: the median of the five around it, about half a second of runs on
   adhoc_paper. *)
let speed_at reference i =
  let lo = max 0 (i - 2) and hi = min (Array.length reference - 1) (i + 2) in
  median (Array.to_list (Array.sub reference lo (hi - lo + 1)))

(* The seed fixes a run's texts (Inputs.adhoc_texts: three per family,
   33 in all) and the window runs them in rounds of about 4 s until it
   ends.  Nothing is cached between runs of a text: each parses, prepares
   and executes it afresh. *)
type adhoc_window = {
  a_n : int;  (* executions *)
  a_failed : int;
  a_wall : float;
  a_rounds : int;
  a_lat : float list;  (* every execution, wall time *)
  a_norm : float list;  (* every execution, at reference speed *)
  a_texts : (string * float) list;  (* family, median run of each text at reference speed *)
  a_reference : float list;  (* every reference run, ms *)
  a_unstable : string list;  (* texts whose runs gave different results *)
  a_stages : float list ref * float list ref * float list ref;
  a_marks : marks * marks;
}

let adhoc opts =
  let sz = Inputs.adhoc_full in
  let setup { part } =
    let pool = part "setup.generate_s" (fun () -> Inputs.adhoc_pool ~seed:opts.seed sz) in
    part "setup.index_s" (fun () ->
        Array.iter (List.iter (fun (_, cat) -> Workload.Baseball.build_indexes cat)) pool);
    pool
  in
  let pool, setup_s, setup_layers = repeated_setup setup ~teardown:ignore in
  let cat_of (copy, which) = List.assoc which pool.(copy) in
  let texts = Array.of_list (Inputs.adhoc_texts ~seed:opts.seed sz) in
  (* The first basket pairs result, for the check against the baseline. *)
  let basket_first = ref None in
  let window ~traced =
    let stages = (ref [], ref [], ref []) in
    let lat = ref [] and refs = ref [] and failed = ref 0 and n = ref 0 in
    let runs = Array.make (Array.length texts) [] in
    let m0 = mark () in
    let t_start = now () in
    let deadline = t_start +. opts.seconds in
    (* One timed execution, after a reference run: its latency, position
       and result digest. *)
    let run1 (name, which, text) =
      let pos = !n in
      incr n;
      refs := reference_ms () :: !refs;
      let t0 = now () in
      match run_in_process ~traced (cat_of which) text stages with
      | rel ->
        let ms = (now () -. t0) *. 1000. in
        lat := ms :: !lat;
        if name = "basket_pairs" && Option.is_none !basket_first then
          basket_first := Some (which, text, rel);
        Some (ms, pos, Inputs.digest rel)
      | exception e ->
        incr failed;
        Printf.eprintf "adhoc_paper: %s failed: %s\n%!" name (Printexc.to_string e);
        None
    in
    (* The first round always completes, so every text has a time. *)
    let rounds = ref 0 in
    while !rounds = 0 || now () < deadline do
      Array.iteri
        (fun j q ->
          if !rounds = 0 || now () < deadline then
            Option.iter (fun r -> runs.(j) <- r :: runs.(j)) (run1 q))
        texts;
      incr rounds
    done;
    let wall = now () -. t_start in
    let reference = Array.of_list (List.rev !refs) in
    let norm = ref [] and per_text = ref [] and unstable = ref [] in
    Array.iteri
      (fun j (name, _, text) ->
        match runs.(j) with
        | [] -> ()
        | (_, _, d) :: _ as rs ->
          let us = List.map (fun (ms, pos, _) -> ms /. speed_at reference pos) rs in
          norm := us @ !norm;
          per_text := (name, median us) :: !per_text;
          if List.exists (fun (_, _, d') -> d' <> d) rs then unstable := text :: !unstable)
      texts;
    { a_n = !n; a_failed = !failed; a_wall = wall; a_rounds = !rounds; a_lat = !lat; a_norm = !norm;
      a_texts = !per_text; a_reference = Array.to_list reference; a_unstable = !unstable;
      a_stages = stages; a_marks = (m0, mark ()) }
  in
  let plain = window ~traced:false in
  let traced = if opts.trace then Some (window ~traced:true) else None in
  (* Checks, after the timed windows. *)
  let mismatches = ref 0 in
  let check what ok =
    if not ok then begin
      incr mismatches;
      Printf.printf "MISMATCH %s\n%!" what
    end
  in
  List.iter
    (fun w -> List.iter (fun text -> check ("repeats of " ^ text) false) w.a_unstable)
    (plain :: Option.to_list traced);
  (* The baseline executor finishes at full scale only on the equi-join
     basket pairs. *)
  Option.iter
    (fun (which, text, rel) ->
      check "basket_pairs vs baseline"
        (Core.Runner.same_result rel
           (Core.Runner.run_baseline (cat_of which) (Sqlfront.Parser.parse text))))
    !basket_first;
  let none = (ref [], ref [], ref []) in
  let rsz = Inputs.adhoc_reduced in
  let reduced = Inputs.adhoc_catalogs ~seed:(Inputs.adhoc_copy_seed opts.seed 0) rsz in
  let reduced_rows = ref [] in
  List.iter (fun (_, cat) -> Workload.Baseball.build_indexes cat) reduced;
  List.iter
    (fun (which, fam) ->
      let cat = List.assoc which reduced in
      let text = Inputs.draw fam in
      let smart = run_in_process ~traced:false cat text none in
      reduced_rows := (fam.Inputs.name, Relation.cardinality smart) :: !reduced_rows;
      check ("reduced " ^ fam.Inputs.name ^ " vs baseline")
        (Core.Runner.same_result smart
           (Core.Runner.run_baseline cat (Sqlfront.Parser.parse text))))
    (Inputs.adhoc_families ~seed:opts.seed rsz);
  let windows = plain :: Option.to_list traced in
  let attempted = List.fold_left (fun acc w -> acc + w.a_n) 0 windows in
  let failed = List.fold_left (fun acc w -> acc + w.a_failed) 0 windows + !mismatches in
  let qps w = float_of_int (List.length w.a_lat) /. w.a_wall in
  (* At reference speed: queries per second of query time, and the
     geometric mean over the texts of each text's median run, in which
     every family weighs the same (the median of 11 families' texts falls
     in a gap between two of them, and moved by a fifth between seeds).
     The wall-time figures and the reference's own time are printed
     beside them. *)
  let texts_ms = List.map snd plain.a_texts in
  let e2e, printed =
    end_to_end ~setup_s
      ~qps:(1000. *. float_of_int (List.length plain.a_norm) /. List.fold_left ( +. ) 0. plain.a_norm)
      ~fresh_ms:(exp (mean (List.map log texts_ms))) ~lat:plain.a_lat ~fresh:texts_ms
  in
  let printed =
    m "runs_per_s" "1/s" (qps plain) :: m "reference_ms" "ms" (median plain.a_reference) :: printed
  in
  let layers, ledger =
    match traced with
    | None -> ([], [])
    | Some w ->
      let parse, prep, exec = w.a_stages in
      let parts =
        [ ("sqlfront.parse_ms", mean !parse); ("runner.prepare_ms", mean !prep);
          ("runner.execute_ms", mean !exec) ]
      in
      let total = mean w.a_lat in
      let parts = parts @ [ ("unattributed_ms", total -. List.fold_left (fun a (_, v) -> a +. v) 0. parts) ] in
      let a, b = w.a_marks in
      ( setup_layers
        @ List.map (fun (n, v) -> m n "ms" v) parts
        @ [ m "trace.overhead_frac" "ratio" (1. -. (qps w /. qps plain)) ]
        @ engine_layers a b,
        [ ledger_note "query latency" ~total parts ] )
  in
  { attempted; failed; mismatches = !mismatches; e2e; printed; layers = complete_layers layers;
    notes =
      breakdown plain.a_texts @ ledger
      @ [ Printf.sprintf "  %d texts, %d rounds, %d runs in %.1f s" (Array.length texts) plain.a_rounds
            plain.a_n plain.a_wall;
          "  reduced-scale checks (family: result rows): "
          ^ String.concat ", "
              (List.rev_map (fun (n, r) -> Printf.sprintf "%s: %d" n r) !reduced_rows) ] }

(* ================================================================ *)
(* Serving workloads: an in-process server, closed-loop client sessions *)

let rows_digest resp =
  match Json.member "rows" resp with
  | Some rows -> Digest.string (Json.to_string rows)
  | None -> ""

(* One request as the client saw it. *)
type req = {
  r_kind : string;  (* family or role of the text *)
  r_text : string;
  r_fresh_ms : float option;
      (* time to an answer that reflects new input: the latency of a fresh
         text, or the time from sending an append to the maintained answer *)
  r_ms : float;  (* client-observed latency *)
  r_exec_ms : float;  (* the response's own [ms] field *)
  r_cached : bool;
  r_digest : string;
}

(* Runs one domain per client until the deadline, each calling [step] with
   its session number, client, request index and the deadline; [step]
   returns the requests it made.  A step that raises counts as one failed
   request (error or [overloaded] response); a session whose connection
   breaks stops.  Sessions are domains, not threads, so one session
   decoding a large response never holds the runtime lock another
   session's reply waits for. *)
let closed_loop ~clients ~seconds step =
  let mu = Mutex.create () in
  let reqs = ref [] and attempted = ref 0 and failed = ref 0 in
  let t_start = now () in
  let deadline = t_start +. seconds in
  let session (si, c) =
    let i = ref 0 in
    let stop = ref false in
    while (not !stop) && now () < deadline do
      let got, bad =
        match step si c !i deadline with
        | got -> (got, 0)
        | exception Client.Server_error { code; message } ->
          Printf.eprintf "session %d: %s: %s\n%!" si code message;
          ([], 1)
        | exception e ->
          Printf.eprintf "session %d: %s\n%!" si (Printexc.to_string e);
          stop := true;
          ([], 1)
      in
      incr i;
      Mutex.lock mu;
      attempted := !attempted + List.length got + bad;
      failed := !failed + bad;
      reqs := got @ !reqs;
      Mutex.unlock mu
    done
  in
  List.iter Domain.join
    (List.mapi (fun si c -> Domain.spawn (fun () -> session (si, c))) (Array.to_list clients));
  (!reqs, !attempted, !failed, now () -. t_start)

let timed_query ?(fresh = false) c ~kind text =
  let t0 = now () in
  let r = Client.query c text in
  let ms = (now () -. t0) *. 1000. in
  ( r,
    { r_kind = kind; r_text = text; r_fresh_ms = (if fresh then Some ms else None); r_ms = ms;
      r_exec_ms = Client.ms r;
      r_cached = Client.cached r; r_digest = rows_digest r } )

let server_counters c =
  match Json.member "counters" (Client.metrics c) with
  | Some (Json.Obj kvs) ->
    List.filter_map (function k, Json.Num x -> Some (k, int_of_float x) | _ -> None) kvs
  | _ -> []

let serve_layers ~before ~after =
  let d name =
    Option.value (List.assoc_opt name after) ~default:0
    - Option.value (List.assoc_opt name before) ~default:0
  in
  let hit_ratio pre = ratio (d (pre ^ "_hit")) (d (pre ^ "_hit") + d (pre ^ "_miss")) in
  [ m "serve.result_hit_ratio" "ratio" (hit_ratio "serve.result");
    m "serve.plan_hit_ratio" "ratio" (hit_ratio "serve.plan");
    m "serve.rejected" "count" (float_of_int (d "serve.rejected"));
    m "serve.errors" "count" (float_of_int (d "serve.errors"));
    m "serve.maint_incremental" "count" (float_of_int (d "serve.maint_incremental"));
    m "serve.maint_revalidate" "count" (float_of_int (d "serve.maint_revalidate"));
    m "serve.maint_recompute" "count" (float_of_int (d "serve.maint_recompute")) ]

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

(* A running server over [cat] with every connection the workload uses.
   The connections are opened right after start and closed only by
   [stop_server], never while others are in use: closing a connection, on
   either side, closes its descriptor twice, so a descriptor opened in
   between is the one the second close hits. *)
type server = {
  cat : Catalog.t;
  srv : Serve.Server.t;
  ctl : Client.t;  (* warm-up, metrics and final reads *)
  sessions : Client.t array;  (* the two closed-loop sessions *)
  files : string list;  (* .sic files and the socket *)
}

let start_server ~dir ~tag ?(files = []) layout cat =
  let sock = Filename.concat dir (Printf.sprintf "%s.sock" tag) in
  remove_quietly sock;
  let config = { Serve.Server.default_config with listen = `Unix sock } in
  let srv = Serve.Server.start ~config [ (layout, cat) ] in
  let connect () = Client.connect (`Unix sock) in
  let ctl = connect () in
  { cat; srv; ctl; sessions = Array.init 2 (fun _ -> connect ()); files = sock :: files }

let stop_server s =
  Array.iter Client.close s.sessions;
  Client.close s.ctl;
  (* Let the server's connection threads finish their closes before this
     process opens another descriptor. *)
  Thread.delay 0.2;
  Serve.Server.shutdown s.srv

(* Stop the server and delete its files, once nothing reads the catalog. *)
let discard s =
  stop_server s;
  List.iter remove_quietly s.files

let warm s texts = List.iter (fun t -> ignore (Client.query s.ctl t)) texts

(* Each [(what, text, response)] decoded and compared with an in-process
   run of [text] over the server's catalog, once the server has stopped;
   returns the number of mismatches.  [stages] collects the in-process
   parse/prepare/execute times. *)
let check_responses cat responses stages =
  List.fold_left
    (fun bad (what, text, resp) ->
      let want = run_in_process cat text stages in
      if Core.Runner.same_result want (Client.relation_of_response resp) then bad
      else begin
        Printf.printf "MISMATCH %s: %s\n%!" what text;
        bad + 1
      end)
    0 responses

(* Requests whose answers differ from an earlier answer to the same text,
   among those no append could have changed. *)
let digest_mismatches reqs =
  let seen = Hashtbl.create 16 in
  List.fold_left
    (fun bad q ->
      match Hashtbl.find_opt seen q.r_text with
      | None ->
        Hashtbl.add seen q.r_text q.r_digest;
        bad
      | Some d when d = q.r_digest -> bad
      | Some _ ->
        Printf.printf "MISMATCH repeat of %s\n%!" q.r_kind;
        bad + 1)
    0 reqs

(* ================================================================ *)
(* serve_mixed                                                         *)

(* Block-cache budget, below the decoded size of the basket table (about
   3 MB at 2x10^5 rows), so its scans evict. *)
let serve_cache_mb = 1

(* Request [i] of session [si]: every block of ten holds three fresh texts
   and seven repeats of the [n_hot] hot texts at seeded positions, so the
   mix is the same in every run while the two sessions never fall into
   step with each other. *)
let slot ~seed ~n_hot si i =
  let block = i / 10 in
  let perm = Inputs.shuffle (Inputs.sub seed (4000 + (si * 1_000_000) + block)) 10 in
  let p = perm.(i mod 10) in
  if p < 3 then `Fresh else `Hot ((p + block) mod n_hot)

(* Fresh responses kept per family and window for the output check. *)
let checked_per_family = 2

(* Order in which fresh texts visit the families (indexes into
   [Inputs.serve_families]).  By latency the fresh texts sort as
   complex_filtered < complex < skyband < basket pairs; with skyband and
   basket pairs twice each, the median fresh text is the median skyband
   text, not the gap between two families. *)
let fresh_rotation = [| 0; 2; 0; 1; 3; 3 |]

let serve_mixed opts =
  let sz = Inputs.serve_full in
  Column.Blockcache.set_capacity_mb serve_cache_mb;
  let fams = Array.of_list (Inputs.serve_families ~seed:opts.seed sz) in
  let hot = Array.map (fun f -> (f.Inputs.name, Inputs.draw f)) fams in
  let runs = ref 0 in
  let setup { part } =
    incr runs;
    let tag = Printf.sprintf "serve%d" !runs in
    let gen = part "setup.generate_s" (fun () -> Inputs.serve_catalog ~seed:opts.seed sz) in
    let files =
      part "setup.sic_save_s" (fun () ->
          List.map
            (fun name ->
              let path = Filename.concat opts.dir (Printf.sprintf "%s-%s.sic" tag name) in
              Sic.save path (Catalog.find gen name).Catalog.rel;
              (name, path))
            (Catalog.table_names gen))
    in
    (* Paged, as `iceberg_cli serve --table x.sic` opens them. *)
    let cat =
      part "setup.sic_open_s" (fun () ->
          let cat = Catalog.create () in
          List.iter
            (fun (name, path) ->
              let tb = Catalog.find gen name in
              Catalog.add_table cat ~keys:tb.Catalog.keys ~fds:tb.Catalog.fds
                ~nonneg:tb.Catalog.nonneg name (Sic.load ~mode:`Paged path))
            files;
          cat)
    in
    let s =
      part "setup.start_s" (fun () ->
          start_server ~dir:opts.dir ~tag ~files:(List.map snd files) `Column cat)
    in
    part "setup.warm_s" (fun () -> warm s (Array.to_list (Array.map snd hot)));
    s
  in
  let s, setup_s, setup_layers = repeated_setup setup ~teardown:discard in
  let mu = Mutex.create () in
  let next_fresh = ref 0 in
  let kept = ref [] and kept_n = Hashtbl.create 8 in
  let first_hot = Hashtbl.create 8 in
  (* (start, reference ms, latency ms) of each fresh text. *)
  let fresh_refs = ref [] in
  (* Allocated before the sessions start: forcing a lazy value from two
     domains at once is an error. *)
  ignore (Lazy.force reference_data);
  let step si c i _deadline =
    match slot ~seed:opts.seed ~n_hot:(Array.length hot) si i with
    | `Fresh ->
      Mutex.lock mu;
      let f = fams.(fresh_rotation.(!next_fresh mod Array.length fresh_rotation)) in
      incr next_fresh;
      let text = Inputs.draw f in
      Mutex.unlock mu;
      let t_ref = now () in
      let reference = reference_ms () in
      let r, q = timed_query ~fresh:true c ~kind:f.Inputs.name text in
      Mutex.lock mu;
      fresh_refs := (t_ref, reference, q.r_ms) :: !fresh_refs;
      let n = Option.value (Hashtbl.find_opt kept_n q.r_kind) ~default:0 in
      if n < checked_per_family then begin
        Hashtbl.replace kept_n q.r_kind (n + 1);
        kept := (q.r_kind, text, r) :: !kept
      end;
      Mutex.unlock mu;
      [ q ]
    | `Hot h ->
      let kind, text = hot.(h) in
      let r, q = timed_query c ~kind text in
      Mutex.lock mu;
      if not (Hashtbl.mem first_hot text) then Hashtbl.add first_hot text (kind, text, r);
      Mutex.unlock mu;
      [ q ]
  in
  let window () =
    let c0 = server_counters s.ctl and m0 = mark () in
    let reqs, attempted, failed, wall = closed_loop ~clients:s.sessions ~seconds:opts.seconds step in
    (reqs, attempted, failed, wall, (c0, server_counters s.ctl), (m0, mark ()))
  in
  let plain = window () in
  let plain_kept = !kept and plain_refs = !fresh_refs in
  Hashtbl.reset kept_n;
  kept := [];
  let traced = if opts.trace then Some (window ()) else None in
  stop_server s;
  (* Checks, after the timed windows. *)
  let untimed = (ref [], ref [], ref []) and stages = (ref [], ref [], ref []) in
  let hot_responses = Hashtbl.fold (fun _ x acc -> x :: acc) first_hot [] in
  let all_reqs =
    let reqs, _, _, _, _, _ = plain in
    match traced with Some (t, _, _, _, _, _) -> reqs @ t | None -> reqs
  in
  let mismatches =
    digest_mismatches (List.filter (fun q -> q.r_fresh_ms = None) all_reqs)
    + check_responses s.cat (hot_responses @ plain_kept) untimed
    + check_responses s.cat !kept stages
  in
  (* Core.Delta.init on the traced window's checked fresh texts, over the
     same data: the work the server does after the reply's [ms] closes. *)
  let init_ms = Hashtbl.create 8 in
  if opts.trace then
    List.iter
      (fun (kind, text, _) ->
        let t0 = now () in
        ignore (Core.Delta.init s.cat (Sqlfront.Parser.parse text));
        Hashtbl.add init_ms kind ((now () -. t0) *. 1000.))
      !kept;
  List.iter remove_quietly s.files;
  let reqs, attempted, failed, wall, _, _ = plain in
  let ok = List.length reqs in
  let lat = List.map (fun q -> q.r_ms) reqs in
  let fresh_lat = List.filter_map (fun q -> q.r_fresh_ms) reqs in
  (* Fresh latency and qps at reference speed: each fresh text divided by
     the host's speed when it ran, qps scaled by the median speed. *)
  let by_start = Array.of_list (List.sort compare plain_refs) in
  let reference = Array.map (fun (_, r, _) -> r) by_start in
  let fresh_at = Array.to_list (Array.mapi (fun i (_, _, ms) -> ms /. speed_at reference i) by_start) in
  let reference_med = median (Array.to_list reference) in
  let e2e, printed =
    end_to_end ~setup_s ~qps:(float_of_int ok /. wall *. reference_med) ~fresh_ms:(median fresh_at)
      ~lat ~fresh:fresh_lat
  in
  let printed =
    m "qps_wall" "1/s" (float_of_int ok /. wall) :: m "fresh_p50_wall_ms" "ms" (median fresh_lat)
    :: m "reference_ms" "ms" reference_med :: printed
  in
  let attempted, failed =
    match traced with
    | Some (_, a, f, _, _, _) -> (attempted + a, failed + f)
    | None -> (attempted, failed)
  in
  let layers, ledger =
    match traced with
    | None -> ([], [])
    | Some (treqs, _, _, twall, (c0, c1), (m0, m1)) ->
      let fresh = List.filter (fun q -> q.r_fresh_ms <> None) treqs in
      let init_of kind = mean (Hashtbl.find_all init_ms kind) in
      let lat = mean (List.map (fun q -> q.r_ms) fresh) in
      let exec = mean (List.map (fun q -> q.r_exec_ms) fresh) in
      let init = mean (List.map (fun q -> init_of q.r_kind) fresh) in
      let parse, prep, exec_in = stages in
      let _, _, wait_q = hist_delta m0 m1 "serve.queue_wait_ms" in
      let tqps = float_of_int (List.length treqs) /. twall in
      let parts =
        [ ("serve.exec_ms", exec); ("delta.init_ms", init); ("unattributed_ms", lat -. exec -. init) ]
      in
      ( setup_layers
        @ List.map (fun (n, v) -> m n "ms" v) parts
        @ [ m "sqlfront.parse_ms" "ms" (mean !parse); m "runner.prepare_ms" "ms" (mean !prep);
            m "runner.execute_ms" "ms" (mean !exec_in);
            m "serve.outside_exec_ms" "ms" (lat -. exec);
            m "serve.queue_wait_ms" "ms" (wait_q 0.5);
            m "trace.overhead_frac" "ratio" (1. -. (tqps /. (float_of_int ok /. wall))) ]
        @ serve_layers ~before:c0 ~after:c1
        @ engine_layers m0 m1,
        [ ledger_note "fresh-text latency" ~total:lat parts;
          Printf.sprintf "  serve.outside_exec_ms %.3f covers delta.init_ms %.3f: %b" (lat -. exec)
            init (lat -. exec >= init) ] )
  in
  { attempted; failed = failed + mismatches; mismatches; e2e; printed; layers = complete_layers layers;
    notes =
      breakdown
        (List.map
           (fun q -> ((if q.r_fresh_ms <> None then "fresh " else "hot ") ^ q.r_kind, q.r_ms))
           reqs)
      @ ledger }

(* ================================================================ *)
(* stream_append                                                       *)

(* Appended baskets per burst: 0.1% of the table, 5 items each. *)
let burst_baskets sz = max 2 (sz.Inputs.t_basket / 5000)

(* Think time of the appending session: with 0.1% bursts the table grows
   by 10% every 10 s of run however fast the server maintains, and reads
   find the catalog write-locked for a steady share of the time (about 15%
   today), so read p90 measures waiting behind appends. *)
let burst_interval_s = 0.1

let stream_append opts =
  let sz = Inputs.stream_full in
  let runs = ref 0 in
  let setup { part } =
    incr runs;
    let tag = Printf.sprintf "stream%d" !runs in
    let cat, texts =
      part "setup.generate_s" (fun () ->
          let cat = Inputs.stream_catalog ~seed:opts.seed sz in
          (cat, Inputs.stream_texts ~seed:opts.seed cat))
    in
    part "setup.index_s" (fun () -> Workload.Baseball.build_indexes cat);
    let s = part "setup.start_s" (fun () -> start_server ~dir:opts.dir ~tag `Row cat) in
    let pairs, refuted, player = texts in
    part "setup.warm_s" (fun () -> warm s [ pairs; refuted; player ]);
    (s, texts)
  in
  let (s, (pairs, refuted, player)), setup_s, setup_layers =
    repeated_setup setup ~teardown:(fun (s, _) -> discard s)
  in
  let rng = Workload.Prng.create (Inputs.sub opts.seed 3000) in
  let n_burst = burst_baskets sz in
  let bursts = ref 0 and dropped = ref 0 in
  let mu = Mutex.create () in
  let not_cached q =
    if not q.r_cached then begin
      Mutex.lock mu;
      incr dropped;
      Mutex.unlock mu;
      Printf.printf "DROPPED %s fell out of the maintained cache\n%!" q.r_kind
    end
  in
  (* Session 0 appends a burst, then reads the maintained pairs entry, at
     most once per [burst_interval_s] so the table grows by the same
     amount in every run; session 1 reads the three cached entries in
     turn. *)
  let next_burst = ref (now ()) in
  let step si c i deadline =
    if si = 0 then begin
      let wait = !next_burst -. now () in
      if wait > 0. then Unix.sleepf wait;
      next_burst := Float.max (now ()) (!next_burst +. burst_interval_s);
      if now () >= deadline then []
      else begin
      Mutex.lock mu;
      let first_bid = Inputs.fresh_bid_base + (!bursts * n_burst) in
      incr bursts;
      let rows = Inputs.burst rng ~first_bid ~n:n_burst in
      Mutex.unlock mu;
      let t0 = now () in
      let ack = Client.append c "basket" rows in
      let t1 = now () in
      let _, q = timed_query c ~kind:"pairs" pairs in
      not_cached q;
      let a =
        { r_kind = "append"; r_text = ""; r_fresh_ms = None; r_ms = (t1 -. t0) *. 1000.;
          r_exec_ms = 0.; r_cached = false; r_digest = Json.to_string ack }
      in
      [ a; { q with r_fresh_ms = Some ((now () -. t0) *. 1000.) } ]
      end
    end
    else begin
      let kind, text =
        match i mod 3 with 0 -> ("pairs", pairs) | 1 -> ("refuted", refuted) | _ -> ("player", player)
      in
      let _, q = timed_query c ~kind text in
      not_cached q;
      [ q ]
    end
  in
  let window () =
    let c0 = server_counters s.ctl and m0 = mark () in
    let reqs, attempted, failed, wall = closed_loop ~clients:s.sessions ~seconds:opts.seconds step in
    (reqs, attempted, failed, wall, (c0, server_counters s.ctl), (m0, mark ()))
  in
  let plain = window () in
  let traced = if opts.trace then Some (window ()) else None in
  (* Final answers after the last append, checked against an in-process
     recompute once the server has stopped. *)
  let finals =
    List.map
      (fun (kind, text) ->
        let r, q = timed_query s.ctl ~kind text in
        not_cached q;
        (kind, text, r))
      [ ("pairs", pairs); ("refuted", refuted); ("player", player) ]
  in
  stop_server s;
  List.iter remove_quietly s.files;
  let stages = (ref [], ref [], ref []) in
  let mismatches = check_responses s.cat finals stages in
  let init_ms =
    if not opts.trace then 0.
    else begin
      let t0 = now () in
      ignore (Core.Delta.init s.cat (Sqlfront.Parser.parse pairs));
      (now () -. t0) *. 1000.
    end
  in
  let appends reqs = List.filter (fun q -> q.r_kind = "append") reqs in
  let queries reqs = List.filter (fun q -> q.r_kind <> "append") reqs in
  let ms = List.map (fun q -> q.r_ms) in
  let fresh reqs = List.filter_map (fun q -> q.r_fresh_ms) reqs in
  let reqs, attempted, failed, wall, _, _ = plain in
  let ops_per_s reqs wall = float_of_int (List.length reqs) /. wall in
  let lat = ms (queries reqs) in
  let e2e, printed =
    end_to_end ~setup_s ~qps:(ops_per_s reqs wall) ~fresh_ms:(median (fresh reqs)) ~lat
      ~fresh:(fresh reqs)
  in
  let attempted, failed =
    match traced with
    | Some (_, a, f, _, _, _) -> (attempted + a, failed + f)
    | None -> (attempted, failed)
  in
  (* Ledger of a fresh answer: append acknowledged (maintenance inside the
     server plus the rest of the append path) then the maintained read. *)
  let layers, ledger =
    match traced with
    | None -> ([], [])
    | Some (treqs, _, _, twall, (c0, c1), (m0, m1)) ->
      let app = ms (appends treqs) in
      let fresh_mean = mean (fresh treqs) in
      let reads = List.filter (fun q -> q.r_fresh_ms <> None) treqs in
      let exec = mean (List.map (fun q -> q.r_exec_ms) reads) in
      let _, maint_sum, maint_q = hist_delta m0 m1 "serve.maint_ms" in
      let maint_per_append = maint_sum /. float_of_int (max 1 (List.length app)) in
      let _, _, wait_q = hist_delta m0 m1 "serve.queue_wait_ms" in
      let parse, prep, exec_in = stages in
      let read = mean (ms reads) in
      let rest = fresh_mean -. maint_per_append -. read in
      ( setup_layers
        @ [ m "sqlfront.parse_ms" "ms" (mean !parse); m "runner.prepare_ms" "ms" (mean !prep);
            m "runner.execute_ms" "ms" (mean !exec_in); m "delta.init_ms" "ms" init_ms;
            m "serve.exec_ms" "ms" exec; m "serve.outside_exec_ms" "ms" (fresh_mean -. exec);
            m "serve.queue_wait_ms" "ms" (wait_q 0.5); m "serve.maint_ms" "ms" (maint_q 0.5);
            m "append_p50_ms" "ms" (median app); m "append_p90_ms" "ms" (quantile 0.9 app);
            m "unattributed_ms" "ms" rest;
            m "trace.overhead_frac" "ratio" (1. -. (ops_per_s treqs twall /. ops_per_s reqs wall)) ]
        @ serve_layers ~before:c0 ~after:c1
        @ engine_layers m0 m1,
        [ ledger_note "append to fresh answer" ~total:fresh_mean
            [ ("maintenance per append", maint_per_append); ("unattributed_ms", rest);
              ("maintained read", read) ] ] )
  in
  { attempted; failed = failed + mismatches + !dropped; mismatches; e2e; printed;
    layers = complete_layers layers;
    notes =
      breakdown
        (List.map (fun q -> (q.r_kind, q.r_ms)) reqs
        @ List.map (fun ms -> ("fresh answer", ms)) (fresh reqs))
      @ ledger }

(* ================================================================ *)
(* Output                                                              *)

let print_outcome o ~trace =
  List.iter print_endline o.notes;
  let line x = Printf.printf "%-28s %16.4f %s\n" x.name x.value x.unit_ in
  let shown = if trace then o.layers else o.e2e in
  if not trace then List.iter line o.printed;
  List.iter line shown;
  Printf.printf "%-28s %16.4f %s\n" "error_frac" (ratio o.failed o.attempted) "ratio";
  Printf.printf "%-28s %16d %s\n%!" "attempted" o.attempted "count";
  let metrics =
    List.map (fun x -> (x.name, Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit_) ])) shown
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (o.mismatches = 0));
            ("attempted", Json.Num (float_of_int o.attempted));
            ("failed", Json.Num (float_of_int o.failed)); ("metrics", Json.Obj metrics) ]))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let dir = ref "." in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "adhoc_paper | serve_mixed | stream_append");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1  report the per-layer ledger instead");
      ("--dir", Arg.Set_string dir, "DIR  scratch directory for .sic files and sockets") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let opts =
    { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1; dir = !dir }
  in
  let run =
    match opts.workload with
    | "adhoc_paper" -> adhoc
    | "serve_mixed" -> serve_mixed
    | "stream_append" -> stream_append
    | w ->
      Printf.eprintf "unknown workload %S\n" w;
      exit 2
  in
  let o = run opts in
  print_outcome o ~trace:opts.trace;
  exit (if o.mismatches = 0 then 0 else 1)
