(* The always-on query server (DESIGN.md §12).

   One process owns the catalogs; any number of clients hold sessions
   against them.  The concurrency architecture in one paragraph: a
   sys-thread per connection parses requests off the socket and either
   answers cheap control operations inline (ping / set / stats) or submits
   the request to a bounded job queue; a fixed pool of worker domains
   drains the queue and executes queries.  Submission past the queue's
   high-water mark is rejected immediately with an [overloaded] response —
   admission control by backpressure, never by unbounded buffering.
   Catalog access follows a readers/writer discipline: plain queries take
   the read side and run concurrently; appends and CTE-bearing queries
   (whose execution registers temp tables in the shared catalog) take the
   exclusive side.

   Two cache tiers sit in front of execution, both keyed by the normalized
   query text plus the session's execution-relevant config (layout,
   workers, transfer, tech):

   - the PLAN cache maps that key to a {!Runner.prepared} — optimizer
     decision, NLJP operator with its cross-query shared prune/memo tier,
     and memoized predicate-transfer Blooms.  Entries are validated
     lazily: a hit whose {!Runner.prepared_version} trails the catalog's
     {!Catalog.version} is re-prepared in place (and counted as a miss).
     An append refreshes every entry in place ({!Runner.refresh_prepared}):
     the version advances and the NLJP shared tier is revalidated entry by
     entry instead of discarded, so only plans the delta actually
     invalidates re-prepare.
   - the RESULT cache holds the already-encoded JSON response fields plus
     the entry's delta epoch: the tables the query reads and their
     {!Catalog.stamp}s at execution time.  A hit is exact iff every stamp
     still matches — same text, same config, same data.  An append
     maintains affected entries instead of evicting them: entries whose
     tables don't include the appended table are untouched; entries with
     §6 algebraic partial state ({!Core.Delta}) are folded forward
     (telescoping delta joins) or revalidated (every delta row refuted by
     occurrence-local predicates); only entries without a delta rule — or
     whose delta step fails — are dropped and recomputed on next demand.
   - the PARTIALS registry (one per layout catalog) maps the normalized
     text of a query's §6 partials query — FROM / WHERE / GROUP BY and the
     partial aggregates, no HAVING — to its maintained partial state.  A
     cacheable miss over a registered shape is answered by finalizing that
     state for the query's own SELECT and HAVING (a new iceberg threshold
     runs no join at all); a miss over a new shape builds the state once
     and answers from it.  Result entries share the state they were
     answered from, and an append folds each distinct state exactly once.

   Correctness of both tiers leans on every base-data mutation going
   through [append] under the exclusive lock, and on the temp-table
   lifecycle leaving versions and stamps alone. *)

open Relalg
module Json = Obs.Json
module P = Protocol

(* ---------------------------------------------------------------- *)
(* Readers/writer lock *)

module Rwlock = struct
  type t = {
    mu : Mutex.t;
    cv : Condition.t;
    mutable readers : int;
    mutable writer : bool;
  }

  let create () =
    { mu = Mutex.create (); cv = Condition.create (); readers = 0; writer = false }

  let read t f =
    Mutex.lock t.mu;
    while t.writer do
      Condition.wait t.cv t.mu
    done;
    t.readers <- t.readers + 1;
    Mutex.unlock t.mu;
    Fun.protect f ~finally:(fun () ->
        Mutex.lock t.mu;
        t.readers <- t.readers - 1;
        if t.readers = 0 then Condition.broadcast t.cv;
        Mutex.unlock t.mu)

  let write t f =
    Mutex.lock t.mu;
    while t.writer || t.readers > 0 do
      Condition.wait t.cv t.mu
    done;
    t.writer <- true;
    Mutex.unlock t.mu;
    Fun.protect f ~finally:(fun () ->
        Mutex.lock t.mu;
        t.writer <- false;
        Condition.broadcast t.cv;
        Mutex.unlock t.mu)
end

(* ---------------------------------------------------------------- *)
(* Configuration *)

type config = {
  listen : P.addr;
  pool : int;  (* worker domains *)
  queue_cap : int;  (* admission-control high-water mark *)
  plan_cache_cap : int;
  result_cache_cap : int;
  max_rows : int option;  (* rows per response; None = all *)
  maintain : bool;
      (* answer cacheable misses from shared §6 algebraic partial state
         and maintain cached results incrementally across appends *)
  metrics_addr : P.addr option;
      (* optional plain-HTTP listener answering every request with the
         Prometheus text exposition of the metrics registry *)
  slow_ms : float option;
      (* default slow-query threshold (per-session overridable with
         [set slow_ms=...]); queries at or above it are written to the
         slow-query log.  None = off. *)
  slow_log : string option;  (* JSONL path; opened lazily on first record *)
  trace_sample : float;
      (* default fraction of queries (decided per request id, before
         execution) run with full analyze instrumentation and logged with
         their span tree — est-vs-actual coverage for fast queries too *)
}

let default_config =
  {
    listen = `Unix "/tmp/iceberg-serve.sock";
    pool = 2;
    queue_cap = 32;
    plan_cache_cap = 64;
    result_cache_cap = 128;
    max_rows = None;
    maintain = true;
    metrics_addr = None;
    slow_ms = None;
    slow_log = None;
    trace_sample = 0.;
  }

(* ---------------------------------------------------------------- *)
(* Sessions *)

type session = {
  sid : int;
  mutable layout : [ `Row | `Column ];
  mutable workers : int;
  mutable transfer : bool;
  mutable tech : Core.Optimizer.technique;
  mutable use_plan_cache : bool;
  mutable use_result_cache : bool;
  mutable slow_ms : float option;  (* slow-query threshold; None = off *)
  mutable trace_sample : float;  (* fraction of queries traced end to end *)
  s_mu : Mutex.t;  (* guards the mutable tallies below *)
  mutable s_queries : int;
  mutable s_errors : int;
  mutable s_plan_hits : int;
  mutable s_result_hits : int;
  mutable s_ms : float;
  mutable s_counters : (string * int) list;
      (* cumulative per-session slice of span counters: summed over the
         span trees of this session's queries only, so it never reads
         another session's traffic *)
}

let layout_str = function `Row -> "row" | `Column -> "column"

let tech_str (t : Core.Optimizer.technique) =
  match (t.apriori, t.memo, t.pruning) with
  | true, true, true -> "all"
  | false, false, false -> "none"
  | a, m, p ->
    String.concat "+"
      (List.filter_map
         (fun (on, s) -> if on then Some s else None)
         [ (a, "apriori"); (m, "memo"); (p, "pruning") ])

let tech_of_str s =
  match String.lowercase_ascii s with
  | "all" -> Some Core.Optimizer.all_techniques
  | "none" -> Some { Core.Optimizer.apriori = false; memo = false; pruning = false }
  | s ->
    let parts = String.split_on_char '+' s in
    let t = ref { Core.Optimizer.apriori = false; memo = false; pruning = false } in
    let ok =
      List.for_all
        (fun p ->
          match p with
          | "apriori" -> t := { !t with Core.Optimizer.apriori = true }; true
          | "memo" -> t := { !t with Core.Optimizer.memo = true }; true
          | "pruning" -> t := { !t with Core.Optimizer.pruning = true }; true
          | _ -> false)
        parts
    in
    if ok then Some !t else None

let session_config_json s =
  Json.Obj
    [
      ("layout", Json.Str (layout_str s.layout));
      ("workers", Json.Num (float_of_int s.workers));
      ("transfer", Json.Bool s.transfer);
      ("tech", Json.Str (tech_str s.tech));
      ("plan_cache", Json.Bool s.use_plan_cache);
      ("result_cache", Json.Bool s.use_result_cache);
      ( "slow_ms",
        match s.slow_ms with Some x -> Json.Num x | None -> Json.Null );
      ("trace_sample", Json.Num s.trace_sample);
    ]

(* ---------------------------------------------------------------- *)
(* Server state *)

type plan_entry = {
  pe_mu : Mutex.t;  (* guards the re-prepare swap, not execution *)
  mutable pe_prepared : Core.Runner.prepared;
}

(* A cached result and its delta epoch.  Mutable fields are only written
   under the exclusive lock (fresh inserts happen via [Lru.put], appends
   maintain in place); readers under the shared lock see a coherent entry
   because appends exclude them entirely. *)
type cached_result = {
  mutable cr_fields : (string * Json.t) list;  (* encoded response payload *)
  cr_layout : [ `Row | `Column ];
  cr_tables : string list;  (* normalized base tables the query reads *)
  mutable cr_stamps : (string * Catalog.stamp) list;  (* per-table epochs *)
  cr_state : Core.Delta.t option;
      (* view over shared §6 partials, when the query has a delta rule *)
}

(* A registered partial state and the stamps it is current at.  Written
   only under the exclusive lock (appends fold it); readers finalize it. *)
type partials_entry = {
  ps_state : Core.Delta.state;
  mutable ps_stamps : (string * Catalog.stamp) list;
}

type conn = {
  fd : Unix.file_descr;
  oc : out_channel;
  w_mu : Mutex.t;  (* one response line at a time per connection *)
  session : session;
}

(* [j_rid] is the server-wide request id stamped by the reader thread and
   threaded through the queue into the worker's spans and the slow-query
   log; [j_submit_s] times the queue wait. *)
type job = {
  j_conn : conn;
  j_id : int;
  j_rid : int;
  j_submit_s : float;
  j_req : P.request;
}

type t = {
  config : config;
  catalogs : ([ `Row | `Column ] * Catalog.t) list;
  plan_cache : plan_entry Cache.Lru.t;
  result_cache : cached_result Cache.Lru.t;
  partials : ([ `Row | `Column ] * partials_entry Cache.Lru.t) list;
      (* one registry per layout catalog, keyed by partials-query text *)
  lock : Rwlock.t;
  queue : job Queue.t;
  q_mu : Mutex.t;
  q_cv : Condition.t;
  mutable q_closed : bool;
  sessions : (int, session) Hashtbl.t;
  sess_mu : Mutex.t;
  next_sid : int Atomic.t;
  stopping : bool Atomic.t;
  started : float;
  mutable listen_fd : Unix.file_descr;
  mutable accept_thread : Thread.t option;
  mutable workers : unit Domain.t list;
  mutable metrics_fd : Unix.file_descr option;
  mutable metrics_thread : Thread.t option;
  slow_mu : Mutex.t;  (* guards the lazily opened slow-query log channel *)
  mutable slow_oc : out_channel option;
}

(* Server-level counters live in the shared Obs registry so they surface in
   [--metrics] dumps and bench JSON alongside operator counters. *)
let c_queries = Obs.Metrics.counter "serve.queries"
let c_rejected = Obs.Metrics.counter "serve.rejected"
let c_plan_hit = Obs.Metrics.counter "serve.plan_hit"
let c_plan_miss = Obs.Metrics.counter "serve.plan_miss"
let c_result_hit = Obs.Metrics.counter "serve.result_hit"
let c_result_miss = Obs.Metrics.counter "serve.result_miss"
let c_appends = Obs.Metrics.counter "serve.appends"
let c_errors = Obs.Metrics.counter "serve.errors"
let c_maint_incremental = Obs.Metrics.counter "serve.maint_incremental"
let c_maint_revalidate = Obs.Metrics.counter "serve.maint_revalidate"
let c_maint_recompute = Obs.Metrics.counter "serve.maint_recompute"
let c_plan_refreshed = Obs.Metrics.counter "serve.plan_refreshed"
let c_partials_hit = Obs.Metrics.counter "serve.partials_hit"
let c_partials_build = Obs.Metrics.counter "serve.partials_build"
let c_partials_shared = Obs.Metrics.counter "serve.partials_shared"
let h_query_ms = Obs.Metrics.histogram "serve.query_ms"
let h_maint_ms = Obs.Metrics.histogram "serve.maint_ms"
let h_queue_wait_ms = Obs.Metrics.histogram "serve.queue_wait_ms"

(* Rolling windows over the last minute (6 x 10s), feeding the metrics
   endpoint and the live monitor: current qps and p50/p95, not lifetime. *)
let r_queries = Obs.Rolling.roll "serve.queries"
let r_query_ms = Obs.Rolling.roll "serve.query_ms"
let r_maint_ms = Obs.Rolling.roll "serve.maint_ms"
let r_queue_wait_ms = Obs.Rolling.roll "serve.queue_wait_ms"

(* Server-wide request ids, stamped on jobs by the reader threads. *)
let next_rid = Atomic.make 1

(* Deterministic per-request sampling decision: an integer hash of the
   request id mapped into [0,1) — no shared RNG state, and a given rid
   samples identically however the request is routed. *)
let sample_hit rid frac =
  if frac <= 0. then false
  else if frac >= 1. then true
  else begin
    let z = rid * 0x2545F4914F6CDD1 in
    let z = z lxor (z lsr 29) in
    let z = z * 0x9E3779B97F4A7 in
    let z = z lxor (z lsr 32) in
    float_of_int (z land 0xFFFFFF) /. 16777216. < frac
  end

let catalog_for t layout =
  match List.assoc_opt layout t.catalogs with
  | Some c -> c
  | None -> snd (List.hd t.catalogs)

let partials_for t layout =
  match List.assoc_opt layout t.partials with
  | Some r -> r
  | None -> snd (List.hd t.partials)

let partials_entries t =
  List.fold_left (fun n (_, r) -> n + Cache.Lru.length r) 0 t.partials

(* The stamps of [tables] now, or None when one is gone. *)
let stamps_now cat tables =
  match Catalog.stamps cat tables with
  | exception _ -> None
  | now -> Some now

let fresh_session t =
  let sid = Atomic.fetch_and_add t.next_sid 1 in
  let layout, _ = List.hd t.catalogs in
  let s =
    {
      sid;
      layout;
      workers = 1;
      transfer = true;
      tech = Core.Optimizer.all_techniques;
      use_plan_cache = true;
      use_result_cache = true;
      slow_ms = t.config.slow_ms;
      trace_sample = t.config.trace_sample;
      s_mu = Mutex.create ();
      s_queries = 0;
      s_errors = 0;
      s_plan_hits = 0;
      s_result_hits = 0;
      s_ms = 0.;
      s_counters = [];
    }
  in
  Mutex.lock t.sess_mu;
  Hashtbl.replace t.sessions sid s;
  Mutex.unlock t.sess_mu;
  s

let drop_session t s =
  Mutex.lock t.sess_mu;
  Hashtbl.remove t.sessions s.sid;
  Mutex.unlock t.sess_mu

(* ---------------------------------------------------------------- *)
(* Responses *)

let send conn json =
  Mutex.lock conn.w_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.w_mu)
    (fun () ->
      output_string conn.oc (Json.to_string json);
      output_char conn.oc '\n';
      flush conn.oc)

let send_ok conn ~id fields = send conn (P.response_ok ~id fields)

let send_error conn ~id ~code msg =
  Obs.Metrics.incr c_errors;
  Mutex.lock conn.session.s_mu;
  conn.session.s_errors <- conn.session.s_errors + 1;
  Mutex.unlock conn.session.s_mu;
  send conn (P.response_error ~id ~code msg)

(* ---------------------------------------------------------------- *)
(* Query execution *)

let merge_counts acc kvs =
  List.fold_left
    (fun acc (k, v) ->
      match List.assoc_opt k acc with
      | Some v0 -> (k, v0 + v) :: List.remove_assoc k acc
      | None -> (k, v) :: acc)
    acc kvs

let rec span_counter_slice acc (s : Obs.Span.t) =
  let acc = merge_counts acc s.Obs.Span.counters in
  List.fold_left span_counter_slice acc (Obs.Span.children s)

let plan_key session ast =
  Printf.sprintf "%s|layout=%s|workers=%d|transfer=%b|tech=%s"
    (Sqlfront.Pretty.query ast) (layout_str session.layout) session.workers
    session.transfer (tech_str session.tech)

let bump_session session ~ms ~plan_hit ~result_hit slice =
  Mutex.lock session.s_mu;
  session.s_queries <- session.s_queries + 1;
  session.s_ms <- session.s_ms +. ms;
  if plan_hit then session.s_plan_hits <- session.s_plan_hits + 1;
  if result_hit then session.s_result_hits <- session.s_result_hits + 1;
  session.s_counters <- merge_counts session.s_counters slice;
  Mutex.unlock session.s_mu

(* ---- structured slow-query log ----

   One JSON object per line, written under [slow_mu] (the channel is opened
   lazily, so a server that never logs never touches the filesystem).  A
   record carries the query text, the session's execution config, the
   plan/cache disposition, the per-node Analyze summary derived from the
   request's span tree (actual rows, counters, per-node times; est-vs-actual
   Q-errors wherever estimates were stamped), and — for sampled requests,
   which run fully instrumented — the complete span tree. *)

let slow_log_write t json =
  match t.config.slow_log with
  | None -> ()
  | Some path ->
    Mutex.lock t.slow_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.slow_mu)
      (fun () ->
        let oc =
          match t.slow_oc with
          | Some oc -> oc
          | None ->
            let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
            t.slow_oc <- Some oc;
            oc
        in
        output_string oc (Json.to_string json);
        output_char oc '\n';
        flush oc)

let slow_record ~kind ~rid ~wait_ms ~ms ~plan ~sql ~sampled session span =
  let node = Core.Analyze.of_span span in
  let summary = Core.Analyze.summarize node in
  Json.Obj
    [
      ("ts", Json.Num (Unix.gettimeofday ()));
      ("rid", Json.Num (float_of_int rid));
      ("session", Json.Num (float_of_int session.sid));
      ("kind", Json.Str kind);
      ("ms", Json.Num ms);
      ("queue_ms", Json.Num wait_ms);
      ( "slow_ms",
        match session.slow_ms with Some x -> Json.Num x | None -> Json.Null );
      ("sql", Json.Str sql);
      ("config", session_config_json session);
      ("plan", Json.Str plan);
      ("analyze", Core.Analyze.document node summary);
      ("trace", if sampled then Obs.Span.to_json span else Json.Null);
    ]

let handle_query t conn ~id ~rid ~wait_ms ~analyze sql =
  let session = conn.session in
  match Sqlfront.Parser.parse sql with
  | exception Sqlfront.Parser.Parse_error m ->
    send_error conn ~id ~code:"bad_request" ("parse error: " ^ m)
  | exception Sqlfront.Lexer.Lex_error (m, off) ->
    send_error conn ~id ~code:"bad_request"
      (Printf.sprintf "lex error at %d: %s" off m)
  | ast ->
    let cat = catalog_for t session.layout in
    (* CTE execution registers temp tables in the shared catalog, so those
       queries take the writer side; everything else runs concurrently. *)
    let exclusive = ast.Sqlfront.Ast.with_defs <> [] in
    let with_lock f = if exclusive then Rwlock.write t.lock f else Rwlock.read t.lock f in
    (* A sampled request runs fully instrumented like an explicit analyze
       (fresh trace with per-node estimates, caches bypassed), so the log
       gets complete est-vs-actual span trees for a fraction of ordinary
       traffic; everything else keeps its cached path untouched. *)
    let sampled = sample_hit rid session.trace_sample in
    let instrument = analyze || sampled in
    let outcome =
      with_lock (fun () ->
          let version = Catalog.version cat in
          let key = plan_key session ast in
          let cached =
            if instrument || not session.use_result_cache then None
            else
              match Cache.Lru.find t.result_cache key with
              | None -> None
              | Some cr ->
                (* A hit is exact iff every table the query read still has
                   the stamp the entry was computed (or maintained) at.
                   Appends keep maintained entries current, so a mismatch
                   only means the entry predates an unmaintainable change —
                   fall through to a fresh execution that overwrites it. *)
                (match Catalog.stamps cat cr.cr_tables with
                 | exception _ -> None
                 | now -> if now = cr.cr_stamps then Some cr else None)
          in
          match cached with
          | Some cr ->
            Obs.Metrics.incr c_result_hit;
            `Hit cr.cr_fields
          | None ->
            let cacheable = (not instrument) && session.use_result_cache in
            if cacheable then Obs.Metrics.incr c_result_miss;
            let span = Obs.Span.enter ~session_id:session.sid "serve.query" in
            Obs.Span.note span
              (Printf.sprintf "rid=%d queue_ms=%.3f" rid wait_ms);
            (* A cacheable miss over a shape with a delta rule is answered
               from its §6 partial state: the registered one when current,
               else one built now — the cache entry needs it anyway, so the
               engine never runs.  Under the read lock registry entries are
               only added or replaced, never mutated, so two concurrent
               builds of one shape just leave one state unregistered; the
               result entry answered from it still folds it on appends. *)
            let from_partials () =
              if not (cacheable && t.config.maintain && not exclusive) then None
              else
                match Core.Delta.partials_key cat ast with
                | None -> None
                | Some pkey ->
                  let registry = partials_for t session.layout in
                  let registered =
                    match Cache.Lru.find registry pkey with
                    | Some pe
                      when stamps_now cat (Core.Delta.state_tables pe.ps_state)
                           = Some pe.ps_stamps ->
                      Core.Delta.view pe.ps_state ast
                    | _ -> None
                  in
                  (match registered with
                   | Some v ->
                     Obs.Metrics.incr c_partials_hit;
                     Some v
                   | None ->
                     let built =
                       Obs.Span.with_span ~parent:span "serve.delta_init"
                         (fun _ -> Core.Delta.init cat ast)
                     in
                     Option.iter
                       (fun v ->
                         let st = Core.Delta.state v in
                         match stamps_now cat (Core.Delta.state_tables st) with
                         | Some stamps ->
                           Obs.Metrics.incr c_partials_build;
                           Cache.Lru.put registry pkey
                             { ps_state = st; ps_stamps = stamps }
                         | None -> ())
                       built;
                     built)
            in
            let prepare ?span () =
              Core.Runner.prepare ?span ~tech:session.tech ~workers:session.workers
                ~transfer:session.transfer cat ast
            in
            let engine () =
              (* Plan caching needs a stable prepared plan; analyze (and a
                 sampled trace) wants a fresh instrumented run and CTE
                 queries re-register temps per run, so all three run a
                 fresh plan that is not cached. *)
              if instrument || exclusive || not session.use_plan_cache then begin
                let rel, _report =
                  Core.Runner.run_prepared ~span ~analyze:instrument (prepare ~span ())
                in
                (rel, `Bypass)
              end
              else begin
                let entry, status =
                  match Cache.Lru.find t.plan_cache key with
                  | Some e ->
                    (* Stale entries are re-prepared in place under the
                       entry mutex; that is a logical miss. *)
                    Mutex.lock e.pe_mu;
                    let st =
                      if Core.Runner.prepared_version e.pe_prepared <> version
                      then begin
                        e.pe_prepared <- prepare ();
                        `Miss
                      end
                      else `Hit
                    in
                    Mutex.unlock e.pe_mu;
                    (e, st)
                  | None ->
                    let e = { pe_mu = Mutex.create (); pe_prepared = prepare () } in
                    Cache.Lru.put t.plan_cache key e;
                    (e, `Miss)
                in
                (match status with
                | `Hit -> Obs.Metrics.incr c_plan_hit
                | `Miss -> Obs.Metrics.incr c_plan_miss);
                let rel, _report = Core.Runner.run_prepared ~span entry.pe_prepared in
                (rel, status)
              end
            in
            let exec () =
              match from_partials () with
              | Some v ->
                let rel =
                  Obs.Span.with_span ~parent:span "serve.delta_result" (fun _ ->
                      Core.Delta.result v)
                in
                (rel, Some v, `Partials)
              | None ->
                let rel, status = engine () in
                (rel, None, status)
            in
            (match exec () with
            | exception e ->
              Obs.Span.finish span;
              `Err (Printexc.to_string e)
            | rel, view, status ->
              let plan_s =
                match status with
                | `Hit -> "hit"
                | `Miss -> "miss"
                | `Bypass -> "bypass"
                | `Partials -> "partials"
              in
              let rows = P.relation_to_json ?max_rows:t.config.max_rows rel in
              (* [ms], [serve.query_ms] and the slow-query log cover the
                 whole path before the reply: state build, execution or
                 finalization, and encoding. *)
              Obs.Span.finish span;
              let ms = span.Obs.Span.dur_ms in
              Obs.Metrics.observe h_query_ms ms;
              Obs.Rolling.observe r_query_ms ms;
              let slice = span_counter_slice [] span in
              bump_session session ~ms
                ~plan_hit:(status = `Hit)
                ~result_hit:false slice;
              let slow =
                match session.slow_ms with Some th -> ms >= th | None -> false
              in
              if slow || sampled then begin
                let kind =
                  match (slow, sampled) with
                  | true, true -> "slow+sampled"
                  | true, false -> "slow"
                  | false, _ -> "sampled"
                in
                slow_log_write t
                  (slow_record ~kind ~rid ~wait_ms ~ms ~plan:plan_s ~sql
                     ~sampled session span)
              end;
              let fields =
                rows
                @ [ ("ms", Json.Num ms); ("plan", Json.Str plan_s) ]
                @ (if analyze then [ ("trace", Obs.Span.to_json span) ] else [])
              in
              if cacheable then begin
                let tables =
                  List.filter (Catalog.mem cat)
                    (Sqlfront.Ast.tables_of_query ast)
                in
                (* [view] is the partial state the answer came from; queries
                   without a delta rule (CTEs, DISTINCT, holistic
                   aggregates, …) or with maintenance off get [None] and
                   are dropped on append. *)
                Cache.Lru.put t.result_cache key
                  {
                    cr_fields = fields;
                    cr_layout = session.layout;
                    cr_tables = tables;
                    cr_stamps = Catalog.stamps cat tables;
                    cr_state = view;
                  }
              end;
              `Fresh fields))
    in
    (match outcome with
    | `Hit fields ->
      bump_session session ~ms:0. ~plan_hit:false ~result_hit:true [];
      Obs.Metrics.incr c_queries;
      Obs.Rolling.mark r_queries;
      send_ok conn ~id
        (fields
        @ [
            ("cached", Json.Bool true);
            ("session", Json.Num (float_of_int session.sid));
            ("rid", Json.Num (float_of_int rid));
          ])
    | `Fresh fields ->
      Obs.Metrics.incr c_queries;
      Obs.Rolling.mark r_queries;
      send_ok conn ~id
        (fields
        @ [
            ("cached", Json.Bool false);
            ("session", Json.Num (float_of_int session.sid));
            ("rid", Json.Num (float_of_int rid));
          ])
    | `Err msg -> send_error conn ~id ~code:"error" msg)

(* ---------------------------------------------------------------- *)
(* Appends *)

let handle_append t conn ~id table rows =
  match
    Rwlock.write t.lock (fun () ->
        (* Resolve the table in every layout catalog and decode the payload
           completely BEFORE mutating anything: a bad row (or a table known
           to one catalog but not another) then can never leave the layout
           catalogs out of lockstep — either every catalog appends the same
           rows or none does. *)
        let cats =
          List.map
            (fun (_, cat) ->
              match Catalog.find_opt cat table with
              | Some tb -> (cat, tb)
              | None -> failwith ("append: no such table " ^ table))
            t.catalogs
        in
        let schema = (snd (List.hd cats)).Catalog.rel.Relation.schema in
        let arity = Schema.arity schema in
        let fresh =
          Array.of_list
            (List.map
               (fun rj ->
                 match rj with
                 | Json.Arr cells when List.length cells = arity ->
                   Array.of_list (List.map P.value_of_json cells)
                 | Json.Arr _ ->
                   failwith
                     (Printf.sprintf "append %s: row arity mismatch (want %d)"
                        table arity)
                 | _ -> failwith "append: each row must be a JSON array")
               rows)
        in
        (* O(delta): the rows land in delta blocks ({!Relation.append}),
           never rebuilding the resident prefix. *)
        List.iter (fun (cat, _) -> Catalog.append_rows cat table fresh) cats;
        let delta = Relation.make schema fresh in
        (* Cached plans survive the append: direct/rewrite plans re-execute
           against the live catalog anyway, NLJP plans revalidate their
           shared prune/memo tier entry by entry.  Only a plan whose
           operator the delta invalidates stays stale (it re-prepares
           lazily on its next hit). *)
        let plans_refreshed = ref 0 in
        ignore
          (Cache.Lru.retain t.plan_cache (fun _ e ->
               Mutex.lock e.pe_mu;
               (match
                  Core.Runner.refresh_prepared e.pe_prepared ~table ~delta
                with
               | `Kept | `Refreshed -> incr plans_refreshed
               | `Reprepare _ -> ());
               Mutex.unlock e.pe_mu;
               true));
        (* Maintain the result cache.  Entries that don't read the table
           keep their payload and stamps untouched; entries with delta
           state fold the append in (or prove it can't change the result);
           the rest drop and recompute on next demand.  Entries share
           partial states, so each distinct state folds exactly once —
           memoized by identity — and every entry sharing it re-finalizes
           from the folded state.  A failed fold drops every sharer. *)
        let t_norm = String.lowercase_ascii table in
        let folds = ref [] in
        let fold st =
          match List.assq_opt st !folds with
          | Some f -> (f, false)
          | None ->
            let t0 = Unix.gettimeofday () in
            let outcome = Core.Delta.fold st ~table ~delta in
            let f = (outcome, (Unix.gettimeofday () -. t0) *. 1000., ref 0) in
            folds := (st, f) :: !folds;
            (f, true)
        in
        (* Maintenance time per entry: its own re-finalization, plus the
           fold for the entry that triggered it. *)
        let observe_maint ms =
          Obs.Metrics.observe h_maint_ms ms;
          Obs.Rolling.observe r_maint_ms ms
        in
        let maint_inc = ref 0 and maint_reval = ref 0 in
        let dropped =
          Cache.Lru.retain t.result_cache (fun _ cr ->
              if not (List.mem t_norm cr.cr_tables) then true
              else
                let keep =
                  match cr.cr_state with
                  | None -> false
                  | Some v ->
                    let (outcome, fold_ms, sharers), first =
                      fold (Core.Delta.state v)
                    in
                    incr sharers;
                    (match outcome with
                    | Error _ -> false
                    | Ok outcome ->
                      let t0 = Unix.gettimeofday () in
                      (match outcome with
                      | `Revalidated -> incr maint_reval
                      | `Incremental _ ->
                        let rel = Core.Delta.result v in
                        let ms =
                          fold_ms +. ((Unix.gettimeofday () -. t0) *. 1000.)
                        in
                        cr.cr_fields <-
                          P.relation_to_json ?max_rows:t.config.max_rows rel
                          @ [ ("ms", Json.Num ms);
                              ("plan", Json.Str "maintained") ];
                        incr maint_inc);
                      observe_maint
                        ((if first then fold_ms else 0.)
                        +. ((Unix.gettimeofday () -. t0) *. 1000.));
                      true)
                in
                (if keep then
                   match
                     stamps_now (catalog_for t cr.cr_layout) cr.cr_tables
                   with
                   | Some st -> cr.cr_stamps <- st
                   | None -> ());
                keep)
        in
        (* A registered state stays only if a cached entry shared it and
           its fold succeeded above.  States no entry shares are not folded:
           they drop, and the next fresh threshold over their shape
           rebuilds one. *)
        List.iter
          (fun (layout, registry) ->
            let cat = catalog_for t layout in
            ignore
              (Cache.Lru.retain registry (fun _ pe ->
                   let tables = Core.Delta.state_tables pe.ps_state in
                   if not (List.mem t_norm tables) then true
                   else
                     match
                       (List.assq_opt pe.ps_state !folds, stamps_now cat tables)
                     with
                     | Some (Ok _, _, _), Some st ->
                       pe.ps_stamps <- st;
                       true
                     | _ -> false)))
          t.partials;
        let shared =
          List.length (List.filter (fun (_, (_, _, n)) -> !n > 1) !folds)
        in
        Obs.Metrics.add c_partials_shared shared;
        (!plans_refreshed, !maint_inc, !maint_reval, dropped))
  with
  | exception Failure m -> send_error conn ~id ~code:"bad_request" m
  | exception e -> send_error conn ~id ~code:"error" (Printexc.to_string e)
  | plans_refreshed, inc, reval, dropped ->
    Obs.Metrics.incr c_appends;
    Obs.Metrics.add c_maint_incremental inc;
    Obs.Metrics.add c_maint_revalidate reval;
    Obs.Metrics.add c_maint_recompute dropped;
    Obs.Metrics.add c_plan_refreshed plans_refreshed;
    send_ok conn ~id
      [
        ("appended", Json.Num (float_of_int (List.length rows)));
        ("maintained", Json.Num (float_of_int (inc + reval)));
        ("incremental", Json.Num (float_of_int inc));
        ("revalidated", Json.Num (float_of_int reval));
        ("invalidated", Json.Num (float_of_int dropped));
        ("plans_refreshed", Json.Num (float_of_int plans_refreshed));
        ( "version",
          Json.Num (float_of_int (Catalog.version (catalog_for t conn.session.layout))) );
      ]

(* ---------------------------------------------------------------- *)
(* Control operations (handled inline on the reader thread) *)

let handle_set t conn ~id kvs =
  let session = conn.session in
  let err = ref None in
  let fail m = if !err = None then err := Some m in
  List.iter
    (fun (k, v) ->
      match (k, v) with
      | "layout", Json.Str l ->
        (match l with
        | "row" when List.mem_assoc `Row t.catalogs -> session.layout <- `Row
        | "column" when List.mem_assoc `Column t.catalogs -> session.layout <- `Column
        | "row" | "column" -> fail ("layout " ^ l ^ " not loaded on this server")
        | _ -> fail "layout must be \"row\" or \"column\"")
      | "workers", Json.Num n ->
        let n = int_of_float n in
        if n >= 1 && n <= 64 then session.workers <- n
        else fail "workers must be in 1..64"
      | "transfer", Json.Bool b -> session.transfer <- b
      | "tech", Json.Str s ->
        (match tech_of_str s with
        | Some tech -> session.tech <- tech
        | None -> fail ("unknown tech " ^ s))
      | "plan_cache", Json.Bool b -> session.use_plan_cache <- b
      | "result_cache", Json.Bool b -> session.use_result_cache <- b
      | "slow_ms", Json.Num x ->
        (* negative disables; 0 logs every query (the CI smoke's setting) *)
        session.slow_ms <- (if x < 0. then None else Some x)
      | "trace_sample", Json.Num x ->
        if x >= 0. && x <= 1. then session.trace_sample <- x
        else fail "trace_sample must be in 0..1"
      | k, _ -> fail ("unknown or ill-typed config key " ^ k))
    kvs;
  match !err with
  | Some m -> send_error conn ~id ~code:"bad_request" m
  | None -> send_ok conn ~id [ ("config", session_config_json session) ]

let lru_stats_json (s : Cache.Lru.stats) ~hits ~misses =
  Json.Obj
    [
      ("hits", Json.Num (float_of_int hits));
      ("misses", Json.Num (float_of_int misses));
      ("evictions", Json.Num (float_of_int s.Cache.Lru.s_evictions));
      ("entries", Json.Num (float_of_int s.Cache.Lru.s_len));
    ]

(* The partials registries: answers from a registered state, states built
   on a miss, states one append folded for more than one entry. *)
let partials_json t =
  Json.Obj
    [
      ("hits", Json.Num (float_of_int (Obs.Metrics.read c_partials_hit)));
      ("builds", Json.Num (float_of_int (Obs.Metrics.read c_partials_build)));
      ("shared", Json.Num (float_of_int (Obs.Metrics.read c_partials_shared)));
      ("entries", Json.Num (float_of_int (partials_entries t)));
    ]

let session_stats_json s =
  Mutex.lock s.s_mu;
  let j =
    Json.Obj
      [
        ("session", Json.Num (float_of_int s.sid));
        ("queries", Json.Num (float_of_int s.s_queries));
        ("errors", Json.Num (float_of_int s.s_errors));
        ("plan_hits", Json.Num (float_of_int s.s_plan_hits));
        ("result_hits", Json.Num (float_of_int s.s_result_hits));
        ("ms", Json.Num s.s_ms);
        ( "counters",
          Json.Obj
            (List.map
               (fun (k, v) -> (k, Json.Num (float_of_int v)))
               (List.sort compare s.s_counters)) );
        ("config", session_config_json s);
      ]
  in
  Mutex.unlock s.s_mu;
  j

let queue_depth t =
  Mutex.lock t.q_mu;
  let n = Queue.length t.queue in
  Mutex.unlock t.q_mu;
  n

let handle_stats t conn ~id =
  let sessions =
    Mutex.lock t.sess_mu;
    let xs = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [] in
    Mutex.unlock t.sess_mu;
    List.sort (fun a b -> compare a.sid b.sid) xs
  in
  send_ok conn ~id
    [
      ("uptime_ms", Json.Num ((Unix.gettimeofday () -. t.started) *. 1000.));
      ("queries", Json.Num (float_of_int (Obs.Metrics.read c_queries)));
      ("rejected", Json.Num (float_of_int (Obs.Metrics.read c_rejected)));
      ("queue_depth", Json.Num (float_of_int (queue_depth t)));
      ("queue_cap", Json.Num (float_of_int t.config.queue_cap));
      ("pool", Json.Num (float_of_int t.config.pool));
      ( "catalog_versions",
        Json.Obj
          (List.map
             (fun (l, c) -> (layout_str l, Json.Num (float_of_int (Catalog.version c))))
             t.catalogs) );
      ( "plan_cache",
        lru_stats_json (Cache.Lru.stats t.plan_cache)
          ~hits:(Obs.Metrics.read c_plan_hit)
          ~misses:(Obs.Metrics.read c_plan_miss) );
      ( "result_cache",
        lru_stats_json (Cache.Lru.stats t.result_cache)
          ~hits:(Obs.Metrics.read c_result_hit)
          ~misses:(Obs.Metrics.read c_result_miss) );
      ( "maintenance",
        Json.Obj
          [
            ( "incremental",
              Json.Num (float_of_int (Obs.Metrics.read c_maint_incremental)) );
            ( "revalidated",
              Json.Num (float_of_int (Obs.Metrics.read c_maint_revalidate)) );
            ( "recompute",
              Json.Num (float_of_int (Obs.Metrics.read c_maint_recompute)) );
            ( "plans_refreshed",
              Json.Num (float_of_int (Obs.Metrics.read c_plan_refreshed)) );
          ] );
      ("partials", partials_json t);
      ("sessions", Json.Arr (List.map session_stats_json sessions));
      ("session", Json.Num (float_of_int conn.session.sid));
    ]

(* ---------------------------------------------------------------- *)
(* Metrics exposition: the [metrics] protocol op (JSON) and the optional
   plain-HTTP listener (Prometheus text format).  Both render the same
   registries: cumulative counters/histograms, rolling windows, cache and
   queue gauges, per-session tallies. *)

let sessions_sorted t =
  Mutex.lock t.sess_mu;
  let xs = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [] in
  Mutex.unlock t.sess_mu;
  List.sort (fun a b -> compare a.sid b.sid) xs

let hist_summary_json (h : Obs.Metrics.hist_summary) =
  let q p = Obs.Metrics.hist_quantile h p in
  Json.Obj
    [
      ("count", Json.Num (float_of_int h.Obs.Metrics.hs_count));
      ("sum", Json.Num h.Obs.Metrics.hs_sum);
      ("p50", Json.Num (q 0.5));
      ("p95", Json.Num (q 0.95));
      ("p99", Json.Num (q 0.99));
    ]

let rolling_json (s : Obs.Rolling.snap) =
  Json.Obj
    [
      ("window_s", Json.Num s.Obs.Rolling.rs_window_s);
      ("windows", Json.Num (float_of_int s.Obs.Rolling.rs_windows));
      ("count", Json.Num (float_of_int s.Obs.Rolling.rs_count));
      ("sum", Json.Num s.Obs.Rolling.rs_sum);
      ("rate", Json.Num s.Obs.Rolling.rs_rate);
      ("p50", Json.Num s.Obs.Rolling.rs_p50);
      ("p90", Json.Num s.Obs.Rolling.rs_p90);
      ("p95", Json.Num s.Obs.Rolling.rs_p95);
      ("p99", Json.Num s.Obs.Rolling.rs_p99);
    ]

let handle_metrics t conn ~id =
  send_ok conn ~id
    [
      ("uptime_ms", Json.Num ((Unix.gettimeofday () -. t.started) *. 1000.));
      ("queue_depth", Json.Num (float_of_int (queue_depth t)));
      ("queue_cap", Json.Num (float_of_int t.config.queue_cap));
      ("pool", Json.Num (float_of_int t.config.pool));
      ( "sessions",
        Json.Num (float_of_int (List.length (sessions_sorted t))) );
      ( "counters",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.Num (float_of_int v)))
             (Obs.Metrics.snapshot ())) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (h : Obs.Metrics.hist_summary) ->
               (h.Obs.Metrics.hs_name, hist_summary_json h))
             (Obs.Metrics.hist_snapshot ())) );
      ( "rolling",
        Json.Obj
          (List.map
             (fun (s : Obs.Rolling.snap) -> (s.Obs.Rolling.rs_name, rolling_json s))
             (Obs.Rolling.snapshot_all ())) );
      ( "plan_cache",
        lru_stats_json (Cache.Lru.stats t.plan_cache)
          ~hits:(Obs.Metrics.read c_plan_hit)
          ~misses:(Obs.Metrics.read c_plan_miss) );
      ( "result_cache",
        lru_stats_json (Cache.Lru.stats t.result_cache)
          ~hits:(Obs.Metrics.read c_result_hit)
          ~misses:(Obs.Metrics.read c_result_miss) );
      ("partials", partials_json t);
      ("session", Json.Num (float_of_int conn.session.sid));
    ]

(* Prometheus text exposition (version 0.0.4): dotted registry names are
   mangled to underscores, counters gain the [_total] suffix, histograms
   emit cumulative power-of-two [le] buckets, rolling snapshots and
   per-session tallies surface as gauges. *)
let prom_name s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    s

let prometheus_text t =
  let b = Buffer.create 8192 in
  let typ name kind = Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind) in
  let gauge name v =
    typ name "gauge";
    Buffer.add_string b (Printf.sprintf "%s %.6g\n" name v)
  in
  List.iter
    (fun (name, v) ->
      let n = prom_name name ^ "_total" in
      typ n "counter";
      Buffer.add_string b (Printf.sprintf "%s %d\n" n v))
    (Obs.Metrics.snapshot ());
  List.iter
    (fun (h : Obs.Metrics.hist_summary) ->
      let n = prom_name h.Obs.Metrics.hs_name in
      typ n "histogram";
      let buckets = h.Obs.Metrics.hs_buckets in
      let top = ref 0 in
      Array.iteri (fun i c -> if c > 0 then top := i) buckets;
      let cum = ref 0 in
      for i = 0 to !top do
        cum := !cum + buckets.(i);
        Buffer.add_string b
          (Printf.sprintf "%s_bucket{le=\"%.6g\"} %d\n" n (ldexp 1. i) !cum)
      done;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n%s_sum %.6g\n%s_count %d\n" n
           h.Obs.Metrics.hs_count n h.Obs.Metrics.hs_sum n h.Obs.Metrics.hs_count))
    (Obs.Metrics.hist_snapshot ());
  List.iter
    (fun (s : Obs.Rolling.snap) ->
      let n = prom_name s.Obs.Rolling.rs_name ^ "_rolling" in
      gauge (n ^ "_count") (float_of_int s.Obs.Rolling.rs_count);
      gauge (n ^ "_rate") s.Obs.Rolling.rs_rate;
      gauge (n ^ "_p50") s.Obs.Rolling.rs_p50;
      gauge (n ^ "_p95") s.Obs.Rolling.rs_p95;
      gauge (n ^ "_p99") s.Obs.Rolling.rs_p99)
    (Obs.Rolling.snapshot_all ());
  gauge "serve_uptime_seconds" (Unix.gettimeofday () -. t.started);
  gauge "serve_queue_depth" (float_of_int (queue_depth t));
  gauge "serve_queue_cap" (float_of_int t.config.queue_cap);
  gauge "serve_pool" (float_of_int t.config.pool);
  let plan_stats = Cache.Lru.stats t.plan_cache in
  let result_stats = Cache.Lru.stats t.result_cache in
  gauge "serve_plan_cache_entries" (float_of_int plan_stats.Cache.Lru.s_len);
  gauge "serve_plan_cache_evictions" (float_of_int plan_stats.Cache.Lru.s_evictions);
  gauge "serve_result_cache_entries" (float_of_int result_stats.Cache.Lru.s_len);
  gauge "serve_result_cache_evictions"
    (float_of_int result_stats.Cache.Lru.s_evictions);
  gauge "serve_partials_entries" (float_of_int (partials_entries t));
  let sessions = sessions_sorted t in
  gauge "serve_sessions" (float_of_int (List.length sessions));
  List.iter
    (fun (family, get) ->
      if sessions <> [] then begin
        typ family "gauge";
        List.iter
          (fun s ->
            Mutex.lock s.s_mu;
            let v = get s in
            Mutex.unlock s.s_mu;
            Buffer.add_string b
              (Printf.sprintf "%s{session=\"%d\"} %.6g\n" family s.sid v))
          sessions
      end)
    [
      ("serve_session_queries", fun s -> float_of_int s.s_queries);
      ("serve_session_errors", fun s -> float_of_int s.s_errors);
      ("serve_session_plan_hits", fun s -> float_of_int s.s_plan_hits);
      ("serve_session_result_hits", fun s -> float_of_int s.s_result_hits);
      ("serve_session_ms", fun s -> s.s_ms);
    ];
  Buffer.contents b

(* Minimal HTTP/1.0 server for scrapers: read whatever request head arrives,
   answer every path with the full exposition, close.  One short-lived
   thread per scrape connection. *)
let metrics_conn t fd =
  let buf = Bytes.create 1024 in
  (try ignore (Unix.read fd buf 0 1024) with _ -> ());
  (try
     let body = prometheus_text t in
     let resp =
       Printf.sprintf
         "HTTP/1.0 200 OK\r\n\
          Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
          Content-Length: %d\r\n\
          Connection: close\r\n\r\n%s"
         (String.length body) body
     in
     let rec out pos len =
       if len > 0 then begin
         let w = Unix.write_substring fd resp pos len in
         out (pos + w) (len - w)
       end
     in
     out 0 (String.length resp)
   with _ -> ());
  try Unix.close fd with _ -> ()

let metrics_loop t fd =
  let finished = ref false in
  while not !finished do
    match Unix.accept fd with
    | exception _ -> finished := true
    | cfd, _ ->
      if Atomic.get t.stopping then begin
        (try Unix.close cfd with _ -> ());
        finished := true
      end
      else ignore (Thread.create (fun () -> metrics_conn t cfd) ())
  done;
  (try Unix.close fd with _ -> ());
  match t.config.metrics_addr with
  | Some (`Unix path) -> ( try Unix.unlink path with _ -> ())
  | _ -> ()

(* ---------------------------------------------------------------- *)
(* Job queue and worker pool *)

let submit t job =
  Mutex.lock t.q_mu;
  let r =
    if t.q_closed then `Closed
    else if Queue.length t.queue >= t.config.queue_cap then `Full
    else begin
      Queue.add job t.queue;
      Condition.signal t.q_cv;
      `Ok
    end
  in
  Mutex.unlock t.q_mu;
  r

let take t =
  Mutex.lock t.q_mu;
  let rec loop () =
    if not (Queue.is_empty t.queue) then Some (Queue.take t.queue)
    else if t.q_closed then None
    else begin
      Condition.wait t.q_cv t.q_mu;
      loop ()
    end
  in
  let r = loop () in
  Mutex.unlock t.q_mu;
  r

let run_job t { j_conn; j_id; j_rid; j_submit_s; j_req } =
  let wait_ms = (Unix.gettimeofday () -. j_submit_s) *. 1000. in
  Obs.Metrics.observe h_queue_wait_ms wait_ms;
  Obs.Rolling.observe r_queue_wait_ms wait_ms;
  match j_req with
  | P.Query { sql; analyze } ->
    handle_query t j_conn ~id:j_id ~rid:j_rid ~wait_ms ~analyze sql
  | P.Append { table; rows } -> handle_append t j_conn ~id:j_id table rows
  | P.Ping | P.Set _ | P.Stats | P.Metrics | P.Shutdown ->
    (* control ops never reach the queue *)
    send_error j_conn ~id:j_id ~code:"error" "internal: control op queued"

let rec worker_loop t =
  match take t with
  | None -> ()
  | Some job ->
    (try run_job t job
     with e ->
       (try send_error job.j_conn ~id:job.j_id ~code:"error" (Printexc.to_string e)
        with _ -> ()));
    worker_loop t

(* ---------------------------------------------------------------- *)
(* Lifecycle *)

(* Closing a listening fd does not wake a thread blocked in accept(2), so
   poke the listener with a throwaway connection; its accept loop sees
   [stopping] and exits, closing the fd itself.  [port] overrides the
   configured port (an ephemeral bind resolves port 0 at listen time). *)
let poke_listener ?port addr =
  try
    let domain, sockaddr =
      match addr with
      | `Unix path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
      | `Tcp (_, p) ->
        let p = match port with Some p -> p | None -> p in
        ( Unix.PF_INET,
          Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", p) )
    in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    Unix.connect fd sockaddr;
    Unix.close fd
  with _ -> ()

let bound_port fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> Some port
  | _ | (exception _) -> None

(* The metrics listener's effective address (the configured one with an
   ephemeral TCP port resolved to the bound port), None when disabled. *)
let metrics_addr t =
  match (t.metrics_fd, t.config.metrics_addr) with
  | Some fd, Some (`Tcp (host, port)) ->
    (match bound_port fd with
     | Some p -> Some (`Tcp (host, p))
     | None -> Some (`Tcp (host, port)))
  | Some _, addr -> addr
  | None, _ -> None

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    poke_listener t.config.listen;
    (match (t.metrics_fd, t.config.metrics_addr) with
     | Some fd, Some addr -> poke_listener ?port:(bound_port fd) addr
     | _ -> ());
    Mutex.lock t.q_mu;
    t.q_closed <- true;
    Condition.broadcast t.q_cv;
    Mutex.unlock t.q_mu
  end

let wait t =
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  (match t.metrics_thread with Some th -> Thread.join th | None -> ());
  List.iter Domain.join t.workers;
  t.workers <- [];
  Mutex.lock t.slow_mu;
  (match t.slow_oc with
   | Some oc ->
     t.slow_oc <- None;
     close_out_noerr oc
   | None -> ());
  Mutex.unlock t.slow_mu

let reader_loop t conn =
  let ic = Unix.in_channel_of_descr conn.fd in
  let finished = ref false in
  while not !finished do
    match P.read_line ic with
    | exception Sys_error _ | `Eof -> finished := true
    | `Too_long ->
      send_error conn ~id:0 ~code:"bad_request"
        (Printf.sprintf "request line longer than %d bytes" P.max_line_bytes);
      finished := true
    | `Line line when String.trim line = "" -> ()
    | `Line line -> (
      match P.parse_request (Json.of_string line) with
      | exception Json.Parse_error m ->
        send_error conn ~id:0 ~code:"bad_request" ("invalid json: " ^ m)
      | Error m -> send_error conn ~id:0 ~code:"bad_request" m
      | Ok { P.rq_id = id; rq } -> (
        match rq with
        | P.Ping -> send_ok conn ~id [ ("pong", Json.Bool true) ]
        | P.Set kvs -> handle_set t conn ~id kvs
        | P.Stats -> handle_stats t conn ~id
        | P.Metrics -> handle_metrics t conn ~id
        | P.Shutdown ->
          send_ok conn ~id [ ("stopping", Json.Bool true) ];
          stop t;
          finished := true
        | P.Query _ | P.Append _ -> (
          match
            submit t
              {
                j_conn = conn;
                j_id = id;
                j_rid = Atomic.fetch_and_add next_rid 1;
                j_submit_s = Unix.gettimeofday ();
                j_req = rq;
              }
          with
          | `Ok -> ()
          | `Full ->
            Obs.Metrics.incr c_rejected;
            send_error conn ~id ~code:"overloaded"
              (Printf.sprintf "queue full (%d jobs queued); retry later"
                 t.config.queue_cap)
          | `Closed ->
            send_error conn ~id ~code:"error" "server shutting down")))
  done;
  drop_session t conn.session;
  (* Close the descriptor exactly once, through the channel: a second
     [Unix.close] could hit a descriptor another thread has just opened
     under the same number.  The lock keeps a worker mid-response off the
     channel while it closes. *)
  Mutex.lock conn.w_mu;
  close_out_noerr conn.oc;
  Mutex.unlock conn.w_mu

let accept_loop t =
  let finished = ref false in
  while not !finished do
    match Unix.accept t.listen_fd with
    | exception _ -> finished := true
    | fd, _ ->
      if Atomic.get t.stopping then begin
        (try Unix.close fd with _ -> ());
        finished := true
      end
      else begin
        let session = fresh_session t in
        let conn =
          { fd; oc = Unix.out_channel_of_descr fd; w_mu = Mutex.create (); session }
        in
        send conn
          (Json.Obj
             [
               ("hello", Json.Str "iceberg");
               ("session", Json.Num (float_of_int session.sid));
             ]);
        ignore (Thread.create (fun () -> reader_loop t conn) ())
      end
  done;
  (try Unix.close t.listen_fd with _ -> ());
  match t.config.listen with
  | `Unix path -> ( try Unix.unlink path with _ -> ())
  | `Tcp _ -> ()

let bind_listener addr =
  match addr with
  | `Unix path ->
    (try Unix.unlink path with _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | `Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    let ip =
      try Unix.inet_addr_of_string host
      with _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    Unix.bind fd (Unix.ADDR_INET (ip, port));
    Unix.listen fd 64;
    fd

let start ?(config = default_config) catalogs =
  if catalogs = [] then invalid_arg "Server.start: no catalogs";
  let t =
    {
      config;
      catalogs;
      plan_cache = Cache.Lru.create config.plan_cache_cap;
      result_cache = Cache.Lru.create config.result_cache_cap;
      partials =
        List.map
          (fun (layout, _) -> (layout, Cache.Lru.create config.result_cache_cap))
          catalogs;
      lock = Rwlock.create ();
      queue = Queue.create ();
      q_mu = Mutex.create ();
      q_cv = Condition.create ();
      q_closed = false;
      sessions = Hashtbl.create 16;
      sess_mu = Mutex.create ();
      next_sid = Atomic.make 1;
      stopping = Atomic.make false;
      started = Unix.gettimeofday ();
      listen_fd = Unix.stdin;  (* replaced below *)
      accept_thread = None;
      workers = [];
      metrics_fd = None;
      metrics_thread = None;
      slow_mu = Mutex.create ();
      slow_oc = None;
    }
  in
  t.listen_fd <- bind_listener config.listen;
  (match config.metrics_addr with
   | None -> ()
   | Some addr ->
     let fd = bind_listener addr in
     t.metrics_fd <- Some fd;
     t.metrics_thread <- Some (Thread.create (fun () -> metrics_loop t fd) ()));
  t.workers <-
    List.init (max 1 config.pool) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let shutdown t =
  stop t;
  wait t
