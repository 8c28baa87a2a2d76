open Sqlfront
open Relalg

type report = {
  technique : Optimizer.technique;
  apriori : Optimizer.apriori_rewrite list;
  nljp_outer : string list option;
  nljp_stats : Nljp.stats option;
  nljp_describe : string option;
  transfer : Transfer.result option;
      (** predicate-transfer passes that ran before NLJP, if any *)
  notes : string list;
  cte_reports : (string * report) list;
}

(* Predicate transfer defaults on; SI_TRANSFER=0 is the ablation switch
   (the CLI's [--no-transfer] sets the same thing explicitly). *)
let transfer_default () =
  match Sys.getenv_opt "SI_TRANSFER" with
  | Some ("0" | "false" | "off" | "no") -> false
  | _ -> true

(* ---- metadata derivation for materialized CTE results ---- *)

(* Output columns of a query's SELECT list, in order. *)
let output_names (q : Ast.query) =
  List.mapi
    (fun i item ->
      match item with
      | Ast.Sel_star -> None
      | Ast.Sel_expr (s, alias) ->
        (match alias, s with
         | Some a, _ -> Some (a, s)
         | None, Ast.S_col (_, n) -> Some (n, s)
         | None, _ -> Some (Printf.sprintf "col%d" i, s)))
    q.Ast.select

(* If every GROUP BY column survives into the SELECT list, those output
   columns form a key of the result. *)
let derived_key (q : Ast.query) =
  if q.Ast.group_by = [] then None
  else begin
    let names = output_names q in
    let covers (gq, gn) =
      List.find_map
        (fun entry ->
          match entry with
          | Some (out, Ast.S_col (sq, sn)) when String.equal sn gn ->
            (match gq, sq with
             | None, _ | _, None -> Some out
             | Some a, Some b -> if String.equal a b then Some out else None)
          | _ -> None)
        names
    in
    let keys = List.map covers q.Ast.group_by in
    if List.for_all Option.is_some keys then Some (List.map Option.get keys)
    else None
  end

(* Non-negativity of a source column of the query, from catalog facts. *)
let source_nonneg catalog (q : Ast.query) (qq, n) =
  let tables =
    List.filter_map
      (function
        | Ast.T_table (name, alias) -> Some (name, Option.value alias ~default:name)
        | Ast.T_subquery _ -> None)
      q.Ast.from
  in
  let check (tname, alias) =
    match qq with
    | Some a when not (String.equal a alias) -> false
    | _ ->
      (match Catalog.find_opt catalog tname with
       | None -> false
       | Some tbl ->
         Schema.mem tbl.Catalog.rel.Relation.schema (Schema.col n)
         && Catalog.is_nonneg tbl n)
  in
  List.exists check tables

let rec scalar_nonneg catalog q s =
  match s with
  | Ast.S_const (Value.Int i) -> i >= 0
  | Ast.S_const (Value.Float f) -> f >= 0.
  | Ast.S_const _ -> false
  | Ast.S_col (qq, n) -> source_nonneg catalog q (qq, n)
  | Ast.S_binop ((Expr.Add | Expr.Mul), a, b) ->
    scalar_nonneg catalog q a && scalar_nonneg catalog q b
  | Ast.S_binop ((Expr.Sub | Expr.Div), _, _) -> false
  | Ast.S_neg _ -> false
  | Ast.S_agg a ->
    (match a with
     | Ast.A_count_star | Ast.A_count _ | Ast.A_count_distinct _ -> true
     | Ast.A_sum x | Ast.A_min x | Ast.A_max x | Ast.A_avg x ->
       scalar_nonneg catalog q x)

let derived_nonneg catalog (q : Ast.query) =
  List.filter_map
    (function
      | Some (out, s) -> if scalar_nonneg catalog q s then Some out else None
      | None -> None)
    (output_names q)

(* ---- execution ---- *)

(* Span plumbing: spans are explicit and optional — when the caller passes
   none, tracing costs nothing. *)
let in_span span name f =
  match span with
  | None -> f None
  | Some parent -> Obs.Span.with_span ~parent name (fun s -> f (Some s))

let span_rows_out s n =
  match s with Some sp -> sp.Obs.Span.rows_out <- Some n | None -> ()

let span_counter s k v =
  match s with Some sp -> Obs.Span.set_counter sp k v | None -> ()

let span_note s msg = match s with Some sp -> Obs.Span.note sp msg | None -> ()

(* One line naming how a block runs: its a-priori reducers, then NLJP with
   its outer side and inner access path, or the baseline join. *)
let plan_line ~apriori ~nljp =
  let join =
    match nljp with
    | Some (aliases, access) ->
      Printf.sprintf "NLJP outer {%s}, inner access path: %s"
        (String.concat ", " aliases) (Nljp.access_to_string access)
    | None -> if apriori = 0 then "baseline plan" else "baseline join"
  in
  if apriori = 0 then join
  else
    Printf.sprintf "%d a-priori reducer%s, %s" apriori
      (if apriori = 1 then "" else "s")
      join

let report_plan_line rep =
  plan_line ~apriori:(List.length rep.apriori)
    ~nljp:
      (match rep.nljp_outer, rep.nljp_stats with
       | Some aliases, Some s -> Some (aliases, s.Nljp.access)
       | _ -> None)

let decision_plan_line = function
  | None -> plan_line ~apriori:0 ~nljp:None
  | Some (d : Optimizer.decision) ->
    plan_line
      ~apriori:(List.length d.Optimizer.apriori_rewrites)
      ~nljp:
        (Option.map
           (fun (op, aliases) -> (aliases, fst (Nljp.choose_access op)))
           d.Optimizer.nljp)

let reducer_label (q : Ast.query) =
  Printf.sprintf "reducer over {%s}"
    (String.concat ", "
       (List.map
          (function
            | Ast.T_table (name, alias) -> Option.value alias ~default:name
            | Ast.T_subquery (_, alias) -> alias)
          q.Ast.from))

let fresh_temp_name catalog base =
  if not (Catalog.mem catalog base) then base
  else begin
    let rec go i =
      let name = Printf.sprintf "%s__%d" base i in
      if Catalog.mem catalog name then go (i + 1) else name
    in
    go 0
  end

let rename_table_refs (q : Ast.query) renames =
  {
    q with
    Ast.from =
      List.map
        (fun item ->
          match item with
          | Ast.T_table (name, alias) ->
            (match List.assoc_opt (String.lowercase_ascii name) renames with
             | Some fresh ->
               Ast.T_table (fresh, Some (Option.value alias ~default:name))
             | None -> item)
          | Ast.T_subquery _ -> item)
        q.Ast.from;
  }

let rec run ?span ?(analyze = false) ?(tech = Optimizer.all_techniques)
    ?(nljp_config = Nljp.default_config) ?workers ?(memo_strategy = `Nljp)
    ?(adaptive_apriori = false) ?transfer catalog (q : Ast.query) =
  let transfer = match transfer with Some t -> t | None -> transfer_default () in
  (* [?workers] overrides the NLJP worker count; once folded into the config
     it propagates to CTE blocks through the recursive call below. *)
  let nljp_config =
    match workers with
    | None -> nljp_config
    | Some w -> { nljp_config with Nljp.workers = w }
  in
  (* Materialize CTE blocks (each optimized recursively), registering them
     as temp tables carrying derived keys and domain facts. *)
  let temp_names = ref [] in
  let renames = ref [] in
  let cte_reports = ref [] in
  List.iter
    (fun (name, def) ->
      let def = rename_table_refs def !renames in
      let rel, rep =
        in_span span ("cte:" ^ name) (fun s ->
            let rel, rep =
              run ?span:s ~analyze ~tech ~nljp_config ~memo_strategy
                ~adaptive_apriori ~transfer catalog def
            in
            span_rows_out s (Relation.cardinality rel);
            (rel, rep))
      in
      let fresh = fresh_temp_name catalog name in
      let keys = match derived_key def with Some k -> [ k ] | None -> [] in
      let nonneg = derived_nonneg catalog def in
      Catalog.add_temp catalog ~keys ~nonneg fresh
        (Relation.with_schema (Schema.unqualified rel.Relation.schema) rel);
      temp_names := fresh :: !temp_names;
      renames := (String.lowercase_ascii name, fresh) :: !renames;
      cte_reports := (name, rep) :: !cte_reports)
    q.Ast.with_defs;
  let main = rename_table_refs { q with Ast.with_defs = [] } !renames in
  (* Delta of the global block counters across this query, so nested (CTE)
     runs report their own scans without resets clobbering the enclosing
     query's accounting. *)
  let skipped0, scanned0 = Colscan.counters () in
  let tb0, tp0, td0 = Colscan.transfer_counters () in
  (* Compressed-storage tier: blocks decoded vs answered directly on the
     encoded form, and block-cache traffic (lib/column DESIGN.md §13). *)
  let sic_counters =
    List.map Obs.Metrics.counter
      [ "sic.blocks_decoded"; "sic.blocks_direct"; "sic.cache_hits";
        "sic.cache_misses"; "sic.cache_evictions" ]
  in
  let sic0 = List.map Obs.Metrics.read sic_counters in
  let result, rep =
    run_block ~span ~analyze ~tech ~nljp_config ~memo_strategy ~adaptive_apriori
      ~transfer catalog main
  in
  List.iter (Catalog.remove_table catalog) !temp_names;
  let skipped1, scanned1 = Colscan.counters () in
  let tb1, tp1, td1 = Colscan.transfer_counters () in
  let block_notes =
    (if skipped1 > skipped0 || scanned1 > scanned0 then
       [ Printf.sprintf "columnar scan: blocks skipped=%d scanned=%d"
           (skipped1 - skipped0) (scanned1 - scanned0) ]
     else [])
    @
    if tb1 > tb0 || tp1 > tp0 then
      [ Printf.sprintf
          "predicate transfer: blocks skipped=%d rows probed=%d dropped=%d"
          (tb1 - tb0) (tp1 - tp0) (td1 - td0) ]
    else []
  in
  (* Zone-map slice for this block (CTE blocks record their own above). *)
  (match span with
   | Some sp when skipped1 > skipped0 || scanned1 > scanned0 ->
     Obs.Span.add_counter sp "colscan.blocks_skipped" (skipped1 - skipped0);
     Obs.Span.add_counter sp "colscan.blocks_scanned" (scanned1 - scanned0)
   | _ -> ());
  (match span with
   | Some sp when tb1 > tb0 || tp1 > tp0 ->
     Obs.Span.add_counter sp "transfer.blocks_skipped" (tb1 - tb0);
     Obs.Span.add_counter sp "transfer.rows_probed" (tp1 - tp0);
     Obs.Span.add_counter sp "transfer.rows_dropped" (td1 - td0)
   | _ -> ());
  let sic_deltas =
    List.map2
      (fun c v0 -> (Obs.Metrics.name c, Obs.Metrics.read c - v0))
      sic_counters sic0
    |> List.filter (fun (_, d) -> d > 0)
  in
  (match span with
   | Some sp ->
     List.iter (fun (n, d) -> Obs.Span.add_counter sp n d) sic_deltas
   | None -> ());
  let sic_notes =
    if sic_deltas = [] then []
    else
      [ "compressed tier: "
        ^ String.concat " "
            (List.map
               (fun (n, d) ->
                 let n =
                   if String.length n > 4 && String.sub n 0 4 = "sic." then
                     String.sub n 4 (String.length n - 4)
                   else n
                 in
                 Printf.sprintf "%s=%d" n d)
               sic_deltas) ]
  in
  ( result,
    { rep with
      notes = rep.notes @ block_notes @ sic_notes;
      cte_reports = List.rev !cte_reports
    } )

(* A-priori reducers are iceberg queries themselves (§4), so the smart path
   runs them through [run] with the parent query's settings — an
   "a-priori only" ablation stays a-priori only all the way down — each
   under a [reducer over {…}] span below the span that bound it.  Recursion
   ends: a reducer's FROM is a strict subset of its parent's.  Returns the
   evaluator and a reader of the distinct plan lines of the reducers it ran
   (a reducer wrapping two tables runs once per table). *)
and reducer_evaluator ~analyze ~tech ~nljp_config ~memo_strategy ~adaptive_apriori
    ~transfer catalog =
  let lines = ref [] in
  let eval span (q : Ast.query) =
    let label = reducer_label q in
    in_span span label (fun s ->
        let rel, rep =
          run ?span:s ~analyze ~tech ~nljp_config ~memo_strategy ~adaptive_apriori
            ~transfer catalog q
        in
        let line = label ^ ": " ^ report_plan_line rep in
        span_note s line;
        span_rows_out s (Relation.cardinality rel);
        if not (List.mem line !lines) then lines := line :: !lines;
        rel)
  in
  (eval, fun () -> List.rev !lines)

and run_block ~span ~analyze ~tech ~nljp_config ~memo_strategy ~adaptive_apriori
    ~transfer catalog (q : Ast.query) =
  let subquery, reducer_lines =
    reducer_evaluator ~analyze ~tech ~nljp_config ~memo_strategy ~adaptive_apriori
      ~transfer catalog
  in
  (* Baseline execution of [query].  Under [analyze] with a live span, bind
     once, execute with a per-plan-node recorder, and attach the full plan
     tree as zero-duration child spans — each carrying the cost model's
     estimated rows/cost next to the recorded actual rows.  Plan nodes are
     pipelined, so only the block's wall time is attributable, not
     per-node times (DESIGN.md §10). *)
  let exec_baseline ?subquery s query =
    match (if analyze then s else None) with
    | None -> Binder.run ?subquery catalog query
    | Some sp ->
      let plan = Binder.bind ?subquery catalog query in
      let acts = ref [] in
      let recorder =
        { Exec.rec_rows = (fun path label rows -> acts := (path, (label, rows)) :: !acts) }
      in
      let rel = Exec.run ~recorder catalog plan in
      let tree = Cost.tree catalog plan in
      Obs.Span.set_estimate ~rows:tree.Cost.t_rows ~cost:tree.Cost.t_cost sp;
      Obs.Span.note sp "plan nodes below are pipelined; per-node time not attributed";
      let rec attach parent path (t : Cost.tree) =
        let node = Obs.Span.enter ~parent t.Cost.t_label in
        node.Obs.Span.dur_ms <- 0.;
        Obs.Span.set_estimate ~rows:t.Cost.t_rows ~cost:t.Cost.t_cost node;
        (match List.assoc_opt path !acts with
         | Some (_, rows) -> node.Obs.Span.rows_out <- Some rows
         | None -> ());
        List.iteri (fun i c -> attach node (path @ [ i ]) c) t.Cost.t_children
      in
      attach sp [] tree;
      rel
  in
  (* Estimated output cardinality/cost of the block's baseline plan,
     stamped on the execute span so the block-level Q-error is reported
     even when execution goes through NLJP instead of that plan. *)
  let stamp_block_estimate s query =
    if analyze then
      match s with
      | Some sp ->
        (try
           let est = Cost.estimate catalog (Binder.bind catalog query) in
           Obs.Span.set_estimate ~rows:est.Cost.rows ~cost:est.Cost.cost sp
         with _ -> ())
      | None -> ()
  in
  let fallback notes =
    let rel =
      in_span span "execute" (fun s ->
          List.iter (span_note s) notes;
          let rel = exec_baseline s q in
          span_rows_out s (Relation.cardinality rel);
          rel)
    in
    ( rel,
      {
        technique = tech;
        apriori = [];
        nljp_outer = None;
        nljp_stats = None;
        nljp_describe = None;
        transfer = None;
        notes;
        cte_reports = [];
      } )
  in
  (* Queries outside the iceberg shape (single table, no HAVING, …) run
     directly on the baseline engine. *)
  if not (Optimizer.iceberg_shape ~tech q) then fallback []
  else if
    memo_strategy = `Static_rewrite && tech.Optimizer.memo
    && not tech.Optimizer.pruning
  then begin
    (* Appendix C: memoization through static query rewriting. *)
    match in_span span "optimize" (fun _ -> Optimizer.pick_static_memo catalog q) with
    | Some rewritten ->
      let rel =
        in_span span "execute" (fun s ->
            span_note s "memoization via static rewrite (Listing 8)";
            let rel = exec_baseline s rewritten in
            span_rows_out s (Relation.cardinality rel);
            rel)
      in
      ( rel,
        {
          technique = tech;
          apriori = [];
          nljp_outer = None;
          nljp_stats = None;
          nljp_describe = None;
          transfer = None;
          notes = [ "memoization via static rewrite (Listing 8)" ];
          cte_reports = [];
        } )
    | None -> fallback [ "static memo rewrite not applicable" ]
  end
  else begin
    match
      in_span span "optimize" (fun s ->
          match
            Optimizer.decide ~adaptive:adaptive_apriori ~transfer catalog q
              ~tech ~nljp_config
          with
          | decision ->
            span_counter s "apriori_rewrites"
              (List.length decision.Optimizer.apriori_rewrites);
            List.iter (span_note s) decision.Optimizer.notes;
            decision
          | exception e ->
            span_note s "unsupported query shape";
            raise e)
    with
    | exception Qspec.Unsupported reason ->
      fallback [ "not optimized: " ^ reason ]
    | decision ->
      let base_report =
        {
          technique = tech;
          apriori = decision.Optimizer.apriori_rewrites;
          nljp_outer = None;
          nljp_stats = None;
          nljp_describe = None;
          transfer = None;
          notes = decision.Optimizer.notes;
          cte_reports = [];
        }
      in
      (match decision.Optimizer.nljp with
       | Some (op, aliases) ->
         (* Predicate transfer runs its two semi-join passes before NLJP so
            both side queries scan through the resulting filters. *)
         let transfer_result =
           match decision.Optimizer.transfer with
           | None -> None
           | Some spec ->
             Some
               (in_span span "transfer" (fun s ->
                    let r = Transfer.run ?span:s catalog spec in
                    List.iter (span_note s) r.Transfer.r_notes;
                    r))
         in
         let transfer_filters =
           match transfer_result with
           | Some r -> r.Transfer.r_filters
           | None -> []
         in
         let rel, stats =
           in_span span "execute" (fun s ->
               stamp_block_estimate s q;
               let rel, stats =
                 Nljp.execute ?span:s ~estimate:analyze
                   ~transfer:transfer_filters ~subquery op
               in
               span_rows_out s (Relation.cardinality rel);
               span_counter s "outer_rows" stats.Nljp.outer_rows;
               span_counter s "inner_evals" stats.Nljp.inner_evals;
               span_counter s "pruned" stats.Nljp.pruned;
               span_counter s "memo_hits" stats.Nljp.memo_hits;
               span_counter s "vector_evals" stats.Nljp.vector_evals;
               span_counter s "waves" stats.Nljp.waves;
               List.iter (span_note s) stats.Nljp.notes;
               (rel, stats))
         in
         ( rel,
           {
             base_report with
             nljp_outer = Some aliases;
             nljp_stats = Some stats;
             nljp_describe = Some (Nljp.describe op);
             transfer = transfer_result;
             notes = base_report.notes @ reducer_lines ();
           } )
       | None ->
         let rel =
           in_span span "execute" (fun s ->
               let rel =
                 exec_baseline ~subquery:(subquery s) s (Optimizer.rewritten_query decision)
               in
               span_rows_out s (Relation.cardinality rel);
               rel)
         in
         (rel, { base_report with notes = base_report.notes @ reducer_lines () }))
  end

let run_baseline ?(workers = 1) catalog q = Binder.run ~workers catalog q

(* ---- prepared statements (the query server's plan cache entries) ---- *)

(* A prepared query pins the optimizer's decision so repeated executions
   skip the Listing 9 procedure (subset enumeration, reducer analysis,
   pick_* costing).  NLJP decisions additionally carry a cross-query shared
   prune/memo tier and memoize the predicate-transfer Bloom build; both are
   only valid for the catalog version the plan was prepared against — the
   owner re-prepares after any catalog mutation ({!prepared_version}). *)
type prepared_kind =
  | P_direct  (** CTE / non-iceberg / unsupported shape: full [run] per call *)
  | P_rewrite of Ast.query * Optimizer.decision
      (** decision without an NLJP operator: execute the rewritten query *)
  | P_nljp of {
      decision : Optimizer.decision;
      op : Nljp.t;
      aliases : string list;
      shared : Nljp.shared_cache;
      mutable transfer_run : Transfer.result option;
    }

type prepared = {
  p_catalog : Catalog.t;
  p_query : Ast.query;
  p_tech : Optimizer.technique;
  p_nljp_config : Nljp.config;
  p_transfer : bool;
  mutable p_version : int;
  p_kind : prepared_kind;
  p_mu : Mutex.t;
      (* Serializes executions of one prepared plan: the NLJP operator's
         stats record and shared tier are mutated in place.  Distinct
         prepared plans execute concurrently without contention. *)
}

let prepare ?(tech = Optimizer.all_techniques) ?(nljp_config = Nljp.default_config)
    ?workers ?transfer catalog (q : Ast.query) =
  let transfer = match transfer with Some t -> t | None -> transfer_default () in
  let nljp_config =
    match workers with
    | None -> nljp_config
    | Some w -> { nljp_config with Nljp.workers = w }
  in
  (* Same gate as [run_block]; CTE queries go direct — their temp-table
     registration needs the full per-call lifecycle. *)
  let kind =
    if not (q.Ast.with_defs = [] && Optimizer.iceberg_shape ~tech q) then P_direct
    else
      match Optimizer.decide ~transfer catalog q ~tech ~nljp_config with
      | exception Qspec.Unsupported _ -> P_direct
      | decision ->
        (match decision.Optimizer.nljp with
         | Some (op, aliases) ->
           P_nljp
             {
               decision;
               op;
               aliases;
               shared = Nljp.shared_cache ();
               transfer_run = None;
             }
         | None -> P_rewrite (Optimizer.rewritten_query decision, decision))
  in
  {
    p_catalog = catalog;
    p_query = q;
    p_tech = tech;
    p_nljp_config = nljp_config;
    p_transfer = transfer;
    p_version = Catalog.version catalog;
    p_kind = kind;
    p_mu = Mutex.create ();
  }

let prepared_version p = p.p_version

(* Carry a prepared plan across an append instead of re-preparing it.
   P_direct and P_rewrite re-bind and re-execute against the live catalog
   on every call (a-priori reducer subqueries re-materialize per run), so
   they survive any append unchanged; P_nljp delegates to the operator's
   delta rules for its shared prune/memo tier and always discards the
   predicate-transfer Bloom memo (Blooms describe pre-append tables).
   On [`Kept]/[`Refreshed] the plan's version is advanced to the current
   catalog version so version-keyed owners keep accepting it; [`Reprepare]
   leaves it stale and the owner must rebuild. *)
let refresh_prepared p ~table ~delta =
  Mutex.lock p.p_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock p.p_mu) @@ fun () ->
  let outcome =
    match p.p_kind with
    | P_direct | P_rewrite _ -> `Kept
    | P_nljp pn ->
      pn.transfer_run <- None;
      (match Nljp.delta_refresh pn.op pn.shared ~table ~delta with
       | `Kept -> `Kept
       | `Refreshed _ -> `Refreshed
       | `Reprepare reason -> `Reprepare reason)
  in
  (match outcome with
   | `Reprepare _ -> ()
   | `Kept | `Refreshed -> p.p_version <- Catalog.version p.p_catalog);
  outcome

let prepared_kind p =
  match p.p_kind with
  | P_direct -> `Direct
  | P_rewrite _ -> `Rewrite
  | P_nljp _ -> `Nljp

let prepared_shared_rows p =
  match p.p_kind with
  | P_nljp pn -> Some (Nljp.shared_cache_rows pn.shared)
  | _ -> None

(* Per-execution delta of the operator's cumulative stats record. *)
let stats_delta (s0 : Nljp.stats) (s1 : Nljp.stats) =
  {
    s1 with
    Nljp.outer_rows = s1.Nljp.outer_rows - s0.Nljp.outer_rows;
    inner_evals = s1.Nljp.inner_evals - s0.Nljp.inner_evals;
    pruned = s1.Nljp.pruned - s0.Nljp.pruned;
    memo_hits = s1.Nljp.memo_hits - s0.Nljp.memo_hits;
    vector_evals = s1.Nljp.vector_evals - s0.Nljp.vector_evals;
    vector_fallbacks = s1.Nljp.vector_fallbacks - s0.Nljp.vector_fallbacks;
    inner_blocks_skipped =
      s1.Nljp.inner_blocks_skipped - s0.Nljp.inner_blocks_skipped;
    inner_blocks_scanned =
      s1.Nljp.inner_blocks_scanned - s0.Nljp.inner_blocks_scanned;
    waves = s1.Nljp.waves - s0.Nljp.waves;
  }

let prepared_reducers p =
  reducer_evaluator ~analyze:false ~tech:p.p_tech ~nljp_config:p.p_nljp_config
    ~memo_strategy:`Nljp ~adaptive_apriori:false ~transfer:p.p_transfer p.p_catalog

let run_prepared ?span p =
  match p.p_kind with
  | P_direct ->
    run ?span ~tech:p.p_tech ~nljp_config:p.p_nljp_config
      ~transfer:p.p_transfer p.p_catalog p.p_query
  | P_rewrite (rw, decision) ->
    let subquery, reducer_lines = prepared_reducers p in
    let rel =
      in_span span "execute" (fun s ->
          List.iter (span_note s) decision.Optimizer.notes;
          let rel =
            Binder.run ~workers:p.p_nljp_config.Nljp.workers ~subquery:(subquery s)
              p.p_catalog rw
          in
          span_rows_out s (Relation.cardinality rel);
          rel)
    in
    ( rel,
      {
        technique = p.p_tech;
        apriori = decision.Optimizer.apriori_rewrites;
        nljp_outer = None;
        nljp_stats = None;
        nljp_describe = None;
        transfer = None;
        notes = decision.Optimizer.notes @ reducer_lines ();
        cte_reports = [];
      } )
  | P_nljp pn ->
    Mutex.lock p.p_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock p.p_mu) @@ fun () ->
    let transfer_result =
      match pn.transfer_run with
      | Some r -> Some r
      | None ->
        (match pn.decision.Optimizer.transfer with
         | None -> None
         | Some spec ->
           let r =
             in_span span "transfer" (fun s ->
                 let r = Transfer.run ?span:s p.p_catalog spec in
                 List.iter (span_note s) r.Transfer.r_notes;
                 r)
           in
           pn.transfer_run <- Some r;
           Some r)
    in
    let transfer_filters =
      match transfer_result with Some r -> r.Transfer.r_filters | None -> []
    in
    let before = { (Nljp.op_stats pn.op) with Nljp.notes = [] } in
    let subquery, reducer_lines = prepared_reducers p in
    let rel, stats =
      in_span span "execute" (fun s ->
          let rel, stats =
            Nljp.execute ?span:s ~transfer:transfer_filters ~shared:pn.shared
              ~subquery pn.op
          in
          let d = stats_delta before stats in
          span_rows_out s (Relation.cardinality rel);
          span_counter s "outer_rows" d.Nljp.outer_rows;
          span_counter s "inner_evals" d.Nljp.inner_evals;
          span_counter s "pruned" d.Nljp.pruned;
          span_counter s "memo_hits" d.Nljp.memo_hits;
          List.iter (span_note s) stats.Nljp.notes;
          (rel, stats))
    in
    ( rel,
      {
        technique = p.p_tech;
        apriori = pn.decision.Optimizer.apriori_rewrites;
        nljp_outer = Some pn.aliases;
        nljp_stats = Some (stats_delta before stats);
        nljp_describe = Some (Nljp.describe pn.op);
        transfer = transfer_result;
        notes = pn.decision.Optimizer.notes @ reducer_lines ();
        cte_reports = [];
      } )

let rec cache_rows rep =
  let own =
    match rep.nljp_stats with
    | Some s -> s.Nljp.prune_cache_rows + s.Nljp.memo_cache_rows
    | None -> 0
  in
  own + List.fold_left (fun acc (_, r) -> acc + cache_rows r) 0 rep.cte_reports

let rec cache_bytes rep =
  let own = match rep.nljp_stats with Some s -> s.Nljp.cache_bytes | None -> 0 in
  own + List.fold_left (fun acc (_, r) -> acc + cache_bytes r) 0 rep.cte_reports

let same_result = Relation.equal_bag

let report_to_string rep =
  let b = Buffer.create 256 in
  let rec go indent rep =
    let pad = String.make indent ' ' in
    List.iter
      (fun rw ->
        Buffer.add_string b
          (Printf.sprintf "%sa-priori reducer on {%s}:\n%s  %s\n" pad
             (String.concat ", " rw.Optimizer.reduced)
             pad rw.Optimizer.reducer_sql))
      rep.apriori;
    (match rep.nljp_outer with
     | Some aliases ->
       Buffer.add_string b
         (Printf.sprintf "%sNLJP outer side: {%s}\n" pad (String.concat ", " aliases))
     | None -> ());
    (match rep.nljp_describe with
     | Some d ->
       String.split_on_char '\n' d
       |> List.iter (fun line ->
              if line <> "" then Buffer.add_string b (pad ^ line ^ "\n"))
     | None -> ());
    (match rep.transfer with
     | Some t ->
       let per_alias =
         List.map
           (fun (a, (k, n)) -> Printf.sprintf "%s %d/%d" a k n)
           t.Transfer.r_kept
       in
       Buffer.add_string b
         (Printf.sprintf "%spredicate transfer: kept %s\n" pad
            (String.concat ", " per_alias))
     | None -> ());
    (match rep.nljp_stats with
     | Some s ->
       Buffer.add_string b
         (Printf.sprintf
            "%souter=%d inner_evals=%d pruned=%d memo_hits=%d cache_rows=%d cache_kB=%d\n"
            pad s.Nljp.outer_rows s.Nljp.inner_evals s.Nljp.pruned s.Nljp.memo_hits
            (s.Nljp.prune_cache_rows + s.Nljp.memo_cache_rows)
            (s.Nljp.cache_bytes / 1024));
       Buffer.add_string b
         (Printf.sprintf "%sinner access path: %s\n" pad
            (Nljp.access_to_string s.Nljp.access));
       (match s.Nljp.access with
        | Nljp.A_vector _ ->
          Buffer.add_string b
            (Printf.sprintf
               "%svectorized inner loop: evals=%d blocks skipped=%d scanned=%d\n"
               pad s.Nljp.vector_evals s.Nljp.inner_blocks_skipped
               s.Nljp.inner_blocks_scanned)
        | _ -> ());
       List.iter (fun n -> Buffer.add_string b (pad ^ "note: " ^ n ^ "\n")) s.Nljp.notes
     | None -> ());
    List.iter (fun n -> Buffer.add_string b (pad ^ n ^ "\n")) rep.notes;
    List.iter
      (fun (name, r) ->
        (* nested notes (e.g. "vector off" degrades) render through [go] *)
        Buffer.add_string b (Printf.sprintf "%scte:%s:\n" pad name);
        go (indent + 2) r)
      rep.cte_reports
  in
  go 0 rep;
  Buffer.contents b
