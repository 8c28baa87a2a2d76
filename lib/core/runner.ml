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

(* A table's first Stats build, timed as a [stats build] child of the span
   whose work needed it (see [Catalog.stats]). *)
let stats_build span =
  Option.map
    (fun parent make -> Obs.Span.with_span ~parent "stats build" (fun _ -> make ()))
    span

(* One line naming how a block runs: its a-priori reducers, then NLJP with
   its outer side and inner access path, or the baseline join. *)
let format_plan_line ~apriori ~nljp =
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
  format_plan_line ~apriori:(List.length rep.apriori)
    ~nljp:
      (match rep.nljp_outer, rep.nljp_stats with
       | Some aliases, Some s -> Some (aliases, s.Nljp.access)
       | _ -> None)

let reducer_label (q : Ast.query) =
  Printf.sprintf "reducer over {%s}"
    (String.concat ", "
       (List.map
          (function
            | Ast.T_table (name, alias) -> Option.value alias ~default:name
            | Ast.T_subquery (_, alias) -> alias)
          q.Ast.from))

(* ---- alias-isomorphic reducers ----

   Every paper query is a self-join, so its a-priori reducers come in
   mirror images: complex's reducers over {S1, T1} and {S2, T2} are one
   query under alias renaming.  A reducer's canonical key renames its
   aliases positionally in FROM order ($0, $1, …), sorts the conjuncts of
   WHERE and HAVING, and prints the result with the lossless [Pretty]; two
   reducers with one key compute the same rows, and only the qualifiers of
   their columns differ, which nothing reads: an IN-subquery's rows are
   matched by position.  Keys are made when a block is planned: at
   prepare, or on every execution for the CTE and main blocks of a WITH
   text, which are planned over that execution's temp tables.  [None] for
   a shape the renaming does not cover (WITH, subquery FROM items,
   IN-subqueries). *)
let canonical_key (q : Ast.query) =
  let rec has_in = function
    | Ast.P_in _ -> true
    | Ast.P_and (a, b) | Ast.P_or (a, b) -> has_in a || has_in b
    | Ast.P_not a -> has_in a
    | Ast.P_true | Ast.P_cmp _ -> false
  in
  let tables =
    List.filter_map
      (function
        | Ast.T_table (name, alias) -> Some (name, Option.value alias ~default:name)
        | Ast.T_subquery _ -> None)
      q.Ast.from
  in
  if
    q.Ast.with_defs <> []
    || List.length tables <> List.length q.Ast.from
    || List.exists has_in (Option.to_list q.Ast.where @ Option.to_list q.Ast.having)
  then None
  else begin
    let renames = List.mapi (fun i (_, alias) -> (alias, Printf.sprintf "$%d" i)) tables in
    let qual = Option.map (fun a -> Option.value (List.assoc_opt a renames) ~default:a) in
    let scalar = Ast.map_cols_scalar (fun (qq, n) -> Ast.S_col (qual qq, n)) in
    let pred p =
      Ast.conjuncts p
      |> List.map (Ast.map_cols_pred (fun (qq, n) -> Ast.S_col (qual qq, n)))
      |> List.map (fun c -> (Pretty.pred c, c))
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.map snd |> Ast.conj
    in
    let canonical =
      {
        q with
        Ast.from = List.map2 (fun (name, _) (_, pos) -> Ast.T_table (name, Some pos)) tables renames;
        select =
          List.map
            (function
              | Ast.Sel_star -> Ast.Sel_star
              | Ast.Sel_expr (e, alias) -> Ast.Sel_expr (scalar e, alias))
            q.Ast.select;
        where = Option.map pred q.Ast.where;
        group_by = List.map (fun (qq, n) -> (qual qq, n)) q.Ast.group_by;
        having = Option.map pred q.Ast.having;
        order_by = List.map (fun (e, dir) -> (scalar e, dir)) q.Ast.order_by;
      }
    in
    Some (Pretty.query canonical)
  end

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

let with_ctes catalog (q : Ast.query) ~cte k =
  let temp_names = ref [] in
  let renames = ref [] in
  Fun.protect
    ~finally:(fun () -> List.iter (Catalog.remove_table catalog) !temp_names)
    (fun () ->
      List.iter
        (fun (name, def) ->
          let def = rename_table_refs def !renames in
          let rel = cte name def in
          let fresh = fresh_temp_name catalog name in
          let keys = match derived_key def with Some k -> [ k ] | None -> [] in
          let nonneg = derived_nonneg catalog def in
          Catalog.add_temp catalog ~keys ~nonneg fresh
            (Relation.with_schema (Schema.unqualified rel.Relation.schema) rel);
          temp_names := fresh :: !temp_names;
          renames := (String.lowercase_ascii name, fresh) :: !renames)
        q.Ast.with_defs;
      k (rename_table_refs { q with Ast.with_defs = [] } !renames))

(* ---- block plans ---- *)

type plan =
  | Baseline of { query : Ast.query; notes : string list }
  | Optimized of Optimizer.decision
  | With of Ast.query

type settings = {
  s_tech : Optimizer.technique;
  s_nljp_config : Nljp.config;
  s_transfer : bool;
  s_memo_strategy : [ `Nljp | `Static_rewrite ];
  s_adaptive_apriori : bool;
}

(* A prepared block pins the optimizer's decision so repeated executions
   skip the Listing 9 procedure (subset enumeration, reducer analysis,
   pick_* costing).  It holds no execution state: every execution builds
   its own caches and transfer filters, so one plan may run on several
   domains at once.  It is valid only at the catalog version it was
   prepared at; [run_prepared] refuses it after any catalog mutation. *)
type prepared = {
  p_catalog : Catalog.t;
  p_settings : settings;
  p_version : int;
  p_plan : plan;
  p_reducers : reducer list;
      (* each IN-subquery (a-priori reducer) the decision binds *)
}

and reducer = {
  r_query : Ast.query;  (* the IN-subquery, as the decision binds it *)
  r_label : string;  (* [reducer over {…}] *)
  r_key : string option;  (* [canonical_key] *)
  r_plan : prepared;  (* shared by the block's reducers with one key *)
  r_shared_with : string option;
      (* the label of the block's first reducer with the same key *)
}

(* The only place a block is planned.  A-priori reducers are iceberg
   queries themselves (§4), so each is planned here with the parent's
   settings — an "a-priori only" ablation stays a-priori only all the way
   down.  Recursion ends: a reducer's FROM is a strict subset of its
   parent's.  CTE queries plan nothing yet: their main block needs the
   materialized temp tables, so [run_prepared] plans it per execution. *)
let rec plan_block ?span s catalog (q : Ast.query) =
  let tech = s.s_tech in
  let plan =
    if q.Ast.with_defs <> [] then With q
    else if not (Optimizer.iceberg_shape ~tech q) then
      Baseline { query = q; notes = [ "not optimized: outside the iceberg query shape" ] }
    else
      in_span span "optimize" (fun sp ->
          if
            s.s_memo_strategy = `Static_rewrite && tech.Optimizer.memo
            && not tech.Optimizer.pruning
          then
            (* Appendix C: memoization through static query rewriting. *)
            match Optimizer.pick_static_memo catalog q with
            | Some rewritten ->
              Baseline
                { query = rewritten; notes = [ "memoization via static rewrite (Listing 8)" ] }
            | None -> Baseline { query = q; notes = [ "static memo rewrite not applicable" ] }
          else
            match
              Optimizer.decide ~adaptive:s.s_adaptive_apriori ~transfer:s.s_transfer
                ?on_stats_build:(stats_build sp) catalog q ~tech ~nljp_config:s.s_nljp_config
            with
            | exception Qspec.Unsupported reason ->
              span_note sp "unsupported query shape";
              Baseline { query = q; notes = [ "not optimized: " ^ reason ] }
            | d ->
              span_counter sp "apriori_rewrites" (List.length d.Optimizer.apriori_rewrites);
              List.iter (span_note sp) d.Optimizer.notes;
              Optimized d)
  in
  let reducers =
    match plan with
    | Optimized d ->
      List.fold_left
        (fun acc red ->
          let r_key = canonical_key red in
          let r_plan, r_shared_with =
            match List.find_opt (fun r -> r_key <> None && r.r_key = r_key) acc with
            | Some first -> (first.r_plan, Some first.r_label)
            | None -> (plan_block s catalog red, None)
          in
          acc @ [ { r_query = red; r_label = reducer_label red; r_key; r_plan; r_shared_with } ])
        []
        (List.concat_map Optimizer.reducer_subqueries d.Optimizer.apriori_rewrites)
    | Baseline _ | With _ -> []
  in
  {
    p_catalog = catalog;
    p_settings = s;
    p_version = Catalog.version catalog;
    p_plan = plan;
    p_reducers = reducers;
  }

let prepare ?span ?(tech = Optimizer.all_techniques) ?(nljp_config = Nljp.default_config)
    ?workers ?(memo_strategy = `Nljp) ?(adaptive_apriori = false) ?transfer catalog q =
  let s_nljp_config =
    match workers with
    | None -> nljp_config
    | Some w -> { nljp_config with Nljp.workers = w }
  in
  plan_block ?span
    {
      s_tech = tech;
      s_nljp_config;
      s_transfer = (match transfer with Some t -> t | None -> transfer_default ());
      s_memo_strategy = memo_strategy;
      s_adaptive_apriori = adaptive_apriori;
    }
    catalog q

let plan p = p.p_plan
let prepared_version p = p.p_version

let plan_line p =
  match p.p_plan with
  | Baseline _ -> format_plan_line ~apriori:0 ~nljp:None
  | Optimized d ->
    format_plan_line
      ~apriori:(List.length d.Optimizer.apriori_rewrites)
      ~nljp:
        (Option.map
           (fun (op, aliases) -> (aliases, fst (Nljp.choose_access op)))
           d.Optimizer.nljp)
  | With _ -> "WITH blocks first, then the main block planned over them"

let reducer_lines p =
  List.map
    (fun r ->
      ( r.r_query,
        r.r_label ^ ": "
        ^
        match r.r_shared_with with
        | Some first -> "shared with " ^ first
        | None -> plan_line r.r_plan ))
    p.p_reducers

(* Compressed-storage tier: blocks decoded vs answered directly on the
   encoded form, and block-cache traffic (lib/column DESIGN.md §13). *)
let sic_counters =
  List.map Obs.Metrics.counter
    [ "sic.blocks_decoded"; "sic.blocks_direct"; "sic.cache_hits";
      "sic.cache_misses"; "sic.cache_evictions" ]

(* Delta of the global block counters across one block's execution, so
   nested (CTE, reducer) blocks report their own scans without resets
   clobbering the enclosing query's accounting. *)
let with_block_accounting span f =
  let skipped0, scanned0 = Colscan.counters () in
  let tb0, tp0, td0 = Colscan.transfer_counters () in
  let sic0 = List.map Obs.Metrics.read sic_counters in
  let result, rep = f () in
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
  (result, { rep with notes = rep.notes @ block_notes @ sic_notes })

(* Baseline execution of [query].  Under [analyze] with a live span, bind
   once, execute with a per-plan-node recorder, and attach the full plan
   tree as zero-duration child spans — each carrying the cost model's
   estimated rows/cost next to the recorded actual rows.  Plan nodes are
   pipelined, so only the block's wall time is attributable, not per-node
   times (DESIGN.md §10). *)
let exec_baseline ~analyze p ?subquery s query =
  let catalog = p.p_catalog and workers = p.p_settings.s_nljp_config.Nljp.workers in
  match (if analyze then s else None) with
  | None -> Binder.run ~workers ?subquery catalog query
  | Some sp ->
    let plan = Binder.bind ~workers ?subquery catalog query in
    let acts = ref [] and notes = ref [] in
    let recorder =
      {
        Exec.rec_rows = (fun path label rows -> acts := (path, (label, rows)) :: !acts);
        rec_note = (fun path note -> notes := (path, note) :: !notes);
      }
    in
    let rel = Exec.run ~workers ~recorder catalog plan in
    let tree = Cost.tree ?on_stats_build:(stats_build s) catalog plan in
    Obs.Span.set_estimate ~rows:tree.Cost.t_rows ~cost:tree.Cost.t_cost sp;
    Obs.Span.note sp "plan nodes below are pipelined; per-node time not attributed";
    let rec attach parent path (t : Cost.tree) =
      let node = Obs.Span.enter ~parent t.Cost.t_label in
      node.Obs.Span.dur_ms <- 0.;
      Obs.Span.set_estimate ~rows:t.Cost.t_rows ~cost:t.Cost.t_cost node;
      (match List.assoc_opt path !acts with
       | Some (_, rows) -> node.Obs.Span.rows_out <- Some rows
       | None -> ());
      List.iter
        (fun (p, note) -> if p = path then Obs.Span.note node note)
        (List.rev !notes);
      List.iteri (fun i c -> attach node (path @ [ i ]) c) t.Cost.t_children
    in
    attach sp [] tree;
    rel

(* Estimated output cardinality/cost of the block's baseline plan, stamped
   on the execute span so the block-level Q-error is reported even when
   execution goes through NLJP instead of that plan.  Timed as its own
   child, so ANALYZE does not charge it to the operator. *)
let stamp_block_estimate ~analyze catalog s query =
  match s with
  | Some sp when analyze ->
    Obs.Span.with_span ~parent:sp "block estimate" (fun bs ->
        try
          let est =
            Cost.estimate ?on_stats_build:(stats_build (Some bs)) catalog
              (Binder.bind catalog query)
          in
          Obs.Span.set_estimate ~rows:est.Cost.rows ~cost:est.Cost.cost sp
        with _ -> ())
  | _ -> ()

let block_report p notes =
  {
    technique = p.p_settings.s_tech;
    apriori = [];
    nljp_outer = None;
    nljp_stats = None;
    nljp_describe = None;
    transfer = None;
    notes;
    cte_reports = [];
  }

let m_reducers_shared = Obs.Metrics.counter "reducers.shared"

(* The only place a plan executes.  [analyze] adds the per-node recorder,
   the block estimate and the operator's side estimates. *)
let rec run_prepared ?span ?(analyze = false) p =
  let now = Catalog.version p.p_catalog in
  if now <> p.p_version then
    invalid_arg
      (Printf.sprintf
         "Runner.run_prepared: plan prepared at catalog version %d, catalog is at \
          version %d"
         p.p_version now);
  match p.p_plan with
  | With q ->
    let cte_reports = ref [] in
    let rel, rep =
      with_ctes p.p_catalog q
        ~cte:(fun name def ->
          in_span span ("cte:" ^ name) (fun s ->
              let rel, rep =
                run_prepared ?span:s ~analyze (plan_block ?span:s p.p_settings p.p_catalog def)
              in
              span_rows_out s (Relation.cardinality rel);
              cte_reports := (name, rep) :: !cte_reports;
              rel))
        (fun main ->
          run_prepared ?span ~analyze (plan_block ?span p.p_settings p.p_catalog main))
    in
    (rel, { rep with cte_reports = List.rev !cte_reports })
  | Baseline { query; notes } ->
    with_block_accounting span (fun () ->
        let rel =
          in_span span "execute" (fun s ->
              List.iter (span_note s) notes;
              let rel = exec_baseline ~analyze p s query in
              span_rows_out s (Relation.cardinality rel);
              rel)
        in
        (rel, block_report p notes))
  | Optimized d -> with_block_accounting span (fun () -> run_decision ?span ~analyze p d)

(* Each reducer runs its prepared plan, or reads the result this block
   execution already computed for its key, under a [reducer over {…}] span
   below the span that bound it.  Returns the evaluator and a reader of the
   distinct plan lines of the reducers it evaluated (a reducer wrapping two
   tables runs once per table); a mirror reducer's line names the reducer
   it shares with, as [reducer_lines] does.

   [memo] maps a canonical key to its result and the plan line of the
   reducer that computed it.  It lives for one execution of one block, and
   not across blocks: keys name tables, not table versions, and a nested
   WITH drops a temp table whose name a later CTE of the same execution
   takes again.  A block's keyed reducers read only tables that exist for
   the block's whole execution.  Reducers are bound, and so evaluated, on
   the calling domain. *)
and reducer_evaluator ~analyze p =
  let lines = ref [] in
  let memo = Hashtbl.create 4 in
  let eval span (q : Ast.query) =
    let r =
      match List.find_opt (fun r -> r.r_query == q) p.p_reducers with
      | Some r -> r
      | None ->
        { r_query = q; r_label = reducer_label q; r_key = None;
          r_plan = plan_block p.p_settings p.p_catalog q; r_shared_with = None }
    in
    in_span span r.r_label (fun s ->
        let rel, ran =
          match Option.bind r.r_key (Hashtbl.find_opt memo) with
          | Some computed ->
            Obs.Metrics.incr m_reducers_shared;
            computed
          | None ->
            let rel, rep = run_prepared ?span:s ~analyze r.r_plan in
            let computed = (rel, report_plan_line rep) in
            Option.iter (fun key -> Hashtbl.replace memo key computed) r.r_key;
            computed
        in
        let line =
          r.r_label ^ ": "
          ^ match r.r_shared_with with Some first -> "shared with " ^ first | None -> ran
        in
        span_note s line;
        span_rows_out s (Relation.cardinality rel);
        if not (List.mem line !lines) then lines := line :: !lines;
        rel)
  in
  (eval, fun () -> List.rev !lines)

and run_decision ?span ~analyze p (d : Optimizer.decision) =
  let subquery, reducer_lines = reducer_evaluator ~analyze p in
  let report = { (block_report p d.Optimizer.notes) with apriori = d.Optimizer.apriori_rewrites } in
  (* the block's plan line, as [report_to_string] prints it, on its span *)
  let note_plan s nljp =
    span_note s ("plan: " ^ format_plan_line ~apriori:(List.length report.apriori) ~nljp)
  in
  match d.Optimizer.nljp with
  | None ->
    let rel =
      in_span span "execute" (fun s ->
          note_plan s None;
          let rel =
            exec_baseline ~analyze p ~subquery:(subquery s) s (Optimizer.rewritten_query d)
          in
          span_rows_out s (Relation.cardinality rel);
          rel)
    in
    (rel, { report with notes = report.notes @ reducer_lines () })
  | Some (op, aliases) ->
    (* Predicate transfer runs its two semi-join passes before NLJP so both
       side queries scan through the resulting filters. *)
    let transfer_result =
      Option.map
        (fun spec ->
          in_span span "transfer" (fun s ->
              let r = Transfer.run ?span:s p.p_catalog spec in
              List.iter (span_note s) r.Transfer.r_notes;
              r))
        d.Optimizer.transfer
    in
    let transfer_filters =
      match transfer_result with Some r -> r.Transfer.r_filters | None -> []
    in
    let rel, stats =
      in_span span "execute" (fun s ->
          stamp_block_estimate ~analyze p.p_catalog s d.Optimizer.query;
          let rel, stats =
            Nljp.execute ?span:s ~estimate:analyze ~transfer:transfer_filters ~subquery op
          in
          span_rows_out s (Relation.cardinality rel);
          span_counter s "outer_rows" stats.Nljp.outer_rows;
          span_counter s "inner_evals" stats.Nljp.inner_evals;
          span_counter s "pruned" stats.Nljp.pruned;
          span_counter s "memo_hits" stats.Nljp.memo_hits;
          span_counter s "waves" stats.Nljp.waves;
          note_plan s (Some (aliases, stats.Nljp.access));
          List.iter (span_note s) stats.Nljp.notes;
          (rel, stats))
    in
    ( rel,
      {
        report with
        nljp_outer = Some aliases;
        nljp_stats = Some stats;
        nljp_describe = Some (Nljp.describe op);
        transfer = transfer_result;
        notes = report.notes @ reducer_lines ();
      } )

let run ?span ?analyze ?tech ?nljp_config ?workers ?memo_strategy ?adaptive_apriori
    ?transfer catalog q =
  run_prepared ?span ?analyze
    (prepare ?span ?tech ?nljp_config ?workers ?memo_strategy ?adaptive_apriori ?transfer
       catalog q)

let run_baseline ?(workers = 1) catalog q = Binder.run ~workers catalog q

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
    Buffer.add_string b (pad ^ "plan: " ^ report_plan_line rep ^ "\n");
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
       List.iter (fun n -> Buffer.add_string b (pad ^ "note: " ^ n ^ "\n")) s.Nljp.notes
     | None -> ());
    List.iter (fun n -> Buffer.add_string b (pad ^ n ^ "\n")) rep.notes;
    List.iter
      (fun (name, r) ->
        (* nested notes (e.g. "range count off") render through [go] *)
        Buffer.add_string b (Printf.sprintf "%scte:%s:\n" pad name);
        go (indent + 2) r)
      rep.cte_reports
  in
  go 0 rep;
  Buffer.contents b
