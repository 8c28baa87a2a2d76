(* Cost-model calibration: replay a workload under EXPLAIN ANALYZE and
   tabulate estimated vs actual per technique (DESIGN.md §10).

   Each row is one estimate the optimizer acted on, next to what actually
   happened:
   - [cardinality:*] — per-node cardinalities of executed plans (baseline
     plan nodes, NLJP side queries, block outputs);
   - [apriori:keep_ratio] — the fraction of candidate groups a chosen
     reducer keeps, as the cost model predicts it vs measured by running
     the gate queries (pick_gapriori's evidence);
   - [memo:repeat_bindings] — repeated outer bindings predicted from
     distinct-count statistics vs actual memo hits (pick_memprune's payoff);
   - [prune:inner_evals] — distinct bindings the model expects to evaluate
     vs inner evaluations actually performed (the gap is what pruning and
     memoization removed — unmodeled). *)

type row = {
  c_workload : string;
  c_query : string;
  c_metric : string;
  c_est : float;
  c_act : float;
  c_q : float;
  c_note : string;
}

let mk ~workload ~query ~metric ?(note = "") est act =
  {
    c_workload = workload;
    c_query = query;
    c_metric = metric;
    c_est = est;
    c_act = act;
    c_q = Analyze.qerror ~est ~act;
    c_note = note;
  }

(* Cardinality observations from the annotated tree, labelled with the
   nearest enclosing block (cte:<name> or the main query). *)
let cardinality_rows ~workload ~query node =
  let rows = ref [] in
  let rec go ctx (n : Analyze.node) =
    let ctx =
      if String.length n.Analyze.n_label >= 4 && String.sub n.Analyze.n_label 0 4 = "cte:"
      then n.Analyze.n_label
      else ctx
    in
    (match n.Analyze.n_est_rows, n.Analyze.n_rows_out with
     | Some est, Some act ->
       let metric =
         if ctx = "" then "cardinality:" ^ n.Analyze.n_label
         else "cardinality:" ^ ctx ^ "/" ^ n.Analyze.n_label
       in
       rows := mk ~workload ~query ~metric est (float_of_int act) :: !rows
     | _ -> ());
    List.iter (go ctx) n.Analyze.n_children
  in
  go "" node;
  List.rev !rows

(* Technique observations from the NLJP probe-loop counter slices. *)
let technique_rows ~workload ~query node =
  let rows = ref [] in
  let rec go (n : Analyze.node) =
    (if String.equal n.Analyze.n_label "NLJP probe loop" then begin
       let c k = List.assoc_opt k n.Analyze.n_counters in
       match c "est_distinct_bindings" with
       | None -> ()
       | Some est_distinct ->
         let outer = Option.value (c "outer_rows") ~default:0 in
         let memo_hits = Option.value (c "memo_hits") ~default:0 in
         let inner_evals = Option.value (c "inner_evals") ~default:0 in
         let pruned = Option.value (c "pruned") ~default:0 in
         let est_repeats = float_of_int (max 0 (outer - est_distinct)) in
         rows :=
           mk ~workload ~query ~metric:"memo:repeat_bindings"
             ~note:
               (Printf.sprintf "outer=%d est_distinct=%d" outer est_distinct)
             est_repeats
             (float_of_int memo_hits)
           :: !rows;
         rows :=
           mk ~workload ~query ~metric:"prune:inner_evals"
             ~note:
               (Printf.sprintf
                  "pruned=%d evals avoided by subsumption (unmodeled)" pruned)
             (float_of_int est_distinct)
             (float_of_int inner_evals)
           :: !rows
     end);
    List.iter go n.Analyze.n_children
  in
  go node;
  List.rev !rows

(* pick_gapriori's gate: estimated vs measured keep ratio per reducer the
   optimizer chose.  Reducers over since-dropped CTE temp tables are
   unmeasurable after the run and are skipped. *)
let apriori_rows ~workload ~query catalog (rep : Runner.report) =
  let rows = ref [] in
  let rec walk ctx (r : Runner.report) =
    List.iter
      (fun rw ->
        match
          ( Optimizer.reducer_est_ratio catalog rw,
            Optimizer.reducer_keep_ratio catalog rw )
        with
        | Some est, Some act ->
          (* In percent: [Analyze.qerror] clamps both sides to >= 1, which
             would collapse any pair of sub-1 ratios to q = 1. *)
          rows :=
            mk ~workload ~query
              ~metric:(Printf.sprintf "apriori:keep_pct%s" ctx)
              ~note:
                (Printf.sprintf "reducer on {%s}; gate drops at %.0f%%"
                   (String.concat ", " rw.Optimizer.reduced)
                   (100. *. Optimizer.adaptive_threshold))
              (100. *. est) (100. *. act)
            :: !rows
        | _ -> ())
      r.Runner.apriori;
    List.iter
      (fun (name, r') -> walk (Printf.sprintf "(cte:%s)" name) r')
      r.Runner.cte_reports
  in
  walk "" rep;
  List.rev !rows

let calibrate_query ?tech ?nljp_config ?workers ~workload catalog (name, sql) =
  let q = Sqlfront.Parser.parse sql in
  let _, rep, node = Analyze.run ?tech ?nljp_config ?workers catalog q in
  cardinality_rows ~workload ~query:name node
  @ apriori_rows ~workload ~query:name catalog rep
  @ technique_rows ~workload ~query:name node

(** Replay [queries] (name, SQL) against [catalog]. *)
let calibrate ?tech ?nljp_config ?workers ~workload catalog queries =
  List.concat_map (calibrate_query ?tech ?nljp_config ?workers ~workload catalog) queries

let to_text rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-10s %-14s %-34s %12s %12s %8s  %s\n" "workload" "query"
       "metric" "est" "act" "q" "note");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%-10s %-14s %-34s %12.1f %12.1f %8.2f  %s\n"
           r.c_workload r.c_query r.c_metric r.c_est r.c_act r.c_q r.c_note))
    rows;
  Buffer.contents b

let to_json rows : Obs.Json.t =
  Obs.Json.Arr
    (List.map
       (fun r ->
         Obs.Json.Obj
           [
             ("workload", Obs.Json.Str r.c_workload);
             ("query", Obs.Json.Str r.c_query);
             ("metric", Obs.Json.Str r.c_metric);
             ("est", Obs.Json.Num r.c_est);
             ("act", Obs.Json.Num r.c_act);
             ("q_error", Obs.Json.Num r.c_q);
             ("note", Obs.Json.Str r.c_note);
           ])
       rows)

(* Worst estimates first — the EXPERIMENTS.md calibration table. *)
let worst k rows =
  let sorted = List.sort (fun a b -> Float.compare b.c_q a.c_q) rows in
  let rec take k = function
    | [] -> []
    | x :: rest -> if k <= 0 then [] else x :: take (k - 1) rest
  in
  take k sorted
