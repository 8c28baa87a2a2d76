(* EXPLAIN: print the plan [Runner.prepare] returns for a query, without
   running it.

   Every line comes from that one value: the optimizer's notes (the NLJP
   verdict among them), the generalized-a-priori reducers with the plan
   each of them runs or the reducer it shares with, the NLJP outer/inner
   split and its memo/prune configuration, the inner-side
   access path ([Nljp.choose_access] — the decision [Nljp.execute] runs),
   the predicate-transfer plan, and the cost model's estimate of the
   baseline physical plan ([Cost.explain]).

   Planning is pure analysis, and the estimates bind queries without
   executing them, so nothing of the main query runs.  The one caveat is
   WITH: planning the main block needs the CTE temp tables to exist, so CTE
   blocks are materialized first, through [Runner.with_ctes] exactly as a
   run registers them (flagged in the output). *)

open Sqlfront
open Relalg

let add_block b title body =
  Buffer.add_string b title;
  Buffer.add_char b '\n';
  String.split_on_char '\n' body
  |> List.iter (fun line -> if line <> "" then Buffer.add_string b ("  " ^ line ^ "\n"))

(* Bind for costing only: an IN-subquery becomes an empty relation of its
   schema instead of being executed. *)
let rec bind_unexecuted catalog q =
  Binder.bind
    ~subquery:(fun sub ->
      Relation.make (Plan.schema_of catalog (bind_unexecuted catalog sub)) [||])
    catalog q

(* Estimated Q_B / Q_R cardinalities without running a reducer: each side
   over its base tables, scaled by the cost model's kept ratio of every
   reducer that wraps one of its aliases. *)
let side_estimates catalog (d : Optimizer.decision) op =
  let est q =
    let aliases =
      List.map
        (function
          | Ast.T_table (name, alias) -> Option.value alias ~default:name
          | Ast.T_subquery (_, alias) -> alias)
        q.Ast.from
    in
    let kept =
      List.fold_left
        (fun acc rw ->
          if List.exists (fun a -> List.mem a aliases) rw.Optimizer.reduced then
            acc *. Option.value (Optimizer.reducer_est_ratio catalog rw) ~default:1.
          else acc)
        1. d.Optimizer.apriori_rewrites
    in
    (Cost.estimate catalog (bind_unexecuted catalog q)).Cost.rows *. kept
  in
  let lq, rq = Nljp.side_queries op in
  (est lq, est rq)

let explain_block b catalog p =
  let note n = Buffer.add_string b ("note: " ^ n ^ "\n") in
  Buffer.add_string b ("plan: " ^ Runner.plan_line p ^ "\n");
  let costed =
    match Runner.plan p with
    | Runner.Baseline { query; notes } ->
      List.iter note notes;
      query
    | Runner.With _ -> invalid_arg "Explain: a WITH query has no block plan"
    | Runner.Optimized d ->
      List.iter note d.Optimizer.notes;
      List.iter
        (fun rw ->
          let subqueries = Optimizer.reducer_subqueries rw in
          let lines =
            List.filter_map
              (fun (red, line) -> if List.memq red subqueries then Some line else None)
              (Runner.reducer_lines p)
          in
          add_block b
            (Printf.sprintf "a-priori reducer on {%s}:"
               (String.concat ", " rw.Optimizer.reduced))
            (String.concat "\n"
               (rw.Optimizer.reducer_sql :: List.sort_uniq String.compare lines)))
        d.Optimizer.apriori_rewrites;
      (match d.Optimizer.nljp with
       | None -> Buffer.add_string b "NLJP: not used (see notes); executes as baseline plan\n"
       | Some (op, aliases) ->
         Buffer.add_string b
           (Printf.sprintf "NLJP outer side: {%s}\n" (String.concat ", " aliases));
         add_block b "NLJP component queries:" (Nljp.describe op);
         let access, access_notes = Nljp.choose_access op in
         Buffer.add_string b
           ("inner access path: " ^ Nljp.access_to_string access ^ "\n");
         List.iter
           (fun n -> Buffer.add_string b ("  note: " ^ n ^ "\n"))
           access_notes;
         (* The numbers --analyze checks against the actual Q_B / Q_R
            materializations. *)
         (try
            let le, re = side_estimates catalog d op in
            Buffer.add_string b
              (Printf.sprintf
                 "estimated Q_B (outer side): rows~%.0f; Q_R (inner side): rows~%.0f\n"
                 le re)
          with _ -> ()));
      (* The transfer plan itself (the gate's verdict is in the notes). *)
      (match d.Optimizer.transfer with
       | None -> ()
       | Some spec ->
         let edges =
           List.map
             (fun e ->
               let (a, ca) = e.Transfer.e_left and (b, cb) = e.Transfer.e_right in
               Printf.sprintf "%s.%s = %s.%s" a ca b cb)
             spec.Transfer.t_edges
         in
         let ests =
           List.filter_map
             (fun (a, _) ->
               Option.map
                 (fun f -> Printf.sprintf "%s~%.0f%%" a (100. *. f))
                 (List.assoc_opt a spec.Transfer.t_est_kept))
             spec.Transfer.t_aliases
         in
         add_block b "predicate transfer plan:"
           (Printf.sprintf "edges: %s\nestimated kept: %s"
              (String.concat "; " edges)
              (String.concat ", " ests)));
      d.Optimizer.query
  in
  (* The cost model ranges over the baseline physical plan — the yardstick
     the NLJP rewrite is competing with. *)
  match bind_unexecuted catalog costed with
  | plan -> add_block b "baseline physical plan (cost model):" (Cost.explain catalog plan)
  | exception e ->
    Buffer.add_string b ("baseline plan unavailable: " ^ Printexc.to_string e ^ "\n")

let query ?tech ?nljp_config ?workers ?memo_strategy ?transfer catalog (q : Ast.query) =
  let prepare = Runner.prepare ?tech ?nljp_config ?workers ?memo_strategy ?transfer catalog in
  (* [materialize]: a CTE block's rows are needed to plan the blocks after
     it, and run through the very plan printed for it. *)
  let rec go b q ~materialize =
    add_block b "query:" (Pretty.query q);
    Runner.with_ctes catalog q
      ~cte:(fun name def ->
        Buffer.add_string b (Printf.sprintf "CTE %s (materialized for planning):\n" name);
        let sub = Buffer.create 512 in
        let rel = go sub def ~materialize:true in
        String.split_on_char '\n' (Buffer.contents sub)
        |> List.iter (fun line ->
               if line <> "" then Buffer.add_string b ("  " ^ line ^ "\n"));
        Option.get rel)
      (fun main ->
        let p = prepare main in
        explain_block b catalog p;
        if materialize then Some (fst (Runner.run_prepared p)) else None)
  in
  let b = Buffer.create 1024 in
  ignore (go b q ~materialize:false);
  Buffer.contents b
