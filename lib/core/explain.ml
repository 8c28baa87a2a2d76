(* EXPLAIN: print the optimizer's decision for a query without running it.

   The output stitches together the pieces the optimizer settles statically:
   the generalized-a-priori reducers ([Optimizer.pick_gapriori]), the NLJP
   outer/inner split and its memo/prune configuration
   ([Optimizer.pick_memprune] via [Optimizer.decide]), the inner-side access
   path in priority order (hash probe ≻ vectorized column probe ≻ sorted
   inner index ≻ row scan, [Nljp.choose_access] — the decision
   [Nljp.execute] runs) and the cost model's estimate of the baseline
   physical plan ([Cost.explain]).

   [Optimizer.decide] with [adaptive:false] only analyzes — Qspec analysis,
   subsumption derivation and [Nljp.build] are static — so nothing of the
   main query executes.  The one caveat is WITH: planning the main block
   needs the CTE temp tables to exist, so CTE blocks are materialized first
   (flagged in the output). *)

open Sqlfront
open Relalg

let add_block b title body =
  Buffer.add_string b title;
  Buffer.add_char b '\n';
  String.split_on_char '\n' body
  |> List.iter (fun line -> if line <> "" then Buffer.add_string b ("  " ^ line ^ "\n"))

(* The plan line of each distinct reducer query a rewrite binds (one per
   wrapped table, projected onto its columns), as [Runner.run] would run it:
   the same shape gate and decision, without executing. *)
let reducer_plan_lines ~tech ~nljp_config catalog (rw : Optimizer.apriori_rewrite) =
  let line q =
    let decision =
      if not (Optimizer.iceberg_shape ~tech q) then None
      else
        try Some (Optimizer.decide ~adaptive:false catalog q ~tech ~nljp_config)
        with Qspec.Unsupported _ -> None
    in
    Runner.reducer_label q ^ ": " ^ Runner.decision_plan_line decision
  in
  List.filter_map
    (function
      | _, Ast.T_subquery ({ Ast.where = Some (Ast.P_in (_, red)); _ }, _) -> Some (line red)
      | _ -> None)
    rw.Optimizer.replacements
  |> List.sort_uniq String.compare

let explain_block ~tech ~nljp_config catalog (q : Ast.query) b =
  let optimizable = Optimizer.iceberg_shape ~tech q in
  let decision =
    if not optimizable then None
    else
      match Optimizer.decide ~adaptive:false catalog q ~tech ~nljp_config with
      | d -> Some d
      | exception Qspec.Unsupported reason ->
        Buffer.add_string b ("not optimized: " ^ reason ^ "\n");
        None
  in
  (match decision with
   | None ->
     if not optimizable then
       Buffer.add_string b "not optimized: outside the iceberg query shape\n"
   | Some d ->
     List.iter
       (fun n -> Buffer.add_string b ("note: " ^ n ^ "\n"))
       d.Optimizer.notes;
     List.iter
       (fun rw ->
         add_block b
           (Printf.sprintf "a-priori reducer on {%s}:"
              (String.concat ", " rw.Optimizer.reduced))
           (String.concat "\n"
              (rw.Optimizer.reducer_sql
              :: reducer_plan_lines ~tech ~nljp_config catalog rw)))
       d.Optimizer.apriori_rewrites;
     (match d.Optimizer.nljp with
      | None -> Buffer.add_string b "NLJP: not applicable; executes as baseline plan\n"
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
        (* Estimated side cardinalities — the numbers --analyze checks
           against the actual Q_B / Q_R materializations. *)
        (try
           let lq, rq = Nljp.side_queries op in
           let le = Cost.estimate catalog (Binder.bind catalog lq) in
           let re = Cost.estimate catalog (Binder.bind catalog rq) in
           Buffer.add_string b
             (Printf.sprintf
                "estimated Q_B (outer side): rows~%.0f; Q_R (inner side): rows~%.0f\n"
                le.Cost.rows re.Cost.rows)
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
             (String.concat ", " ests))));
  (* The cost model ranges over the baseline physical plan — the yardstick
     the NLJP rewrite is competing with. *)
  (match Binder.bind catalog q with
   | plan -> add_block b "baseline physical plan (cost model):" (Cost.explain catalog plan)
   | exception e ->
     Buffer.add_string b
       ("baseline plan unavailable: " ^ Printexc.to_string e ^ "\n"))

let rec query ?(tech = Optimizer.all_techniques)
    ?(nljp_config = Nljp.default_config) catalog (q : Ast.query) =
  let b = Buffer.create 1024 in
  add_block b "query:" (Pretty.query q);
  (* WITH blocks: materialize each (the only execution EXPLAIN performs —
     the main block needs their schemas and catalog facts to plan), then
     explain the main block against the augmented catalog, as Runner would
     run it. *)
  let temp_names = ref [] in
  let renames = ref [] in
  List.iter
    (fun (name, def) ->
      let def = Runner.rename_table_refs def !renames in
      Buffer.add_string b (Printf.sprintf "CTE %s (materialized for planning):\n" name);
      let sub = query ~tech ~nljp_config catalog def in
      String.split_on_char '\n' sub
      |> List.iter (fun line ->
             if line <> "" then Buffer.add_string b ("  " ^ line ^ "\n"));
      let rel = Binder.run catalog def in
      let fresh = Runner.fresh_temp_name catalog name in
      let keys = match Runner.derived_key def with Some k -> [ k ] | None -> [] in
      let nonneg = Runner.derived_nonneg catalog def in
      Catalog.add_table catalog ~keys ~nonneg fresh
        (Relation.with_schema (Schema.unqualified rel.Relation.schema) rel);
      temp_names := fresh :: !temp_names;
      renames := (String.lowercase_ascii name, fresh) :: !renames)
    q.Ast.with_defs;
  let main = Runner.rename_table_refs { q with Ast.with_defs = [] } !renames in
  explain_block ~tech ~nljp_config catalog main b;
  List.iter (Catalog.remove_table catalog) !temp_names;
  Buffer.contents b
