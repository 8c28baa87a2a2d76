open Sqlfront

type technique = { apriori : bool; memo : bool; pruning : bool }

let all_techniques = { apriori = true; memo = true; pruning = true }
let no_techniques = { apriori = false; memo = false; pruning = false }

let only = function
  | `Apriori -> { no_techniques with apriori = true }
  | `Memo -> { no_techniques with memo = true }
  | `Pruning -> { no_techniques with pruning = true }

let iceberg_shape ~tech (q : Ast.query) =
  q.Ast.having <> None
  && List.length q.Ast.from >= 2
  && List.for_all (function Ast.T_table _ -> true | _ -> false) q.Ast.from
  && (tech.apriori || tech.memo || tech.pruning)

type apriori_rewrite = {
  considered : string list;
  reduced : string list;
  reducer : Ast.query;
  reducer_sql : string;
  replacements : (string * Ast.table_ref) list;
}

type decision = {
  query : Ast.query;
  apriori_rewrites : apriori_rewrite list;
  nljp : (Nljp.t * string list) option;
  transfer : Transfer.spec option;
  notes : string list;
}

(* Non-empty proper subsets, smallest first, preserving input order inside a
   subset.  Queries join at most a handful of relations, so the exponential
   enumeration the paper describes is fine. *)
let proper_subsets xs =
  let n = List.length xs in
  let arr = Array.of_list xs in
  let subsets = ref [] in
  for mask = 1 to (1 lsl n) - 2 do
    let members = ref [] in
    for i = n - 1 downto 0 do
      if mask land (1 lsl i) <> 0 then members := arr.(i) :: !members
    done;
    subsets := (List.length !members, !members) :: !subsets
  done;
  List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !subsets))

let try_analyze catalog q ~left_aliases =
  match Qspec.analyze catalog q ~left_aliases with
  | spec -> Some spec
  | exception Qspec.Unsupported _ -> None

(* pick_gapriori: find a subset of the still-considered aliases that can be
   safely reduced (treating it as L and the rest of the query as R).
   Subsets owning a GROUP BY column as written are tried first: their
   reducers constrain the actual grouping attributes, whereas subsets that
   only reach a group column through an equality-equivalence produce much
   weaker (though still safe) reducers. *)
let pick_gapriori catalog q remaining =
  let all = Qspec.aliases_of q in
  let candidates =
    List.filter (fun s -> List.for_all (fun a -> List.mem a remaining) s) (proper_subsets all)
  in
  let attempt ~require_raw_group left_aliases =
    match try_analyze catalog q ~left_aliases with
    | None -> None
    | Some spec ->
      if require_raw_group && spec.Qspec.left.Qspec.group_cols = [] then None
      else if (not require_raw_group) && spec.Qspec.left.Qspec.group_cols <> [] then
        None (* already tried in the first pass *)
      else begin
        match Apriori.safe catalog spec `Left with
        | Error _ -> None
        | Ok () when Apriori.vacuous spec `Left -> None
        | Ok () ->
          let replacements = Apriori.replacements spec `Left in
          if replacements = [] then None
          else
            let reducer = Apriori.reducer spec `Left in
            Some
              {
                considered = left_aliases;
                reduced = List.map fst replacements;
                reducer;
                reducer_sql = Pretty.query reducer;
                replacements;
              }
      end
  in
  match List.find_map (attempt ~require_raw_group:true) candidates with
  | Some rw -> Some rw
  | None -> List.find_map (attempt ~require_raw_group:false) candidates

(* pick_memprune: choose the outer side for NLJP.  Prefer minimal subsets
   that contain every alias owning a GROUP BY column, then fall back to any
   split; respect the a-priori groupings (T_L ⊇ T or T_L ∩ T = ∅). *)
let pick_memprune catalog q ~tech ~nljp_config ~apriori_groups ~overrides =
  let all = Qspec.aliases_of q in
  let group_aliases =
    (* aliases mentioned by GROUP BY columns (when qualified) *)
    List.filter_map (fun (qq, _) -> qq) q.Ast.group_by
  in
  let covers_groups s = List.for_all (fun a -> List.mem a s) group_aliases in
  let compatible s =
    List.for_all
      (fun grp ->
        List.for_all (fun a -> List.mem a s) grp
        || List.for_all (fun a -> not (List.mem a s)) grp)
      apriori_groups
  in
  let candidates =
    let subs = List.filter compatible (proper_subsets all) in
    let preferred, others = List.partition covers_groups subs in
    preferred @ others
  in
  let last_error = ref None in
  let picked =
    List.find_map
      (fun left_aliases ->
        match try_analyze catalog q ~left_aliases with
        | None -> None
        | Some spec ->
          (match
             Nljp.build ~overrides ~pruning:tech.pruning ~memo:tech.memo catalog spec
               nljp_config
           with
           | Ok op -> Some (op, left_aliases, spec)
           | Error e ->
             last_error := Some (left_aliases, e);
             None))
      candidates
  in
  (picked, !last_error)

let pick_static_memo catalog q =
  match Qspec.aliases_of q with
  | exception Qspec.Unsupported _ -> None
  | all ->
    let group_aliases = List.filter_map (fun (qq, _) -> qq) q.Ast.group_by in
    let covers_groups s = List.for_all (fun a -> List.mem a s) group_aliases in
    let preferred, others = List.partition covers_groups (proper_subsets all) in
    List.find_map
      (fun left_aliases ->
        match try_analyze catalog q ~left_aliases with
        | None -> None
        | Some spec ->
          (match Memo_rewrite.applicable catalog spec with
           | Ok () -> Some (Memo_rewrite.rewrite catalog spec)
           | Error _ -> None))
      (preferred @ others)

(* Adaptive gate: execute the reducer; if it keeps almost every candidate
   group, drop the rewrite (the semijoins would cost more than they save).
   The group-count denominator is a cheap DISTINCT over the owning table,
   an over-estimate, so the gate is conservative. *)
let adaptive_threshold = 0.9

(* The two queries the gate compares: a DISTINCT over the reducer's
   grouping columns on their owning table (candidate groups) and the
   reducer itself (kept groups).  [None] when the reducer's shape makes the
   ratio unmeasurable — multi-alias grouping, subquery FROM items — in
   which case the gate keeps the rewrite. *)
let reducer_queries rw =
  let reducer = rw.reducer in
  match reducer.Ast.group_by with
  | [] -> None
  | (q0, _) :: _ as group_by ->
    let same_alias = List.for_all (fun (q, _) -> q = q0) group_by in
    if not same_alias then None
    else
      let owner =
        List.find_map
          (function
            | Ast.T_table (name, alias) ->
              let a = Option.value alias ~default:name in
              if Some a = q0 || (q0 = None && reducer.Ast.from = [ Ast.T_table (name, alias) ])
              then Some (name, a)
              else None
            | Ast.T_subquery _ -> None)
          reducer.Ast.from
      in
      Option.map
        (fun (name, alias) ->
          let distinct_q =
            Ast.simple_select ~distinct:true
              (List.map (fun (_, n) -> Ast.Sel_expr (Ast.S_col (Some alias, n), None)) group_by)
              [ Ast.T_table (name, Some alias) ]
          in
          (distinct_q, reducer))
        owner

(* Actual kept/total group ratio, by executing both gate queries. *)
let reducer_keep_ratio catalog rw =
  match reducer_queries rw with
  | None -> None
  | Some (distinct_q, reducer) ->
    (match Binder.run catalog distinct_q, Binder.run catalog reducer with
     | total, kept ->
       let nt = Relalg.Relation.cardinality total in
       let nk = Relalg.Relation.cardinality kept in
       if nt = 0 then None
       else Some (float_of_int nk /. float_of_int nt)
     | exception _ -> None)

(* Estimated kept/total group ratio from the cost model, for calibration:
   what the gate would decide if it trusted estimates instead of running
   the reducer. *)
let reducer_est_ratio catalog rw =
  match reducer_queries rw with
  | None -> None
  | Some (distinct_q, reducer) ->
    (match
       ( Cost.estimate catalog (Binder.bind catalog distinct_q),
         Cost.estimate catalog (Binder.bind catalog reducer) )
     with
     | total, kept ->
       if total.Cost.rows <= 0. then None
       else Some (Float.min 1. (kept.Cost.rows /. total.Cost.rows))
     | exception _ -> None)

let adaptive_keep catalog rw =
  match reducer_keep_ratio catalog rw with
  | None -> true
  | Some ratio -> ratio < adaptive_threshold

(* ---- predicate transfer (DESIGN.md §11) ---- *)

(* Below this many total base rows the Bloom passes cost more than they
   save; tests set [transfer_force] to run them anyway. *)
let transfer_min_rows = 4096
let transfer_force = ref false

(* pick_transfer: decide whether the two semi-join passes pay for
   themselves, and assemble the {!Transfer.spec} if so.  Every rejection is
   recorded through [note] so EXPLAIN ANALYZE can show why the technique
   was considered but not used (same contract as the NLJP notes). *)
let pick_transfer ?on_stats_build catalog q ~nljp ~overrides ~note =
  let reject reason =
    note (Printf.sprintf "transfer: skipped (%s)" reason);
    None
  in
  if nljp = None then reject "no NLJP plan"
  else begin
    let tables =
      List.filter_map
        (function
          | Ast.T_table (name, al) -> Some (Option.value al ~default:name, name)
          | Ast.T_subquery _ -> None)
        q.Ast.from
    in
    if List.length tables <> List.length q.Ast.from then
      reject "subquery FROM item"
    else begin
      (* Which single alias owns a column reference (unqualified names
         resolve when exactly one FROM table has the column). *)
      let owner_of (qq, n) =
        match qq with
        | Some a -> if List.mem_assoc a tables then Some a else None
        | None ->
          let owners =
            List.filter
              (fun (_, tname) ->
                match Relalg.Catalog.find_opt catalog tname with
                | None -> false
                | Some tbl ->
                  (match
                     Relalg.Schema.index_of tbl.Relalg.Catalog.rel.Relalg.Relation.schema n
                   with
                   | _ -> true
                   | exception Relalg.Schema.Unknown_column _ -> false
                   | exception Relalg.Schema.Ambiguous_column _ -> false))
              tables
          in
          (match owners with [ (a, _) ] -> Some a | _ -> None)
      in
      let conjs = match q.Ast.where with None -> [] | Some w -> Ast.conjuncts w in
      let edges =
        List.filter_map
          (function
            | Ast.P_cmp (Relalg.Expr.Eq, Ast.S_col (q1, n1), Ast.S_col (q2, n2)) ->
              (match owner_of (q1, n1), owner_of (q2, n2) with
               | Some a, Some b when a <> b ->
                 Some { Transfer.e_left = (a, n1); e_right = (b, n2) }
               | _ -> None)
            | _ -> None)
          conjs
      in
      if edges = [] then reject "no equality join edges"
      else begin
        let base_rows (_, tname) =
          match Relalg.Catalog.find_opt catalog tname with
          | Some tbl -> Relalg.Relation.cardinality tbl.Relalg.Catalog.rel
          | None -> 0
        in
        let total_rows = List.fold_left (fun acc t -> acc + base_rows t) 0 tables in
        (* A conjunct is a transfer source for alias [a] when every column
           it mentions belongs to [a] (IN-subquery conjuncts by their
           left-hand scalars: the subquery's own columns are internal). *)
        let pred_owner p =
          let cols =
            match p with
            | Ast.P_in (es, _) -> List.concat_map Ast.cols_of_scalar es
            | p -> Ast.cols_of_pred p
          in
          match cols with
          | [] -> None
          | c0 :: rest ->
            (match owner_of c0 with
             | None -> None
             | Some a ->
               if List.for_all (fun c -> owner_of c = Some a) rest then Some a
               else None)
        in
        let override_locals alias =
          match List.assoc_opt alias overrides with
          | Some (Ast.T_subquery (sq, _)) ->
            (match sq.Ast.where with None -> [] | Some w -> Ast.conjuncts w)
          | _ -> []
        in
        let all_locals =
          List.map
            (fun (a, _) ->
              let own = List.filter (fun p -> pred_owner p = Some a) conjs in
              (a, own @ override_locals a))
            tables
        in
        (* IN-subquery conjuncts (the a-priori reducer outputs) are not
           transfer sources: materializing the reducer inside the transfer
           pass re-executes a join NLJP will materialize again anyway, and on
           the complex four-way workload that costs ~20x more than the Bloom
           passes themselves save (DESIGN.md §11).  Plain pushed-down σ
           conjuncts carry the reduction through the join edges instead. *)
        let locals =
          List.map
            (fun (a, ps) ->
              (a, List.filter (function Ast.P_in _ -> false | _ -> true) ps))
            all_locals
        in
        if (not !transfer_force) && total_rows < transfer_min_rows then
          reject (Printf.sprintf "inputs below %d rows" transfer_min_rows)
        else if List.for_all (fun (_, ps) -> ps = []) locals then
          if List.exists (fun (_, ps) -> ps <> []) all_locals then
            reject "only a-priori IN sources; re-running reducers costs more than the passes save"
          else reject "no selective source predicates"
        else begin
          (* Coarse keep-fraction estimate per alias: local σ selectivity
             from the cost model (IN conjuncts excluded — estimating them
             would execute the reducer at bind time), then two relaxation
             sweeps along the edges under the uniform-containment
             assumption that a semi-join keeps about the source's fraction.
             Only a calibration target for EXPLAIN ANALYZE's est-vs-actual
             notes, never a correctness input. *)
          let local_sel (a, tname) =
            let no_in =
              List.filter
                (function Ast.P_in _ -> false | _ -> true)
                (List.assoc a locals)
            in
            let base = float_of_int (max 1 (base_rows (a, tname))) in
            if no_in = [] then 1.
            else
              try
                let sq =
                  Ast.simple_select ~where:(Ast.conj no_in) [ Ast.Sel_star ]
                    [ Ast.T_table (tname, Some a) ]
                in
                let est = Cost.estimate ?on_stats_build catalog (Binder.bind catalog sq) in
                Float.max 0.01 (Float.min 1. (est.Cost.rows /. base))
              with _ -> 1.
          in
          let est = ref (List.map (fun t -> (fst t, local_sel t)) tables) in
          let get a = Option.value ~default:1. (List.assoc_opt a !est) in
          let set a v = est := (a, v) :: List.remove_assoc a !est in
          let sweep es =
            List.iter
              (fun e ->
                let (a, _) = e.Transfer.e_left and (b, _) = e.Transfer.e_right in
                set b (Float.min (get b) (get a));
                set a (Float.min (get a) (get b)))
              es
          in
          sweep edges;
          sweep (List.rev edges);
          let sources =
            List.filter_map (fun (a, ps) -> if ps = [] then None else Some a) locals
          in
          note
            (Printf.sprintf "transfer: on (%d edges, sources {%s})"
               (List.length edges)
               (String.concat ", " sources));
          Some
            {
              Transfer.t_aliases = tables;
              t_locals = locals;
              t_edges = edges;
              t_est_kept = !est;
            }
        end
      end
    end
  end

(* ---- NLJP or the rewrite-only plan ---- *)

(* The rewrite-only plan is the a-priori rewrites followed by Exec's hash
   join and hash aggregate.  NLJP beats it through pruning, or with an
   inner access path no hash join replaces (range count, row scan); both
   keep NLJP without an estimate.  A hash-probe inner with pruning off
   saves only through the memo, and a memo hit still merges one partition
   per inner row unless Q_R(b) folds many rows into few partitions, so
   NLJP stays only when the estimated partitions per binding are at most
   1/[memo_min_fold] of the inner rows per binding.  Both come from the
   catalog's Stats: inner rows per binding = |Q_R| / distinct(J_R), whose
   distinct product over-counts value combinations, so the ratio errs low;
   partitions per binding = min(that, ∏ distinct(G_R)).  Returns the
   verdict and the estimates that decided it.

   The factor 2 is a measured crossover (EXPERIMENTS.md, "Where the memo
   pays"): on Listing 1 with N rows per basket folding into G items,
   NLJP beat the rewrite-only plan in 18 of 20 shapes from N/G = 2 on,
   and lost or tied in 6 of 7 with N <= 6 and N/G <= 1.5. *)
let memo_min_fold = 2.

let nljp_verdict ?on_stats_build catalog (spec : Qspec.t) op =
  let no_estimate = (true, "pruning off; no Stats estimate for the inner side") in
  if Nljp.subsumption op <> None then (true, "pruning on")
  else
    match fst (Nljp.choose_access op) with
    | (Nljp.A_range_count _ | Nljp.A_scan) as access ->
      (true, "pruning off; no hash join replaces the " ^ Nljp.access_to_string access)
    | Nljp.A_hash _ when not (Nljp.memo_active op) -> (false, "pruning and memo off")
    | Nljp.A_hash probes ->
      let right = spec.Qspec.right in
      let distinct (c : Relalg.Schema.col) =
        List.find_map
          (fun (tname, alias) ->
            if c.Relalg.Schema.qualifier <> Some alias then None
            else
              let tbl = Relalg.Catalog.find catalog tname in
              Option.map
                (fun cs -> float_of_int cs.Relalg.Stats.distinct)
                (Relalg.Stats.col (Relalg.Catalog.stats ?on_build:on_stats_build tbl)
                   c.Relalg.Schema.name))
          right.Qspec.tables
      in
      let product cols =
        List.fold_left
          (fun acc c -> Option.bind acc (fun a -> Option.map (( *. ) a) (distinct c)))
          (Some 1.) cols
      in
      (match
         ( product (List.map fst probes),
           product right.Qspec.group_cols,
           (Cost.estimate ?on_stats_build catalog (Binder.bind catalog (Qspec.side_query right)))
             .Cost.rows )
       with
       | Some keys, Some groups, rows ->
         let per_binding = if rows <= 0. then 0. else rows /. Float.min rows (Float.max 1. keys) in
         let partitions = Float.min per_binding groups in
         ( partitions *. memo_min_fold <= per_binding,
           Printf.sprintf
             "pruning off; est %.1f memo partitions per binding for %.1f inner rows per binding"
             partitions per_binding )
       | None, _, _ | _, None, _ -> no_estimate
       | exception _ -> no_estimate)

(* Decision-mix metrics (DESIGN.md §9): how often each optimization fires. *)
let m_decisions = Obs.Metrics.counter "optimizer.decisions"
let m_apriori = Obs.Metrics.counter "optimizer.apriori_rewrites"
let m_adaptive_dropped = Obs.Metrics.counter "optimizer.adaptive_dropped"
let m_nljp_plans = Obs.Metrics.counter "optimizer.nljp_plans"
let m_nljp_skipped = Obs.Metrics.counter "optimizer.nljp_skipped"
let m_transfer_plans = Obs.Metrics.counter "optimizer.transfer_plans"

let decide ?(adaptive = false) ?(transfer = true) ?on_stats_build catalog q ~tech ~nljp_config =
  Obs.Metrics.incr m_decisions;
  let notes = ref [] in
  let note fmt = Format.kasprintf (fun s -> notes := s :: !notes) fmt in
  (* Phase 1: generalized a-priori over disjoint subsets (Listing 9). *)
  let rewrites = ref [] in
  if tech.apriori then begin
    let remaining = ref (Qspec.aliases_of q) in
    let continue = ref true in
    while !continue && !remaining <> [] do
      match pick_gapriori catalog q !remaining with
      | None -> continue := false
      | Some rw ->
        rewrites := rw :: !rewrites;
        note "a-priori: reduced %s via reducer over {%s}"
          (String.concat ", " rw.reduced)
          (String.concat ", " rw.considered);
        remaining := List.filter (fun a -> not (List.mem a rw.considered)) !remaining
    done;
    (* Considered-but-rejected is part of the record: calibrate replays
       should see why a technique did not fire, not just that it didn't. *)
    if !rewrites = [] then note "a-priori: considered, no safe reducer found"
  end;
  let rewrites = List.rev !rewrites in
  let rewrites =
    if not adaptive then rewrites
    else
      List.filter
        (fun rw ->
          let keep = adaptive_keep catalog rw in
          if not keep then begin
            Obs.Metrics.incr m_adaptive_dropped;
            note "a-priori: dropped unselective reducer on {%s} (adaptive gate)"
              (String.concat ", " rw.reduced)
          end;
          keep)
        rewrites
  in
  Obs.Metrics.add m_apriori (List.length rewrites);
  let overrides = List.concat_map (fun rw -> rw.replacements) rewrites in
  (* Phase 2: memoization and pruning via NLJP. *)
  let nljp =
    if tech.memo || tech.pruning then begin
      let apriori_groups = List.map (fun rw -> rw.reduced) rewrites in
      match pick_memprune catalog q ~tech ~nljp_config ~apriori_groups ~overrides with
      | Some (op, outer, spec), _ ->
        let run, why = nljp_verdict ?on_stats_build catalog spec op in
        if run then begin
          Obs.Metrics.incr m_nljp_plans;
          note "NLJP: outer side {%s} (%s)" (String.concat ", " outer) why;
          Some (op, outer)
        end
        else begin
          Obs.Metrics.incr m_nljp_skipped;
          note "NLJP: skipped (outer side {%s}; %s)" (String.concat ", " outer) why;
          None
        end
      | None, last_error ->
        (match last_error with
         | Some (aliases, e) ->
           note "NLJP: no applicable outer/inner split (last tried {%s}: %s)"
             (String.concat ", " aliases) e
         | None -> note "NLJP: no applicable outer/inner split");
        None
    end
    else None
  in
  (* Phase 3: predicate transfer (semi-join reduction along join edges). *)
  let transfer_spec =
    if not transfer then begin
      note "transfer: disabled by configuration";
      None
    end
    else begin
      let spec =
        pick_transfer ?on_stats_build catalog q ~nljp ~overrides
          ~note:(fun s -> notes := s :: !notes)
      in
      if spec <> None then Obs.Metrics.incr m_transfer_plans;
      spec
    end
  in
  {
    query = q;
    apriori_rewrites = rewrites;
    nljp;
    transfer = transfer_spec;
    notes = List.rev !notes;
  }

let reducer_subqueries rw =
  List.filter_map
    (function
      | _, Ast.T_subquery ({ Ast.where = Some (Ast.P_in (_, red)); _ }, _) -> Some red
      | _ -> None)
    rw.replacements

let rewritten_query d =
  let repl = List.concat_map (fun rw -> rw.replacements) d.apriori_rewrites in
  {
    d.query with
    Ast.from =
      List.map
        (fun item ->
          match item with
          | Ast.T_table (name, al) ->
            let alias = Option.value al ~default:name in
            (match List.assoc_opt alias repl with
             | Some sub -> sub
             | None -> item)
          | Ast.T_subquery _ -> item)
        d.query.Ast.from;
  }
