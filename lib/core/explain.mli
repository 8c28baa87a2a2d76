(** EXPLAIN: the plan {!Runner.prepare} returns for a query, without
    executing it.

    Every line is read from that prepared value: the optimizer's notes,
    the [plan: …] line {!Runner.report_to_string} prints for a run, the
    chosen generalized-a-priori reducers with the plan line of each (a
    mirror reducer's [shared with …]), the NLJP verdict with the
    estimates that decided it, the NLJP outer/inner split with its
    component queries and memo/prune configuration (including the reasons
    when either is off), the
    inner-side access path in priority order (hash probe ≻ range count ≻
    row scan), the predicate-transfer
    plan, and the cost model's per-node estimates for the baseline
    physical plan.  [tech], [nljp_config], [workers], [memo_strategy] and
    [transfer] are {!Runner.prepare}'s.

    Nothing of the main query runs: planning is pure analysis, and the
    side estimates cost Q_B / Q_R over their base tables scaled by each
    reducer's estimated kept ratio instead of binding the reducers.  The
    one exception is WITH — CTE blocks are materialized through
    {!Runner.with_ctes}, as a run registers them, so the main block can be
    planned against their schemas; the output flags this. *)

val query :
  ?tech:Optimizer.technique ->
  ?nljp_config:Nljp.config ->
  ?workers:int ->
  ?memo_strategy:[ `Nljp | `Static_rewrite ] ->
  ?transfer:bool ->
  Relalg.Catalog.t ->
  Sqlfront.Ast.query ->
  string
