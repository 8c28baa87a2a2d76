(** Top-level execution entry points.

    Every block is planned in one place, {!prepare}, and executed in one
    place, {!run_prepared}; [run] is the two in a row.  The plan value
    holds the Appendix D decision (a-priori reducers, NLJP split, transfer
    plan) together with the prepared plan of every reducer, so execution,
    EXPLAIN ({!Explain}) and ANALYZE read the same decision.  The plan
    value carries no execution state and is valid at the one catalog
    version it was prepared at.  CTE blocks
    are planned recursively and materialized as temporary tables (with
    derived keys and domain facts, so the outer block's safety checks can
    reason about them) at execution time, before the main block is
    planned.  [run_baseline] is the stand-in for stock PostgreSQL
    ([workers = 1]) and Vendor A ([workers = 4]). *)

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

(** [run] is [run_prepared (prepare …)]; see both for the arguments. *)
val run :
  ?span:Obs.Span.t ->
  ?analyze:bool ->
  ?tech:Optimizer.technique ->
  ?nljp_config:Nljp.config ->
  ?workers:int ->
  ?memo_strategy:[ `Nljp | `Static_rewrite ] ->
  ?adaptive_apriori:bool ->
  ?transfer:bool ->
  Relalg.Catalog.t ->
  Sqlfront.Ast.query ->
  Relalg.Relation.t * report

val run_baseline :
  ?workers:int -> Relalg.Catalog.t -> Sqlfront.Ast.query -> Relalg.Relation.t

(** {2 Block plans}

    A prepared query pins the optimizer's decision (the expensive Listing 9
    procedure) so repeated executions skip planning.  It holds the
    decision and nothing else: its catalog, settings, catalog version,
    plan and reducer plans, all fixed at {!prepare}.  Each execution
    builds its own NLJP caches and predicate-transfer filters, so one
    prepared plan may run on several domains at once.  A plan is valid
    only at the catalog version it was prepared at: after any catalog
    mutation, appends included, {!run_prepared} refuses it and the owner
    prepares the query again. *)

type prepared

(** How a block runs. *)
type plan =
  | Baseline of { query : Sqlfront.Ast.query; notes : string list }
      (** the baseline executor on [query]: a query outside the iceberg
          shape, an unsupported shape, the Listing 8 static rewrite, or
          its "not applicable" fallback; [notes] say which *)
  | Optimized of Optimizer.decision
      (** the Appendix D decision: NLJP when it has an operator, else the
          rewritten query on the baseline executor *)
  | With of Sqlfront.Ast.query
      (** CTE blocks materialize per execution; the main block is planned
          over their temp tables then *)

(** Plan a query.  [span] gets the [optimize] child (a-priori rewrite
    count and the optimizer's notes).  [tech] selects the techniques;
    [workers] overrides [nljp_config.workers] for every block (main, CTE
    and reducer): NLJP chunks its outer relation across that many Domains
    and baseline joins run on as many.  Results are bag-equal to
    sequential execution.

    [memo_strategy] selects how memoization is realized when it is the
    only requested technique: through the NLJP operator's cache (default)
    or through Appendix C's static SQL rewrite (Listing 8).
    [adaptive_apriori] drops a reducer that keeps ≥ 90% of its candidate
    groups, measured by executing it while planning.

    [transfer] enables predicate transfer ({!Transfer}): when the optimizer
    accepts the plan, a Bloom semi-join reduction of every base relation
    runs before NLJP and its filters are pushed into the side-query scans.
    Defaults from the [SI_TRANSFER] environment variable (on unless
    [0]/[false]/[off]/[no]); results are bag-equal either way. *)
val prepare :
  ?span:Obs.Span.t ->
  ?tech:Optimizer.technique ->
  ?nljp_config:Nljp.config ->
  ?workers:int ->
  ?memo_strategy:[ `Nljp | `Static_rewrite ] ->
  ?adaptive_apriori:bool ->
  ?transfer:bool ->
  Relalg.Catalog.t ->
  Sqlfront.Ast.query ->
  prepared

(** Execute a prepared plan.  [span] attaches the query lifecycle (per-CTE
    [cte:<name>], [transfer], [execute] children with row counts and
    operator counters); omitted, tracing costs nothing.  The report's
    [nljp_stats] counts this execution only.

    [analyze] (requires [span]) turns the trace into EXPLAIN ANALYZE
    accounting: baseline-executed blocks attach their full physical plan as
    child spans pairing the cost model's estimated rows/cost with recorded
    actual rows per node, and NLJP blocks record Q_B / Q_R side spans with
    side-query estimates plus the probe-loop counter slice.  Estimation
    work is timed in its own child spans.  Results stay bag-equal to a
    plain run.

    Raises [Invalid_argument], naming both versions, when the catalog has
    moved past the version the plan was prepared at. *)
val run_prepared :
  ?span:Obs.Span.t -> ?analyze:bool -> prepared -> Relalg.Relation.t * report

val plan : prepared -> plan

(** Catalog version the plan was prepared against. *)
val prepared_version : prepared -> int

(** {2 Plan lines}

    One line naming how a block runs: its a-priori reducer count, then
    [NLJP outer {…}, inner access path: …] or the baseline join.
    {!report_to_string} prints it as [plan: …] for every block, and a run
    whose block binds a-priori reducers adds one note per distinct reducer,
    [reducer over {aliases}: <plan line>].  EXPLAIN prints both from the
    prepared plan.

    Mirror-image reducers share: {!prepare} keys each reducer by its
    canonical form (aliases renamed positionally in FROM order, WHERE and
    HAVING conjuncts sorted, printed losslessly), and the block's reducers
    with one key share one prepared plan.  Each execution of a block keeps
    a memo from key to result, so a reducer whose key that block execution
    already computed is read, not run (counted in [reducers.shared]); the
    memo is not shared with CTE or reducer blocks, as a nested WITH can
    drop a temp table whose name a later CTE takes again.  The second
    reducer of a block with a key prints
    [reducer over {S2, T2}: shared with reducer over {S1, T1}]. *)

(** The plan line of a prepared plan, with the access path
    {!Nljp.choose_access} picks. *)
val plan_line : prepared -> string

(** The plan line of each IN-subquery (a-priori reducer) the block's
    decision binds, keyed by the subquery: [reducer over {aliases}: …]
    with the reducer's plan line, or [shared with reducer over {…}]. *)
val reducer_lines : prepared -> (Sqlfront.Ast.query * string) list

(** [with_ctes catalog q ~cte k]: materialize the WITH blocks of [q] in
    order — [cte name def] returns the rows of block [def], which already
    reads the earlier blocks — registering each as a temp table (derived
    keys and domain facts; the catalog version does not move), run [k] on
    the main block, then drop the temp tables. *)
val with_ctes :
  Relalg.Catalog.t ->
  Sqlfront.Ast.query ->
  cte:(string -> Sqlfront.Ast.query -> Relalg.Relation.t) ->
  (Sqlfront.Ast.query -> 'a) ->
  'a

(** Total cache footprint of a report (pruning + memo caches of the main
    block and every CTE block), for the Figure 3 accounting. *)
val cache_rows : report -> int

val cache_bytes : report -> int

(** Multiset equality of results (column names ignored). *)
val same_result : Relalg.Relation.t -> Relalg.Relation.t -> bool

val report_to_string : report -> string
