(** Top-level execution entry points.

    [run] is Smart-Iceberg: CTE blocks are optimized recursively and
    materialized as temporary tables (with derived keys and domain facts, so
    the outer block's safety checks can reason about them), then the main
    block goes through the Appendix D procedure and executes via rewrites
    and/or the NLJP operator.  [run_baseline] is the stand-in for stock
    PostgreSQL ([workers = 1]) and Vendor A ([workers = 4]). *)

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

(** [memo_strategy] selects how memoization is realized when it is the only
    requested technique: through the NLJP operator's cache (default) or
    through Appendix C's static SQL rewrite (Listing 8).  [workers] overrides
    [nljp_config.workers] for the smart path (main block and CTE blocks
    alike): NLJP chunks its outer relation across that many Domains.  Results
    are bag-equal to sequential execution.  [span] attaches the query
    lifecycle (per-CTE [cte:<name>], [optimize], [execute] children with row
    counts and operator counters) under the given parent span; omitted,
    tracing costs nothing.

    [analyze] (requires [span]) turns the trace into EXPLAIN ANALYZE
    accounting: baseline-executed blocks attach their full physical plan as
    child spans pairing the cost model's estimated rows/cost with recorded
    actual rows per node, and NLJP blocks record Q_B / Q_R side spans with
    side-query estimates plus the probe-loop counter slice.  Results stay
    bag-equal to a plain [run].

    [transfer] enables predicate transfer ({!Transfer}): when the optimizer
    accepts the plan, a Bloom semi-join reduction of every base relation
    runs before NLJP and its filters are pushed into the side-query scans.
    Defaults from the [SI_TRANSFER] environment variable (on unless
    [0]/[false]/[off]/[no]); results are bag-equal either way. *)
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

(** {2 Prepared statements}

    A prepared query pins the optimizer's decision (the expensive Listing 9
    procedure) so repeated executions skip planning.  NLJP plans
    additionally carry a {!Nljp.shared_cache} — prune/memo entries learned
    by one execution warm the next — and memoize their predicate-transfer
    Bloom build.  Both are valid only for the catalog version the plan was
    prepared against: after any catalog mutation, compare
    {!prepared_version} with {!Relalg.Catalog.version} and re-prepare.
    Executions of one prepared plan are serialized internally (the NLJP
    operator's stats and shared tier are mutated in place); distinct
    prepared plans may execute concurrently. *)

type prepared

val prepare :
  ?tech:Optimizer.technique ->
  ?nljp_config:Nljp.config ->
  ?workers:int ->
  ?transfer:bool ->
  Relalg.Catalog.t ->
  Sqlfront.Ast.query ->
  prepared

(** Execute a prepared plan.  [span] attaches [transfer]/[execute] children
    as {!run} does.  The report's [nljp_stats] is this execution's delta
    (not the operator's cumulative totals). *)
val run_prepared : ?span:Obs.Span.t -> prepared -> Relalg.Relation.t * report

(** Catalog version the plan was prepared against. *)
val prepared_version : prepared -> int

(** Carry a prepared plan across an append of [delta] rows to base table
    [table] instead of re-preparing.  [`Kept]: the plan and its caches are
    untouched (direct/rewrite plans re-execute against the live catalog
    anyway; an NLJP plan whose inner side doesn't read [table] keeps its
    tier).  [`Refreshed]: the NLJP shared tier was revalidated entry by
    entry (see {!Nljp.delta_refresh}).  In both cases the plan's version is
    advanced to the current catalog version.  [`Reprepare]: the delta
    invalidates the operator itself — caches are cleared, the version stays
    stale, and the owner must rebuild the plan.  Predicate-transfer Bloom
    state is always discarded.  Call under the same exclusive lock the
    append ran under. *)
val refresh_prepared :
  prepared ->
  table:string ->
  delta:Relalg.Relation.t ->
  [ `Kept | `Refreshed | `Reprepare of string ]

(** How the plan executes: [`Nljp] (cached operator + shared cache tier),
    [`Rewrite] (cached decision, rewritten-query execution), or [`Direct]
    (CTE / non-iceberg / unsupported shape — full [run] per call). *)
val prepared_kind : prepared -> [ `Direct | `Nljp | `Rewrite ]

(** (prune, memo) entry counts of the plan's shared cache tier, when it has
    one. *)
val prepared_shared_rows : prepared -> (int * int) option

(** Total cache footprint of a report (pruning + memo caches of the main
    block and every CTE block), for the Figure 3 accounting. *)
val cache_rows : report -> int

val cache_bytes : report -> int

(** Multiset equality of results (column names ignored). *)
val same_result : Relalg.Relation.t -> Relalg.Relation.t -> bool

val report_to_string : report -> string

(** {2 Plan lines}

    One line naming how a block runs: its a-priori reducer count, then
    [NLJP outer {…}, inner access path: …] or the baseline join.  A run
    whose block binds a-priori reducers adds one note per distinct reducer,
    [reducer over {aliases}: <plan line>], which EXPLAIN predicts with
    {!decision_plan_line}. *)

(** The plan line of an optimizer decision, with the access path
    {!Nljp.choose_access} picks; [None] is the baseline plan. *)
val decision_plan_line : Optimizer.decision option -> string

(** [reducer over {aliases}], the prefix of a reducer's plan line. *)
val reducer_label : Sqlfront.Ast.query -> string

(**/**)

(* Internal helpers shared with [Explain], so its CTE handling registers
   temp tables exactly as [run] does (same renaming, keys, domain facts). *)
val rename_table_refs :
  Sqlfront.Ast.query -> (string * string) list -> Sqlfront.Ast.query

val fresh_temp_name : Relalg.Catalog.t -> string -> string
val derived_key : Sqlfront.Ast.query -> string list option
val derived_nonneg : Relalg.Catalog.t -> Sqlfront.Ast.query -> string list

(**/**)
