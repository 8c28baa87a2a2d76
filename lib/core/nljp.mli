(** NLJP — Nested-Loop Join with Pruning (§5–§7).

    The operator is specified by four component queries:
    - the {e binding query} Q_B producing outer tuples (their J_L projection
      is the binding),
    - the parameterized {e inner query} Q_R(b) aggregating the joining inner
      tuples per G_R partition,
    - the {e pruning query} Q_C(b') probing the cache of unpromising
      bindings through the derived subsumption predicate p⪰ (§5.2), and
    - the {e post-processing query} Q_P assembling final result tuples
      (per-tuple when G_L → A_L; by combining algebraic partial states
      otherwise, Appendix C).

    [build] verifies the paper's applicability conditions and degrades
    gracefully: if pruning's Theorem 3 conditions fail, pruning is disabled
    (with a recorded reason) while memoization may stay on, and vice versa.

    An operator is fixed at [build].  Its prune and memo caches belong to
    one [execute], as in the paper (§5, §6): nothing an execution learns
    outlives it, so an operator is only valid for the data it was built
    over, and the caller rebuilds it after the catalog changes. *)

type config = {
  cache_index : bool;
      (** CI: index the cache of unpromising bindings — hash-partitioned on
          the dimensions where p⪰ implies equality, else binary-searched on
          the first binding column when p⪰ implies an order on it *)
  inner_index : bool;
      (** BT: answer a k-D dominance COUNT from a range-count structure
          ({!A_range_count}); any other shape without an equality conjunct
          scans the inner side (equality conjuncts always probe a hash
          index, mirroring PostgreSQL's prepared Q_R plans) *)
  outer_order : [ `Default | `Auto | `Asc of int | `Desc of int ];
      (** §7 leaves Q_B's exploration order unspecified and flags choosing
          it as future work; [`Asc i]/[`Desc i] sort the outer input by the
          i-th binding column.  [`Auto] derives a direction from p⪰: it
          orders so that the most-subsuming bindings are explored (and
          cached) first, which maximizes later pruning *)
  max_cache_rows : int option;
      (** §7's future-work cache bound: both caches stop admitting entries
          beyond this size (a keep-first replacement policy — safe because
          dropping cache entries only costs pruning/memo opportunities) *)
  workers : int;
      (** With [workers > 1], the outer relation is processed in waves of
          [workers] chunks, one Domain per chunk.  Each domain probes a
          frozen shared prune/memo cache plus its own local cache; local
          caches are merged into the shared cache at wave boundaries (the
          same §7 argument that makes [max_cache_rows] safe makes the merge
          lock-free: dropping or duplicating entries never changes results,
          only pruning opportunity).  Results are [Relation.equal_bag]-equal
          to sequential execution; stats counters are summed across chunks.
          Sequential execution — [workers = 1], or an outer side smaller
          than [workers × 32] rows — is one wave of one chunk. *)
}

val default_config : config

(** Where the range-count structure comes from.  Every build is counted in
    [nljp.range_count_builds], every reuse in [nljp.range_count_reuses]. *)
type index_source =
  | Catalog
      (** the base table's, kept in its derived state
          ({!Relalg.Catalog.range_count}): built by the first execution that
          needs it, read by the next ones until the table changes *)
  | Per_execution
      (** sorted from the materialized Q_R — a CTE or a side with a local
          predicate or an a-priori override — by each execution *)

(** The inner side's access path for Q_R(b), as {!choose_access} decided it.
    [execute] builds its structure from this value, EXPLAIN prints it and
    [stats.access] records it, so the three cannot disagree. *)
type access =
  | A_hash of (Relalg.Schema.col * Relalg.Expr.t) list
      (** hash-index probe: one (inner column, binding key expression) per
          equality Θ conjunct *)
  | A_range_count of {
      cols : Relalg.Schema.col list;
      box : (Relalg.Schema.col * Relalg.Expr.cmp * Relalg.Expr.t) list;
      disjunction : (Relalg.Schema.col * Relalg.Expr.cmp * Relalg.Expr.t) list;
      source : index_source;
    }
      (** k-D range count ({!Relalg.Index.Range_count}) over the inner
          points on [cols] (k ≥ 2, x first), for a Q_R(b) that is a COUNT
          with G_R = ∅: [box] is Θ's conjunction of range bounds
          [col op bound], which bounds every column of [cols];
          [disjunction], when not empty, is Θ's one disjunction of such
          bounds (the skyband's [x > f(b) OR y > g(b)], the pairs' 4-way
          OR), counted as count(box) − count(box ∧ every negated disjunct),
          one complement box whatever its arity.  [source] says whether the
          structure is the catalog's or built per execution. *)
  | A_scan  (** every inner row, tested against Θ per binding *)

(** [access_to_string a] is the text after [inner access path: ] in EXPLAIN,
    reports and the [execute] span. *)
val access_to_string : access -> string

(** One execution's counters, as [execute] returns them. *)
type stats = {
  mutable outer_rows : int;
  mutable inner_evals : int;
  mutable pruned : int;
  mutable memo_hits : int;
  mutable prune_cache_rows : int;
  mutable memo_cache_rows : int;
  mutable cache_bytes : int;
  mutable pruning_on : bool;
  mutable memo_on : bool;
  mutable access : access;  (** the inner access path the run used *)
  mutable waves : int;  (** outer-side slices processed (1 when sequential) *)
  mutable notes : string list;
}

type t

(** Check applicability and assemble the operator; [Error reason] when the
    query shape cannot run as NLJP at all (Φ or Λ not applicable to the
    inner side).  [overrides] plugs substituted FROM items (e.g. a-priori
    reducers, Listing 11) into the side queries by alias; they must preserve
    each table's schema and only remove rows.  The operator also carries
    what p⪰ decides once: the prune cache's layout (partitioned on the
    dimensions where p⪰ implies equality, else sorted on the first binding
    column when p⪰ orders it, else flat) and the order [`Auto] stands for;
    every [execute] of it reads them.  [pruning] and [memo] say whether the
    caller asks for each technique at all; one it does not ask for is off
    with the reason [disabled by configuration]. *)
val build :
  ?overrides:(string * Sqlfront.Ast.table_ref) list ->
  pruning:bool ->
  memo:bool ->
  Relalg.Catalog.t ->
  Qspec.t ->
  config ->
  (t, string) result

(** Execute; the result schema matches the original query's SELECT list. *)
val execute :
  ?span:Obs.Span.t ->
  ?estimate:bool ->
  ?transfer:(string * (string * Column.Bloom.t) list) list ->
  ?subquery:(Obs.Span.t option -> Sqlfront.Ast.query -> Relalg.Relation.t) ->
  t ->
  Relalg.Relation.t * stats
(** Execute the operator.  With [span], child spans record the Q_B / Q_R
    materializations and the probe loop (with its counter slice); with
    [estimate] additionally, each side span carries the cost model's
    cardinality estimate and the loop span an [est_distinct_bindings]
    counter, for EXPLAIN ANALYZE's estimate-vs-actual accounting; the
    distinct-count pass behind it is timed as a [binding estimate] child.  The
    [span] itself gets the [inner access path: …] note EXPLAIN prints.

    [transfer] supplies predicate-transfer Bloom filters per FROM alias
    (see {!Transfer}): each side's filters are passed to that side's plan
    execution as per-plan state — never during binding, so a-priori
    reducer subqueries always see unfiltered inputs.  Filters must be
    sound semi-join reductions: dropping a row may only remove
    tuples that join nothing in the final result.

    [subquery] evaluates the side queries' IN-subqueries — the a-priori
    reducers — given the side's span (see {!Sqlfront.Binder.bind}); by
    default the baseline executor runs them.

    Every execution probes a shared prune/memo tier, frozen during each
    wave, and merges the chunks' caches into it at the wave's end.  The
    tier lives for the call: as in the paper (§5, §6), the caches belong
    to one execution, so every execution starts cold and [stats] counts
    this execution only.  An operator holds no state that changes at run
    time, so several domains may execute one operator at once. *)

(** Human-readable description of the component queries (cf. Listings 7
    and 10), including the derived p⪰. *)
val describe : t -> string

(** The derived subsumption predicate, if pruning is active. *)
val subsumption : t -> Subsume.t option

(** Whether memoization is on: configured, and the §6 / Appendix C
    conditions hold (bindings can repeat, aggregates combine). *)
val memo_active : t -> bool

(** The Q_B / Q_R component queries over their base tables, without the
    a-priori overrides — so they can be costed without running a reducer. *)
val side_queries : t -> Sqlfront.Ast.query * Sqlfront.Ast.query

(** Decide the inner access path, in priority order: hash probe on
    equality Θ conjuncts ≻ range count ≻ row scan.  The range count needs BT
    ([inner_index]), G_R = ∅, every aggregate a [COUNT( * )] or [COUNT(1)],
    and Θ a conjunction of [r_col op f(b)] range bounds on k ≥ 2 inner
    columns plus at most one disjunction (nested [OR]s flatten) of such
    bounds, each on a column the conjunction bounds; every other shape
    without an equality conjunct scans.  The range count is the catalog's
    ({!Catalog}) when Q_R is a bare base table — one table that is not a
    CTE, no local predicate, no a-priori override — and its x is the first
    bounded column that leads one of the table's indexes, if any; otherwise
    each execution sorts Q_R ({!Per_execution}).  Reads only the spec, the
    inner base table with its catalog indexes and the config — no side
    query is materialized — so EXPLAIN can call it; [execute] calls it on
    every run and runs what it returns, timing each structure it builds,
    and only those, in an [inner index build] span.  The notes say
    why the range count was rejected when Θ has range bounds but no
    equality conjunct (the [range count off: …] lines of [stats.notes]). *)
val choose_access : t -> access * string list
