(** Vectorized per-binding inner evaluation for NLJP over columnar data.

    The inner side of an NLJP query — Q_R(b) = γ_{G_R,A}(σ_{Θ(b)}(R)) for
    one outer binding [b] — is the engine's hottest loop: it runs once per
    distinct binding.  When R is column-primary and Θ's conjuncts have the
    shape [r_col op f(binding)], this module compiles the whole inner query
    once into a [t] and evaluates it per binding without materializing a
    single [Row.t]:

    + each probe's comparison constant [f(b)] is tested against every
      block's zone map, skipping refuted blocks (per-binding data
      skipping — the columnar analogue of the paper's BT index range
      restriction);
    + surviving blocks evaluate Θ through typed comparison kernels into a
      selection vector;
    + COUNT/SUM/MIN/MAX/AVG accumulate directly over the unboxed int/float
      vectors under the selection vector, grouping by dictionary codes when
      G_R is a dict-coded column (decoded only at finalize).

    Accumulation replays [Agg]'s left-fold over [Value.add]/[compare_sql]
    in row order, so results — including float rounding — are bit-identical
    to the row-at-a-time path.  A built [t] is immutable and all evaluation
    scratch is per-call, so one instance is safely shared across worker
    domains. *)

(** Typed row-level comparison test for one (column, op, constant) over a
    block: reads the typed vector directly (int/float fast paths,
    dictionary code comparison for string equality) with SQL NULL
    semantics.  Also the kernel behind [Colscan]'s σ pushdown. *)
val row_test :
  Column.Cstore.t ->
  Column.Cstore.block ->
  int ->
  Expr.cmp ->
  Value.t ->
  int ->
  bool

type t

(** Raised by [eval] when a block's physical layout contradicts what
    {!check} verified (e.g. a non-numeric block under a SUM kernel).
    Unreachable for immutable cstores, but callers (NLJP) catch it and
    degrade to the row path rather than abort. *)
exception Fallback of string

(** Result of one per-binding evaluation: the non-empty groups of Q_R(b)
    as (G_R key row, aggregate states) in first-appearance row order —
    matching the row path's partition order — plus data-skipping counters. *)
type outcome = {
  groups : (Row.t * Agg.state list) list;
  blocks_skipped : int;
  blocks_scanned : int;
}

(** What {!check} proved about an inner query: its probes, gates and
    aggregation kernels.  Only a verdict can be built into a [t]. *)
type verdict

(** [check ~binding ~inner ~store ~theta ~aggs] decides whether the inner
    query can run vectorized, or says why not: Θ has conjuncts outside the
    probe/gate shape ([Compile.param_probes] is not exact), an aggregate
    ranges over a computed expression or a column that is not numeric in
    every block of [store] (by [Cstore.col_kind]), or COUNT(DISTINCT)
    appears.  [theta] and the aggregates resolve columns against [inner],
    whose column [i] is column [i] of [store]; [theta] resolves like
    [Compile.join_pred binding inner]. *)
val check :
  binding:Schema.t ->
  inner:Schema.t ->
  store:Column.Cstore.t ->
  theta:Expr.t ->
  aggs:Agg.func list ->
  (verdict, string) result

(** [build v ~inner ~gr_idx] compiles a checked inner query over [inner],
    the store [check] inspected (or one with the same column kinds).
    [gr_idx] are G_R's column indices. *)
val build : verdict -> inner:Column.Cstore.t -> gr_idx:int list -> t

val eval : t -> Row.t -> outcome
