(** Plan interpreter.

    [workers = 1] gives the sequential baseline ("PostgreSQL" stand-in);
    [workers = 4] parallelizes joins and aggregation across domains ("Vendor
    A" stand-in, cf. Appendix E's Parallelism/Gather plan nodes). *)

type recorder = {
  rec_rows : int list -> string -> int -> unit;
  rec_note : int list -> string -> unit;
}
(** EXPLAIN ANALYZE hooks.  [rec_rows] is called once per plan node with
    the node's path (child indices from the root, matching [Cost.tree]'s
    child order), its display label, and the actual number of rows it
    produced.  Joins that stream straight into an aggregate report their
    emit count instead of a materialized cardinality.  [rec_note] attaches
    a line to the node at a path: each Hash Join, HashAggregate and IN
    filter notes its key path ({!Keys.describe}).  Callbacks run on the
    spawning domain only. *)

val node_label : Plan.t -> string
(** The display label the recorder reports for a node (matches [Cost]). *)

val run :
  ?workers:int ->
  ?recorder:recorder ->
  ?path:int list ->
  ?filters:(string * (string * Column.Bloom.t) list) list ->
  Catalog.t ->
  Plan.t ->
  Relation.t
(** [filters] supplies transferred Bloom scan filters per FROM alias
    (predicate transfer, DESIGN.md §11): every scan running under a listed
    alias composes its filters with σ into one block-skipping scan.  Filters
    are {e plan} state — passed per call, never stored in the catalog — so
    concurrent plans over a shared catalog cannot observe each other's
    filters.  Membership keeps a superset of the rows that can join; the
    caller must only supply sound semi-join reductions. *)

val group_states :
  Catalog.t ->
  group_cols:(Expr.t * Schema.col) list ->
  aggs:(Agg.func * Schema.col) list ->
  Plan.t ->
  Agg.compiled array * Agg.state array Row.Tbl.t
(** The groups of a [Group] node with these fields over [input], each key
    with its aggregates' states before [final]: the partial state that
    incremental maintenance merges with the aggregates' own [merge].  Unlike
    {!run}, a global aggregate over no rows has no group.  Each key is the
    first key row its group met, as {!run} outputs it. *)
