(** A first-cut cost model over physical plans — the cost-based optimization
    the paper's conclusion names as the necessary next step.

    Cardinalities are estimated System-R style: equality predicates select
    1/distinct, ranges interpolate between column min/max (uniformity
    assumption), unknown predicates default to 1/3; joins multiply input
    cardinalities by the join predicate's selectivity; grouping yields
    min(input, product of the group columns' distinct counts).  Costs count
    processed tuples: a nested loop pays |L|·|R|, a hash join |L|+|R|+out,
    an index nested loop |L|·|R|·bound-fraction, and so on.

    The estimates feed the EXPLAIN output and {!Optimizer}'s adaptive
    a-priori gate; they are deliberately simple but directionally sound
    (see the tests). *)

type estimate = { rows : float; cost : float }

(** Estimate a plan bottom-up.  Statistics are read per referenced base
    table from the catalog ({!Relalg.Catalog.stats}, built once per table
    version); [on_stats_build] times a build, as its [on_build]. *)
val estimate :
  ?on_stats_build:((unit -> Relalg.Stats.t) -> Relalg.Stats.t) ->
  Relalg.Catalog.t ->
  Relalg.Plan.t ->
  estimate

type tree = { t_label : string; t_rows : float; t_cost : float; t_children : tree list }
(** Per-node estimates as a tree.  Child order matches the executor's plan
    traversal ([Exec.run]'s recorder paths), so EXPLAIN ANALYZE can pair
    each estimate with the actual row count observed at the same path. *)

val tree :
  ?on_stats_build:((unit -> Relalg.Stats.t) -> Relalg.Stats.t) ->
  Relalg.Catalog.t ->
  Relalg.Plan.t ->
  tree

(** EXPLAIN with per-node estimates appended, e.g.
    [HashAggregate ... (rows≈120 cost≈45000)]. *)
val explain : Relalg.Catalog.t -> Relalg.Plan.t -> string
