(** Compile an AST query to a physical plan over a catalog.

    Planning mirrors the paper's baseline systems: CTEs are materialized
    once; equality join conjuncts become hash joins; inequality joins probe
    a sorted ("BT") index through an index nested-loop when one exists,
    else fall back to nested loop; grouping is hash-based; HAVING is a
    filter applied after aggregation (the plans of Appendix E).

    IN-subqueries are materialized at bind time into hash sets
    ([Relalg.Expr.In_set]), so binding can execute subqueries — callers that
    time queries must time bind + execute together. *)

exception Bind_error of string

(** [join_pref] selects the physical operator for equality joins —
    [`Hash] (default) or [`Merge] (sort-merge, the method the baseline
    systems fall back to when indexes are dropped, §8.1).

    [subquery] evaluates the IN-subqueries met while binding (those outside
    any WITH block of the query being bound); it defaults to binding and
    executing them here, with the baseline executor.  The optimizer's
    callers pass an evaluator that runs a-priori reducers — iceberg
    queries themselves — through the optimizer. *)
val bind :
  ?workers:int ->
  ?join_pref:[ `Hash | `Merge ] ->
  ?subquery:(Ast.query -> Relalg.Relation.t) ->
  Relalg.Catalog.t ->
  Ast.query ->
  Relalg.Plan.t

(** Bind then execute. *)
val run :
  ?workers:int ->
  ?join_pref:[ `Hash | `Merge ] ->
  ?subquery:(Ast.query -> Relalg.Relation.t) ->
  Relalg.Catalog.t ->
  Ast.query ->
  Relalg.Relation.t

(** Convert an aggregate-free scalar to a row expression.
    Raises [Bind_error] on aggregates. *)
val scalar_expr : Ast.scalar -> Relalg.Expr.t

(** Convert a predicate to a row expression, materializing IN-subqueries
    against the catalog.  Raises [Bind_error] on aggregates. *)
val pred_expr : ?workers:int -> Relalg.Catalog.t -> Ast.pred -> Relalg.Expr.t

val agg_func : Ast.agg -> Relalg.Agg.func
