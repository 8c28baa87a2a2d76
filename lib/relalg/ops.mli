(** Duplicate-preserving relational operators over materialized relations:
    σ, π, δ, sort, limit and the IN semi-join.

    The plan interpreter {!Exec} calls these for its non-join nodes; joins
    and aggregation exist only in {!Exec}, which streams join output
    straight into grouping. *)

val select : Expr.t -> Relation.t -> Relation.t

(** [project outs rel]: each output column is an expression evaluated per
    row, named by the given column (qualifier preserved). *)
val project : (Expr.t * Schema.col) list -> Relation.t -> Relation.t

val distinct : Relation.t -> Relation.t
val order_by : (Expr.t * [ `Asc | `Desc ]) list -> Relation.t -> Relation.t
val limit : int -> Relation.t -> Relation.t

(** The IN set of [sub]'s rows ({!Expr.row_set_of}), named by its columns. *)
val row_set : Relation.t -> Expr.row_set

(** [semijoin keys sub rel] keeps rows of [rel] whose [keys] tuple appears in
    [sub] (which must have matching arity) — implements [IN (subquery)]. *)
val semijoin : Expr.t list -> Relation.t -> Relation.t -> Relation.t
