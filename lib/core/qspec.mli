(** The generic iceberg query form of Listing 5.

    [analyze] views a single-block query [Q] over a set of FROM items as a
    two-relation iceberg query by partitioning the items into an outer side
    L and inner side R (Appendix D's  L = Q^⋈[T_L], R = Q^⋈[T_R]): WHERE
    conjuncts local to one side stay inside that side's subquery; the rest
    form Θ.  All FROM items must be plain table references (base tables or
    pre-materialized CTE temp tables); the optimizer guarantees this. *)

type side = {
  aliases : string list;
  tables : (string * string) list;  (** (table name, alias) *)
  local : Sqlfront.Ast.pred list;
      (** conjuncts over this side only, including equalities inferred by
          congruence closure over Θ equalities and same-table FDs (the
          Appendix D inference that derives S2.category = T2.category) *)
  schema : Relalg.Schema.t;  (** concatenated, alias-qualified *)
  group_cols : Relalg.Schema.col list;  (** G on this side, as written *)
  group_cols_eff : Relalg.Schema.col list;
      (** effective G: each global GROUP BY column represented by an
          equivalent column of this side when one exists (e.g. S1.id is
          represented by S2.id on the {S2,T2} side) — what the safety
          checks and reducers use *)
  join_cols : Relalg.Schema.col list;  (** J: this side's columns in Θ *)
  eq_join_cols : Relalg.Schema.col list;  (** J=: those under equality *)
  fds : Fdreason.Fd.t list;
      (** FDs holding on this side's join result, over alias-qualified
          attribute names (table FDs + local equalities, Appendix D) *)
  keyed : bool;
      (** every table of the side has a declared key, so its join result
          holds no duplicate rows *)
}

type t = {
  query : Sqlfront.Ast.query;
  left : side;
  right : side;
  theta : Sqlfront.Ast.pred list;  (** cross-side conjuncts *)
  having : Sqlfront.Ast.pred;  (** Φ *)
  group_by : (string option * string) list;
  select : Sqlfront.Ast.select_item list;  (** Λ *)
}

exception Unsupported of string

(** [analyze catalog q ~left_aliases] splits [q]'s FROM items by alias.
    Raises [Unsupported] for queries outside the Listing 5 shape (no GROUP
    BY+HAVING, subquery FROM items, DISTINCT, …). *)
val analyze :
  Relalg.Catalog.t -> Sqlfront.Ast.query -> left_aliases:string list -> t

(** All aliases of the query's FROM items, in order.
    Raises [Unsupported] on subquery items. *)
val aliases_of : Sqlfront.Ast.query -> string list

(** Does every column mentioned by the predicate (including inside aggregate
    arguments) belong to this side? — "Φ is applicable to" the side. *)
val pred_applicable : side -> Sqlfront.Ast.pred -> bool

(** Θ as a single row expression over the concatenated L++R schema. *)
val theta_expr : Relalg.Catalog.t -> t -> Relalg.Expr.t

(** The side as a runnable query [SELECT * FROM tables WHERE local].
    [overrides] substitutes a FROM item per alias (used to plug the
    generalized-a-priori reducers into NLJP's binding query, Listing 11);
    an override must preserve the table's schema. *)
val side_query :
  ?overrides:(string * Sqlfront.Ast.table_ref) list -> side -> Sqlfront.Ast.query

(** Qualified attribute names of the side (FD universe). *)
val side_attrs : side -> string list

(** Do the attributes identify the side's rows: is their closure every
    attribute, on a {!keyed} side?  A table without a declared key may hold
    duplicate rows, which no attribute set tells apart. *)
val superkey : side -> string list -> bool

val col_name : Relalg.Schema.col -> string

(** Columns of Φ's aggregate-free parts and aggregate arguments resolved
    against a side's schema; [None] if some column is not resolvable. *)
val resolve_cols :
  side -> (string option * string) list -> Relalg.Schema.col list option

(** Is [col]'s domain known non-negative? (catalog fact, for Table 2's SUM
    caveat; CTE temp tables carry derived facts). *)
val col_nonneg : Relalg.Catalog.t -> t -> string option * string -> bool

(** §6's condition on the output expressions Λ: every aggregate argument
    ranges over the inner (right) side only, and every aggregate-free column
    reference is a GROUP BY column. *)
val lambda_applicable : t -> bool

(** Is [G_L → A_L]: the outer side's group columns form a superkey of it? *)
val outer_group_is_key : t -> bool

(** All aggregates of Φ and Λ in first-occurrence order, deduplicated. *)
val all_aggs : t -> Sqlfront.Ast.agg list
