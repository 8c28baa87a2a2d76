(** Incremental maintenance of cached iceberg results under appends.

    An entry holds the query's algebraic partial states (one partial row per
    group, HAVING not yet applied).  Appending Δ rows to a table folds in
    via telescoping delta joins — for k occurrences of the table in FROM,
    k runs that each place Δ at one occurrence (old prefix before it, the
    grown table after) — so maintenance is O(Δ ⋈ rest), not a recompute.
    When the WHERE conjuncts local to every occurrence refute all delta
    rows, the result provably cannot change ([`Revalidated]).

    The partial state is independent of the HAVING threshold and of the
    SELECT list, so it is split from its finalization: a {!state} belongs
    to one partials query (FROM / WHERE / GROUP BY and the partial
    aggregates, identified by {!partials_key}), and a view [t] compiles one
    query's SELECT and HAVING over it.  Many views may share one state; an
    append must then be folded into the state exactly once ({!fold}), after
    which every view's {!result} reflects it.

    The catalog is temporarily extended with delta/prefix temp tables while
    a step runs: callers must hold the same exclusive lock they use for
    catalog mutation (the server applies maintenance inside [handle_append]'s
    write section). *)

type state
(** Mutable §6 partial rows of one partials query, one per group. *)

type t
(** A view: one query's finalizer over a {!state}. *)

val supported : Relalg.Catalog.t -> Sqlfront.Ast.query -> bool
(** Whether the query has a delta rule: base tables only, no WITH /
    DISTINCT / ORDER BY / LIMIT / subqueries / SELECT *, and all aggregates
    algebraic (COUNT DISTINCT is holistic and refused). *)

val partials_key : Relalg.Catalog.t -> Sqlfront.Ast.query -> string option
(** Normalized text of the query's partials query (aggregates in canonical
    order, no HAVING), or [None] when the query is not {!supported}.
    Queries with equal keys over one catalog can share one {!state}: they
    differ at most in their SELECT list and HAVING. *)

val init : ?max_groups:int -> Relalg.Catalog.t -> Sqlfront.Ast.query -> t option
(** Build a new state by running the partials query (one full execution,
    comparable to the query itself) and a view of it for this query.
    [None] when the query is unsupported, the group count exceeds
    [max_groups] (default 200k), or compilation fails — callers just serve
    the query uncached-maintained. *)

val view : state -> Sqlfront.Ast.query -> t option
(** A view of an existing state for a query with the same partials query
    (compared structurally, not only by {!partials_key}); compiles only the
    SELECT list and HAVING, runs nothing.  [None] when the partials queries
    differ or compilation fails. *)

val state : t -> state
(** The state a view finalizes (shared with every other view of it). *)

val state_tables : state -> string list
(** Normalized base tables the partials query reads. *)

val tables : t -> string list
(** Normalized base tables the query reads (the entry's invalidation key). *)

val fold :
  ?max_delta_frac:float ->
  state ->
  table:string ->
  delta:Relalg.Relation.t ->
  ([ `Incremental of int | `Revalidated ], string) result
(** Fold an append of [delta] rows to [table] into the state, once however
    many views share it.  Outcomes as for {!apply}. *)

val apply :
  ?max_delta_frac:float ->
  t ->
  table:string ->
  delta:Relalg.Relation.t ->
  ([ `Incremental of int | `Revalidated ], string) result
(** Fold an append of [delta] rows to [table] into the view's state
    ({!fold}).  Apply it through one view of a shared state only: through
    two views of one state the delta counts twice.
    [`Revalidated]: every delta row was refuted by occurrence-local WHERE
    conjuncts — state and result unchanged.  [`Incremental n]: the delta
    was folded in; [n] counts delta rows per occurrence placement that
    survived local filtering (a row joining at both occurrences of a
    self-join counts twice).  [Error] (delta larger than
    [max_delta_frac] of the table, default 0.5, or an execution failure):
    the state is unreliable and the caller must recompute from scratch. *)

val result : t -> Relalg.Relation.t
(** Finalize: compute finals from partials, apply HAVING, evaluate the
    SELECT list.  Bag-equal to re-running the query from scratch. *)

val groups : t -> int
(** Number of maintained groups (below- and above-threshold). *)
