(** The Appendix D optimization procedure (Listing 9) for iceberg queries
    with multiway joins: collect generalized-a-priori rewrites over disjoint
    relation subsets, then pick an outer/inner split for NLJP-based
    memoization and pruning compatible with those rewrites. *)

type technique = { apriori : bool; memo : bool; pruning : bool }

val all_techniques : technique
val no_techniques : technique
val only : [ `Apriori | `Memo | `Pruning ] -> technique

(** The shape the optimizer handles: a HAVING over a join of two or more
    base tables, with at least one technique of [tech] on.  Queries outside
    it run as the baseline plan. *)
val iceberg_shape : tech:technique -> Sqlfront.Ast.query -> bool

type apriori_rewrite = {
  considered : string list;  (** the T_L whose analysis found the reducer *)
  reduced : string list;  (** Ť: aliases actually wrapped *)
  reducer : Sqlfront.Ast.query;
  reducer_sql : string;
  replacements : (string * Sqlfront.Ast.table_ref) list;
}

type decision = {
  query : Sqlfront.Ast.query;
  apriori_rewrites : apriori_rewrite list;
  nljp : (Nljp.t * string list) option;  (** operator + chosen outer aliases *)
  transfer : Transfer.spec option;
      (** predicate-transfer plan ({!Transfer.run} input); [None] with a
          "transfer: skipped (...)" note when the gate rejects *)
  notes : string list;
}

(** [decide catalog q ~tech ~nljp_config]: run the Listing 9 procedure on a
    single-block query whose FROM items are all plain tables.

    With [adaptive:true] (a first cut of the cost-based decisions the paper
    leaves as future work), each chosen reducer is executed up front and
    dropped when it would keep ≥ 90% of the candidate groups — the regime
    where the paper observes a-priori costing more than it saves.

    With [transfer:false] (the [--no-transfer] / [SI_TRANSFER=0] ablation),
    phase 3 is skipped entirely; otherwise [pick_transfer] gates on an NLJP
    plan being present, equality join edges existing, the inputs clearing
    [transfer_min_rows], and at least one alias carrying a local predicate
    other than an a-priori IN — each rejection recorded in [notes]. *)
val decide :
  ?adaptive:bool ->
  ?transfer:bool ->
  Relalg.Catalog.t ->
  Sqlfront.Ast.query ->
  tech:technique ->
  nljp_config:Nljp.config ->
  decision

(** Transfer gate's minimum total base rows. *)
val transfer_min_rows : int

(** Bypass of [transfer_min_rows] — a ref so tests can exercise the passes
    on tiny relations. *)
val transfer_force : bool ref

(** The IN-subqueries a rewrite binds: its reducer projected onto each
    wrapped table's columns, one per table. *)
val reducer_subqueries : apriori_rewrite -> Sqlfront.Ast.query list

(** The query with all chosen a-priori rewrites applied (for non-NLJP
    execution paths). *)
val rewritten_query : decision -> Sqlfront.Ast.query

(** Appendix C's alternative to NLJP-based memoization: choose an
    outer/inner split for which the Listing 8 static rewrite applies and
    return the rewritten query. *)
val pick_static_memo :
  Relalg.Catalog.t -> Sqlfront.Ast.query -> Sqlfront.Ast.query option

(** All non-empty proper subsets of a list, smallest first (shared with
    tests). *)
val proper_subsets : 'a list -> 'a list list

(** The adaptive gate drops a reducer when it keeps at least this fraction
    of the candidate groups (0.9). *)
val adaptive_threshold : float

(** Actual kept/total candidate-group ratio of a reducer, measured by
    executing it (the adaptive gate's evidence).  [None] when unmeasurable
    (no grouping, multi-alias grouping, missing tables, empty domain). *)
val reducer_keep_ratio : Relalg.Catalog.t -> apriori_rewrite -> float option

(** The same ratio as the cost model predicts it, for estimate-vs-actual
    calibration of the gate. *)
val reducer_est_ratio : Relalg.Catalog.t -> apriori_rewrite -> float option
