(** Physical query plans.

    The baseline executor interprets these trees directly; the iceberg
    optimizer's rewrites also bottom out in plans (plus the NLJP operator in
    [lib/core], which composes plans for its component queries). *)

type bound = Expr.t * [ `Strict | `Inclusive ]

type t =
  | Scan of { table : string; alias : string option; filter : Expr.t option }
      (** base-table scan; the alias requalifies columns *)
  | Values of { name : string; rel : Relation.t }
      (** an embedded materialized relation (CTE result, cache contents) *)
  | Filter of Expr.t * t
  | Project of (Expr.t * Schema.col) list * t
  | Nl_join of { pred : Expr.t; left : t; right : t }
  | Hash_join of {
      keys : (Expr.t * Expr.t) list;  (** (left expr, right expr) pairs *)
      residual : Expr.t;
      left : t;
      right : t;
    }
  | Index_nl_join of {
      pred : Expr.t;
      left : t;
      table : string;
      alias : string option;
      key_col : string;  (** first column of the sorted index to probe *)
      lo : bound option;  (** bound exprs evaluated over the left row *)
      hi : bound option;
    }
  | Group of {
      group_cols : (Expr.t * Schema.col) list;
      aggs : (Agg.func * Schema.col) list;
      input : t;
    }
  | Distinct of t
  | Order_by of (Expr.t * [ `Asc | `Desc ]) list * t
  | Limit of int * t
  | Semijoin of { keys : Expr.t list; sub : t; input : t }
      (** IN (subquery): keep input rows whose key tuple appears in [sub] *)
  | Rename of string * t
      (** export a subquery result under a single alias *)

(** The output schema of a plan, given the catalog (no execution). *)
val schema_of : Catalog.t -> t -> Schema.t

(** EXPLAIN-style indented tree, in the spirit of Appendix E. *)
val explain : t -> string
