(** Staged compilation of expressions into closures — the engine's hot path.

    [Expr.eval] is the reference interpreter: it re-walks the tree and
    re-resolves every column name against the schema for every row.
    [Expr.compile] resolves columns once but still evaluates through generic
    [Value] dispatch.  This module goes further and is what every executor
    hot loop ([Ops], [Exec], [Agg], [Nljp], [Subsume]) routes through:

    - column references become integer offsets resolved at compile time;
    - constant subexpressions are folded once (folding is attempted under
      [Type_error] protection so errors still surface only if the row path
      is actually reached, exactly like the interpreter);
    - comparison codes are resolved at compile time: each [Cmp] node becomes
      a single specialized comparator closure with an unboxed int/int fast
      path and the paper's NULL-comparison semantics baked in;
    - join predicates evaluate directly over the (outer row, inner row) pair
      — no per-probe blit of both rows into a scratch buffer;
    - projections and key builders fill preallocated arrays instead of going
      through intermediate lists.

    All compiled closures are pure (no interior mutable scratch), so one
    compiled expression may be shared across Domains. *)

type scalar = Row.t -> Value.t
type pred = Row.t -> bool

(** Compile a scalar expression against [schema].  Agrees with
    [Expr.eval schema row e] on every row: same value, or a [Value.Type_error]
    raised in the same situations. *)
val scalar : Schema.t -> Expr.t -> scalar

(** Compile a predicate; agrees with [Expr.eval_bool]. *)
val pred : Schema.t -> Expr.t -> pred

(** [join_pred left right e] compiles [e] over the concatenation of a
    left row and a right row without materializing the concatenation:
    columns resolving into [left] read the first argument, the rest read the
    second.  Agrees with [Expr.eval (Schema.append left right)] on the
    concatenated row. *)
val join_pred : Schema.t -> Schema.t -> Expr.t -> Row.t -> Row.t -> bool

(** [join_scalar left right e]: {!join_pred}'s scalar counterpart. *)
val join_scalar : Schema.t -> Schema.t -> Expr.t -> Row.t -> Row.t -> Value.t

(** [row_fn schema es] builds the row [[| e0; e1; … |]] per input row; used
    for hash/merge-join keys, group keys and projections.  All-column lists
    compile to plain index gathers. *)
val row_fn : Schema.t -> Expr.t list -> Row.t -> Row.t

(** Constant folding on its own (exposed for tests): evaluates constant
    subtrees, keeping any that would raise so errors stay at run time. *)
val fold_constants : Expr.t -> Expr.t

(** The comparator a [Cmp] node compiles to: int/int fast path, SQL NULL
    semantics (any comparison against NULL is false).  Exposed for the
    columnar scan kernels. *)
val value_cmp : Expr.cmp -> Value.t -> Value.t -> bool

(** A column-vs-constant comparison usable against a block's zone map. *)
type zone_probe = { zp_col : int; zp_op : Expr.cmp; zp_const : Value.t }

(** Comparison codes translated for {!Column.Zmap.may_match}. *)
val zmap_cmp : Expr.cmp -> Column.Zmap.cmp

(** [zone_probes schema e] collects the column-vs-constant conjuncts of
    [e]'s top-level AND-chain.  Every probe is a necessary condition for
    [e], so refuting one against a block's zone map proves the block holds
    no matching row.  The boolean is true when the probes are exactly [e]
    (nothing was left unconverted). *)
val zone_probes : Schema.t -> Expr.t -> zone_probe list * bool

(** [inner_probe ~binding ~inner conj] reads [conj] as [inner.(i) op f],
    with [f] over the binding alone, and returns [(i, op, f)] — [op]
    flipped when [conj] is written [f op r_col].  [None] for any other
    shape.  Column names resolve like [join_pred binding inner]. *)
val inner_probe :
  binding:Schema.t -> inner:Schema.t -> Expr.t -> (int * Expr.cmp * Expr.t) option

