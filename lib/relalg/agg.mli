(** SQL aggregate functions with their algebraic decomposition.

    Following Gray et al. (the paper's [10]), an aggregate is {e algebraic}
    when a bounded-size partial state supports [step] on subsets and [merge]
    across subsets — SUM/MIN/MAX/COUNT/AVG are; COUNT(DISTINCT) is not (its
    partial state is the unbounded set of distinct values, which we still
    implement so the baseline can evaluate it, but memoization refuses to
    combine it across partial groups unless the group key is a key). *)

type func =
  | Count_star
  | Count of Expr.t  (** counts non-null values *)
  | Count_distinct of Expr.t
  | Sum of Expr.t
  | Min of Expr.t
  | Max of Expr.t
  | Avg of Expr.t

type state

(** Compiled stepper bound to an input schema. *)
type compiled = {
  fresh : unit -> state;
  step : state -> Row.t -> unit;
  merge : state -> state -> unit;  (** folds the second state into the first *)
  final : state -> Value.t;
}

val compile : Schema.t -> func -> compiled

(** [pair_step left right f]: [compile]'s [step] over a joined row given
    as its (left part, right part), read in place. *)
val pair_step : Schema.t -> Schema.t -> func -> state -> Row.t -> Row.t -> unit

(** Raw state constructors for vectorized aggregation kernels that
    accumulate in unboxed scratch and box once per evaluation.  Each
    constructor builds the state of the corresponding function(s) —
    [count_state] for "COUNT(*)"/COUNT(e), [sum_state] for SUM (the running
    {!Value.Sum.t}), [min_state]/
    [max_state] for MIN/MAX, [avg_state] for AVG — interoperable with
    [compile]'s [merge]/[final] for that function. *)
val count_state : int -> state

val sum_state : Value.Sum.t -> state
val min_state : Value.t -> state
val max_state : Value.t -> state
val avg_state : sum:Value.Sum.t -> n:int -> state
val is_algebraic : func -> bool
val input_expr : func -> Expr.t option
val map_expr : (Expr.t -> Expr.t) -> func -> func
val to_string : func -> string
val equal : func -> func -> bool

(** Approximate in-memory size of a state, for cache accounting (Fig 3). *)
val state_bytes : state -> int

(** The intermediate (f^i) and combining (f^o) halves of an algebraic
    aggregate, as used by the static memoization rewrite (Listing 8) and by
    NLJP post-processing when [G_L] is not a key.

    [decompose f ~name] returns [`Algebraic (partials, outers, final)]:
    [partials] are aggregates computed per (binding, G_R) sub-group and
    stored under the given column names; [outers] re-aggregate those columns
    across sub-groups of the same final LR-group; [final] is a scalar
    expression over the outer columns producing the value of [f].  AVG
    becomes partial (SUM, COUNT) with final SUM(sums)/SUM(counts). *)
val decompose :
  func ->
  name:string ->
  [ `Algebraic of (string * func) list * (string * func) list * Expr.t
  | `Holistic ]
