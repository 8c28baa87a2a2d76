(** Scalar and boolean row expressions.

    One unified expression type covers arithmetic ([SELECT] expressions,
    aggregate inputs) and predicates ([WHERE]/[HAVING] conditions).
    Comparisons involving [Null] evaluate to false (the paper's queries never
    exercise NULL semantics; see DESIGN.md). *)

type binop = Add | Sub | Mul | Div
type cmp = Eq | Ne | Lt | Le | Gt | Ge

(** A materialized set of rows for [IN (subquery)] predicates. *)
type row_set

type t =
  | Const of Value.t
  | Col of Schema.col
  | Binop of binop * t * t
  | Neg of t
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | In_set of t list * row_set  (** tuple-IN against a materialized set *)

val row_set_of : ?names:string list -> Row.t list -> row_set
(** The set of the rows, packed into int keys when their values allow
    ({!Keys.Set}); [names] name its columns in the key path's note.
    Counts the path taken ({!Keys.count}). *)

val row_set_cardinality : row_set -> int

val row_set_mem : row_set -> Row.t -> bool
(** Membership under {!Value.equal_total}: NULL matches NULL, NaN matches
    NaN and [Int n] matches [Float n]. *)

val row_set_keys : row_set -> Keys.Set.t option
(** The packed set, when the set is packed. *)

val row_set_path : row_set -> Keys.path

val in_sets : t -> row_set list
(** The IN-subquery sets the expression tests, in order. *)

val tt : t  (** the always-true predicate *)

val col : ?q:string -> string -> t
val int : int -> t
val conj : t list -> t
val conjuncts : t -> t list

(** Columns referenced by the expression, in first-occurrence order. *)
val columns : t -> Schema.col list

(** Replace column references that resolve in [schema] by the constant from
    [row]; used to instantiate the NLJP inner query Q_R(b) with a binding. *)
val bind : Schema.t -> Row.t -> t -> t

(** Rename column qualifiers, e.g. retargeting a predicate written against
    alias [L] to alias [S1]. *)
val requalify : (string option -> string option) -> t -> t

(** Rewrite every column reference. *)
val map_cols : (Schema.col -> Schema.col) -> t -> t

(** Resolve every column reference against [schema] to its canonical
    (qualified) form. *)
val canonicalize : Schema.t -> t -> t

val eval : Schema.t -> Row.t -> t -> Value.t
val eval_bool : Schema.t -> Row.t -> t -> bool

(** Resolve all columns once against [schema], returning a fast closure. *)
val compile : Schema.t -> t -> Row.t -> Value.t

val compile_bool : Schema.t -> t -> Row.t -> bool

(** Predicate over the concatenation of a left row and a right row, without
    materializing the concatenated row (hot path of nested-loop joins). *)
val compile_join_bool : Schema.t -> Schema.t -> t -> Row.t -> Row.t -> bool

val flip_cmp : cmp -> cmp
val negate_cmp : cmp -> cmp
val to_string : t -> string
val equal : t -> t -> bool
