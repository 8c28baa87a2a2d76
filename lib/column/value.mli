(** SQL-style atomic values.

    Comparisons follow SQL semantics restricted to the subset the paper
    exercises: [Null] never compares equal to anything (predicates involving
    it evaluate to false), integers and floats compare numerically across the
    two representations, and heterogeneous comparisons raise
    [Type_error]. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

exception Type_error of string

val is_null : t -> bool

(** [Float nan] (any comparison involving it is false, like [Null]). *)
val is_nan : t -> bool

(** Total order used for sorting and index keys; [Null] sorts first.
    Unlike SQL predicate comparison this is total so rows can be ordered. *)
val compare_total : t -> t -> int

(** [compare_total (Int x) (Float f)], exactly: ints beyond 2^53 stay apart
    from the floats they round to.  A NaN [f] sorts first. *)
val compare_int_float : int -> float -> int

val equal_total : t -> t -> bool

(** SQL predicate comparison: [None] when either side is [Null], otherwise
    [Some c] with [c] as [compare]. *)
val compare_sql : t -> t -> int option

(** Allocation-free variant for hot loops: [min_int] when either side is
    [Null], otherwise the sign of the comparison. *)
val compare_sql_code : t -> t -> int

(** Arithmetic; NULL propagates.  [add] on two ints promotes the result to
    float when the sum overflows instead of wrapping silently. *)
val add : t -> t -> t

val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t

(** Numeric view used by aggregates; raises [Type_error] on non-numbers. *)
val to_float : t -> float

val to_bool : t -> bool
val of_int : int -> t
val of_float : float -> t
val of_string : string -> t
val of_bool : bool -> t
val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Parse a CSV field: tries int, then float, then bool, else string;
    the empty string becomes [Null]. *)
val of_csv_field : string -> t

(** Rough in-memory footprint of one value, for cache accounting. *)
val approx_bytes : t -> int

val hash : t -> int

(** The running total of SUM and AVG.  It does not depend on the order the
    inputs arrive in, so a sum split into partials and merged equals a
    single pass: ints add exactly (in two words), floats apart, and {!value}
    is the exact int sum when it fits 63 bits, else that sum as a float
    rounded once, plus the float inputs.  A left fold of {!add} does depend
    on it once a partial sum overflows: [max_int + 2 + min_int] is [0.]
    folded left to right and [1] folded from the right. *)
module Sum : sig
  type value := t
  type t

  val create : unit -> t

  val add : t -> value -> unit
  (** NULL is skipped; a string or bool raises [Type_error]. *)

  val add_int_run : t -> int -> int -> unit
  (** [add_int_run s v len] adds [v] [len] times, exactly for [len < 2^30]. *)

  val add_float : t -> float -> unit

  val merge : t -> t -> unit
  (** Folds the second sum into the first. *)

  val value : t -> value
  (** [Null] when no input was added. *)

  val to_float : t -> float
end
