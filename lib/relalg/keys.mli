(** Int-coded keys for [Exec]'s hash join, hash aggregate and IN filter.

    A key tuple packs into one int when each component's values allow it.
    A component encodes an [Int] as that int and an integral [Float] in
    int range as the same int, so [Int n] and [Float n] get one code, and
    [-0.0] the code of [0]; a string encodes as a code interned per
    execution.  NULL and NaN have codes of their own ({!null_code},
    {!nan_code}), so NULL keys group together and so do NaN keys, as
    {!Value.equal_total} has it.  Each component's codes are offset by the
    least value it took, and the components pack in mixed radix when the
    product of their ranges fits in an int.

    Any other key keeps {!Row.Tbl}: a column mixing [Str] with numbers,
    holding [Bool]s, non-integral floats or floats past the int range, and
    components whose ranges are too wide to pack.  The path is decided
    once per node and execution from one pass over the key columns. *)

val null_code : int
val nan_code : int

(** An open-addressing table from int keys to dense ids [0, 1, …] in
    insertion order. *)
module Itbl : sig
  type t

  val create : int -> t
  val length : t -> int

  val find : t -> int -> int
  (** The key's id, or [-1]. *)

  val intern : t -> int -> int
  (** The key's id, giving it the next id ([length] before the call) when
      it is new. *)

  val key : t -> int -> int
  (** The key with that id. *)
end

(** The values one key component took on one input: their kind, range
    and interned strings, or why they cannot be coded. *)
type dom

(** A component's domain and the code of each input row's value. *)
type column = { dom : dom; codes : int array }

val column : name:string -> Row.t array -> int -> column
(** [column ~name rows i] codes column [i] of [rows] in one pass; [name]
    names it in a fallback reason.  [codes] are meaningful only when the
    domain packs. *)

val code : dom -> Value.t -> int
(** A value's code in the domain's coding: [-1] when no value of the
    domain equals it, {!null_code}/{!nan_code} for NULL and NaN when the
    domain holds them, otherwise at least 2. *)

val pack : dom array -> (int array, string) result
(** Multipliers that pack one code per component into one int without
    collisions: [Σ code.(c) * mult.(c)].  [Error] gives the fallback
    reason. *)

(** Which path a node ran on: packed ints over the named key columns, or
    {!Row.Tbl} with the reason. *)
type path = Packed of string list | Generic of string

val describe : path -> string
(** ["keys: packed (a, b)"] or ["keys: generic (reason)"], as ANALYZE
    prints it. *)

val count : path -> unit
(** Counts the decision in [exec.keys_packed] or [exec.keys_generic]. *)

(** Packed IN-subquery membership over equal_total classes: NULL matches
    NULL and NaN matches NaN, as {!Row.Tbl} membership has it. *)
module Set : sig
  type t

  val build : names:string array -> Row.t array -> (t, string) result
  (** The set of [rows], or why it cannot be packed. *)

  val arity : t -> int
  val cardinality : t -> int

  val code : t -> int -> Value.t -> int
  (** The code of a value of component [i], [-1] when no member has it. *)

  val mult : t -> int -> int
  val mem_key : t -> int -> bool

  val mem : t -> Row.t -> bool
  (** Membership of a key row (the interpreter's path). *)
end
