(** Rows are immutable-by-convention arrays of values. *)

type t = Value.t array

val make : Value.t list -> t
val append : t -> t -> t
val project : t -> int list -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val has_null : t -> bool
(** [true] when any field is [Value.Null] or a NaN — an equi-join key
    containing either matches nothing (both compare false against
    everything), while {!Tbl}'s structural equality would pair it with an
    identical key; key-based joins must check this before inserting or
    probing. *)

val to_string : t -> string

(** Hashtbl key module with total (SQL-agnostic) equality. *)
module Key : Hashtbl.HashedType with type t = t

module Tbl : Hashtbl.S with type key = t
