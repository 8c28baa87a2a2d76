(** Secondary indexes over in-memory relations.

    [Hash] supports equality probes on a column tuple (NLJP builds one per
    execution for the equality conjuncts of Θ).  [Sorted] keeps rows ordered
    by a column list and supports range restriction on the first column (the
    paper's {e BT} secondary B-tree on comparison attributes); it is the one
    index kind the catalog registers on a base table. *)

module Hash : sig
  type t

  val build : Relation.t -> int list -> t
  val key_idxs : t -> int list
  val probe : t -> Row.t -> Row.t list
  val distinct_keys : t -> int
end

module Sorted : sig
  type t

  (** [build rel cols] orders [rel]'s rows by [cols] under
      {!Value.compare_total}, lexicographically; rows with equal keys keep
      their input order. *)
  val build : Relation.t -> int list -> t
  val key_idxs : t -> int list

  (** All rows whose first key column lies within the given bounds
      (inclusive unless [strict]).  [None] means unbounded on that side.
      Uses binary search over the sorted row array. *)
  val range :
    t ->
    lo:(Value.t * [ `Strict | `Inclusive ]) option ->
    hi:(Value.t * [ `Strict | `Inclusive ]) option ->
    Row.t Seq.t

  (** Allocation-free variant of [range] for hot loops. *)
  val iter_range :
    t ->
    lo:(Value.t * [ `Strict | `Inclusive ]) option ->
    hi:(Value.t * [ `Strict | `Inclusive ]) option ->
    (Row.t -> unit) ->
    unit

  val cardinality : t -> int
end
