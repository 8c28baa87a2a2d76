(** Secondary indexes over in-memory relations.

    [Hash] supports equality probes on a column tuple (NLJP builds one per
    execution for the equality conjuncts of Θ).  [Sorted] keeps rows ordered
    by a column list and supports range restriction on the first column (the
    paper's {e BT} secondary B-tree on comparison attributes); it is the one
    index kind the catalog registers on a base table.  [Range_count] counts
    the points of two columns inside a box (NLJP's 2-D dominance counts). *)

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

(** A static 2-D range-count structure over the points [(row.(x), row.(y))]:
    the points in x order, cut into fixed blocks whose y values are sorted.
    A count costs two binary searches on x, a scan of at most two partial
    blocks and one or two binary searches per full block in between —
    O(n/B log B + B) for n points and block size B — against the O(n) walk of
    a sorted index's x range.  The points stay in the rows given; a build
    allocates the block-sorted y column and, when it drops or sorts rows,
    their positions.

    Comparisons follow {!Value.compare_total}, which agrees with SQL
    predicate comparison ({!Value.compare_sql_code}) on the non-NULL,
    non-NaN values the structure holds; integers compare as integers, so
    [max_int] and [max_int - 1] stay distinct. *)
module Range_count : sig
  type t

  (** [None] means unbounded on that side. *)
  type bound = (Value.t * [ `Strict | `Inclusive ]) option

  (** [of_sorted idx ~x ~y] holds the rows of [idx], an index led by column
      [x] (else [Invalid_argument]), minus those whose x or y is NULL or NaN
      (no range predicate holds on them); they are already in x order. *)
  val of_sorted : Sorted.t -> x:int -> y:int -> t

  (** [build rows ~x ~y]: the same over unordered rows, sorted here by x
      under {!Value.compare_total}. *)
  val build : Row.t array -> x:int -> y:int -> t

  (** Points with x within [xlo]..[xhi] and y within [ylo]..[yhi]; 0 when a
      range is empty. *)
  val count : t -> xlo:bound -> xhi:bound -> ylo:bound -> yhi:bound -> int
end
