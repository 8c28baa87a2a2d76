(** Secondary indexes over in-memory relations.

    [Hash] supports equality probes on a column tuple (NLJP builds one per
    execution for the equality conjuncts of Θ).  [Sorted] keeps rows ordered
    by a column list and supports range restriction on the first column (the
    paper's {e BT} secondary B-tree on comparison attributes); it is the one
    index kind the catalog registers on a base table.  [Range_count] counts
    the points of k ≥ 2 columns inside a box (NLJP's dominance counts). *)

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

  (** The rows in key order. *)
  val rows : t -> Row.t array

  (** The positions [[start, stop)] in {!rows} that [range] walks. *)
  val bounds :
    t ->
    lo:(Value.t * [ `Strict | `Inclusive ]) option ->
    hi:(Value.t * [ `Strict | `Inclusive ]) option ->
    int * int

  (** Allocation-free variant of [range] for hot loops. *)
  val iter_range :
    t ->
    lo:(Value.t * [ `Strict | `Inclusive ]) option ->
    hi:(Value.t * [ `Strict | `Inclusive ]) option ->
    (Row.t -> unit) ->
    unit

  val cardinality : t -> int
end

(** A static k-D range-count structure (k ≥ 2) over the points
    [(row.(c0), row.(c1), …)] of the columns [cols = [c0; c1; …]], called x,
    y and the extra columns: the points in x order, cut into fixed blocks
    whose y values are sorted; each block also holds the extra coordinates
    in the same y order, with its least and greatest value on each extra
    column (the block's box).  A count costs two binary searches on x, a
    scan of at most two partial blocks and one or two binary searches per
    full block in between — O(n/B log B + B) for n points and block size B
    at k = 2, against the O(n) walk of a sorted index's x range.  When
    k > 2, a full block's y range counts whole when its box lies inside the
    query, is skipped when the two are disjoint and is scanned otherwise.
    The points stay in the rows given; a build allocates the coordinates —
    unboxed when a column is all [Int] or all [Float] — and, when it drops or
    sorts rows, their positions.

    Comparisons follow {!Value.compare_total}, which agrees with SQL
    predicate comparison ({!Value.compare_sql_code}) on the non-NULL,
    non-NaN values the structure holds; integers compare as integers, so
    [max_int] and [max_int - 1] stay distinct. *)
module Range_count : sig
  type t

  (** [None] means unbounded on that side. *)
  type bound = (Value.t * [ `Strict | `Inclusive ]) option

  (** [of_sorted idx ~cols] holds the rows of [idx], an index led by the
      first of [cols] (else [Invalid_argument]), minus those with a NULL or
      NaN in any of [cols] (no range predicate holds on them); they are
      already in x order.  [cols] has at least two columns. *)
  val of_sorted : Sorted.t -> cols:int list -> t

  (** [build rows ~cols]: the same over unordered rows, sorted here by the
      first column under {!Value.compare_total}. *)
  val build : Row.t array -> cols:int list -> t

  (** Points inside [box], one [(lo, hi)] range per column, in the order of
      [cols] ([Invalid_argument] for another length); 0 when a range is
      empty. *)
  val count : t -> (bound * bound) array -> int
end
