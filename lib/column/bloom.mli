(** Register-blocked Bloom filters over {!Value.t} (DESIGN.md §11).

    Built by the predicate-transfer pass (one filter per transferred join
    edge) and probed by base-table scans.  Each key
    maps to a single 63-bit word of the filter and sets [k] bits inside it,
    so a membership probe touches one cache line — the layout of the
    Predicate Transfer paper's per-edge filters adapted to OCaml's boxed-free
    [int array].

    Hashing goes through {!Value.hash}, which normalizes integral [Float]s
    to their [Int] image, so membership agrees with SQL equality across the
    numeric types.  [Null] never matches anything (SQL equality): [add]
    ignores it and [mem] refuses it, which makes dropping [Null]-keyed rows
    on an equality edge sound.

    The contract consumers rely on: {b no false negatives}.  A false
    positive only keeps a row that a later join discards; a false negative
    would lose result tuples.  Transfer therefore stays a performance hint
    (see the differential fuzz suite, which forces tiny, collision-heavy
    filters through {!test_force_bits}). *)

type t

(** [create ~expected ()] sizes the filter for [expected] distinct keys at
    [bits_per_key] (default 10, ≈1% false positives with the 4 probe bits
    used here), rounded up to a power-of-two word count. *)
val create : ?bits_per_key:int -> expected:int -> unit -> t

val add : t -> Value.t -> unit

(** No false negatives over the values passed to [add]; [Null] and an
    empty filter always answer [false]. *)
val mem : t -> Value.t -> bool

(** Number of [add]ed (non-null) values, duplicates included. *)
val count : t -> int

(** Observed range of the added values as a zone map (min/max under
    [Value.compare_total], NaN excluded like {!Zmap.observe}). *)
val range : t -> Zmap.t

(** Can any value of a block with zone map [z] possibly be in the filter?
    Conservative range-overlap test: block-level data skipping for
    transferred filters, composing with the σ zone probes. *)
val range_may_match : t -> Zmap.t -> bool

val nbits : t -> int
val approx_bytes : t -> int

(** Raw filter words (serialization — the [.sic] footer persists filters
    built at save time). *)
val words : t -> int array

(** Rebuild a filter from serialized parts.  [words] must be the
    power-of-two-length array a filter was built with. *)
val restore : words:int array -> count:int -> zmap:Zmap.t -> t

(** Test hook: when [Some n], [create] clamps every new filter to [n] total
    bits, forcing high false-positive rates so the fuzz suite can prove
    transfer never filters results, only work. *)
val test_force_bits : int option ref
