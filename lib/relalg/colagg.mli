(** Compressed-execution global aggregation (DESIGN.md §13).

    COUNT/SUM/MIN/MAX/AVG over a paged [.sic] store evaluated on the
    encoded block columns: COUNT-star answered from resident block
    lengths, COUNT(c) from run-length null metadata, int kernels folding whole
    run-length segments without expansion into the same {!Value.Sum} the
    row path accumulates, and float inputs added per non-null value.

    [try_global] answers [None] — caller falls back to {!Exec}'s hash
    aggregation — unless the query is a global aggregate ([group_cols = []])
    over a paged columnar relation whose every aggregate input is a plain
    column of uniform numeric kind (any kind for COUNT).  Handled blocks
    never decode, which is what [sic.blocks_direct] counts. *)

val try_global :
  group_cols:(Expr.t * Schema.col) list ->
  aggs:(Agg.func * Schema.col) list ->
  Relation.t ->
  Relation.t option
