(** Synthetic stand-in for the Lahman MLB season-statistics dataset [2].

    The experiments only depend on row count, key structure, and the joint
    distribution of the compared attribute pairs (Figure 2 shows two
    pairings with visibly different correlation, which changes skyband
    selectivity), so we generate: batting hits correlated with home runs
    through a per-player skill factor, and doubles vs. triples with a much
    weaker, noisier relationship.

    Schema: [player_performance(playerid, year, round, teamid, b_h, b_hr,
    b_2b, b_3b, b_bb, b_sb)], key (playerid, year, round), all statistics
    non-negative. *)

val table_name : string

(** [register catalog ~rows ~seed] generates ≈[rows] rows (players × years ×
    rounds) and registers the table with keys, FDs and non-negativity
    facts.  Returns the actual row count. *)
val register : Relalg.Catalog.t -> rows:int -> seed:int -> int

(** The unpivoted organization used by the {e complex} query: each
    statistic becomes a row [perf_kv(id, category, attr, val)] with key
    (id, attr) and FD id → category.  [attrs] selects which statistics to
    unpivot (default all four compared ones). *)
val register_unpivoted :
  ?attrs:string list -> Relalg.Catalog.t -> rows:int -> seed:int -> int

val unpivoted_name : string

(** Build the BT configuration's indexes: sorted secondary indexes on the
    compared attribute pairs (dropped with [~bt:false]).  The PK
    configuration needs no index: it is the key declared by {!load}. *)
val build_indexes : ?bt:bool -> Relalg.Catalog.t -> unit
