(** The catalog: named base tables plus the schema knowledge the optimizer
    needs — candidate keys, functional dependencies, domain facts (whether a
    column is known non-negative, for Table 2's SUM caveat) and available
    indexes (the paper's PK / BT configurations). *)

type table = {
  name : string;
  rel : Relation.t;
  keys : string list list;  (** candidate keys, by unqualified column name *)
  fds : (string list * string list) list;  (** extra FDs beyond keys *)
  nonneg : string list;  (** columns with dom ⊆ ℝ≥0 *)
  mutable indexes : Index.Sorted.t list;  (** the BT configuration's indexes *)
  mutable gen : int;  (** structural generation; see {!stamp} *)
  temp : bool;  (** registered by {!add_temp} (a CTE or maintenance temp) *)
  derived : derived;  (** read through {!column_numeric}, {!stats}, {!range_count} *)
}

(** The table version's derived-state slot: facts that depend only on its
    rows and indexes, filled on first use under a per-table lock and kept
    with the record.  Every new record — {!add_table}, {!add_temp},
    {!replace_rows}, {!append_rows}, {!set_layout} — comes with a fresh
    slot, except that {!append_rows} carries the column domains forward by
    checking the appended rows only. *)
and derived

(** Delta epoch of one table: its structural generation plus row count.
    Anything that rewrites or reorganizes existing rows ({!replace_rows},
    {!set_layout}, index build/drop) starts a new generation; {!append_rows}
    keeps it and only grows the count.  So for two stamps of the same table,
    equal = identical contents, and equal [s_gen] with larger [s_len] =
    "the rows you saw, plus an appended delta" — the distinction the
    incremental-maintenance caches key on. *)
type stamp = { s_gen : int; s_len : int }

type t

val create : unit -> t

(** Monotone data version of the catalog: bumped by every mutation of
    base-table contents or physical organization ({!add_table},
    {!replace_rows}, {!set_layout}, index build/drop).  Version-keyed caches
    (the server's plan and result caches) are thereby invalidated by any
    mutation without registration machinery.  {!add_temp}/{!remove_table}
    (the transient CTE lifecycle) leave the version unchanged.  Reads and
    bumps are atomic, so concurrent readers always see a coherent value —
    but the catalog's table contents themselves are {e not} synchronized:
    mutate only while no concurrent query is executing (the server runs
    mutations and CTE queries under an exclusive lock). *)
val version : t -> int

val add_table :
  t ->
  ?keys:string list list ->
  ?fds:(string list * string list) list ->
  ?nonneg:string list ->
  string ->
  Relation.t ->
  unit

(** Replace a table's rows, keeping metadata and rebuilding its indexes
    (used by benchmarks that sweep input size). *)
val replace_rows : t -> string -> Relation.t -> unit

val append_rows : t -> string -> Row.t array -> unit
(** O(delta) append via {!Relation.append}: bumps {!version} (result caches
    must notice) but keeps the table's generation, so stamps taken before
    the append stay deltable.  Indexes are rebuilt if present; the new
    record's derived state keeps only the column domains. *)

val stamp : t -> string -> stamp
(** Current delta epoch of a table (raises like {!find} if unknown). *)

val stamps : t -> string list -> (string * stamp) list
(** Stamps for several tables, keyed by normalized (lowercase) name. *)

val delta_since : t -> string -> stamp -> [ `Delta of Relation.t | `Invalid ]
(** The rows appended since [stamp] ([`Delta] may be empty), or [`Invalid]
    if the table changed structurally (new generation, shrank, or was
    dropped) and delta reasoning no longer applies. *)

val find : t -> string -> table
val find_opt : t -> string -> table option
val mem : t -> string -> bool
val table_names : t -> string list

(** All FDs of the table: declared FDs plus key → all-columns. *)
val all_fds : table -> (string list * string list) list

val is_nonneg : table -> string -> bool

(** Index build and drop also drop the table's range-count structures. *)
val build_sorted_index : t -> string -> string list -> unit

val drop_indexes : t -> string -> unit

(** A sorted index whose first key column is [col], if one exists. *)
val sorted_index_on : table -> string -> Index.Sorted.t option

(** Convert one table (resp. every table) to the given physical layout,
    keeping metadata and indexes. *)
val set_layout : t -> string -> [ `Row | `Column ] -> unit

val set_all_layouts : t -> [ `Row | `Column ] -> unit

(** Register a derived relation under a fresh name (CTE materialization).
    Unlike {!add_table} this leaves {!version} unchanged — temps are paired
    with {!remove_table} around a single query and never outlive it. *)
val add_temp :
  t ->
  ?keys:string list list ->
  ?fds:(string list * string list) list ->
  ?nonneg:string list ->
  string ->
  Relation.t ->
  unit

val remove_table : t -> string -> unit

(** {2 Derived state}

    Each fact below is computed at most once per table version and is
    safe to read from several domains at once. *)

(** [column_numeric tbl i]: every value of column [i] is an [Int], a
    [Float] or NULL.  A column-primary table reads it off the column's zone
    map, a row-primary one scans the column once (either counted in
    [catalog.domain_builds]); {!append_rows} checks only the appended
    values. *)
val column_numeric : table -> int -> bool

(** [column_float tbl i]: every value of column [i] is a [Float] or NULL,
    and one is a [Float] (a column-primary table reads the column's block
    kind).  Built once per table version like {!column_numeric};
    {!append_rows} checks only the appended values. *)
val column_float : table -> int -> bool

(** The table's {!Stats.t}, built once per table version (counted in
    [catalog.stats_builds]).  A missing one is made by [on_build make], so
    the caller can time the build; by default [make ()]. *)
val stats : ?on_build:((unit -> Stats.t) -> Stats.t) -> table -> Stats.t

(** [range_count tbl ~cols ~on_build]: the range-count structure over the
    column positions [cols] (x first), kept until the table record is
    replaced or its indexes change.  A table keeps the structures of its
    four most recently used column lists; an older one is rebuilt on its
    next use.  A missing one is made by
    [on_build make]: [make] takes the x order from the table's index led by
    x when there is one and sorts the rows otherwise, and [on_build] lets
    the caller time and count the build. *)
val range_count :
  table ->
  cols:int list ->
  on_build:((unit -> Index.Range_count.t) -> Index.Range_count.t) ->
  Index.Range_count.t
