(* Facts about one table version that queries used to recompute: each is
   filled on first use, under [mu] because the server plans and executes
   from several domains, and lives as long as the table record.  Every new
   record ([add_table], [add_temp], [replace_rows], [append_rows],
   [set_layout]) gets its own slot, so a [{ tbl with … }] copy never shares
   one with the record it replaces, and [remove_table] drops a CTE's. *)
type derived = {
  mu : Mutex.t;
  numeric : bool option array;
      (* per column: every value is an Int, a Float or NULL *)
  floats : bool option array;
      (* per column: every value is a Float or NULL, and one is a Float *)
  mutable stats : Stats.t option;
  mutable range_counts : (int list * Index.Range_count.t) list;
      (* by column positions, x first, most recently used first; at most
         [range_counts_kept]; dropped by index build/drop *)
}

(* Each structure is O(rows · columns), and a server answers arbitrary
   column lists, so a table keeps only its most recently used few; a
   column list pushed out is rebuilt on its next use. *)
let range_counts_kept = 4

type table = {
  name : string;
  rel : Relation.t;
  keys : string list list;
  fds : (string list * string list) list;
  nonneg : string list;
  mutable indexes : Index.Sorted.t list;
  (* Structural generation: bumped by anything that rewrites or reorganizes
     existing rows (replace, layout change, index build/drop) but NOT by
     [append_rows].  Together with the row count it forms the table's
     {!stamp}: same gen + larger count = "the rows you saw plus a delta". *)
  mutable gen : int;
  temp : bool;
  derived : derived;
}

let fresh_derived rel =
  {
    mu = Mutex.create ();
    numeric = Array.make (Schema.arity rel.Relation.schema) None;
    floats = Array.make (Schema.arity rel.Relation.schema) None;
    stats = None;
    range_counts = [];
  }

type stamp = { s_gen : int; s_len : int }

type t = {
  tables : (string, table) Hashtbl.t;
  (* Monotone data version, bumped by every mutation of base-table contents
     (add/replace/layout/index changes).  Cache keys derived from catalog
     contents (the server's plan/result caches) include it, so a mutation
     invalidates them without any registration machinery.  Transient CTE
     temp registration ([add_temp]/[remove_table]) does not bump: temps are
     paired add/remove around one query and never outlive it. *)
  version : int Atomic.t;
}

let create () = { tables = Hashtbl.create 16; version = Atomic.make 0 }

let version t = Atomic.get t.version

let bump t = Atomic.incr t.version

let norm = String.lowercase_ascii

let register t ~temp ?(keys = []) ?(fds = []) ?(nonneg = []) name rel =
  bump t;
  Hashtbl.replace t.tables (norm name)
    {
      name;
      rel;
      keys;
      fds;
      nonneg;
      indexes = [];
      gen = Atomic.get t.version;
      temp;
      derived = fresh_derived rel;
    }

let add_table t = register t ~temp:false

let find_opt t name = Hashtbl.find_opt t.tables (norm name)

let find t name =
  match find_opt t name with
  | Some tbl -> tbl
  | None -> invalid_arg (Printf.sprintf "Catalog: unknown table %s" name)

let mem t name = Hashtbl.mem t.tables (norm name)

let table_names t = Hashtbl.fold (fun _ tbl acc -> tbl.name :: acc) t.tables []

let all_fds tbl =
  let all_cols = List.map (fun c -> c.Schema.name) (Schema.cols tbl.rel.Relation.schema) in
  List.map (fun k -> (k, all_cols)) tbl.keys @ tbl.fds

let is_nonneg tbl col = List.mem col tbl.nonneg

let col_idxs tbl cols =
  List.map (fun c -> Schema.index_of tbl.rel.Relation.schema c) cols

(* An index change can change the x order a range count takes, so the
   next use rebuilds the structure. *)
let drop_range_counts tbl =
  Mutex.protect tbl.derived.mu (fun () -> tbl.derived.range_counts <- [])

let build_sorted_index t name cols =
  bump t;
  let tbl = find t name in
  let idx = Index.Sorted.build tbl.rel (col_idxs tbl cols) in
  tbl.indexes <- idx :: tbl.indexes;
  drop_range_counts tbl;
  tbl.gen <- Atomic.get t.version

let drop_indexes t name =
  bump t;
  let tbl = find t name in
  tbl.indexes <- [];
  drop_range_counts tbl;
  tbl.gen <- Atomic.get t.version

let saved_index_cols tbl =
  List.map
    (fun idx ->
      List.map
        (fun i -> (Schema.nth tbl.rel.Relation.schema i).Schema.name)
        (Index.Sorted.key_idxs idx))
    tbl.indexes

let rebuild_indexes t name index_cols =
  List.iter (build_sorted_index t name) index_cols

let replace_rows t name rel =
  bump t;
  let tbl = find t name in
  let index_cols = saved_index_cols tbl in
  Hashtbl.replace t.tables (norm name)
    { tbl with rel; indexes = []; gen = Atomic.get t.version; derived = fresh_derived rel };
  rebuild_indexes t name index_cols

let numeric_or_null = function
  | Value.Int _ | Value.Float _ | Value.Null -> true
  | Value.Str _ | Value.Bool _ -> false

let float_or_null = function
  | Value.Float _ | Value.Null -> true
  | Value.Int _ | Value.Str _ | Value.Bool _ -> false

(* A grown table's slot: a column known numeric (or all Float) stays so
   iff every appended value is; a column known not all Float stays so.
   The statistics and range counts are rebuilt on their next use. *)
let carried d rel fresh =
  let d' = fresh_derived rel in
  let carry known' known ok =
    Array.iteri
      (fun i k ->
        known'.(i) <-
          (match k with
           | Some true -> Some (Array.for_all (fun row -> ok row.(i)) fresh)
           | Some false | None -> k))
      known
  in
  Mutex.protect d.mu (fun () ->
      carry d'.numeric d.numeric numeric_or_null;
      carry d'.floats d.floats float_or_null);
  d'

(* O(delta) append: the generation survives, so stamps taken before the
   append remain the "old prefix" of the grown table and [delta_since]
   can hand back exactly the fresh rows. *)
let append_rows t name fresh =
  if Array.length fresh > 0 then begin
    bump t;
    let tbl = find t name in
    let gen = tbl.gen in
    let index_cols = saved_index_cols tbl in
    let rel = Relation.append tbl.rel fresh in
    Hashtbl.replace t.tables (norm name)
      { tbl with rel; indexes = []; derived = carried tbl.derived rel fresh };
    rebuild_indexes t name index_cols;
    (* index rebuilds bump gen as a structural change; an append's rebuild
       re-covers an unchanged prefix plus new rows, so the gen survives *)
    (find t name).gen <- gen
  end

let stamp t name =
  let tbl = find t name in
  { s_gen = tbl.gen; s_len = Relation.cardinality tbl.rel }

let stamps t names = List.map (fun n -> (norm n, stamp t n)) names

let delta_since t name (s : stamp) =
  match find_opt t name with
  | None -> `Invalid
  | Some tbl ->
    let n = Relation.cardinality tbl.rel in
    if tbl.gen <> s.s_gen || s.s_len > n then `Invalid
    else `Delta (Relation.slice_from tbl.rel s.s_len)

let sorted_index_on tbl col =
  List.find_opt
    (fun idx ->
      match Index.Sorted.key_idxs idx with
      | i :: _ -> (Schema.nth tbl.rel.Relation.schema i).Schema.name = col
      | [] -> false)
    tbl.indexes

(* Convert a table to the given physical layout in place.  Indexes hold
   their own row references and stay valid either way. *)
let set_layout t name layout =
  bump t;
  let tbl = find t name in
  let rel = Relation.to_layout layout tbl.rel in
  Hashtbl.replace t.tables (norm name)
    { tbl with rel; gen = Atomic.get t.version; derived = fresh_derived rel }

let set_all_layouts t layout =
  List.iter (fun name -> set_layout t name layout) (table_names t)

(* Temp add/remove must cancel out version-wise: a CTE query registering a
   transient table would otherwise flush every version-keyed cache. *)
let add_temp t ?keys ?fds ?nonneg name rel =
  register t ~temp:true ?keys ?fds ?nonneg name rel;
  ignore (Atomic.fetch_and_add t.version (-1))

let remove_table t name = Hashtbl.remove t.tables (norm name)

(* ---- derived state ---- *)

let m_domain_builds = Obs.Metrics.counter "catalog.domain_builds"
let m_stats_builds = Obs.Metrics.counter "catalog.stats_builds"

let with_derived tbl f = Mutex.protect tbl.derived.mu (fun () -> f tbl.derived)

let column_numeric tbl i =
  with_derived tbl (fun d ->
      match d.numeric.(i) with
      | Some known -> known
      | None ->
        Obs.Metrics.incr m_domain_builds;
        let known =
          match Relation.cstore_opt tbl.rel with
          | Some cs ->
            (* The column's zone map knows the value domain.  Both ends
               must be numeric: values order by type rank, so a mixed
               column hides its strings at [max_v] (and its bools at
               [min_v]) while the other bound still looks numeric. *)
            let zm = Column.Cstore.col_zmap cs i in
            numeric_or_null zm.Column.Zmap.min_v && numeric_or_null zm.Column.Zmap.max_v
          | None -> Array.for_all (fun row -> numeric_or_null row.(i)) (Relation.rows tbl.rel)
        in
        d.numeric.(i) <- Some known;
        known)

let column_float tbl i =
  with_derived tbl (fun d ->
      match d.floats.(i) with
      | Some known -> known
      | None ->
        Obs.Metrics.incr m_domain_builds;
        let known =
          match Relation.cstore_opt tbl.rel with
          | Some cs -> Column.Cstore.col_kind cs i = Column.Cstore.K_float
          | None ->
            let rows = Relation.rows tbl.rel in
            Array.for_all (fun row -> float_or_null row.(i)) rows
            && Array.exists (fun row -> row.(i) <> Value.Null) rows
        in
        d.floats.(i) <- Some known;
        known)

let stats ?(on_build = fun make -> make ()) tbl =
  with_derived tbl (fun d ->
      match d.stats with
      | Some s -> s
      | None ->
        Obs.Metrics.incr m_stats_builds;
        let s = on_build (fun () -> Stats.of_relation tbl.rel) in
        d.stats <- Some s;
        s)

let range_count tbl ~cols ~on_build =
  with_derived tbl (fun d ->
      match List.assoc_opt cols d.range_counts with
      | Some rc ->
        d.range_counts <- (cols, rc) :: List.remove_assoc cols d.range_counts;
        rc
      | None ->
        let x = match cols with c :: _ -> c | [] -> invalid_arg "Catalog.range_count" in
        let led idx = match Index.Sorted.key_idxs idx with k :: _ -> k = x | [] -> false in
        let rc =
          on_build (fun () ->
              match List.find_opt led tbl.indexes with
              | Some idx -> Index.Range_count.of_sorted idx ~cols
              | None -> Index.Range_count.build (Relation.rows tbl.rel) ~cols)
        in
        d.range_counts <- List.filteri (fun i _ -> i < range_counts_kept) ((cols, rc) :: d.range_counts);
        rc)
