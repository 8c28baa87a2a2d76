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

let add_table t ?(keys = []) ?(fds = []) ?(nonneg = []) name rel =
  bump t;
  Hashtbl.replace t.tables (norm name)
    { name; rel; keys; fds; nonneg; indexes = []; gen = Atomic.get t.version }

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

let build_sorted_index t name cols =
  bump t;
  let tbl = find t name in
  let idx = Index.Sorted.build tbl.rel (col_idxs tbl cols) in
  tbl.indexes <- idx :: tbl.indexes;
  tbl.gen <- Atomic.get t.version

let drop_indexes t name =
  bump t;
  let tbl = find t name in
  tbl.indexes <- [];
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
    { tbl with rel; indexes = []; gen = Atomic.get t.version };
  rebuild_indexes t name index_cols

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
    Hashtbl.replace t.tables (norm name) { tbl with rel; indexes = [] };
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
  Hashtbl.replace t.tables (norm name)
    { tbl with rel = Relation.to_layout layout tbl.rel; gen = Atomic.get t.version }

let set_all_layouts t layout =
  List.iter (fun name -> set_layout t name layout) (table_names t)

(* Temp add/remove must cancel out version-wise: a CTE query registering a
   transient table would otherwise flush every version-keyed cache. *)
let add_temp t ?keys ?fds ?nonneg name rel =
  add_table t ?keys ?fds ?nonneg name rel;
  ignore (Atomic.fetch_and_add t.version (-1))

let remove_table t name = Hashtbl.remove t.tables (norm name)
