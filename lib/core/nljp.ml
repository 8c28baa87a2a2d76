open Relalg
open Sqlfront

type config = {
  pruning : bool;
  memo : bool;
  cache_index : bool;
  inner_index : bool;
  outer_order : [ `Default | `Auto | `Asc of int | `Desc of int ];
  max_cache_rows : int option;
  workers : int;
}

let default_config =
  {
    pruning = true;
    memo = true;
    cache_index = true;
    inner_index = true;
    outer_order = `Default;
    max_cache_rows = None;
    workers = 1;
  }

type index_source = Catalog_index of Index.Sorted.t | Built_per_execution

(* The inner side's access path for Q_R(b), as [choose_access] decided it:
   each case carries what [execute] builds its structure from. *)
type access =
  | A_hash of (Schema.col * Expr.t) list
  | A_range_count of {
      cols : Schema.col list;
      box : (Schema.col * Expr.cmp * Expr.t) list;
      disjunction : (Schema.col * Expr.cmp * Expr.t) list;
      source : index_source;
    }
  | A_scan

let access_to_string =
  let source_name = function
    | Catalog_index _ -> "catalog"
    | Built_per_execution -> "built per execution"
  in
  function
  | A_hash probes ->
    let n = List.length probes in
    Printf.sprintf "hash probe (%d equality conjunct%s)" n (if n = 1 then "" else "s")
  | A_range_count { cols; source; _ } ->
    Printf.sprintf "range count on %s (%s)"
      (String.concat ", " (List.map Qspec.col_name cols))
      (source_name source)
  | A_scan -> "row scan"

type stats = {
  mutable outer_rows : int;
  mutable inner_evals : int;
  mutable pruned : int;
  mutable memo_hits : int;
  mutable prune_cache_rows : int;
  mutable memo_cache_rows : int;
  mutable cache_bytes : int;
  mutable pruning_on : bool;
  mutable memo_on : bool;
  mutable access : access;
  mutable waves : int;
  mutable notes : string list;
}

let fresh_stats () =
  {
    outer_rows = 0;
    inner_evals = 0;
    pruned = 0;
    memo_hits = 0;
    prune_cache_rows = 0;
    memo_cache_rows = 0;
    cache_bytes = 0;
    pruning_on = false;
    memo_on = false;
    access = A_scan;
    waves = 0;
    notes = [];
  }

(* The counters each chunk keeps, one entry per counter: the name the
   [NLJP probe loop] span reports it under, its global metric mirror
   (DESIGN.md §9, bumped once per [execute] on the spawning domain so
   Runner and the bench read every NLJP counter from the one obs registry)
   and the [stats] field, as a reader and a writer. *)
let chunk_counters =
  let c name get set = (name, Obs.Metrics.counter ("nljp." ^ name), get, set) in
  [ c "outer_rows" (fun s -> s.outer_rows) (fun s v -> s.outer_rows <- v);
    c "inner_evals" (fun s -> s.inner_evals) (fun s v -> s.inner_evals <- v);
    c "pruned" (fun s -> s.pruned) (fun s v -> s.pruned <- v);
    c "memo_hits" (fun s -> s.memo_hits) (fun s v -> s.memo_hits <- v) ]

let m_prune_cache_rows = Obs.Metrics.counter "nljp.prune_cache_rows"
let m_memo_cache_rows = Obs.Metrics.counter "nljp.memo_cache_rows"
let m_cache_bytes = Obs.Metrics.counter "nljp.cache_bytes"
let m_waves = Obs.Metrics.counter "nljp.waves"
let m_range_count_builds = Obs.Metrics.counter "nljp.range_count_builds"

type t = {
  catalog : Catalog.t;
  spec : Qspec.t;
  overrides : (string * Ast.table_ref) list;
  config : config;
  cls : Monotone.t;
  key_case : bool;  (* G_L → A_L *)
  all_aggs : Ast.agg list;
  subsume : Subsume.t option;
  prune_reason : string option;  (* why pruning is off, if it is *)
  memo_reason : string option;
  numeric_theta : (Schema.col * bool) list;
      (* build-time numeric judgement of Θ's columns: p⪰'s arithmetic was
         derived under it, so [delta_refresh] rechecks it after appends *)
  eq_dims : int list;
      (* binding dimensions on which p⪰ implies equality (CI on) *)
  ci_restrict : [ `W_le_wp | `Wp_le_w ] option;
      (* with no [eq_dims], the order p⪰ implies on a numeric first binding
         column (CI on) *)
  auto_order : [ `Default | `Asc of int | `Desc of int ];
      (* the Q_B order [`Auto] stands for *)
}

(* ---- build-time checks ---- *)

let row_bytes row =
  24 + Array.fold_left (fun a v -> a + Value.approx_bytes v) 0 row

(* Sample a column's type from its owning base table. *)
let col_numeric catalog (spec : Qspec.t) col =
  let find_in (side : Qspec.side) =
    match col.Schema.qualifier with
    | None -> None
    | Some alias ->
      List.find_opt (fun (_, a) -> String.equal a alias) side.Qspec.tables
  in
  let owner =
    match find_in spec.Qspec.left with
    | Some x -> Some x
    | None -> find_in spec.Qspec.right
  in
  match owner with
  | None -> false
  | Some (tname, _) ->
    let tbl = Catalog.find catalog tname in
    (match Schema.index_of tbl.Catalog.rel.Relation.schema col.Schema.name with
     | exception Schema.Unknown_column _ -> false
     | idx ->
       let numeric_or_null = function
         | Value.Int _ | Value.Float _ | Value.Null -> true
         | Value.Str _ | Value.Bool _ -> false
       in
       (match Relation.cstore_opt tbl.Catalog.rel with
        | Some cs ->
          (* Columnar table: the column-level zone map already knows the
             value domain.  Both ends must be numeric: values order by type
             rank, so a mixed column hides its strings at [max_v] (and its
             bools at [min_v]) while the other bound still looks numeric. *)
          let zm = Column.Cstore.col_zmap cs idx in
          numeric_or_null zm.Column.Zmap.min_v
          && numeric_or_null zm.Column.Zmap.max_v
        | None ->
          (* Every value must be checked: sampling the first non-null row
             would misjudge a mixed column that happens to lead with a
             number, and the subsumption arithmetic downstream is only
             sound if no string can flow into an ordered comparison. *)
          let rows = Relation.rows tbl.Catalog.rel in
          let rec all i =
            i >= Array.length rows
            || (numeric_or_null rows.(i).(idx) && all (i + 1))
          in
          all 0))

let build ?(overrides = []) catalog (spec : Qspec.t) config =
  if not (Qspec.pred_applicable spec.Qspec.right spec.Qspec.having) then
    Error "HAVING condition is not applicable to the inner side"
  else if not (Qspec.lambda_applicable spec) then
    Error "SELECT aggregates must range over the inner side only"
  else begin
    let cls =
      Monotone.classify ~nonneg:(Qspec.col_nonneg catalog spec) spec.Qspec.having
    in
    let left = spec.Qspec.left in
    let key_case = Qspec.outer_group_is_key spec in
    (* Pruning conditions (Theorem 3). *)
    let prune_reason =
      if not config.pruning then Some "disabled by configuration"
      else if not key_case then Some "G_L is not a superkey of the outer side"
      else if
        Monotone.is_anti_monotone cls
        && spec.Qspec.right.Qspec.group_cols <> []
      then Some "anti-monotone HAVING requires no inner-side GROUP BY columns"
      else if cls = Monotone.Neither then
        Some "HAVING condition is neither monotone nor anti-monotone"
      else None
    in
    let subsume =
      match prune_reason with
      | Some _ -> None
      | None ->
        let theta =
          Expr.canonicalize
            (Schema.append left.Qspec.schema spec.Qspec.right.Qspec.schema)
            (Qspec.theta_expr catalog spec)
        in
        Subsume.derive ~theta ~jl:left.Qspec.join_cols
          ~jr:spec.Qspec.right.Qspec.join_cols
          ~numeric:(col_numeric catalog spec)
    in
    let prune_reason =
      match prune_reason, subsume with
      | Some r, _ -> Some r
      | None, None -> Some "no subsumption predicate derivable from Θ"
      | None, Some _ -> None
    in
    (* Memoization conditions (§6 / Appendix C). *)
    let all_aggs = Qspec.all_aggs spec in
    let algebraic_ok =
      key_case
      || List.for_all
           (fun a -> Relalg.Agg.is_algebraic (Sqlfront.Binder.agg_func a))
           all_aggs
    in
    let jl_key =
      (* J_L → A_L means bindings are distinct: memoization cannot pay off. *)
      Qspec.superkey left (List.map Qspec.col_name left.Qspec.join_cols)
    in
    let memo_reason =
      if not config.memo then Some "disabled by configuration"
      else if not algebraic_ok then
        Some "non-algebraic aggregate with G_L not a key of the outer side"
      else if jl_key then Some "J_L determines the outer side: bindings never repeat"
      else None
    in
    if (not key_case) && not algebraic_ok then
      Error "non-algebraic aggregates with G_L not a key cannot be combined"
    else begin
      (* p⪰'s order on each binding dimension i — whether it implies
         w_i ≤ w'_i, and whether w'_i ≤ w_i — decided once per operator:
         it fixes the prune cache's layout and the [`Auto] outer order. *)
      let dim_order =
        match subsume with
        | None -> [||]
        | Some su ->
          let implies a b =
            Qelim.Qe.implies_atom su.Subsume.formula
              (Qelim.Atom.le (Qelim.Linexpr.var a) (Qelim.Linexpr.var b))
          in
          Array.init (List.length left.Qspec.join_cols) (fun i ->
              let w = Printf.sprintf "w%d" i and wp = Printf.sprintf "wp%d" i in
              (implies w wp, implies wp w))
      in
      let order0 = if dim_order = [||] then (false, false) else dim_order.(0) in
      (* Binding dimensions on which p⪰ implies equality: only cache entries
         agreeing with the probe there can ever match, so partition on them. *)
      let eq_dims =
        if not config.cache_index then []
        else
          List.filter
            (fun i -> fst dim_order.(i) && snd dim_order.(i))
            (List.init (Array.length dim_order) Fun.id)
      in
      (* With no equality dimensions, CI falls back to ordering the cache by
         the first binding column when p⪰ constrains its order. *)
      let ci_restrict =
        let first_binding_numeric =
          match left.Qspec.join_cols with
          | [] -> false
          | c :: _ -> col_numeric catalog spec c
        in
        if subsume = None || (not config.cache_index) || eq_dims <> []
           || not first_binding_numeric
        then None
        else
          match order0 with
          | true, _ -> Some `W_le_wp
          | false, true -> Some `Wp_le_w
          | false, false -> None
      in
      (* [`Auto] wants the most-subsuming bindings first so the cache fills
         with maximally useful unpromising entries: with an anti-monotone Φ
         a binding b prunes when b ⪰ cached, so cache ⪰-small entries early
         — if p⪰ implies w0 ≤ wp0 ("subsuming means smaller"), that is
         descending order on the first binding column; the monotone case
         and the opposite p⪰ direction mirror this. *)
      let auto_order =
        let anti = Monotone.is_anti_monotone cls in
        match order0 with
        | true, false -> if anti then `Desc 0 else `Asc 0
        | false, true -> if anti then `Asc 0 else `Desc 0
        | _ -> `Default
      in
      let numeric_theta =
        match
          Expr.canonicalize
            (Schema.append left.Qspec.schema spec.Qspec.right.Qspec.schema)
            (Qspec.theta_expr catalog spec)
        with
        | theta ->
          List.map (fun c -> (c, col_numeric catalog spec c)) (Expr.columns theta)
        | exception _ -> []
      in
      Ok
        {
          catalog;
          spec;
          overrides;
          config;
          cls;
          key_case;
          all_aggs;
          subsume;
          prune_reason;
          memo_reason;
          numeric_theta;
          eq_dims;
          ci_restrict;
          auto_order;
        }
    end
  end

(* ---- pruning cache ---- *)

module Prune_cache = struct
  (* Three physical layouts for the cache of unpromising bindings:
     - [Partitioned]: p⪰ implies equality on some binding dimensions
       (equality Θ conjuncts), so only cache entries agreeing with the probe
       on those dimensions can match — hash-partition on them (this is what
       makes pruning effective for the "complex" query, whose p⪰ equates
       category and both attr dimensions);
     - [Sorted]: CI configuration with a numeric first binding column whose
       order is constrained by p⪰ — binary-search to a candidate range;
     - [Flat]: plain list scan. *)
  type restrict = All | Le of float | Ge of float

  type sorted = {
    mutable rows : Row.t array;
    mutable keys : float array;
    mutable len : int;
    (* Unsorted append buffer: [add] lands here in O(1) instead of an
       O(len) [Array.blit] shifted insertion per entry, and is merged into
       the sorted arrays only when the buffer fills.  [exists] scans the
       (bounded) buffer linearly on top of the binary search, so probes
       stay strictly read-only — worker domains scan a frozen shared cache
       concurrently. *)
    mutable brows : Row.t array;
    mutable bkeys : float array;
    mutable blen : int;
    key_of : Row.t -> float;
  }

  type t =
    | Flat of { mutable items : Row.t list; mutable n : int }
    | Sorted of sorted
    | Partitioned of {
        dims : int list;
        tbl : Row.t list ref Row.Tbl.t;
        mutable n : int;
      }

  let flat () = Flat { items = []; n = 0 }

  let sorted ~key_of =
    Sorted
      {
        rows = Array.make 64 [||];
        keys = Array.make 64 0.;
        len = 0;
        brows = Array.make 64 [||];
        bkeys = Array.make 64 0.;
        blen = 0;
        key_of;
      }

  let partitioned dims = Partitioned { dims; tbl = Row.Tbl.create 256; n = 0 }

  (* Sort the buffer and merge the two sorted runs in one pass. *)
  let flush t =
    if t.blen > 0 then begin
      let n = t.blen in
      let idx = Array.init n Fun.id in
      Array.sort (fun i j -> Float.compare t.bkeys.(i) t.bkeys.(j)) idx;
      let total = t.len + n in
      let cap = max total (Array.length t.rows) in
      let rows = Array.make cap [||] and keys = Array.make cap 0. in
      let i = ref 0 and j = ref 0 in
      for k = 0 to total - 1 do
        if !i < t.len && (!j >= n || t.keys.(!i) <= t.bkeys.(idx.(!j))) then begin
          rows.(k) <- t.rows.(!i);
          keys.(k) <- t.keys.(!i);
          incr i
        end
        else begin
          rows.(k) <- t.brows.(idx.(!j));
          keys.(k) <- t.bkeys.(idx.(!j));
          incr j
        end
      done;
      t.rows <- rows;
      t.keys <- keys;
      t.len <- total;
      t.blen <- 0
    end

  (* First position whose key is >= k (resp. > k). *)
  let lower_bound t k =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if t.keys.(mid) < k then go (mid + 1) hi else go lo mid
    in
    go 0 t.len

  let upper_bound t k =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if t.keys.(mid) <= k then go (mid + 1) hi else go lo mid
    in
    go 0 t.len

  let add cache row =
    match cache with
    | Flat f ->
      f.items <- row :: f.items;
      f.n <- f.n + 1
    | Sorted t ->
      t.brows.(t.blen) <- row;
      t.bkeys.(t.blen) <- t.key_of row;
      t.blen <- t.blen + 1;
      if t.blen = Array.length t.brows then flush t
    | Partitioned p ->
      let key = Row.project row p.dims in
      (match Row.Tbl.find_opt p.tbl key with
       | Some cell -> cell := row :: !cell
       | None -> Row.Tbl.add p.tbl key (ref [ row ]));
      p.n <- p.n + 1

  (* Does any candidate cache row satisfy [test]?  [probe] is the binding
     being tested (used to locate the partition / range). *)
  let exists cache ~probe ~restrict test =
    match cache with
    | Flat f -> List.exists test f.items
    | Sorted t ->
      let lo, hi =
        match restrict with
        | All -> (0, t.len)
        | Le k -> (0, upper_bound t k)
        | Ge k -> (lower_bound t k, t.len)
      in
      let rec go i = i < hi && (test t.rows.(i) || go (i + 1)) in
      let in_range k =
        match restrict with All -> true | Le b -> k <= b | Ge b -> k >= b
      in
      let rec go_buf i =
        i < t.blen && ((in_range t.bkeys.(i) && test t.brows.(i)) || go_buf (i + 1))
      in
      go lo || go_buf 0
    | Partitioned p ->
      (match Row.Tbl.find_opt p.tbl (Row.project probe p.dims) with
       | None -> false
       | Some cell -> List.exists test !cell)

  let length = function
    | Flat f -> f.n
    | Sorted t -> t.len + t.blen
    | Partitioned p -> p.n

  let iter cache f =
    match cache with
    | Flat fl -> List.iter f fl.items
    | Sorted t ->
      for i = 0 to t.len - 1 do
        f t.rows.(i)
      done;
      for i = 0 to t.blen - 1 do
        f t.brows.(i)
      done
    | Partitioned p -> Row.Tbl.iter (fun _ cell -> List.iter f !cell) p.tbl

  (* Drop every entry failing [keep], preserving layout invariants (sorted
     order survives filtering; partition cells are trimmed and emptied cells
     removed).  Returns the number of entries dropped.  Single-threaded:
     callers must not overlap this with probes (the server refreshes under
     the same exclusive lock it appends under). *)
  let filter_in_place cache keep =
    match cache with
    | Flat f ->
      let items = List.filter keep f.items in
      let n' = List.length items in
      let dropped = f.n - n' in
      f.items <- items;
      f.n <- n';
      dropped
    | Sorted t ->
      flush t;
      let k = ref 0 in
      for i = 0 to t.len - 1 do
        if keep t.rows.(i) then begin
          t.rows.(!k) <- t.rows.(i);
          t.keys.(!k) <- t.keys.(i);
          incr k
        end
      done;
      let dropped = t.len - !k in
      for i = !k to t.len - 1 do
        t.rows.(i) <- [||]
      done;
      t.len <- !k;
      dropped
    | Partitioned p ->
      let dropped = ref 0 in
      let dead = ref [] in
      Row.Tbl.iter
        (fun key cell ->
          let kept = List.filter keep !cell in
          dropped := !dropped + (List.length !cell - List.length kept);
          if kept = [] then dead := key :: !dead else cell := kept)
        p.tbl;
      List.iter (Row.Tbl.remove p.tbl) !dead;
      p.n <- p.n - !dropped;
      !dropped

  let bytes cache =
    match cache with
    | Flat f -> List.fold_left (fun acc r -> acc + row_bytes r) 0 f.items
    | Sorted t ->
      let total = ref (8 * (t.len + t.blen)) in
      for i = 0 to t.len - 1 do
        total := !total + row_bytes t.rows.(i)
      done;
      for i = 0 to t.blen - 1 do
        total := !total + row_bytes t.brows.(i)
      done;
      !total
    | Partitioned p ->
      Row.Tbl.fold
        (fun key cell acc ->
          acc + row_bytes key
          + List.fold_left (fun acc r -> acc + row_bytes r) 0 !cell)
        p.tbl 0
end

(* ---- execution ---- *)

type partition = { v : Row.t; states : Agg.state list; finals : Value.t array }

(* What a chunk has learnt about one binding: Q_R(b)'s partitions, from its
   own evaluation or the shared memo, or that Q_C pruned it. *)
type verdict = Memo of partition list | Pruned

(* Everything one outer-relation chunk produces; chunks are combined in
   chunk order so results are deterministic regardless of [workers]. *)
type chunk_out = {
  c_rows : Row.t list;  (* key-case emissions, in chunk order *)
  c_acc : (Row.t * Row.t * Agg.state list) Row.Tbl.t;  (* non-key partials *)
  c_prune : Prune_cache.t;
  c_memo : partition list Row.Tbl.t;
  c_stats : stats;
}

(* Cross-query shared cache tier (the server's plan cache owns one per
   cached operator): prune/memo caches that outlive a single [execute],
   lazily shaped on first use because the prune cache's structure
   (flat/sorted/partitioned) is derived per operator. *)
type shared_cache = {
  mutable sc_prune : Prune_cache.t option;
  mutable sc_memo : partition list Row.Tbl.t option;
}

let shared_cache () = { sc_prune = None; sc_memo = None }

let shared_cache_rows sc =
  ( (match sc.sc_prune with Some p -> Prune_cache.length p | None -> 0),
    match sc.sc_memo with Some m -> Row.Tbl.length m | None -> 0 )

(* J_L's positions in [outer], the binding schema they project, and Θ
   resolved against that binding and [inner]. *)
let binding_theta catalog (spec : Qspec.t) ~outer ~inner =
  let jl_idx =
    List.map (fun c -> Schema.index_of_col outer c) spec.Qspec.left.Qspec.join_cols
  in
  let binding = Schema.project outer jl_idx in
  (jl_idx, binding,
   Expr.canonicalize (Schema.append binding inner) (Qspec.theta_expr catalog spec))

(* Q_R(b) as a k-D dominance count: G_R = ∅, every aggregate a COUNT of
   every row, and Θ a conjunction of [r_col op f(b)] range bounds on k ≥ 2
   inner columns, plus at most one disjunction of such bounds, each on a
   column the conjunction bounds (the skyband's [x > f(b) OR y > g(b)], the
   pairs' 4-way OR).  Returns the bounded columns in order of first
   appearance, the bounds and the disjunction's bounds, or why the shape
   misses. *)
let range_count_shape ~binding ~inner ~theta ~aggs ~group_cols =
  let ( let* ) = Result.bind in
  let probe conj =
    Option.map
      (fun (i, cmp, f) -> (Schema.nth inner i, cmp, f))
      (Compile.inner_probe ~binding ~inner conj)
  in
  let range conj =
    match probe conj with
    | Some (_, (Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge), _) as b -> b
    | _ -> None
  in
  let rec disjuncts = function Expr.Or (p, q) -> disjuncts p @ disjuncts q | e -> [ e ] in
  let* () = if group_cols = [] then Ok () else Error "inner GROUP BY columns (G_R)" in
  let* () =
    match
      List.find_opt
        (fun f ->
          match f with
          | Agg.Count_star -> false
          | Agg.Count (Expr.Const v) -> Value.is_null v
          | _ -> true)
        aggs
    with
    | Some f -> Error (Agg.to_string f ^ " is not COUNT(*)")
    | None -> Ok ()
  in
  let* box, disjunctions =
    List.fold_left
      (fun acc conj ->
        let* box, ors = acc in
        match conj, range conj with
        | Expr.Const (Value.Bool true), _ -> Ok (box, ors)
        | _, Some b -> Ok (b :: box, ors)
        | Expr.Or _, None ->
          let ds = List.map range (disjuncts conj) in
          if List.for_all Option.is_some ds then Ok (box, List.filter_map Fun.id ds :: ors)
          else Error "Θ has a disjunction outside the bound shape"
        | _ -> Error "Θ has a conjunct outside the range-bound shape")
      (Ok ([], [])) (Expr.conjuncts theta)
  in
  let box = List.rev box in
  let cols =
    List.fold_left (fun acc (c, _, _) -> if List.mem c acc then acc else acc @ [ c ]) [] box
  in
  match cols, disjunctions with
  | ([] | [ _ ]), _ ->
    let n = List.length cols in
    Error (Printf.sprintf "bounds span %d inner column%s" n (if n = 1 then "" else "s"))
  | _, [] -> Ok (cols, box, [])
  | _, [ ds ] ->
    if List.for_all (fun (c, _, _) -> List.mem c cols) ds then Ok (cols, box, ds)
    else Error "a disjunct bounds an inner column the conjunction does not"
  | _ -> Error "Θ has more than one disjunction"

(* The inner access path for Q_R(b), in priority order: hash probe on the
   equality Θ conjuncts [r_col = f(b)] (what the paper gets from PostgreSQL
   preparing Q_R once) ≻ range count (a k-D dominance COUNT answered from a
   block-sorted structure, no range walked; it needs BT,
   [config.inner_index]) ≻ row scan.  Decided from the spec, the inner base
   table, its catalog indexes and the config alone — no side query is
   materialized — so [execute] runs it and EXPLAIN prints it.  The notes say
   why the range count was rejected when Θ has range bounds but no equality.

   The range count takes its x order from the catalog's BT index when Q_R is
   a bare base table (one table, no local predicate, no a-priori override)
   with an index led by one of its columns: Q_R's rows are then the table's
   rows at the same positions.  A transferred Bloom filter cannot narrow
   such a side in a way that matters — it only drops rows that match no
   binding.  Any other inner side is sorted per execution.  The catalog
   index is read at each call, never kept in a prepared operator, so appends
   (which rebuild it) are seen. *)
let choose_access op =
  let { catalog; spec; overrides; config; _ } = op in
  let right = spec.Qspec.right in
  let r_schema = right.Qspec.schema in
  let _, binding, theta =
    binding_theta catalog spec ~outer:spec.Qspec.left.Qspec.schema ~inner:r_schema
  in
  let probes =
    List.filter_map
      (fun conj ->
        Option.map
          (fun (i, cmp, f) -> (Schema.nth r_schema i, cmp, f))
          (Compile.inner_probe ~binding ~inner:r_schema conj))
      (Expr.conjuncts theta)
  in
  let eqs =
    List.filter_map
      (fun (c, cmp, f) -> if cmp = Expr.Eq then Some (c, f) else None)
      probes
  in
  let aggs = List.map Binder.agg_func op.all_aggs in
  let catalog_index col =
    match right.Qspec.tables with
    | [ (tname, alias) ]
      when right.Qspec.local = [] && not (List.mem_assoc alias overrides) ->
      Catalog.sorted_index_on (Catalog.find catalog tname) col.Schema.name
    | _ -> None
  in
  let range_count () =
    match
      range_count_shape ~binding ~inner:r_schema ~theta ~aggs
        ~group_cols:right.Qspec.group_cols
    with
    | Error r -> Error r
    | Ok _ when not config.inner_index -> Error "disabled by configuration"
    | Ok (cols, box, disjunction) ->
      (* x is a column whose order the catalog already holds, if any *)
      let cols, source =
        match
          List.find_map (fun c -> Option.map (fun i -> (c, i)) (catalog_index c)) cols
        with
        | Some (x, idx) -> (x :: List.filter (fun c -> c <> x) cols, Catalog_index idx)
        | None -> (cols, Built_per_execution)
      in
      Ok (A_range_count { cols; box; disjunction; source })
  in
  match eqs with
  | _ :: _ -> (A_hash eqs, [])
  | [] ->
    (match range_count () with
     | Ok rc -> (rc, [])
     | Error r -> (A_scan, if probes <> [] then [ "range count off: " ^ r ] else []))

(* Q_R(b)'s COUNT from the range-count structure [rc] over [cols], for
   the bounds [box] and [disjunction] of {!A_range_count} compiled against
   the [binding] schema.  A bound whose value is NULL or NaN holds for no
   row, so the count is 0; a disjunct whose value is holds for no row
   either, so its negation constrains nothing. *)
let range_counter rc ~binding ~cols ~box ~disjunction =
  let side : Expr.cmp -> _ = function
    | Expr.Ge -> (`Lo, `Inclusive)
    | Expr.Gt -> (`Lo, `Strict)
    | Expr.Le -> (`Hi, `Inclusive)
    | Expr.Lt -> (`Hi, `Strict)
    | Expr.Eq | Expr.Ne -> invalid_arg "Nljp: range count over an = or <> bound"
  in
  let negated cmp =
    match side cmp with
    | `Lo, `Inclusive -> (`Hi, `Strict)
    | `Lo, `Strict -> (`Hi, `Inclusive)
    | `Hi, `Inclusive -> (`Lo, `Strict)
    | `Hi, `Strict -> (`Lo, `Inclusive)
  in
  let dims = Array.of_list cols in
  let dim c =
    let rec go d = if dims.(d) = c then d else go (d + 1) in
    go 0
  in
  let compile side_of (c, cmp, f) = (dim c, side_of cmp, Compile.scalar binding f) in
  let box = List.map (compile side) box in
  (* A row fails [A1 OR … OR Ak] iff it satisfies every negation, so
     count(box ∧ (A1 ∨ … ∨ Ak)) = count(box) − count(box ∧ ¬A1 ∧ … ∧ ¬Ak):
     one complement box, whatever k. *)
  let outside = List.map (compile negated) disjunction in
  let comparable v = not (Value.is_null v || Value.is_nan v) in
  (* Tighten one range of [ranges] by one bound. *)
  let tighten ranges (d, (dir, strictness), v) =
    let pick wins cur =
      match cur with
      | None -> Some (v, strictness)
      | Some (u, _) ->
        let c = Value.compare_total v u in
        if wins c || (c = 0 && strictness = `Strict) then Some (v, strictness) else cur
    in
    let lo, hi = ranges.(d) in
    ranges.(d) <-
      (match dir with
       | `Lo -> (pick (fun c -> c > 0) lo, hi)
       | `Hi -> (lo, pick (fun c -> c < 0) hi))
  in
  let values b = List.map (fun (d, side, f) -> (d, side, f b)) in
  fun b ->
    let bounds = values b box in
    if not (List.for_all (fun (_, _, v) -> comparable v) bounds) then 0
    else
      let inside = Array.make (Array.length dims) (None, None) in
      List.iter (tighten inside) bounds;
      let n = Index.Range_count.count rc inside in
      if n = 0 || outside = [] then n
      else begin
        let negations = List.filter (fun (_, _, v) -> comparable v) (values b outside) in
        List.iter (tighten inside) negations;
        n - Index.Range_count.count rc inside
      end

let execute ?span ?(estimate = false) ?(transfer = []) ?shared ?subquery op =
  let { catalog; spec; overrides; config; cls; key_case; all_aggs; subsume; _ } = op in
  let { eq_dims; ci_restrict; _ } = op in
  let stats = fresh_stats () in
  stats.notes <-
    (match op.prune_reason with
     | Some r when config.pruning -> [ "pruning off: " ^ r ]
     | _ -> [])
    @ (match op.memo_reason with
       | Some r when config.memo -> [ "memo off: " ^ r ]
       | _ -> []);
  let left_side = spec.Qspec.left and right_side = spec.Qspec.right in
  (* Q_B: materialize the outer side; Q_R's relation: the inner side.
     Under [span] each side gets a timed child span; under [estimate] the
     cost model's cardinality for the side query is stamped next to the
     actual so EXPLAIN ANALYZE can report the per-side Q-error. *)
  let run_side name side =
    let q = Qspec.side_query ~overrides side in
    (* Transferred Bloom filters for this side's aliases are passed to
       [Exec.run] as per-plan state — never to [Binder.bind], so the
       a-priori reducer subqueries (materialized at bind time) never see
       them.  Filtering a reducer's input is unsound: a monotone HAVING
       group can qualify on the full join yet lose rows the reducer counted.
       Keeping filters out of the shared catalog also means two in-flight
       queries can never observe each other's filters. *)
    let side_filters =
      List.filter (fun (a, fs) -> fs <> [] && List.mem a side.Qspec.aliases) transfer
    in
    let exec_with_filters plan = Exec.run ~filters:side_filters catalog plan in
    (* IN-subqueries (a-priori reducers) run through [subquery], under the
       side's span. *)
    let bind s = Binder.bind ?subquery:(Option.map (fun f -> f s) subquery) catalog q in
    match span with
    | None -> exec_with_filters (bind None)
    | Some parent ->
      Obs.Span.with_span ~parent name (fun s ->
          (* Bind once and share the plan between the estimate and the
             execution: binding a side query with a-priori overrides
             materializes the reducer IN-subqueries, so a separate bind for
             the estimate would run each reducer twice. *)
          let plan = bind (Some s) in
          if estimate then
            (try
               let est = Cost.estimate catalog plan in
               Obs.Span.set_estimate ~rows:est.Cost.rows ~cost:est.Cost.cost s
             with _ -> ());
          let rel = exec_with_filters plan in
          s.Obs.Span.rows_out <- Some (Relation.cardinality rel);
          rel)
  in
  let l_rel = run_side "Q_B (outer side)" left_side in
  let r_rel = run_side "Q_R (inner side)" right_side in
  (* Estimated distinct bindings (product of per-column distinct counts,
     capped by the outer cardinality): what the cost model would predict
     for the number of distinct inner evaluations without pruning.  Counts
     only the binding columns — a full Stats pass over every Q_B column
     would dominate the --analyze overhead budget — and is timed as its own
     child, so ANALYZE does not charge it to the operator. *)
  let est_distinct =
    match span with
    | Some parent when estimate ->
      Obs.Span.with_span ~parent "binding estimate" (fun _ ->
          try
            let d_of c =
              let i = Schema.index_of_col l_rel.Relation.schema c in
              let seen = Hashtbl.create 64 in
              Relation.iter
                (fun row -> Hashtbl.replace seen row.(i) ())
                l_rel;
              max 1 (Hashtbl.length seen)
            in
            let d =
              List.fold_left (fun acc c -> acc * d_of c) 1 left_side.Qspec.join_cols
            in
            Some (min d (Relation.cardinality l_rel))
          with _ -> None)
    | _ -> None
  in
  let l_schema = l_rel.Relation.schema and r_schema = r_rel.Relation.schema in
  let jl_idx, binding_schema, theta =
    binding_theta catalog spec ~outer:l_schema ~inner:r_schema
  in
  (* Optional Q_B exploration order (an ORDER BY on the binding query);
     [`Auto] is the order [build] derived from p⪰. *)
  let l_rel =
    let by dim flipped =
      match List.nth_opt jl_idx dim with
      | None -> l_rel
      | Some col ->
        Relation.sort_by
          (fun a b ->
            let c = Value.compare_total a.(col) b.(col) in
            if flipped then -c else c)
          l_rel
    in
    let order =
      match config.outer_order with
      | `Auto -> op.auto_order
      | (`Default | `Asc _ | `Desc _) as o -> o
    in
    match order with
    | `Default -> l_rel
    | `Asc dim -> by dim false
    | `Desc dim -> by dim true
  in
  let theta_ok = Compile.join_pred binding_schema r_schema theta in
  let gl_idx =
    List.map (fun c -> Schema.index_of_col l_schema c) left_side.Qspec.group_cols
  in
  let gr_idx =
    List.map (fun c -> Schema.index_of_col r_schema c) right_side.Qspec.group_cols
  in
  (* Aggregates compiled against the inner schema. *)
  let agg_mapping = List.mapi (fun i a -> (a, Printf.sprintf "__agg%d" i)) all_aggs in
  let compiled =
    List.map (fun (a, _) -> Agg.compile r_schema (Binder.agg_func a)) agg_mapping
  in
  (* Φ over (G_R columns ++ aggregate columns). *)
  let phi_schema =
    Schema.of_cols
      (right_side.Qspec.group_cols @ List.map (fun (_, n) -> Schema.col n) agg_mapping)
  in
  let phi_ast =
    Aggmap.pred
      (fun a ->
        match List.find_opt (fun (a', _) -> Ast.equal_agg a a') agg_mapping with
        | Some (_, n) -> Ast.S_col (None, n)
        | None -> invalid_arg "Nljp: uncollected aggregate in HAVING")
      spec.Qspec.having
  in
  let phi_ok = Compile.pred phi_schema (Binder.pred_expr catalog phi_ast) in
  (* Λ over (G_L ++ G_R ++ aggregate columns). *)
  let lambda_schema =
    Schema.of_cols
      (left_side.Qspec.group_cols @ right_side.Qspec.group_cols
      @ List.map (fun (_, n) -> Schema.col n) agg_mapping)
  in
  let out_items =
    List.mapi
      (fun i item ->
        match item with
        | Ast.Sel_star -> invalid_arg "Nljp: SELECT *"
        | Ast.Sel_expr (s, alias) ->
          let s' =
            Aggmap.scalar
              (fun a ->
                match List.find_opt (fun (a', _) -> Ast.equal_agg a a') agg_mapping with
                | Some (_, n) -> Ast.S_col (None, n)
                | None -> invalid_arg "Nljp: uncollected aggregate in SELECT")
              s
          in
          let e = Binder.scalar_expr s' in
          let name =
            match alias, s with
            | Some a, _ -> Schema.col a
            | None, Ast.S_col (qq, n) ->
              let idx = Schema.index_of lambda_schema ?q:qq n in
              Schema.nth lambda_schema idx
            | None, _ -> Schema.col (Printf.sprintf "col%d" i)
          in
          (Compile.scalar lambda_schema (Expr.canonicalize lambda_schema e), name))
      spec.Qspec.select
  in
  let out_schema = Schema.of_cols (List.map snd out_items) in
  let access, access_notes = choose_access op in
  stats.access <- access;
  stats.notes <- stats.notes @ access_notes;
  Option.iter
    (fun s -> Obs.Span.note s ("inner access path: " ^ access_to_string access))
    span;
  (* Force the inner side's row view now, on this domain, when a row-path
     access method will run inside worker domains ([eval_inner] must not
     race on the lazy row cache).  The range count never reads it there. *)
  (match access with
   | A_range_count _ -> ()
   | A_hash _ | A_scan -> ignore (Relation.rows r_rel : Row.t array));
  (* Every structure an execution builds over the inner side is timed as
     an [inner index build] child of [span]. *)
  let inner_build f =
    match span with
    | None -> f ()
    | Some parent -> Obs.Span.with_span ~parent "inner index build" (fun _ -> f ())
  in
  (* The inner rows a binding's Q_R(b) considers, through the chosen path. *)
  let candidates : Row.t -> (Row.t -> unit) -> unit =
    match access with
    | A_hash probes ->
      let idx =
        inner_build (fun () ->
            Index.Hash.build r_rel
              (List.map (fun (c, _) -> Schema.index_of_col r_schema c) probes))
      in
      let fs =
        Array.of_list (List.map (fun (_, e) -> Compile.scalar binding_schema e) probes)
      in
      fun b k -> List.iter k (Index.Hash.probe idx (Array.map (fun f -> f b) fs))
    | A_range_count _ | A_scan -> fun _ k -> Relation.iter k r_rel
  in
  (* The range count's structure, built once per execution and only read
     by the (possibly parallel) probes. *)
  let range_count =
    match access with
    | A_range_count { cols; box; disjunction; source } ->
      let idxs = List.map (Schema.index_of_col r_schema) cols in
      Obs.Metrics.incr m_range_count_builds;
      let rc =
        inner_build (fun () ->
            match source with
            | Catalog_index idx -> Index.Range_count.of_sorted idx ~cols:idxs
            | Built_per_execution ->
              Index.Range_count.build (Relation.rows r_rel) ~cols:idxs)
      in
      Some (range_counter rc ~binding:binding_schema ~cols ~box ~disjunction)
    | _ -> None
  in
  (* Pruning setup. *)
  let pruning_active = config.pruning && op.prune_reason = None in
  let memo_active = config.memo && op.memo_reason = None in
  stats.pruning_on <- pruning_active;
  stats.memo_on <- memo_active;
  let key_to_float v =
    match v with
    | Value.Int i -> float_of_int i
    | Value.Float f -> f
    | Value.Bool b -> if b then 1. else 0.
    | Value.Null | Value.Str _ -> 0.
  in
  let mk_prune_cache () =
    if eq_dims <> [] then Prune_cache.partitioned eq_dims
    else
      match ci_restrict with
      | Some _ ->
        Prune_cache.sorted ~key_of:(fun row ->
            if Array.length row = 0 then 0. else key_to_float row.(0))
      | None -> Prune_cache.flat ()
  in
  (* [caches] lets a domain consult both the frozen shared cache and its
     chunk-local one. *)
  let prune ~test ~caches b =
    let b0 = if Array.length b = 0 then 0. else key_to_float b.(0) in
    (* monotone: prune when some cached w' subsumes b; anti-monotone: when
       b subsumes some cached w'. *)
    if Monotone.is_monotone cls then
      let restrict =
        match ci_restrict with
        | Some `W_le_wp -> Prune_cache.Le b0  (* cached key <= b0 *)
        | Some `Wp_le_w -> Prune_cache.Ge b0
        | None -> Prune_cache.All
      in
      List.exists
        (fun cache ->
          Prune_cache.exists cache ~probe:b ~restrict (fun cached -> test cached b))
        caches
    else
      let restrict =
        match ci_restrict with
        | Some `W_le_wp -> Prune_cache.Ge b0  (* b is w: b0 <= cached *)
        | Some `Wp_le_w -> Prune_cache.Le b0
        | None -> Prune_cache.All
      in
      List.exists
        (fun cache ->
          Prune_cache.exists cache ~probe:b ~restrict (fun cached -> test b cached))
        caches
  in
  (* Q_R(b) on the row path: the inner rows [candidates] yields that satisfy
     Θ, grouped by G_R and aggregated. *)
  let row_eval b =
    let parts : Agg.state list Row.Tbl.t = Row.Tbl.create 8 in
    let order = ref [] in
    let consider rrow =
      if theta_ok b rrow then begin
        let v = Row.project rrow gr_idx in
        let states =
          match Row.Tbl.find_opt parts v with
          | Some s -> s
          | None ->
            let s = List.map (fun c -> c.Agg.fresh ()) compiled in
            Row.Tbl.add parts v s;
            order := v :: !order;
            s
        in
        List.iter2 (fun c st -> c.Agg.step st rrow) compiled states
      end
    in
    candidates b consider;
    List.rev_map
      (fun v ->
        let states = Row.Tbl.find parts v in
        let finals = Array.of_list (List.map2 (fun c st -> c.Agg.final st) compiled states) in
        { v; states; finals })
      !order
  in
  let count_parts n =
    if n = 0 then []
    else
      let states = List.map (fun _ -> Agg.count_state n) compiled in
      let finals =
        Array.of_list (List.map2 (fun c st -> c.Agg.final st) compiled states)
      in
      [ { v = [||]; states; finals } ]
  in
  (* Q_R(b): evaluate the inner query for one binding, counting the eval
     against the caller's (chunk-local) stats. *)
  let eval_inner st b =
    st.inner_evals <- st.inner_evals + 1;
    match range_count with Some count -> count_parts (count b) | None -> row_eval b
  in
  (* Definition 5.  With G_R = ∅ the condition reduces to ¬Φ(R⋉w), which for
     an empty join set means evaluating Φ on the empty input (COUNT = 0 may
     well satisfy an anti-monotone threshold — such a binding is promising).
     With G_R ≠ ∅ an empty join set is vacuously unpromising. *)
  let empty_finals =
    (* Computed eagerly: forcing a [lazy] from several domains at once is a
       race, and this array is shared by every chunk. *)
    Array.of_list
      (List.map (fun (c : Agg.compiled) -> c.Agg.final (c.Agg.fresh ())) compiled)
  in
  let unpromising parts =
    match parts with
    | [] -> if gr_idx = [] then not (phi_ok empty_finals) else true
    | _ -> List.for_all (fun p -> not (phi_ok (Array.append p.v p.finals))) parts
  in
  let below_cap len =
    match config.max_cache_rows with None -> true | Some cap -> len < cap
  in
  let fresh_merge states =
    List.map2
      (fun c st ->
        let s = c.Agg.fresh () in
        c.Agg.merge s st;
        s)
      compiled states
  in
  (* The probe loop over one chunk of the outer relation (Listing 7): per
     outer row a memo lookup, then Q_C's prune test, then Q_R(b).  Probes
     the frozen shared prune/memo caches plus chunk-local ones; every value
     the closure captures from the surrounding scope is immutable or a pure
     compiled closure, so chunks may run on separate domains.  The
     subsumption test is compiled per chunk because its string-interning
     table is mutable. *)
  let process_chunk ~shared_prune ~shared_memo chunk =
    let st = fresh_stats () in
    let subsume_test =
      match subsume with
      | Some s when pruning_active -> Some (Subsume.compile s)
      | _ -> None
    in
    let local_prune = mk_prune_cache () in
    let local_memo : partition list Row.Tbl.t = Row.Tbl.create 64 in
    (* With memo on, each binding's verdict so far.  Caches only grow within
       a chunk, so a verdict never changes and a repeated binding costs one
       lookup.  Kept apart from [local_memo], the table merged into the
       tier: shared hits and pruned bindings stay out of the merge. *)
    let verdicts : verdict Row.Tbl.t = Row.Tbl.create 64 in
    let out_rows = ref [] in
    let emit u v finals =
      let lam_row = Array.concat [ u; v; finals ] in
      out_rows :=
        Array.of_list (List.map (fun (f, _) -> f lam_row) out_items) :: !out_rows
    in
    let acc : (Row.t * Row.t * Agg.state list) Row.Tbl.t = Row.Tbl.create 256 in
    let prune_len () = Prune_cache.length local_prune + Prune_cache.length shared_prune in
    let memo_len () = Row.Tbl.length local_memo + Row.Tbl.length shared_memo in
    let verdict b =
      if not memo_active then None
      else
        match Row.Tbl.find_opt verdicts b with
        | Some _ as v -> v
        | None ->
          (match Row.Tbl.find_opt shared_memo b with
           | Some parts ->
             Row.Tbl.add verdicts b (Memo parts);
             Some (Memo parts)
           | None -> None)
    in
    let pruned_now b =
      match subsume_test with
      | None -> false
      | Some test -> prune ~test ~caches:[ shared_prune; local_prune ] b
    in
    let handle lrow parts =
      let u = Row.project lrow gl_idx in
      if key_case then
        List.iter
          (fun p -> if phi_ok (Array.append p.v p.finals) then emit u p.v p.finals)
          parts
      else
        List.iter
          (fun p ->
            let key = Row.append u p.v in
            match Row.Tbl.find_opt acc key with
            | None -> Row.Tbl.add acc key (u, p.v, fresh_merge p.states)
            | Some (_, _, states) ->
              List.iter2
                (fun c (dst, src) -> c.Agg.merge dst src)
                compiled
                (List.combine states p.states))
          parts
    in
    Array.iter
      (fun lrow ->
        st.outer_rows <- st.outer_rows + 1;
        let b = Row.project lrow jl_idx in
        match verdict b with
        | Some (Memo parts) ->
          st.memo_hits <- st.memo_hits + 1;
          handle lrow parts
        | Some Pruned -> st.pruned <- st.pruned + 1
        | None when pruned_now b ->
          st.pruned <- st.pruned + 1;
          if memo_active then Row.Tbl.add verdicts b Pruned
        | None ->
          let parts = eval_inner st b in
          if pruning_active && unpromising parts && below_cap (prune_len ()) then
            Prune_cache.add local_prune b;
          if memo_active && below_cap (memo_len ()) then begin
            Row.Tbl.add local_memo b parts;
            Row.Tbl.add verdicts b (Memo parts)
          end;
          handle lrow parts)
      chunk;
    {
      c_rows = List.rev !out_rows;
      c_acc = acc;
      c_prune = local_prune;
      c_memo = local_memo;
      c_stats = st;
    }
  in
  (* The probe loop proper: everything from the first binding probe to the
     assembled result, as one timed child span (the side materializations
     above have their own spans, so this span's self time is the loop). *)
  let loop_span = Option.map (fun p -> Obs.Span.enter ~parent:p "NLJP probe loop") span in
  let n = Relation.cardinality l_rel in
  let workers = max 1 config.workers in
  let workers = if n < workers * 32 then 1 else workers in
  (* The shared tier: the caller's [shared_cache] for this operator, else a
     fresh one.  Every wave probes it frozen and absorbs the chunk-local
     caches at its end, under the §7 discipline that makes the merge safe —
     dropping or duplicating entries only costs pruning and memo
     opportunity, never correctness.  The owner of a caller's tier must
     reset it on catalog mutation (cached entries describe the data they
     were computed from) and must not overlap executions of one operator:
     tier caches are read without locks during waves and mutated at
     boundaries. *)
  let shared = match shared with Some sc -> sc | None -> shared_cache () in
  let tier_prune =
    match shared.sc_prune with
    | Some p -> p
    | None ->
      let p = mk_prune_cache () in
      shared.sc_prune <- Some p;
      p
  in
  let tier_memo =
    match shared.sc_memo with
    | Some m -> m
    | None ->
      let m : partition list Row.Tbl.t = Row.Tbl.create 1024 in
      shared.sc_memo <- Some m;
      m
  in
  if Prune_cache.length tier_prune > 0 || Row.Tbl.length tier_memo > 0 then
    stats.notes <-
      stats.notes
      @ [ Printf.sprintf "shared cache tier seeded: prune=%d memo=%d"
            (Prune_cache.length tier_prune) (Row.Tbl.length tier_memo) ];
  (* Waves of the outer side, each cut into [workers] chunks, one domain per
     chunk.  Sequential execution is one wave of one chunk.  A parallel
     columnar outer is consumed block by block ([workers] blocks per wave)
     without ever materializing the whole row array; a row outer is sliced
     [workers × 256] rows at a time. *)
  let waves : Row.t array Seq.t =
    match Relation.layout l_rel, Relation.cstore_opt l_rel with
    | _ when workers = 1 -> Seq.return (Relation.rows l_rel)
    | `Column, Some cs ->
      let nb = Column.Cstore.nblocks cs in
      let rec from bi () =
        if bi >= nb then Seq.Nil
        else begin
          let hi = min nb (bi + workers) in
          let parts =
            List.init (hi - bi) (fun k ->
                Column.Cstore.block_rows cs (Column.Cstore.block cs (bi + k)))
          in
          Seq.Cons (Array.concat parts, from hi)
        end
      in
      from 0
    | _ ->
      let rows = Relation.rows l_rel in
      let wave = workers * 256 in
      let rec from pos () =
        if pos >= n then Seq.Nil
        else
          let len = min wave (n - pos) in
          Seq.Cons (Array.sub rows pos len, from (pos + len))
      in
      from 0
  in
  let results = ref [] in
  Seq.iter
    (fun wave ->
      stats.waves <- stats.waves + 1;
      let rs =
        Parallel.run_chunks ~workers wave
          (process_chunk ~shared_prune:tier_prune ~shared_memo:tier_memo)
      in
      (* The wave boundary, on the spawning domain: the only place chunk
         caches reach the tier, keep-first under the cap. *)
      List.iter
        (fun r ->
          Prune_cache.iter r.c_prune (fun b ->
              if below_cap (Prune_cache.length tier_prune) then
                Prune_cache.add tier_prune b);
          Row.Tbl.iter
            (fun b parts ->
              if (not (Row.Tbl.mem tier_memo b)) && below_cap (Row.Tbl.length tier_memo)
              then Row.Tbl.add tier_memo b parts)
            r.c_memo)
        rs;
      (* Prepend and reverse once at the end: appending per wave would
         rescan the accumulated list every wave (quadratic in waves). *)
      results := List.rev_append rs !results)
    waves;
  let chunk_results = List.rev !results in
  (* Combine chunk outputs in chunk order. *)
  let out_rows = ref [] in
  List.iter
    (fun r -> List.iter (fun row -> out_rows := row :: !out_rows) r.c_rows)
    chunk_results;
  (* Q_P for the non-key case: merge the per-chunk partial states, then
     evaluate Φ and Λ on the combined groups. *)
  (if not key_case then
     match chunk_results with
     | [] -> ()
     | first :: rest ->
       let acc = first.c_acc in
       List.iter
         (fun r ->
           Row.Tbl.iter
             (fun key (u, v, states) ->
               match Row.Tbl.find_opt acc key with
               | None -> Row.Tbl.add acc key (u, v, states)
               | Some (_, _, dst) ->
                 List.iter2
                   (fun c (d, s) -> c.Agg.merge d s)
                   compiled (List.combine dst states))
             r.c_acc)
         rest;
       let emit u v finals =
         let lam_row = Array.concat [ u; v; finals ] in
         out_rows :=
           Array.of_list (List.map (fun (f, _) -> f lam_row) out_items)
           :: !out_rows
       in
       Row.Tbl.iter
         (fun _ (u, v, states) ->
           let finals =
             Array.of_list (List.map2 (fun c st -> c.Agg.final st) compiled states)
           in
           if phi_ok (Array.append v finals) then emit u v finals)
         acc);
  (* Sum the chunks' counters into this execution's stats. *)
  List.iter
    (fun r ->
      List.iter (fun (_, _, get, set) -> set stats (get stats + get r.c_stats)) chunk_counters)
    chunk_results;
  stats.prune_cache_rows <- Prune_cache.length tier_prune;
  stats.memo_cache_rows <- Row.Tbl.length tier_memo;
  let memo_bytes =
    Row.Tbl.fold
      (fun b parts acc ->
        acc + row_bytes b
        + List.fold_left
            (fun acc p ->
              acc + row_bytes p.v
              + List.fold_left (fun a st -> a + Agg.state_bytes st) 0 p.states
              + (8 * Array.length p.finals))
            0 parts)
      tier_memo 0
  in
  stats.cache_bytes <- Prune_cache.bytes tier_prune + memo_bytes;
  (* Publish this execution's totals into the metrics registry. *)
  List.iter (fun (_, m, get, _) -> Obs.Metrics.add m (get stats)) chunk_counters;
  Obs.Metrics.add m_prune_cache_rows stats.prune_cache_rows;
  Obs.Metrics.add m_memo_cache_rows stats.memo_cache_rows;
  Obs.Metrics.add m_cache_bytes stats.cache_bytes;
  Obs.Metrics.add m_waves stats.waves;
  let result = Relation.of_rows out_schema (List.rev !out_rows) in
  (match loop_span with
   | None -> ()
   | Some ls ->
     let set = Obs.Span.set_counter ls in
     List.iter (fun (name, _, get, _) -> set name (get stats)) chunk_counters;
     set "waves" stats.waves;
     (match est_distinct with Some d -> set "est_distinct_bindings" d | None -> ());
     Obs.Span.finish ~rows_in:n ~rows_out:(Relation.cardinality result) ls);
  (result, stats)

let describe op =
  let spec = op.spec in
  let b = Buffer.create 512 in
  let jl = String.concat ", " (List.map Qspec.col_name spec.Qspec.left.Qspec.join_cols) in
  Buffer.add_string b
    (Printf.sprintf "-- Q_B (binding query; binding = (%s)):\n%s;\n" jl
       (Pretty.query (Qspec.side_query spec.Qspec.left)));
  Buffer.add_string b
    (Printf.sprintf "-- Q_R(b) (inner query over):\n%s;\n-- with Θ(b, ·) = %s\n"
       (Pretty.query (Qspec.side_query spec.Qspec.right))
       (Pretty.pred (Ast.conj spec.Qspec.theta)));
  (match op.subsume with
   | Some s ->
     Buffer.add_string b
       (Printf.sprintf "-- Q_C(b') (pruning): %s\n" (Subsume.to_string s))
   | None ->
     Buffer.add_string b
       (Printf.sprintf "-- Q_C: pruning inactive (%s)\n"
          (Option.value op.prune_reason ~default:"unavailable")));
  (match op.memo_reason with
   | None -> Buffer.add_string b "-- memoization: on (cache keyed by binding)\n"
   | Some r -> Buffer.add_string b (Printf.sprintf "-- memoization: off (%s)\n" r));
  Buffer.add_string b
    (Printf.sprintf "-- Q_P: emit groups satisfying %s (%s)\n"
       (Pretty.pred spec.Qspec.having)
       (if op.key_case then "per outer tuple: G_L is a key"
        else "combining algebraic partial aggregates"));
  Buffer.contents b

let subsumption op = op.subsume

(* ---- incremental cache refresh after appends (delta maintenance) ----

   After [Catalog.append_rows] the shared cross-query tier can often be kept
   instead of discarded.  The delta rules, per entry (a binding b):

   - the appended table occurs only on the outer side: Q_R is untouched, so
     per-binding cache contents stay exact (new bindings simply miss);
   - it occurs on the inner side: a memo entry stays exact iff no delta row
     can join b — either a binding-only Θ gate already fails for b (Q_R(b)
     was empty and stays empty) or, at every inner occurrence of the table,
     some Θ probe [r_col op f(b)] refutes the delta's column zone map;
   - prune entries additionally survive wholesale when Φ is anti-monotone:
     ¬Φ on a subset implies ¬Φ on every superset, so an unpromising binding
     cannot become promising by appending rows.  Monotone Φ can flip, so
     those entries need the same per-binding refutation as memo entries.

   Probes are necessary conditions of Θ conjuncts, so refuting one against
   the delta's min/max is sound even when Θ has conjuncts outside the probe
   shape.  When p⪰'s build-time numeric judgement of a Θ column is
   contradicted by the delta (a string lands in a column the subsumption
   arithmetic ordered numerically), the operator itself — not just the
   caches — is invalid and the caller must rebuild it. *)

let m_delta_refreshes = Obs.Metrics.counter "nljp.delta_refreshes"
let m_delta_entries_kept = Obs.Metrics.counter "nljp.delta_entries_kept"
let m_delta_entries_dropped = Obs.Metrics.counter "nljp.delta_entries_dropped"

let delta_refresh op shared ~table ~delta =
  let { catalog; spec; cls; _ } = op in
  let norm = String.lowercase_ascii in
  let t_norm = norm table in
  let left_side = spec.Qspec.left and right_side = spec.Qspec.right in
  let occurs (side : Qspec.side) =
    List.exists (fun (tn, _) -> String.equal (norm tn) t_norm) side.Qspec.tables
  in
  if not (occurs left_side || occurs right_side) then `Kept
  else if
    List.exists
      (fun (c, was) -> was && not (col_numeric catalog spec c))
      op.numeric_theta
  then begin
    shared.sc_prune <- None;
    shared.sc_memo <- None;
    `Reprepare "a Θ column lost its numeric domain in the appended rows"
  end
  else if not (occurs right_side) then `Kept
  else begin
    let drows = Relation.rows delta in
    if Array.length drows = 0 then `Kept
    else begin
      Obs.Metrics.add m_delta_refreshes 1;
      let r_schema = right_side.Qspec.schema in
      let _, binding_schema, theta =
        binding_theta catalog spec ~outer:left_side.Qspec.schema ~inner:r_schema
      in
      let probes, gates =
        Compile.param_probes ~binding:binding_schema ~inner:r_schema theta
      in
      (* Column span of each inner FROM item inside r_schema ([side_schema]
         appends the per-alias requalified base schemas in FROM order). *)
      let spans, total =
        List.fold_left
          (fun (acc, off) (tn, _alias) ->
            let ar =
              Schema.arity (Catalog.find catalog tn).Catalog.rel.Relation.schema
            in
            ((tn, off, ar) :: acc, off + ar))
          ([], 0) right_side.Qspec.tables
      in
      let occ_probes =
        if total <> Schema.arity r_schema then [ [] ]
          (* layout mismatch: treat every entry as joinable by the delta *)
        else
          List.filter_map
            (fun (tn, off, ar) ->
              if String.equal (norm tn) t_norm then
                Some
                  (List.filter_map
                     (fun p ->
                       if p.Compile.pp_col >= off && p.Compile.pp_col < off + ar
                       then Some (p.Compile.pp_col - off, p)
                       else None)
                     probes)
              else None)
            (List.rev spans)
      in
      (* Per-column zone map over the delta rows, built lazily: refuting a
         probe against it proves no delta row satisfies that conjunct. *)
      let zm_cache : (int, Column.Zmap.t) Hashtbl.t = Hashtbl.create 8 in
      let delta_zmap ci =
        match Hashtbl.find_opt zm_cache ci with
        | Some z -> z
        | None ->
          let z =
            Array.fold_left
              (fun z r -> Column.Zmap.observe z r.(ci))
              Column.Zmap.empty drows
          in
          Hashtbl.add zm_cache ci z;
          z
      in
      let refuted b =
        List.exists (fun g -> not (g b)) gates
        || List.for_all
             (fun ps ->
               List.exists
                 (fun (ci, p) ->
                   match p.Compile.pp_val b with
                   | v ->
                     not
                       (Column.Zmap.may_match (delta_zmap ci)
                          (Compile.zmap_cmp p.Compile.pp_op) v)
                   | exception _ -> false)
                 ps)
             occ_probes
      in
      let prune_kept, prune_dropped =
        match shared.sc_prune with
        | None -> (0, 0)
        | Some pc ->
          if Monotone.is_anti_monotone cls then (Prune_cache.length pc, 0)
          else
            let dropped = Prune_cache.filter_in_place pc refuted in
            (Prune_cache.length pc, dropped)
      in
      let memo_kept, memo_dropped =
        match shared.sc_memo with
        | None -> (0, 0)
        | Some m ->
          let dead = ref [] in
          Row.Tbl.iter (fun b _ -> if not (refuted b) then dead := b :: !dead) m;
          List.iter (Row.Tbl.remove m) !dead;
          (Row.Tbl.length m, List.length !dead)
      in
      Obs.Metrics.add m_delta_entries_kept (prune_kept + memo_kept);
      Obs.Metrics.add m_delta_entries_dropped (prune_dropped + memo_dropped);
      `Refreshed
    end
  end

(* The component queries over their base tables, before the a-priori
   overrides, so EXPLAIN can cost them without running a reducer. *)
let side_queries op =
  (Qspec.side_query op.spec.Qspec.left, Qspec.side_query op.spec.Qspec.right)
