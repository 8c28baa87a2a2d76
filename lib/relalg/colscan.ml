(* Block-skipping selection over columnar relations.

   A compiled predicate's column-vs-constant conjuncts (Compile.zone_probes)
   are first tested against each block's zone map: a refuted probe proves
   the block holds no matching row and the whole block is skipped without
   touching its vectors.  Zone maps are always resident (Cstore.block_zmaps),
   so for paged stores skipping never touches the disk tier.  A paged
   source's footer Bloom filters refute equality probes for the whole table
   before the block loop even starts.

   Surviving blocks of a paged store first try the compressed-execution
   path: when every probe is an int comparison on an int-kind column or a
   string (in)equality on a dict-kind column and the probes are the entire
   predicate, the selection is computed directly on the encoded columns
   (Encode.sel_fill_int / sel_fill_code — FOR deltas and dictionary codes,
   run-length segments tested once per run) and the block is decoded only
   when matches must be materialized as rows.  Otherwise the block is
   fetched and scanned through the typed kernels / compiled row predicate
   exactly like a resident store.

   The skip/scan counters live in the obs metrics registry: scans may run
   from worker domains (per-domain cells, merged on read), and Runner
   reports them per query (reset between runs). *)

let blocks_skipped = Obs.Metrics.counter "colscan.blocks_skipped"
let blocks_scanned = Obs.Metrics.counter "colscan.blocks_scanned"

(* Blocks whose predicate was decided entirely on the compressed form.  A
   direct block with matches still decodes once to materialize the output
   rows (that decode shows up in sic.blocks_decoded); a direct block with
   zero matches never leaves the encoded domain. *)
let blocks_direct = Obs.Metrics.counter "sic.blocks_direct"

let reset_counters () =
  Obs.Metrics.reset blocks_skipped;
  Obs.Metrics.reset blocks_scanned

(* (skipped, scanned) since the last [reset_counters]. *)
let counters () = (Obs.Metrics.read blocks_skipped, Obs.Metrics.read blocks_scanned)

open Column

(* Compile one zone probe (column, op, constant) into an [int -> bool] over
   a block, reading the typed vector directly.  NULL rows never match (SQL
   comparison semantics), which the numeric fast paths get from the null
   bitmap and the generic path gets from Compile.value_cmp. *)
let probe_test cs (b : Cstore.block) (p : Compile.zone_probe) : int -> bool =
  let col = p.Compile.zp_col and op = p.Compile.zp_op and v = p.Compile.zp_const in
  let vec = b.Cstore.cols.(col) in
  let null_guard bm test =
    match bm with
    | None -> test
    | Some bm -> fun i -> (not (Bitset.get bm i)) && test i
  in
  let generic () =
    let vc = Compile.value_cmp op in
    fun i -> vc (Cstore.value_at cs b col i) v
  in
  if Value.is_nan v then (fun _ -> false)  (* NaN compares false to everything *)
  else
  match vec, v with
  | Cstore.C_int (a, bm), Value.Int k ->
    let test =
      match op with
      | Expr.Eq -> fun i -> a.(i) = k
      | Expr.Ne -> fun i -> a.(i) <> k
      | Expr.Lt -> fun i -> a.(i) < k
      | Expr.Le -> fun i -> a.(i) <= k
      | Expr.Gt -> fun i -> a.(i) > k
      | Expr.Ge -> fun i -> a.(i) >= k
    in
    null_guard bm test
  | Cstore.C_int (a, bm), Value.Float f ->
    let test =
      match op with
      | Expr.Eq -> fun i -> float_of_int a.(i) = f
      | Expr.Ne -> fun i -> float_of_int a.(i) <> f
      | Expr.Lt -> fun i -> float_of_int a.(i) < f
      | Expr.Le -> fun i -> float_of_int a.(i) <= f
      | Expr.Gt -> fun i -> float_of_int a.(i) > f
      | Expr.Ge -> fun i -> float_of_int a.(i) >= f
    in
    null_guard bm test
  | Cstore.C_float (a, bm), (Value.Int _ | Value.Float _) ->
    let f = match v with Value.Int k -> float_of_int k | Value.Float f -> f | _ -> 0. in
    let test =
      (* [Ne] is spelled [< ||  >] so a stored NaN matches nothing, like the
         row path; the other operators get that from IEEE semantics. *)
      match op with
      | Expr.Eq -> fun i -> a.(i) = f
      | Expr.Ne -> fun i -> a.(i) < f || a.(i) > f
      | Expr.Lt -> fun i -> a.(i) < f
      | Expr.Le -> fun i -> a.(i) <= f
      | Expr.Gt -> fun i -> a.(i) > f
      | Expr.Ge -> fun i -> a.(i) >= f
    in
    null_guard bm test
  | Cstore.C_dict (codes, bm), Value.Str s ->
    (match op, Cstore.dict cs col with
     | ((Expr.Eq | Expr.Ne) as op), Some d ->
       (* Equality against the dictionary is one code comparison per row;
          an absent string matches nothing (Eq) / every non-null row (Ne). *)
       let eq = op = Expr.Eq in
       (match Dict.find_opt d s with
        | Some code ->
          if eq then null_guard bm (fun i -> codes.(i) = code)
          else null_guard bm (fun i -> codes.(i) <> code)
        | None -> if eq then fun _ -> false else null_guard bm (fun _ -> true))
     | _ -> generic ())
  | _ -> generic ()

(* Scan one block, pushing kept rows (in order).  [tests] are the typed
   probe kernels when the probes cover the predicate; otherwise [keep]
   re-evaluates the compiled row predicate on rebuilt rows. *)
let scan_block cs (b : Cstore.block) tests keep push =
  match (keep : (Row.t -> bool) option) with
  | None ->
    let nt = Array.length tests in
    for i = 0 to b.Cstore.length - 1 do
      let ok = ref true in
      let t = ref 0 in
      while !ok && !t < nt do
        if not (tests.(!t) i) then ok := false;
        incr t
      done;
      if !ok then push (Cstore.row_of cs b i)
    done
  | Some keep ->
    for i = 0 to b.Cstore.length - 1 do
      let row = Cstore.row_of cs b i in
      if keep row then push row
    done

(* ---- compressed-execution probes (paged stores) ---- *)

(* A zone probe re-expressed against the encoded column representation:
   int comparisons run on FOR deltas / RLE runs, string (in)equality on
   dictionary codes.  Probes that don't fit (float constants, ordered
   string comparisons — dict codes are appearance-ordered, not
   value-ordered) leave the whole block on the decode path. *)
type dprobe =
  | D_int of int * Zmap.cmp * int
  | D_code of int * [ `Eq | `Ne ] * int option

(* All probes must compile or none run direct: a half-direct block would
   still decode, so there is nothing to save. *)
let direct_probes cs zprobes =
  let rec go acc = function
    | [] ->
      (match acc with [] -> None | l -> Some (Array.of_list (List.rev l)))
    | (ci, op, v) :: rest ->
      (match (v : Value.t), Cstore.col_kind cs ci with
       | Value.Int k, Cstore.K_int -> go (D_int (ci, op, k) :: acc) rest
       | Value.Str s, Cstore.K_dict ->
         (match (op : Zmap.cmp), Cstore.dict cs ci with
          | Zmap.Eq, Some d -> go (D_code (ci, `Eq, Dict.find_opt d s) :: acc) rest
          | Zmap.Ne, Some d -> go (D_code (ci, `Ne, Dict.find_opt d s) :: acc) rest
          | _ -> None)
       | _ -> None)
  in
  go [] zprobes

(* Evaluate the compiled probes on one block's encoded columns, filling
   [sel] with the surviving row indices.  [None] if a column's physical
   encoding deviates from what [direct_probes] inferred (caller decodes). *)
let direct_select (enc : Encode.col array) dps sel =
  let n = ref (-1) (* identity selection not yet materialized *) in
  let ok = ref true in
  let np = Array.length dps in
  let pi = ref 0 in
  while !ok && !n <> 0 && !pi < np do
    (match dps.(!pi) with
     | D_int (ci, op, k) ->
       if !n < 0 then
         (match Encode.sel_fill_int enc.(ci) op k sel with
          | Some c -> n := c
          | None -> ok := false)
       else (
         match Encode.int_test enc.(ci) op k with
         | Some t -> n := Cstore.sel_refine sel !n t
         | None -> ok := false)
     | D_code (ci, op, code) ->
       if !n < 0 then
         (match Encode.sel_fill_code enc.(ci) op code sel with
          | Some c -> n := c
          | None -> ok := false)
       else (
         match Encode.code_test enc.(ci) op code with
         | Some t -> n := Cstore.sel_refine sel !n t
         | None -> ok := false));
    incr pi
  done;
  if !ok then Some (max !n 0) else None

(* A footer Bloom filter refutes an equality probe for the whole table:
   the filter has no false negatives over the column's non-null values,
   and [= NULL] / [= NaN] match nothing anyway, so [mem] answering false
   proves the scan is empty without touching a single block. *)
let bloom_refuted cs zprobes =
  List.exists
    (fun (ci, op, v) ->
      op = Zmap.Eq
      && (match Cstore.col_bloom cs ci with
          | Some bl -> not (Bloom.mem bl v)
          | None -> false))
    zprobes

(* [select pred rel] is the block-skipping counterpart of [Ops.select];
   [None] when [rel] is not column-primary (caller falls back to rows). *)
let select pred rel =
  if Relation.layout rel <> `Column then None
  else begin
    let cs = Relation.cstore rel in
    let schema = Relation.(rel.schema) in
    let probes, exact = Compile.zone_probes schema pred in
    let keep = if exact then None else Some (Compile.pred schema pred) in
    let zprobes =
      List.map
        (fun (p : Compile.zone_probe) ->
          (p.Compile.zp_col, Compile.zmap_cmp p.Compile.zp_op, p.Compile.zp_const))
        probes
    in
    let nb = Cstore.nblocks cs in
    if bloom_refuted cs zprobes then begin
      Obs.Metrics.add blocks_skipped nb;
      Some (Relation.of_rows schema [])
    end
    else begin
      let dps =
        if exact && Cstore.is_paged cs then direct_probes cs zprobes else None
      in
      let sel =
        match dps with
        | Some _ -> Array.make (max 1 (Cstore.max_block_length cs)) 0
        | None -> [||]
      in
      let out = ref [] in
      let push row = out := row :: !out in
      for bi = 0 to nb - 1 do
        let zm = Cstore.block_zmaps cs bi in
        let skip =
          List.exists (fun (ci, op, v) -> not (Zmap.may_match zm.(ci) op v)) zprobes
        in
        if skip then Obs.Metrics.incr blocks_skipped
        else begin
          Obs.Metrics.incr blocks_scanned;
          let direct =
            match dps with
            | None -> false
            | Some dps ->
              (match Cstore.block_enc cs bi with
               | None -> false
               | Some enc ->
                 (match direct_select enc dps sel with
                  | None -> false
                  | Some cnt ->
                    Obs.Metrics.incr blocks_direct;
                    if cnt > 0 then begin
                      let b = Cstore.block cs bi in
                      for k = 0 to cnt - 1 do
                        push (Cstore.row_of cs b sel.(k))
                      done
                    end;
                    true))
          in
          if not direct then begin
            let b = Cstore.block cs bi in
            let tests =
              if keep = None then Array.of_list (List.map (probe_test cs b) probes)
              else [||]
            in
            scan_block cs b tests keep push
          end
        end
      done;
      Some (Relation.of_rows schema (List.rev !out))
    end
  end

(* ---- transferred Bloom filters composed into the scan (DESIGN.md §11) ---- *)

let transfer_blocks_skipped = Obs.Metrics.counter "transfer.blocks_skipped"
let transfer_rows_probed = Obs.Metrics.counter "transfer.rows_probed"
let transfer_rows_dropped = Obs.Metrics.counter "transfer.rows_dropped"

(* (blocks skipped by a filter's range, rows probed, rows dropped) since
   process start — callers take deltas, mirroring [counters]. *)
let transfer_counters () =
  ( Obs.Metrics.read transfer_blocks_skipped,
    Obs.Metrics.read transfer_rows_probed,
    Obs.Metrics.read transfer_rows_dropped )

let select_bloom ~filters pred rel =
  let schema = Relation.(rel.schema) in
  (* Filters are a hint: a name that doesn't resolve is dropped, never an
     error (e.g. a projection changed the scan's output columns). *)
  let fidx =
    List.filter_map
      (fun (name, bl) ->
        match Schema.index_of schema name with
        | i -> Some (i, bl)
        | exception Schema.Unknown_column _ -> None
        | exception Schema.Ambiguous_column _ -> None)
      filters
  in
  let probed = ref 0 and dropped = ref 0 in
  let flush () =
    if !probed > 0 then Obs.Metrics.add transfer_rows_probed !probed;
    if !dropped > 0 then Obs.Metrics.add transfer_rows_dropped !dropped
  in
  let result =
    if Relation.layout rel <> `Column then begin
      let keep =
        match pred with
        | None -> fun _ -> true
        | Some p -> Compile.pred schema p
      in
      let tests =
        List.map (fun (i, bl) -> fun (row : Row.t) -> Bloom.mem bl row.(i)) fidx
      in
      let out = ref [] in
      Relation.iter
        (fun row ->
          if keep row then begin
            incr probed;
            if List.for_all (fun t -> t row) tests then out := row :: !out
            else incr dropped
          end)
        rel;
      Relation.of_rows schema (List.rev !out)
    end
    else begin
      let cs = Relation.cstore rel in
      let probes, exact =
        match pred with
        | None -> ([], true)
        | Some p -> Compile.zone_probes schema p
      in
      let keep =
        match pred with
        | Some p when not exact -> Some (Compile.pred schema p)
        | _ -> None
      in
      (* Dict-coded columns probe the filter once per dictionary entry;
         per-row membership is then one code lookup. *)
      let dict_pass =
        List.map
          (fun (ci, bl) ->
            match Cstore.dict cs ci with
            | Some d ->
              Some
                (Array.init (Dict.size d) (fun code ->
                     Bloom.mem bl (Value.Str (Dict.get d code))))
            | None -> None)
          fidx
      in
      let out = ref [] in
      let nb = Cstore.nblocks cs in
      for bi = 0 to nb - 1 do
        let zm = Cstore.block_zmaps cs bi in
        let zrefuted =
          List.exists
            (fun (p : Compile.zone_probe) ->
              not
                (Zmap.may_match
                   zm.(p.Compile.zp_col)
                   (Compile.zmap_cmp p.Compile.zp_op)
                   p.Compile.zp_const))
            probes
        in
        if zrefuted then Obs.Metrics.incr blocks_skipped
        else if
          List.exists (fun (ci, bl) -> not (Bloom.range_may_match bl zm.(ci))) fidx
        then Obs.Metrics.incr transfer_blocks_skipped
        else begin
          Obs.Metrics.incr blocks_scanned;
          let b = Cstore.block cs bi in
          let stests =
            if keep = None then Array.of_list (List.map (probe_test cs b) probes)
            else [||]
          in
          let ns = Array.length stests in
          let btests =
            Array.of_list
              (List.map2
                 (fun (ci, bl) dp ->
                   match dp, b.Cstore.cols.(ci) with
                   | Some pass, Cstore.C_dict (codes, bm) ->
                     (match bm with
                      | None -> fun i -> pass.(codes.(i))
                      | Some bm ->
                        fun i -> (not (Bitset.get bm i)) && pass.(codes.(i)))
                   | _ -> fun i -> Bloom.mem bl (Cstore.value_at cs b ci i))
                 fidx dict_pass)
          in
          let nbt = Array.length btests in
          for i = 0 to b.Cstore.length - 1 do
            let ok = ref true in
            (match keep with
             | None ->
               let t = ref 0 in
               while !ok && !t < ns do
                 if not (stests.(!t) i) then ok := false;
                 incr t
               done
             | Some keep -> if not (keep (Cstore.row_of cs b i)) then ok := false);
            if !ok then begin
              incr probed;
              let t = ref 0 in
              while !ok && !t < nbt do
                if not (btests.(!t) i) then ok := false;
                incr t
              done;
              if !ok then out := Cstore.row_of cs b i :: !out else incr dropped
            end
          done
        end
      done;
      Relation.of_rows schema (List.rev !out)
    end
  in
  flush ();
  result
