(* Vectorized per-binding inner evaluation for NLJP over columnar inner
   relations (DESIGN.md §8).

   Θ conjuncts of shape [r_col op f(binding)] compile once into
   parameterized probes (Compile.param_probes).  Per binding, each probe's
   comparison constant is computed and tested against every block's zone
   map: a refuted probe proves the block joins no row of Q_R(b) and the
   block is skipped without touching its vectors — Figure 4's BT index
   configuration generalized to columnar data skipping.  Surviving blocks
   evaluate Θ through the typed comparison kernels into a selection
   vector, and COUNT/SUM/MIN/MAX/AVG aggregate directly over the unboxed
   int/float vectors under that selection — no Row.t is ever built.  When
   G_R is a dict-coded column, grouping runs on the integer codes and
   decodes only at finalize.

   Numeric accumulation mirrors Agg's left-fold of [Value.add] exactly
   (int mode until the first float, then float for good, in row order), so
   results — including float rounding — are bit-identical to the row path.

   A built [t] is immutable; all evaluation scratch is allocated per call,
   so one instance is safely shared across worker domains. *)

open Column

(* A block whose physical column type deviates from what [check] verified
   (all-numeric for aggregate inputs, all-dict for dictionary grouping).
   Unreachable for today's immutable cstores, but instead of aborting the
   process the evaluator raises and NLJP degrades to the row path, surfacing
   a [vector off: ...] note in the trace. *)
exception Fallback of string

(* ---- typed per-row comparison tests (shared with Colscan's σ) ---- *)

(* Compile one (column, op, constant) test into an [int -> bool] over a
   block, reading the typed vector directly.  NULL rows never match (SQL
   comparison semantics), which the numeric fast paths get from the null
   bitmap and the generic path gets from Compile.value_cmp. *)
let row_test cs (b : Cstore.block) col (op : Expr.cmp) (v : Value.t) : int -> bool =
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

(* ---- the compiled evaluator ---- *)

type kernel =
  | K_count_star
  | K_count of int  (* non-null count of a column *)
  | K_sum of int
  | K_min of int
  | K_max of int
  | K_avg of int

type grouping =
  | G_single  (* G_R = ∅: one partition per binding *)
  | G_dict of int * Dict.t  (* group on dictionary codes, decode at finalize *)
  | G_generic of int array  (* per-row key over these columns *)

type t = {
  cs : Cstore.t;
  probes : Compile.param_probe array;
  zops : Zmap.cmp array;  (* probe ops translated for the zone maps *)
  gates : (Row.t -> bool) array;  (* binding-only conjuncts of Θ *)
  grouping : grouping;
  kernels : kernel array;
  scratch_len : int;  (* largest block *)
}

type outcome = {
  groups : (Row.t * Agg.state list) list;
  blocks_skipped : int;
  blocks_scanned : int;
}

(* ---- build-time checks ---- *)

(* Column-kind checks go through [Cstore.col_kind], which is resident
   metadata for paged stores — building an NLJP evaluator over a [.sic]
   disk tier must not fault in every block just to inspect types.  Only a
   [K_varied] numeric candidate (int blocks mixed with float blocks, which
   the kernels do support) falls back to inspecting the blocks. *)
let all_blocks_match cs pred =
  let ok = ref true in
  Cstore.iter_blocks (fun b -> if not (pred b) then ok := false) cs;
  !ok

let numeric_col cs ci =
  match Cstore.col_kind cs ci with
  | Cstore.K_int | Cstore.K_float | Cstore.K_empty -> true
  | Cstore.K_varied ->
    all_blocks_match cs (fun b ->
        match b.Cstore.cols.(ci) with
        | Cstore.C_int _ | Cstore.C_float _ -> true
        | _ -> false)
  | Cstore.K_dict | Cstore.K_bool | Cstore.K_mixed -> false

let dict_col cs ci = Cstore.col_kind cs ci = Cstore.K_dict

type verdict = {
  v_probes : Compile.param_probe list;
  v_gates : (Row.t -> bool) list;
  v_kernels : kernel list;
}

let check ~binding ~inner:schema ~store:cs ~theta ~aggs =
  let probes, gates, exact = Compile.param_probes ~binding ~inner:schema theta in
  if not exact then Error "Θ has conjuncts outside the r_col-vs-binding shape"
  else begin
    let col_of e =
      match e with
      | Expr.Col c ->
        (match Schema.index_of_col schema c with
         | i -> Some i
         | exception Schema.Unknown_column _ -> None
         | exception Schema.Ambiguous_column _ -> None)
      | _ -> None
    in
    let kernel_of (f : Agg.func) =
      match f, Option.map col_of (Agg.input_expr f) with
      | Agg.Count_star, _ -> Ok K_count_star
      | Agg.Count_distinct _, _ -> Error "COUNT(DISTINCT) has no bounded kernel state"
      | _, (None | Some None) ->
        Error (Agg.to_string f ^ " ranges over a computed expression")
      | Agg.Count _, Some (Some i) -> Ok (K_count i)
      | _, Some (Some i) when not (numeric_col cs i) ->
        Error (Agg.to_string f ^ ": input column is not numeric in every block")
      | Agg.Sum _, Some (Some i) -> Ok (K_sum i)
      | Agg.Min _, Some (Some i) -> Ok (K_min i)
      | Agg.Max _, Some (Some i) -> Ok (K_max i)
      | _, Some (Some i) -> Ok (K_avg i)
    in
    let rec mk_kernels acc = function
      | [] -> Ok (List.rev acc)
      | f :: rest ->
        (match kernel_of f with
         | Ok k -> mk_kernels (k :: acc) rest
         | Error e -> Error e)
    in
    Result.map
      (fun kernels -> { v_probes = probes; v_gates = gates; v_kernels = kernels })
      (mk_kernels [] aggs)
  end

let build v ~inner:cs ~gr_idx =
  let grouping =
    match gr_idx with
    | [] -> G_single
    | [ g ] when dict_col cs g ->
      (match Cstore.dict cs g with
       | Some d -> G_dict (g, d)
       | None -> G_generic [| g |])
    | gs -> G_generic (Array.of_list gs)
  in
  {
    cs;
    probes = Array.of_list v.v_probes;
    zops =
      Array.of_list
        (List.map (fun p -> Compile.zmap_cmp p.Compile.pp_op) v.v_probes);
    gates = Array.of_list v.v_gates;
    grouping;
    kernels = Array.of_list v.v_kernels;
    scratch_len = Cstore.max_block_length cs;
  }

(* ---- per-evaluation scratch ---- *)

(* One kernel's per-group accumulators, grown as groups appear.  [mode]
   tracks the numeric representation (0 = no non-null input yet, 1 = int in
   [isum], 2 = float in [fsum]) so SUM/AVG reproduce [Value.add]'s
   int-until-first-float left fold and MIN/MAX reproduce [compare_sql]. *)
type kscratch = {
  mutable cnt : int array;
  mutable mode : int array;
  mutable isum : int array;
  mutable fsum : float array;
}

let kscratch_make n =
  { cnt = Array.make n 0; mode = Array.make n 0; isum = Array.make n 0;
    fsum = Array.make n 0. }

let kscratch_ensure ks n =
  let cap = Array.length ks.cnt in
  if n > cap then begin
    let cap' = max n (2 * cap) in
    let grow_i a =
      let b = Array.make cap' 0 in
      Array.blit a 0 b 0 cap;
      b
    in
    ks.cnt <- grow_i ks.cnt;
    ks.mode <- grow_i ks.mode;
    ks.isum <- grow_i ks.isum;
    let f = Array.make cap' 0. in
    Array.blit ks.fsum 0 f 0 cap;
    ks.fsum <- f
  end

let step_sum_int ks g v =
  match ks.mode.(g) with
  | 0 ->
    ks.mode.(g) <- 1;
    ks.isum.(g) <- v
  | 1 ->
    (* Same-sign operands whose sum flips sign overflowed: promote to float,
       exactly [Value.add]'s rule, so SUM/AVG past max_int match the row
       path instead of wrapping. *)
    let s = ks.isum.(g) + v in
    if (ks.isum.(g) >= 0) = (v >= 0) && (s >= 0) <> (ks.isum.(g) >= 0) then begin
      ks.mode.(g) <- 2;
      ks.fsum.(g) <- float_of_int ks.isum.(g) +. float_of_int v
    end
    else ks.isum.(g) <- s
  | _ -> ks.fsum.(g) <- ks.fsum.(g) +. float_of_int v

let step_sum_float ks g v =
  match ks.mode.(g) with
  | 0 ->
    ks.mode.(g) <- 2;
    ks.fsum.(g) <- v
  | 1 ->
    ks.mode.(g) <- 2;
    ks.fsum.(g) <- float_of_int ks.isum.(g) +. v
  | _ -> ks.fsum.(g) <- ks.fsum.(g) +. v

(* Strictly-better keeps the earlier value (and its representation) on
   ties, like Agg's [better]. *)
let step_minmax_int smaller ks g v =
  match ks.mode.(g) with
  | 0 ->
    ks.mode.(g) <- 1;
    ks.isum.(g) <- v
  | 1 ->
    let c = compare v ks.isum.(g) in
    if (if smaller then c < 0 else c > 0) then ks.isum.(g) <- v
  | _ ->
    let c = compare (float_of_int v) ks.fsum.(g) in
    if (if smaller then c < 0 else c > 0) then begin
      ks.mode.(g) <- 1;
      ks.isum.(g) <- v
    end

let step_minmax_float smaller ks g v =
  match ks.mode.(g) with
  | 0 ->
    ks.mode.(g) <- 2;
    ks.fsum.(g) <- v
  | 1 ->
    let c = compare v (float_of_int ks.isum.(g)) in
    if (if smaller then c < 0 else c > 0) then begin
      ks.mode.(g) <- 2;
      ks.fsum.(g) <- v
    end
  | _ ->
    let c = compare v ks.fsum.(g) in
    if (if smaller then c < 0 else c > 0) then ks.fsum.(g) <- v

(* Iterate (group, value) over the selection for a numeric column; null
   rows are skipped.  [check] guarantees int or float blocks;
   anything else aborts the vectorized path (see [Fallback]). *)
let iter_num (blk : Cstore.block) ci sel gids n ~fi ~ff =
  match blk.Cstore.cols.(ci) with
  | Cstore.C_int (a, None) ->
    for k = 0 to n - 1 do
      fi gids.(k) a.(sel.(k))
    done
  | Cstore.C_int (a, Some bm) ->
    for k = 0 to n - 1 do
      let i = sel.(k) in
      if not (Bitset.get bm i) then fi gids.(k) a.(i)
    done
  | Cstore.C_float (a, None) ->
    for k = 0 to n - 1 do
      ff gids.(k) a.(sel.(k))
    done
  | Cstore.C_float (a, Some bm) ->
    for k = 0 to n - 1 do
      let i = sel.(k) in
      if not (Bitset.get bm i) then ff gids.(k) a.(i)
    done
  | _ -> raise (Fallback "aggregate input block is not numeric")

let null_test (vec : Cstore.cvec) : int -> bool =
  match vec with
  | Cstore.C_int (_, Some bm)
  | Cstore.C_float (_, Some bm)
  | Cstore.C_dict (_, Some bm)
  | Cstore.C_bool (_, Some bm) ->
    fun i -> Bitset.get bm i
  | Cstore.C_mixed a -> fun i -> Value.is_null a.(i)
  | _ -> fun _ -> false

(* ---- evaluation ---- *)

let eval t b =
  let nb = Cstore.nblocks t.cs in
  if not (Array.for_all (fun g -> g b) t.gates) then
    (* A false binding-only conjunct empties Q_R(b): every block is skipped
       without a zone-map test. *)
    { groups = []; blocks_skipped = nb; blocks_scanned = 0 }
  else begin
    let np = Array.length t.probes in
    let consts = Array.map (fun p -> p.Compile.pp_val b) t.probes in
    let sel = Array.make (max 1 t.scratch_len) 0 in
    let gids = Array.make (max 1 t.scratch_len) 0 in
    let nkern = Array.length t.kernels in
    let kss = Array.init nkern (fun _ -> kscratch_make 8) in
    let ngroups = ref 0 in
    let dict_gid =
      match t.grouping with
      | G_dict (_, d) -> Array.make (Dict.size d + 1) (-1)
      | _ -> [||]
    in
    let dict_slots = ref [] in
    let gen_tbl : int Row.Tbl.t = Row.Tbl.create 16 in
    let gen_keys = ref [] in
    let skipped = ref 0 and scanned = ref 0 in
    (* Zone maps come from resident metadata ([Cstore.block_zmaps]) so a
       refuted block of a paged store is skipped without a fetch — the
       whole point of NLJP data skipping over the disk tier. *)
    for bi = 0 to nb - 1 do
      let zm = Cstore.block_zmaps t.cs bi in
      let refuted = ref false in
      for pi = 0 to np - 1 do
        if
          (not !refuted)
          && not
               (Zmap.may_match
                  zm.(t.probes.(pi).Compile.pp_col)
                  t.zops.(pi) consts.(pi))
        then refuted := true
      done;
      if !refuted then incr skipped
      else begin
        incr scanned;
        let blk = Cstore.block t.cs bi in
          let n = ref (Cstore.sel_all blk sel) in
          for pi = 0 to np - 1 do
            if !n > 0 then begin
              let p = t.probes.(pi) in
              n :=
                Cstore.sel_refine sel !n
                  (row_test t.cs blk p.Compile.pp_col p.Compile.pp_op consts.(pi))
            end
          done;
          let n = !n in
          if n > 0 then begin
            (match t.grouping with
             | G_single ->
               (* [gids] is never written, so it stays all-zero. *)
               if !ngroups = 0 then ngroups := 1
             | G_dict (g, _) ->
               (match blk.Cstore.cols.(g) with
                | Cstore.C_dict (codes, bm) ->
                  let is_null =
                    match bm with
                    | Some bm -> fun i -> Bitset.get bm i
                    | None -> fun _ -> false
                  in
                  for k = 0 to n - 1 do
                    let i = sel.(k) in
                    let slot = if is_null i then 0 else codes.(i) + 1 in
                    let gid = dict_gid.(slot) in
                    if gid >= 0 then gids.(k) <- gid
                    else begin
                      let gid = !ngroups in
                      incr ngroups;
                      dict_gid.(slot) <- gid;
                      dict_slots := slot :: !dict_slots;
                      gids.(k) <- gid
                    end
                  done
                | _ -> raise (Fallback "grouping block is not dictionary-coded"))
             | G_generic cols ->
               let nc = Array.length cols in
               for k = 0 to n - 1 do
                 let i = sel.(k) in
                 let key = Array.init nc (fun j -> Cstore.value_at t.cs blk cols.(j) i) in
                 match Row.Tbl.find_opt gen_tbl key with
                 | Some gid -> gids.(k) <- gid
                 | None ->
                   let gid = !ngroups in
                   incr ngroups;
                   Row.Tbl.add gen_tbl key gid;
                   gen_keys := key :: !gen_keys;
                   gids.(k) <- gid
               done);
            let ng = !ngroups in
            for ki = 0 to nkern - 1 do
              let ks = kss.(ki) in
              kscratch_ensure ks ng;
              match t.kernels.(ki) with
              | K_count_star ->
                for k = 0 to n - 1 do
                  let g = gids.(k) in
                  ks.cnt.(g) <- ks.cnt.(g) + 1
                done
              | K_count ci ->
                let isnull = null_test blk.Cstore.cols.(ci) in
                for k = 0 to n - 1 do
                  if not (isnull sel.(k)) then begin
                    let g = gids.(k) in
                    ks.cnt.(g) <- ks.cnt.(g) + 1
                  end
                done
              | K_sum ci ->
                iter_num blk ci sel gids n ~fi:(step_sum_int ks)
                  ~ff:(step_sum_float ks)
              | K_avg ci ->
                iter_num blk ci sel gids n
                  ~fi:(fun g v ->
                    ks.cnt.(g) <- ks.cnt.(g) + 1;
                    step_sum_int ks g v)
                  ~ff:(fun g v ->
                    ks.cnt.(g) <- ks.cnt.(g) + 1;
                    step_sum_float ks g v)
              | K_min ci ->
                iter_num blk ci sel gids n ~fi:(step_minmax_int true ks)
                  ~ff:(step_minmax_float true ks)
              | K_max ci ->
                iter_num blk ci sel gids n ~fi:(step_minmax_int false ks)
                  ~ff:(step_minmax_float false ks)
            done
          end
        end
    done;
    let ng = !ngroups in
    let keys =
      match t.grouping with
      | G_single -> Array.init ng (fun _ : Row.t -> [||])
      | G_dict (_, d) ->
        Array.of_list
          (List.rev_map
             (fun slot ->
               if slot = 0 then [| Value.Null |]
               else [| Value.Str (Dict.get d (slot - 1)) |])
             !dict_slots)
      | G_generic _ -> Array.of_list (List.rev !gen_keys)
    in
    let state_of kind ks g =
      let num () =
        match ks.mode.(g) with
        | 0 -> Value.Null
        | 1 -> Value.Int ks.isum.(g)
        | _ -> Value.Float ks.fsum.(g)
      in
      match kind with
      | K_count_star | K_count _ -> Agg.count_state ks.cnt.(g)
      | K_sum _ -> Agg.sum_state (num ())
      | K_min _ -> Agg.min_state (num ())
      | K_max _ -> Agg.max_state (num ())
      | K_avg _ -> Agg.avg_state ~sum:(num ()) ~n:ks.cnt.(g)
    in
    let groups =
      List.init ng (fun g ->
          ( keys.(g),
            List.init nkern (fun ki -> state_of t.kernels.(ki) kss.(ki) g) ))
    in
    { groups; blocks_skipped = !skipped; blocks_scanned = !scanned }
  end
