(* Global aggregation directly on compressed blocks (see colagg.mli).

   SUM and AVG accumulate into the {!Value.Sum} Agg's states hold, so a
   run-length segment adds as one multiply.  MIN/MAX mirror Agg's [better]
   exactly: [mode] is 0 until the first non-null input, 1 while the running
   value is an int, 2 once it is a float. *)

open Column

let blocks_direct = Obs.Metrics.counter "sic.blocks_direct"

type kern =
  | A_count_star
  | A_count of int
  | A_sum of int * bool  (* column, is_float *)
  | A_minmax of int * bool * bool  (* column, is_float, smaller *)
  | A_avg of int * bool

type scratch = {
  mutable cnt : int;
  sum : Value.Sum.t;
  mutable mode : int;  (* MIN/MAX: 0 = no input yet, 1 = int, 2 = float *)
  mutable i : int;
  mutable f : float;
}

(* Strictly-better keeps the earlier value (and its representation) on
   ties, like Agg's [better]; one test per run suffices since repetition
   cannot change a min/max. *)
let minmax_int smaller s v =
  match s.mode with
  | 0 ->
    s.mode <- 1;
    s.i <- v
  | 1 ->
    let c = compare v s.i in
    if (if smaller then c < 0 else c > 0) then s.i <- v
  | _ ->
    let c = Value.compare_int_float v s.f in
    if (if smaller then c < 0 else c > 0) then begin
      s.mode <- 1;
      s.i <- v
    end

let minmax_float smaller s v =
  match s.mode with
  | 0 ->
    s.mode <- 2;
    s.f <- v
  | 1 ->
    let c = - Value.compare_int_float s.i v in
    if (if smaller then c < 0 else c > 0) then begin
      s.mode <- 2;
      s.f <- v
    end
  | _ ->
    let c = compare v s.f in
    if (if smaller then c < 0 else c > 0) then s.f <- v

(* Fold one kernel over one encoded block; [false] when the physical
   encoding refuses the kernel (caller abandons the whole fast path). *)
let eval_kern k s (enc : Encode.col array) block_len =
  match k with
  | A_count_star ->
    s.cnt <- s.cnt + block_len;
    true
  | A_count ci ->
    s.cnt <- s.cnt + (block_len - Encode.null_count enc.(ci));
    true
  | A_sum (ci, false) ->
    Encode.iter_int_segments enc.(ci) (fun v len is_null ->
        if not is_null then Value.Sum.add_int_run s.sum v len)
  | A_sum (_, true) | A_avg (_, true) | A_minmax (_, true, _) -> (
    let ci, per_value =
      match k with
      | A_sum (ci, _) -> (ci, Value.Sum.add_float s.sum)
      | A_avg (ci, _) ->
        ( ci,
          fun v ->
            s.cnt <- s.cnt + 1;
            Value.Sum.add_float s.sum v )
      | A_minmax (ci, _, smaller) -> (ci, minmax_float smaller s)
      | _ -> assert false
    in
    Encode.iter_floats_nonnull enc.(ci) per_value)
  | A_avg (ci, false) ->
    Encode.iter_int_segments enc.(ci) (fun v len is_null ->
        if not is_null then begin
          s.cnt <- s.cnt + len;
          Value.Sum.add_int_run s.sum v len
        end)
  | A_minmax (ci, false, smaller) ->
    Encode.iter_int_segments enc.(ci) (fun v len is_null ->
        if (not is_null) && len > 0 then minmax_int smaller s v)

let state_of k s =
  let num () =
    match s.mode with
    | 0 -> Value.Null
    | 1 -> Value.Int s.i
    | _ -> Value.Float s.f
  in
  match k with
  | A_count_star | A_count _ -> Agg.count_state s.cnt
  | A_sum _ -> Agg.sum_state s.sum
  | A_minmax (_, _, true) -> Agg.min_state (num ())
  | A_minmax (_, _, false) -> Agg.max_state (num ())
  | A_avg _ -> Agg.avg_state ~sum:s.sum ~n:s.cnt

let try_global ~group_cols ~aggs rel =
  if group_cols <> [] || Relation.layout rel <> `Column then None
  else begin
    let cs = Relation.cstore rel in
    if not (Cstore.is_paged cs) then None
    else begin
      let schema = Relation.(rel.schema) in
      let col_of e =
        match (e : Expr.t) with
        | Expr.Col c -> (
          match Schema.index_of_col schema c with
          | i -> Some i
          | exception Schema.Unknown_column _ -> None
          | exception Schema.Ambiguous_column _ -> None)
        | _ -> None
      in
      let numeric ci =
        match Cstore.col_kind cs ci with
        | Cstore.K_int -> Some false
        | Cstore.K_float -> Some true
        | _ -> None
      in
      let num_kern mk e =
        Option.bind (col_of e) (fun ci ->
            Option.map (fun is_float -> mk ci is_float) (numeric ci))
      in
      let kern_of (f : Agg.func) =
        match f with
        | Agg.Count_star -> Some A_count_star
        | Agg.Count e -> Option.map (fun ci -> A_count ci) (col_of e)
        | Agg.Sum e -> num_kern (fun ci fl -> A_sum (ci, fl)) e
        | Agg.Avg e -> num_kern (fun ci fl -> A_avg (ci, fl)) e
        | Agg.Min e -> num_kern (fun ci fl -> A_minmax (ci, fl, true)) e
        | Agg.Max e -> num_kern (fun ci fl -> A_minmax (ci, fl, false)) e
        | Agg.Count_distinct _ -> None
      in
      let rec mk acc = function
        | [] -> Some (Array.of_list (List.rev acc))
        | (f, _) :: rest -> (
          match kern_of f with Some k -> mk (k :: acc) rest | None -> None)
      in
      match mk [] aggs with
      | None -> None
      | Some kerns ->
        let nk = Array.length kerns in
        let scr =
          Array.init nk (fun _ ->
              { cnt = 0; sum = Value.Sum.create (); mode = 0; i = 0; f = 0. })
        in
        let nb = Cstore.nblocks cs in
        let ok = ref true in
        let bi = ref 0 in
        while !ok && !bi < nb do
          (match Cstore.block_enc cs !bi with
           | None -> ok := false
           | Some enc ->
             let len = Cstore.block_length cs !bi in
             let ki = ref 0 in
             while !ok && !ki < nk do
               if not (eval_kern kerns.(!ki) scr.(!ki) enc len) then ok := false;
               incr ki
             done);
          incr bi
        done;
        if not !ok then None
        else begin
          Obs.Metrics.add blocks_direct nb;
          let out_schema = Schema.of_cols (List.map snd aggs) in
          let row =
            Array.of_list
              (List.mapi
                 (fun ki (f, _) ->
                   (Agg.compile schema f).Agg.final (state_of kerns.(ki) scr.(ki)))
                 aggs)
          in
          Some (Relation.of_rows out_schema [ row ])
        end
    end
  end
