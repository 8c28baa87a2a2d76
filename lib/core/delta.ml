(* Incremental maintenance of cached iceberg results under appends.

   A maintained entry keeps the query's §6 algebraic partial states — one
   [Value.t array] of partials per group — built by running a "partials
   query": the original SELECT/FROM/WHERE/GROUP BY with the HAVING dropped
   and every aggregate replaced by its intermediate form (AVG becomes
   SUM + COUNT; COUNT/SUM/MIN/MAX are their own partials).  An append of Δ
   rows to table R is folded in without re-materializing the join: for k
   occurrences of R in the FROM list, the telescoping (inclusion–exclusion)
   identity

     Q(R∪Δ, …, R∪Δ) − Q(R, …, R) = Σ_{j=1..k} Q(occ<j ↦ R, occ j ↦ Δ, occ>j ↦ R∪Δ)

   turns the delta into k joins that each touch Δ at one occurrence, so a
   1k-row append against a 1M-row table costs O(Δ ⋈ rest) instead of a full
   recompute.  When every delta row is refuted by the WHERE conjuncts local
   to each occurrence of R, the result provably cannot change and the entry
   is merely revalidated.  Finalization mirrors the NLJP Λ step: finals are
   computed from the partials, HAVING is applied over the (group, finals)
   row, and the SELECT list is evaluated with aggregates substituted by
   their final columns.

   The partial state does not depend on the iceberg threshold, nor on how
   SELECT combines the aggregates: it is one [state] per partials query,
   keyed by that query's normalized text (aggregates in canonical order),
   and any number of views ([t]) finalize it — each compiles only its own
   SELECT list and HAVING.  A new threshold over a known shape is answered
   by a fresh view over the existing state, without running the join.

   Holistic aggregates (COUNT DISTINCT), subqueries, WITH, DISTINCT and
   ORDER BY/LIMIT have no delta rule here — [supported] refuses them and
   the server falls back to full recompute. *)

open Sqlfront
open Relalg

type aggkind = K_count | K_sum | K_min | K_max | K_avg

type state = {
  s_catalog : Catalog.t;
  s_pq : Ast.query;  (* the partials query; its FROM/WHERE drive the delta step *)
  s_tables : string list;  (* distinct base tables, normalized *)
  s_aggs : (Ast.agg * aggkind * int) list;  (* agg, kind, first partial slot *)
  s_ncols : int;  (* partial slots per group *)
  s_ng : int;  (* group-key width *)
  s_merge : (Value.t -> Value.t -> Value.t) array;
  s_tbl : Value.t array Row.Tbl.t;  (* group key -> partials *)
  s_max_groups : int;
}

(* A view: one query's finalization, compiled once against the lambda
   schema of its state. *)
type t = {
  d_state : state;
  d_out_schema : Schema.t;
  d_out_fns : (Row.t -> Value.t) array;
  d_phi : (Row.t -> bool) option;
}

exception Unsupported_delta of string

let norm = String.lowercase_ascii

let rec pred_has_in = function
  | Ast.P_true | Ast.P_cmp _ -> false
  | Ast.P_and (a, b) | Ast.P_or (a, b) -> pred_has_in a || pred_has_in b
  | Ast.P_not a -> pred_has_in a
  | Ast.P_in _ -> true

let query_aggs (q : Ast.query) =
  let sel =
    List.concat_map
      (function
        | Ast.Sel_star -> []
        | Ast.Sel_expr (s, _) -> Ast.aggs_of_scalar s)
      q.Ast.select
  in
  let hav = match q.Ast.having with Some p -> Ast.aggs_of_pred p | None -> [] in
  List.fold_left
    (fun acc a ->
      if List.exists (Ast.equal_agg a) acc then acc else acc @ [ a ])
    [] (sel @ hav)

let kind_of_agg = function
  | Ast.A_count_star | Ast.A_count _ -> Some K_count
  | Ast.A_sum _ -> Some K_sum
  | Ast.A_min _ -> Some K_min
  | Ast.A_max _ -> Some K_max
  | Ast.A_avg _ -> Some K_avg
  | Ast.A_count_distinct _ -> None (* holistic: no bounded partial state *)

let supported catalog (q : Ast.query) =
  q.Ast.with_defs = [] && (not q.Ast.distinct) && q.Ast.order_by = []
  && q.Ast.limit = None
  && q.Ast.from <> []
  && List.for_all
       (function
         | Ast.T_table (n, _) -> Catalog.mem catalog n
         | Ast.T_subquery _ -> false)
       q.Ast.from
  && List.for_all
       (function Ast.Sel_star -> false | Ast.Sel_expr _ -> true)
       q.Ast.select
  && (match q.Ast.where with Some p -> not (pred_has_in p) | None -> true)
  && (match q.Ast.having with Some p -> not (pred_has_in p) | None -> true)
  && (let aggs = query_aggs q in
      (q.Ast.group_by <> [] || aggs <> [])
      && List.for_all (fun a -> kind_of_agg a <> None) aggs)

(* ---- partial-state plumbing ---- *)

(* Merge one delta partial into an accumulated partial, per slot — exactly
   the [Agg.compile] merge semantics at the [Value.t] level. *)
let merge_count a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> Value.Int (x + y)
  | _ -> raise (Unsupported_delta "count partial not an int")

(* Merged partial sums must give what a recompute gives.  Int partials
   merge exactly unless the sum overflows.  A float merge is kept only while
   the addition itself is exact and every value stays below 2^52 (NaN and
   infinities absorb in any order); past that, as in 2^52 + 0.5 + 1, the
   merge and a recompute round differently, so the state gives up and the
   caller recomputes.  A finished float partial cannot show a rounding
   inside itself (2^50 + 0.125 finishes as 2^50), and merging such a
   partial can still differ from a recompute in the last place. *)
let merge_sum a b =
  match (a, b) with
  | _, Value.Null -> a
  | Value.Null, _ -> b
  | Value.Int _, Value.Int _ -> (
    match Value.add a b with
    | Value.Int _ as r -> r
    | _ -> raise (Unsupported_delta "partial sum overflows; recompute"))
  | _ -> (
    let x = Value.to_float a and y = Value.to_float b in
    match Value.add a b with
    | Value.Float r as v
      when (not (Float.is_finite r))
           || Float.abs x < 0x1p52 && Float.abs y < 0x1p52 && Float.abs r < 0x1p52
              && r -. x = y && r -. y = x ->
      v
    | _ -> raise (Unsupported_delta "partial sum rounds; recompute"))

let merge_minmax smaller a b =
  if Value.is_null b then a
  else if Value.is_null a then b
  else
    match Value.compare_sql b a with
    | None -> a (* incomparable: keep first, as the engine's merge does *)
    | Some c -> if (if smaller then c < 0 else c > 0) then b else a

let agg_layout aggs =
  let slots = ref 0 in
  let laid =
    List.map
      (fun a ->
        let kind =
          match kind_of_agg a with
          | Some k -> k
          | None -> raise (Unsupported_delta "holistic aggregate")
        in
        let first = !slots in
        slots := !slots + (match kind with K_avg -> 2 | _ -> 1);
        (a, kind, first))
      aggs
  in
  (laid, !slots)

let merge_fns laid ncols =
  let fns = Array.make ncols merge_sum in
  List.iter
    (fun (_, kind, slot) ->
      match kind with
      | K_count -> fns.(slot) <- merge_count
      | K_sum -> fns.(slot) <- merge_sum
      | K_min -> fns.(slot) <- merge_minmax true
      | K_max -> fns.(slot) <- merge_minmax false
      | K_avg ->
        fns.(slot) <- merge_sum;
        fns.(slot + 1) <- merge_count)
    laid;
  fns

(* The partials query: group columns then partial aggregate columns, same
   FROM/WHERE/GROUP BY, no HAVING (below-threshold groups must keep state —
   an append may later lift them above it). *)
let partials_query (q : Ast.query) laid =
  let groups =
    List.mapi
      (fun i (gq, gn) ->
        Ast.Sel_expr (Ast.S_col (gq, gn), Some (Printf.sprintf "__g%d" i)))
      q.Ast.group_by
  in
  let parts =
    List.concat_map
      (fun (a, kind, slot) ->
        match (kind, a) with
        | K_avg, Ast.A_avg x ->
          [ Ast.Sel_expr (Ast.S_agg (Ast.A_sum x), Some (Printf.sprintf "__p%d" slot));
            Ast.Sel_expr (Ast.S_agg (Ast.A_count x), Some (Printf.sprintf "__p%d" (slot + 1)))
          ]
        | _ -> [ Ast.Sel_expr (Ast.S_agg a, Some (Printf.sprintf "__p%d" slot)) ])
      laid
  in
  {
    q with
    Ast.select = groups @ parts;
    having = None;
    order_by = [];
    limit = None;
    distinct = false;
  }

(* The distinct aggregates in a canonical order (by their SQL text), so
   queries that list the same aggregates differently share one layout. *)
let canonical_aggs q =
  let text a = Pretty.scalar (Ast.S_agg a) in
  List.sort (fun a b -> compare (text a) (text b)) (query_aggs q)

(* The layout and partials query of a supported query. *)
let shape q =
  let laid, ncols = agg_layout (canonical_aggs q) in
  (laid, ncols, partials_query q laid)

let partials_key catalog q =
  if not (supported catalog q) then None
  else
    match shape q with
    | _, _, pq -> Some (Pretty.query pq)
    | exception _ -> None

let fold_partials st rel =
  let ng = st.s_ng in
  Relation.iter
    (fun row ->
      let key = Array.sub row 0 ng in
      let part = Array.sub row ng st.s_ncols in
      match Row.Tbl.find_opt st.s_tbl key with
      | None -> Row.Tbl.replace st.s_tbl key part
      | Some acc ->
        for i = 0 to st.s_ncols - 1 do
          acc.(i) <- st.s_merge.(i) acc.(i) part.(i)
        done)
    rel;
  if Row.Tbl.length st.s_tbl > st.s_max_groups then
    raise (Unsupported_delta "group count above maintenance cap")

(* ---- finalization (the Λ step over maintained partials) ---- *)

let finals_of st (part : Value.t array) =
  Array.of_list
    (List.map
       (fun (_, kind, slot) ->
         match kind with
         | K_count | K_sum | K_min | K_max -> part.(slot)
         | K_avg ->
           (match part.(slot + 1) with
            | Value.Int 0 -> Value.Null
            | Value.Int n ->
              Value.Float (Value.to_float part.(slot) /. float_of_int n)
            | _ -> raise (Unsupported_delta "avg count partial not an int")))
       st.s_aggs)

let result t =
  let st = t.d_state in
  let out = ref [] in
  Row.Tbl.iter
    (fun key part ->
      let lambda = Array.append key (finals_of st part) in
      let keep = match t.d_phi with None -> true | Some phi -> phi lambda in
      if keep then
        out := Array.map (fun f -> f lambda) t.d_out_fns :: !out)
    st.s_tbl;
  Relation.make t.d_out_schema (Array.of_list !out)

(* ---- building ---- *)

let compile_output catalog (q : Ast.query) laid =
  let gb = q.Ast.group_by in
  let lambda_schema =
    Schema.append
      (Schema.of_cols (List.map (fun (gq, gn) -> Schema.col ?q:gq gn) gb))
      (Schema.of_cols
         (List.mapi (fun i _ -> Schema.col (Printf.sprintf "__agg%d" i)) laid))
  in
  let subst a =
    let rec go i = function
      | [] -> raise (Unsupported_delta "aggregate missing from layout")
      | (a', _, _) :: rest ->
        if Ast.equal_agg a a' then Ast.S_col (None, Printf.sprintf "__agg%d" i)
        else go (i + 1) rest
    in
    go 0 laid
  in
  let out_cols, out_fns =
    List.mapi
      (fun i item ->
        match item with
        | Ast.Sel_star -> raise (Unsupported_delta "SELECT *")
        | Ast.Sel_expr (s, alias) ->
          let name =
            match (alias, s) with
            | Some a, _ -> a
            | None, Ast.S_col (_, n) -> n
            | None, _ -> Printf.sprintf "col%d" i
          in
          let expr = Binder.scalar_expr (Aggmap.scalar subst s) in
          (Schema.col name, Compile.scalar lambda_schema expr))
      q.Ast.select
    |> List.split
  in
  let phi =
    Option.map
      (fun h ->
        Compile.pred lambda_schema
          (Binder.pred_expr catalog (Aggmap.pred subst h)))
      q.Ast.having
  in
  (Schema.of_cols out_cols, Array.of_list out_fns, phi)

let compile_view st q =
  let out_schema, out_fns, phi = compile_output st.s_catalog q st.s_aggs in
  { d_state = st; d_out_schema = out_schema; d_out_fns = out_fns; d_phi = phi }

(* The partials query itself is compared, not just its key: a view must
   never finalize a state built for another WHERE. *)
let view st (q : Ast.query) =
  if not (supported st.s_catalog q) then None
  else
    match
      let _, _, pq = shape q in
      if compare pq st.s_pq = 0 then Some (compile_view st q) else None
    with
    | t -> t
    | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
    | exception _ -> None

(* The view is compiled before the partials query runs, so a query whose
   SELECT or HAVING cannot be finalized costs no execution. *)
let init ?(max_groups = 200_000) catalog (q : Ast.query) =
  if not (supported catalog q) then None
  else
    match
      let laid, ncols, pq = shape q in
      let st =
        {
          s_catalog = catalog;
          s_pq = pq;
          s_tables = Ast.tables_of_query q;
          s_aggs = laid;
          s_ncols = ncols;
          s_ng = List.length q.Ast.group_by;
          s_merge = merge_fns laid ncols;
          s_tbl = Row.Tbl.create 256;
          s_max_groups = max_groups;
        }
      in
      let t = compile_view st q in
      fold_partials st (Binder.run catalog pq);
      t
    with
    | t -> Some t
    | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
    | exception _ -> None

let state t = t.d_state
let state_tables st = st.s_tables
let tables t = state_tables t.d_state

(* ---- the delta step ---- *)

(* WHERE conjuncts that constrain only one FROM occurrence: every column is
   either qualified with its alias, or unqualified, present in its table and
   absent from every other FROM table (so the binder must have resolved it
   here).  Evaluating them over a delta row is a sound necessary condition
   for that row to contribute through this occurrence. *)
let local_pred catalog (q : Ast.query) ~alias ~table =
  let own_schema =
    (Catalog.find catalog table).Catalog.rel.Relation.schema
  in
  let other_schemas =
    List.filter_map
      (function
        | Ast.T_table (n, a) ->
          let a = Option.value a ~default:n in
          if String.equal a alias then None
          else
            Option.map
              (fun tb -> tb.Catalog.rel.Relation.schema)
              (Catalog.find_opt catalog n)
        | Ast.T_subquery _ -> None)
      q.Ast.from
  in
  let col_is_local (cq, cn) =
    match cq with
    | Some a -> String.equal a alias
    | None ->
      Schema.mem own_schema (Schema.col cn)
      && not (List.exists (fun s -> Schema.mem s (Schema.col cn)) other_schemas)
  in
  let conjs =
    match q.Ast.where with
    | None -> []
    | Some w ->
      List.filter
        (fun c ->
          (not (pred_has_in c))
          && Ast.aggs_of_pred c = []
          && List.for_all col_is_local (Ast.cols_of_pred c))
        (Ast.conjuncts w)
  in
  if conjs = [] then None
  else
    let schema = Schema.requalify alias own_schema in
    Some (Compile.pred schema (Binder.pred_expr catalog (Ast.conj conjs)))

let fresh_name catalog base =
  let rec go i =
    let n = Printf.sprintf "%s__delta%d" base i in
    if Catalog.mem catalog n then go (i + 1) else n
  in
  go 0

(* Rewrite the FROM list for telescoping run [m] (1-based): occurrences of
   [table] before the m-th read the old prefix, the m-th reads the delta,
   later ones read the grown table as-is.  Aliases are pinned so column
   references resolve unchanged. *)
let from_for_run (q : Ast.query) ~table ~old_name ~delta_name ~m =
  let ord = ref 0 in
  List.map
    (function
      | Ast.T_table (n, a) when String.equal (norm n) table ->
        incr ord;
        let alias = Some (Option.value a ~default:n) in
        if !ord < m then Ast.T_table (old_name, alias)
        else if !ord = m then Ast.T_table (delta_name, alias)
        else Ast.T_table (n, alias)
      | item -> item)
    q.Ast.from

let fold ?(max_delta_frac = 0.5) st ~table ~delta =
  let table = norm table in
  if not (List.mem table st.s_tables) then Ok `Revalidated
  else
    try
      let catalog = st.s_catalog in
      let tbl = Catalog.find catalog table in
      let n = Relation.cardinality tbl.Catalog.rel in
      let dn = Relation.cardinality delta in
      if dn = 0 then Ok `Revalidated
      else if float_of_int dn > max_delta_frac *. float_of_int (max n 1) then
        Error "delta too large; recompute"
      else begin
        let occurrences =
          List.filter_map
            (function
              | Ast.T_table (nm, a) when String.equal (norm nm) table ->
                Some (Option.value a ~default:nm)
              | _ -> None)
            st.s_pq.Ast.from
        in
        let k = List.length occurrences in
        (* per-occurrence delta views, pre-filtered by that occurrence's
           local WHERE conjuncts: refuted rows cannot contribute there *)
        let drows = Relation.rows delta in
        let filtered =
          List.map
            (fun alias ->
              match local_pred catalog st.s_pq ~alias ~table with
              | None -> drows
              | Some p -> Array.of_seq (Seq.filter p (Array.to_seq drows)))
            occurrences
        in
        if List.for_all (fun r -> Array.length r = 0) filtered then
          Ok `Revalidated
        else begin
          let old_len = n - dn in
          let schema = tbl.Catalog.rel.Relation.schema in
          let old_name = fresh_name catalog (table ^ "_old") in
          let delta_name = fresh_name catalog (table ^ "_new") in
          let temps = ref [] in
          let add_temp name rel =
            Catalog.add_temp catalog ~keys:tbl.Catalog.keys ~fds:tbl.Catalog.fds
              ~nonneg:tbl.Catalog.nonneg name rel;
            temps := name :: !temps
          in
          Fun.protect
            ~finally:(fun () -> List.iter (Catalog.remove_table catalog) !temps)
            (fun () ->
              if k > 1 then
                add_temp old_name
                  (Relation.make schema
                     (Array.sub (Relation.rows tbl.Catalog.rel) 0 old_len));
              let joined = ref 0 in
              List.iteri
                (fun i rows ->
                  let m = i + 1 in
                  if Array.length rows > 0 then begin
                    joined := !joined + Array.length rows;
                    add_temp delta_name (Relation.make schema rows);
                    Fun.protect
                      ~finally:(fun () ->
                        Catalog.remove_table catalog delta_name;
                        temps := List.filter (fun n -> n <> delta_name) !temps)
                      (fun () ->
                        let pq =
                          { st.s_pq with
                            Ast.from =
                              from_for_run st.s_pq ~table ~old_name
                                ~delta_name ~m }
                        in
                        fold_partials st (Binder.run catalog pq))
                  end)
                filtered;
              Ok (`Incremental !joined))
        end
      end
    with
    | (Out_of_memory | Stack_overflow) as e -> raise e
    | Unsupported_delta msg -> Error msg
    | e -> Error (Printexc.to_string e)

let apply ?max_delta_frac t ~table ~delta =
  fold ?max_delta_frac t.d_state ~table ~delta

let groups t = Row.Tbl.length t.d_state.s_tbl
