(* Incremental maintenance of cached iceberg results under appends.

   A maintained entry keeps the query's §6 algebraic partial states — per
   group, each aggregate's own running state ({!Relalg.Agg.state}: a SUM
   keeps its [Value.Sum], an AVG its sum and count) — built by running a
   "partials query": the original FROM/WHERE/GROUP BY with the HAVING
   dropped, grouped by the engine but not finalized.  An append of Δ
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

(* One group's aggregate states, and their finals, which every view reads:
   refreshed whenever a fold changes the states. *)
type group = { states : Agg.state array; mutable finals : Value.t array }

type state = {
  s_catalog : Catalog.t;
  s_pq : Ast.query;  (* the partials query; its FROM/WHERE drive the delta step *)
  s_tables : string list;  (* distinct base tables, normalized *)
  s_aggs : Ast.agg list;  (* in canonical order: one state each *)
  s_compiled : Agg.compiled array;  (* their merge and final, by position *)
  s_tbl : group Row.Tbl.t;  (* by group key *)
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

let algebraic = function
  | Ast.A_count_star | Ast.A_count _ | Ast.A_sum _ | Ast.A_min _ | Ast.A_max _
  | Ast.A_avg _ ->
    true
  | Ast.A_count_distinct _ -> false (* holistic: no bounded partial state *)

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
      && List.for_all algebraic aggs)

(* ---- partial-state plumbing ---- *)

(* The partials query: group columns then the aggregates, same
   FROM/WHERE/GROUP BY, no HAVING (below-threshold groups must keep state —
   an append may later lift them above it). *)
let partials_query (q : Ast.query) aggs =
  let groups =
    List.mapi
      (fun i (gq, gn) ->
        Ast.Sel_expr (Ast.S_col (gq, gn), Some (Printf.sprintf "__g%d" i)))
      q.Ast.group_by
  in
  let parts =
    List.mapi (fun i a -> Ast.Sel_expr (Ast.S_agg a, Some (Printf.sprintf "__p%d" i))) aggs
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

(* The aggregates and partials query of a supported query. *)
let shape q =
  let aggs = canonical_aggs q in
  (aggs, partials_query q aggs)

let partials_key catalog q =
  if not (supported catalog q) then None
  else
    match shape q with
    | _, pq -> Some (Pretty.query pq)
    | exception _ -> None

(* The groups of the partials query [pq] (over the catalog as it is now,
   temps included), with their aggregate states.  The binder plans it as a
   projection over one [Group] node whose aggregates are [pq]'s, in order. *)
let group_states catalog pq =
  match Binder.bind catalog pq with
  | Plan.Project (_, Plan.Group { group_cols; aggs; input }) ->
    Exec.group_states catalog ~group_cols ~aggs input
  | _ -> raise (Unsupported_delta "partials query is not one grouping")

(* Merge groups into the state with the aggregates' own [merge]: a SUM adds
   its ints exactly and its floats apart, as a recompute would, so the
   merged state finalizes to what the engine gives for the grown input. *)
let fold_partials st groups =
  let finals = Array.map2 (fun (c : Agg.compiled) s -> c.Agg.final s) st.s_compiled in
  Row.Tbl.iter
    (fun key states ->
      match Row.Tbl.find_opt st.s_tbl key with
      | None -> Row.Tbl.replace st.s_tbl key { states; finals = finals states }
      | Some g ->
        Array.iteri (fun i (c : Agg.compiled) -> c.Agg.merge g.states.(i) states.(i)) st.s_compiled;
        g.finals <- finals g.states)
    groups;
  if Row.Tbl.length st.s_tbl > st.s_max_groups then
    raise (Unsupported_delta "group count above maintenance cap")

(* ---- finalization (the Λ step over maintained partials) ---- *)

let result t =
  let st = t.d_state in
  let out = ref [] in
  (* One lambda row, refilled per group: HAVING and the SELECT list read it
     and keep none of it. *)
  let lambda = ref [||] in
  Row.Tbl.iter
    (fun key { finals; _ } ->
      let nk = Array.length key and nf = Array.length finals in
      if Array.length !lambda <> nk + nf then lambda := Array.make (nk + nf) Value.Null;
      let lambda = !lambda in
      Array.blit key 0 lambda 0 nk;
      Array.blit finals 0 lambda nk nf;
      let keep = match t.d_phi with None -> true | Some phi -> phi lambda in
      if keep then
        out := Array.map (fun f -> f lambda) t.d_out_fns :: !out)
    st.s_tbl;
  Relation.make t.d_out_schema (Array.of_list !out)

(* ---- building ---- *)

let compile_output catalog (q : Ast.query) aggs =
  let gb = q.Ast.group_by in
  let lambda_schema =
    Schema.append
      (Schema.of_cols (List.map (fun (gq, gn) -> Schema.col ?q:gq gn) gb))
      (Schema.of_cols
         (List.mapi (fun i _ -> Schema.col (Printf.sprintf "__agg%d" i)) aggs))
  in
  let subst a =
    let rec go i = function
      | [] -> raise (Unsupported_delta "aggregate missing from layout")
      | a' :: rest ->
        if Ast.equal_agg a a' then Ast.S_col (None, Printf.sprintf "__agg%d" i)
        else go (i + 1) rest
    in
    go 0 aggs
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
      let _, pq = shape q in
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
      let aggs, pq = shape q in
      let out_schema, out_fns, phi = compile_output catalog q aggs in
      let compiled, groups = group_states catalog pq in
      let st =
        {
          s_catalog = catalog;
          s_pq = pq;
          s_tables = Ast.tables_of_query q;
          s_aggs = aggs;
          s_compiled = compiled;
          s_tbl = Row.Tbl.create 256;
          s_max_groups = max_groups;
        }
      in
      (* a global aggregate has its one group even over no rows *)
      if q.Ast.group_by = [] && Row.Tbl.length groups = 0 then
        Row.Tbl.replace groups [||] (Array.map (fun (c : Agg.compiled) -> c.Agg.fresh ()) compiled);
      fold_partials st groups;
      { d_state = st; d_out_schema = out_schema; d_out_fns = out_fns; d_phi = phi }
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
                        fold_partials st (snd (group_states catalog pq)))
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
