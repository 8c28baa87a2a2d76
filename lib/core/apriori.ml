open Sqlfront
open Relalg

type target = [ `Left | `Right ]

let target_side (t : Qspec.t) = function `Left -> t.Qspec.left | `Right -> t.Qspec.right
let other_side (t : Qspec.t) = function `Left -> t.Qspec.right | `Right -> t.Qspec.left

let classification catalog (t : Qspec.t) =
  Monotone.classify ~nonneg:(Qspec.col_nonneg catalog t) t.Qspec.having

let names cols = List.map Qspec.col_name cols

let safe catalog (t : Qspec.t) target =
  let s = target_side t target in
  let o = other_side t target in
  if not (Qspec.pred_applicable s t.Qspec.having) then
    Error "HAVING condition not applicable to the target side"
  else begin
    let cls = classification catalog t in
    let mono_ok () =
      (* G_R ∪ J_R= must be a superkey of the other side. *)
      let attrs = names o.Qspec.group_cols_eff @ names o.Qspec.eq_join_cols in
      Qspec.superkey o attrs
    in
    let anti_ok () =
      (* G_L → J_L on the target side. *)
      Fdreason.Fd.implies s.Qspec.fds
        (Fdreason.Fd.make (names s.Qspec.group_cols_eff) (names s.Qspec.join_cols))
    in
    if Monotone.is_monotone cls && mono_ok () then Ok ()
    else if Monotone.is_anti_monotone cls && anti_ok () then Ok ()
    else
      match cls with
      | Monotone.Monotone ->
        Error "monotone HAVING but G ∪ J= is not a superkey of the other side"
      | Monotone.Anti_monotone ->
        Error "anti-monotone HAVING but G does not determine J on the target side"
      | Monotone.Both ->
        Error "set-insensitive HAVING but neither schema condition holds"
      | Monotone.Neither -> Error "HAVING condition is neither monotone nor anti-monotone"
  end

let reducer (t : Qspec.t) target =
  let s = target_side t target in
  let select =
    List.map
      (fun c -> Ast.Sel_expr (Ast.S_col (c.Schema.qualifier, c.Schema.name), None))
      s.Qspec.group_cols_eff
  in
  let group_by =
    List.map (fun c -> (c.Schema.qualifier, c.Schema.name)) s.Qspec.group_cols_eff
  in
  let from = List.map (fun (n, a) -> Ast.T_table (n, Some a)) s.Qspec.tables in
  let where = match s.Qspec.local with [] -> None | ps -> Some (Ast.conj ps) in
  Ast.simple_select ?where ~group_by ~having:t.Qspec.having select from

let vacuous (t : Qspec.t) target =
  let s = target_side t target in
  let singleton_groups =
    Qspec.superkey s (names s.Qspec.group_cols_eff)
  in
  if not singleton_groups then false
  else begin
    (* Over singleton groups every COUNT aggregate is 1; if Φ then reduces
       to a closed true condition, the reducer keeps everything. *)
    let counts_only = ref true in
    let phi' =
      Aggmap.pred
        (fun a ->
          match a with
          | Ast.A_count_star | Ast.A_count _ | Ast.A_count_distinct _ -> Ast.icst 1
          | Ast.A_sum _ | Ast.A_min _ | Ast.A_max _ | Ast.A_avg _ ->
            counts_only := false;
            Ast.icst 0)
        t.Qspec.having
    in
    !counts_only
    && Ast.cols_of_pred phi' = []
    &&
    match Binder.pred_expr (Catalog.create ()) phi' with
    | e -> (try Expr.eval_bool (Schema.of_cols []) [||] e with _ -> false)
    | exception _ -> false
  end

(* Wrap one table of the target side with a semijoin against the reducer on
   the group columns that live in that table. *)
let reduced_table (t : Qspec.t) target (name, alias) =
  let s = target_side t target in
  let own =
    List.filter (fun c -> c.Schema.qualifier = Some alias) s.Qspec.group_cols_eff
  in
  if own = [] then Ast.T_table (name, Some alias)
  else begin
    let red = reducer t target in
    (* Project the reducer onto this table's columns. *)
    let red =
      {
        red with
        Ast.select =
          List.map
            (fun c -> Ast.Sel_expr (Ast.S_col (c.Schema.qualifier, c.Schema.name), None))
            own;
      }
    in
    let tuple = List.map (fun c -> Ast.S_col (Some alias, c.Schema.name)) own in
    let sub =
      Ast.simple_select
        ~where:(Ast.P_in (tuple, red))
        [ Ast.Sel_star ]
        [ Ast.T_table (name, Some alias) ]
    in
    Ast.T_subquery (sub, alias)
  end

let replacements (t : Qspec.t) target =
  let s = target_side t target in
  List.filter_map
    (fun (name, alias) ->
      match reduced_table t target (name, alias) with
      | Ast.T_table _ -> None  (* no reducer output columns in this table *)
      | Ast.T_subquery _ as sub -> Some (alias, sub))
    s.Qspec.tables

let reduced_from (t : Qspec.t) target =
  let repl = replacements t target in
  List.map
    (fun item ->
      match item with
      | Ast.T_table (name, al) ->
        let alias = Option.value al ~default:name in
        (match List.assoc_opt alias repl with
         | Some sub -> sub
         | None -> item)
      | Ast.T_subquery _ -> item)
    t.Qspec.query.Ast.from

let apply (t : Qspec.t) target =
  { t.Qspec.query with Ast.from = reduced_from t target }

(* ---- instance-based checks (Definition 3) ---- *)

(* Materialize the candidate LR-join (no grouping) and the target side, then
   count, per (side-tuple, LR-group), how many joined tuples the side tuple
   contributes.  The join is the engine's nested loop over the two side
   plans; [Plan.Values] leaves would requalify every column of a side with
   one name, and a side spanning several aliases needs them for θ. *)
let joined_with_sides catalog (t : Qspec.t) =
  let lp = Binder.bind catalog (Qspec.side_query t.Qspec.left) in
  let rp = Binder.bind catalog (Qspec.side_query t.Qspec.right) in
  let pred = Qspec.theta_expr catalog t in
  ( Exec.run catalog lp,
    Exec.run catalog rp,
    Exec.run catalog (Plan.Nl_join { pred; left = lp; right = rp }) )

let group_key schema cols row =
  Row.project row (List.map (fun c -> Schema.index_of_col schema c) cols)

let check_instance catalog (t : Qspec.t) target ~deflationary =
  let l, r, lr = joined_with_sides catalog t in
  let side, side_rel = match target with `Left -> (t.Qspec.left, l) | `Right -> (t.Qspec.right, r) in
  ignore r;
  let lr_schema = lr.Relation.schema in
  let all_group_cols = t.Qspec.left.Qspec.group_cols @ t.Qspec.right.Qspec.group_cols in
  let side_idxs =
    List.map
      (fun c -> Schema.index_of_col lr_schema c)
      (Schema.cols side.Qspec.schema)
  in
  (* contribution count per (side tuple, group key) *)
  let contrib = Row.Tbl.create 256 in
  let groups = Row.Tbl.create 256 in
  Relation.iter
    (fun row ->
      let stup = Row.project row side_idxs in
      let gkey = group_key lr_schema all_group_cols row in
      let key = Row.append stup gkey in
      Row.Tbl.replace contrib key
        (1 + Option.value (Row.Tbl.find_opt contrib key) ~default:0);
      Row.Tbl.replace groups gkey ())
    lr;
  if not deflationary then
    (* non-inflationary: every (side tuple, group) pair appears at most once *)
    Row.Tbl.fold (fun _ n acc -> acc && n <= 1) contrib true
  else begin
    (* non-deflationary: for every candidate group and every side tuple in
       the corresponding side group, the side tuple contributes >= 1 *)
    let sg_cols = side.Qspec.group_cols in
    let sg_idx_in_side =
      List.map (fun c -> Schema.index_of_col side_rel.Relation.schema c) sg_cols
    in
    let sg_idx_in_lr = List.map (fun c -> Schema.index_of_col lr_schema c) sg_cols in
    let gcols_idx_in_group =
      (* position of side's group cols within the combined group key *)
      List.filter_map
        (fun c ->
          let rec find i = function
            | [] -> None
            | c' :: rest -> if c' = c then Some i else find (i + 1) rest
          in
          find 0 all_group_cols)
        sg_cols
    in
    ignore sg_idx_in_lr;
    Row.Tbl.fold
      (fun gkey () acc ->
        acc
        &&
        let u = Row.project gkey gcols_idx_in_group in
        Relation.fold
          (fun acc srow ->
            acc
            &&
            let su = Row.project srow sg_idx_in_side in
            if not (Row.equal su u) then true
            else
              let key = Row.append srow gkey in
              Option.value (Row.Tbl.find_opt contrib key) ~default:0 >= 1)
          true side_rel)
      groups true
  end

let non_inflationary catalog t target = check_instance catalog t target ~deflationary:false
let non_deflationary catalog t target = check_instance catalog t target ~deflationary:true
