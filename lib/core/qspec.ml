open Sqlfront
open Relalg

type side = {
  aliases : string list;
  tables : (string * string) list;
  local : Ast.pred list;
  schema : Schema.t;
  group_cols : Schema.col list;
  group_cols_eff : Schema.col list;
  join_cols : Schema.col list;
  eq_join_cols : Schema.col list;
  fds : Fdreason.Fd.t list;
  keyed : bool;
}

type t = {
  query : Ast.query;
  left : side;
  right : side;
  theta : Ast.pred list;
  having : Ast.pred;
  group_by : (string option * string) list;
  select : Ast.select_item list;
}

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

let col_name c = Schema.col_to_string c

let aliases_of (q : Ast.query) =
  List.map
    (function
      | Ast.T_table (name, alias) -> Option.value alias ~default:name
      | Ast.T_subquery _ -> unsupported "subquery FROM item (materialize it first)")
    q.Ast.from

let table_of_item = function
  | Ast.T_table (name, alias) -> (name, Option.value alias ~default:name)
  | Ast.T_subquery _ -> unsupported "subquery FROM item"

let side_schema catalog tables =
  List.fold_left
    (fun acc (name, alias) ->
      let tbl = Catalog.find catalog name in
      Schema.append acc (Schema.requalify alias tbl.Catalog.rel.Relation.schema))
    (Schema.of_cols []) tables

(* Resolve an AST column against a side schema, if it belongs there. *)
let resolve_in schema (q, n) =
  match Schema.index_of schema ?q n with
  | i -> Some (Schema.nth schema i)
  | exception Schema.Unknown_column _ -> None
  | exception Schema.Ambiguous_column _ ->
    unsupported "ambiguous column %s" (match q with Some q -> q ^ "." ^ n | None -> n)

type owner = Left_side | Right_side | Cross

let owner_of left_schema right_schema cols =
  let one (q, n) =
    match resolve_in left_schema (q, n), resolve_in right_schema (q, n) with
    | Some _, None -> Left_side
    | None, Some _ -> Right_side
    | Some _, Some _ ->
      unsupported "column %s resolves on both sides"
        (match q with Some q -> q ^ "." ^ n | None -> n)
    | None, None ->
      unsupported "column %s resolves on neither side"
        (match q with Some q -> q ^ "." ^ n | None -> n)
  in
  match cols with
  | [] -> Cross
  | _ ->
    let owners = List.map one cols in
    if List.for_all (fun o -> o = Left_side) owners then Left_side
    else if List.for_all (fun o -> o = Right_side) owners then Right_side
    else Cross

let dedup_cols cols =
  List.fold_left (fun acc c -> if List.mem c acc then acc else acc @ [ c ]) [] cols

(* FDs of one side: each table's catalog FDs qualified by its alias, plus
   the FDs induced by this side's local equality conjuncts (Appendix D). *)
let side_fds catalog tables local schema =
  let table_fds =
    List.concat_map
      (fun (name, alias) ->
        let tbl = Catalog.find catalog name in
        Catalog.all_fds tbl
        |> List.map (fun (lhs, rhs) -> Fdreason.Fd.make lhs rhs)
        |> Fdreason.Fd.qualify (fun a -> alias ^ "." ^ a))
      tables
  in
  let simple_col s =
    match s with
    | Ast.S_col (q, n) -> resolve_in schema (q, n)
    | _ -> None
  in
  let eqs, consts =
    List.fold_left
      (fun (eqs, consts) p ->
        match p with
        | Ast.P_cmp (Expr.Eq, a, b) ->
          (match simple_col a, simple_col b with
           | Some ca, Some cb -> ((col_name ca, col_name cb) :: eqs, consts)
           | Some ca, None when (match b with Ast.S_const _ -> true | _ -> false) ->
             (eqs, col_name ca :: consts)
           | None, Some cb when (match a with Ast.S_const _ -> true | _ -> false) ->
             (eqs, col_name cb :: consts)
           | _ -> (eqs, consts))
        | _ -> (eqs, consts))
      ([], []) local
  in
  table_fds @ Fdreason.Fd.of_equalities ~constants:consts eqs

(* Congruence closure over column equalities: seeded by the query's
   top-level equality conjuncts, closed under same-table functional
   dependencies (two aliases of one table agreeing on an FD's left side
   agree on its right side).  This is the Appendix D inference that lets
   S1.id be represented by S2.id on the {S2,T2} side and derives
   S2.category = T2.category. *)
module Equiv = struct
  type t = (Schema.col, Schema.col) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let rec find t c =
    match Hashtbl.find_opt t c with
    | None -> c
    | Some p ->
      let root = find t p in
      if root <> p then Hashtbl.replace t c root;
      root

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then Hashtbl.replace t ra rb

  let same t a b = find t a = find t b
end

let close_equivalences catalog items combined conjs =
  let eq = Equiv.create () in
  let simple s = match s with Ast.S_col (qq, n) -> resolve_in combined (qq, n) | _ -> None in
  List.iter
    (fun p ->
      match p with
      | Ast.P_cmp (Expr.Eq, a, b) ->
        (match simple a, simple b with
         | Some ca, Some cb -> Equiv.union eq ca cb
         | _ -> ())
      | _ -> ())
    conjs;
  (* Fixpoint: same-table FD congruence across alias pairs. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (tname, a) ->
        List.iter
          (fun (tname', b) ->
            if String.equal tname tname' && a < b then begin
              let tbl = Catalog.find catalog tname in
              List.iter
                (fun (lhs, rhs) ->
                  let qual alias n = Schema.col ~q:alias n in
                  let agree =
                    lhs <> []
                    && List.for_all (fun x -> Equiv.same eq (qual a x) (qual b x)) lhs
                  in
                  if agree then
                    List.iter
                      (fun y ->
                        if not (Equiv.same eq (qual a y) (qual b y)) then begin
                          Equiv.union eq (qual a y) (qual b y);
                          changed := true
                        end)
                      rhs)
                (Catalog.all_fds tbl)
            end)
          items)
      items
  done;
  eq

let analyze catalog (q : Ast.query) ~left_aliases =
  if q.Ast.with_defs <> [] then unsupported "WITH block (materialize CTEs first)";
  if q.Ast.distinct then unsupported "DISTINCT";
  let having = match q.Ast.having with Some h -> h | None -> unsupported "no HAVING" in
  let items = List.map table_of_item q.Ast.from in
  let is_left (_, alias) = List.mem alias left_aliases in
  let ltables, rtables = List.partition is_left items in
  if ltables = [] || rtables = [] then unsupported "empty side";
  let lschema = side_schema catalog ltables in
  let rschema = side_schema catalog rtables in
  let conjs = match q.Ast.where with None -> [] | Some w -> Ast.conjuncts w in
  let llocal = ref [] and rlocal = ref [] and theta = ref [] in
  List.iter
    (fun p ->
      match owner_of lschema rschema (Ast.cols_of_pred p) with
      | Left_side -> llocal := p :: !llocal
      | Right_side -> rlocal := p :: !rlocal
      | Cross -> theta := p :: !theta)
    conjs;
  let llocal = List.rev !llocal and rlocal = List.rev !rlocal in
  let theta = List.rev !theta in
  let combined = Schema.append lschema rschema in
  let equiv = close_equivalences catalog items combined conjs in
  let equivalents c =
    (* all combined-schema columns equivalent to c (including c) *)
    List.filter (fun c' -> Equiv.same equiv c c') (Schema.cols combined)
  in
  (* Group columns per side. *)
  let lgroup = ref [] and rgroup = ref [] in
  List.iter
    (fun (qq, n) ->
      match resolve_in lschema (qq, n), resolve_in rschema (qq, n) with
      | Some c, None -> lgroup := c :: !lgroup
      | None, Some c -> rgroup := c :: !rgroup
      | Some _, Some _ -> unsupported "ambiguous group column"
      | None, None -> unsupported "unresolved group column %s" n)
    q.Ast.group_by;
  (* Effective group columns: represent each global GROUP BY column by an
     equivalent column of the side when possible. *)
  let eff_group schema =
    List.filter_map
      (fun (qq, n) ->
        match resolve_in combined (qq, n) with
        | None -> None
        | Some g ->
          if Schema.mem schema g then Some g
          else List.find_opt (fun c -> Schema.mem schema c) (equivalents g))
      q.Ast.group_by
  in
  (* Strengthened local conjuncts: equalities between same-side columns that
     follow from Θ and FDs (they hold on every tuple that can contribute to
     the join result, so filtering by them is safe on either side). *)
  let strengthened schema local =
    let cols = Schema.cols schema in
    let extra = ref [] in
    List.iteri
      (fun i a ->
        List.iteri
          (fun j b ->
            if i < j && Equiv.same equiv a b then begin
              let pred =
                Ast.P_cmp
                  ( Expr.Eq,
                    Ast.S_col (a.Schema.qualifier, a.Schema.name),
                    Ast.S_col (b.Schema.qualifier, b.Schema.name) )
              in
              if
                not
                  (List.exists
                     (fun p ->
                       Ast.equal_pred p pred
                       || Ast.equal_pred p
                            (Ast.P_cmp
                               ( Expr.Eq,
                                 Ast.S_col (b.Schema.qualifier, b.Schema.name),
                                 Ast.S_col (a.Schema.qualifier, a.Schema.name) )))
                     (local @ !extra))
              then extra := pred :: !extra
            end)
          cols)
      cols;
    local @ List.rev !extra
  in
  let llocal = strengthened lschema llocal in
  let rlocal = strengthened rschema rlocal in
  (* Join columns per side, and the equality subset. *)
  let ljoin = ref [] and rjoin = ref [] and leq = ref [] and req = ref [] in
  List.iter
    (fun p ->
      let classify_col (qq, n) =
        match resolve_in lschema (qq, n), resolve_in rschema (qq, n) with
        | Some c, None -> ljoin := c :: !ljoin
        | None, Some c -> rjoin := c :: !rjoin
        | _ -> ()
      in
      List.iter classify_col (Ast.cols_of_pred p);
      match p with
      | Ast.P_cmp (Expr.Eq, Ast.S_col (qa, na), Ast.S_col (qb, nb)) ->
        let a = (qa, na) and b = (qb, nb) in
        let note (qq, n) =
          match resolve_in lschema (qq, n), resolve_in rschema (qq, n) with
          | Some c, None -> leq := c :: !leq
          | None, Some c -> req := c :: !req
          | _ -> ()
        in
        note a;
        note b
      | _ -> ())
    theta;
  let mk_side aliases tables local schema group join eq =
    {
      aliases;
      tables;
      local;
      schema;
      group_cols = dedup_cols (List.rev group);
      group_cols_eff = dedup_cols (eff_group schema);
      join_cols = dedup_cols (List.rev join);
      eq_join_cols = dedup_cols (List.rev eq);
      fds = side_fds catalog tables local schema;
      keyed =
        List.for_all (fun (name, _) -> (Catalog.find catalog name).Catalog.keys <> []) tables;
    }
  in
  let left =
    mk_side
      (List.map snd ltables)
      ltables llocal lschema !lgroup !ljoin !leq
  in
  let right =
    mk_side
      (List.map snd rtables)
      rtables rlocal rschema !rgroup !rjoin !req
  in
  {
    query = q;
    left;
    right;
    theta;
    having;
    group_by = q.Ast.group_by;
    select = q.Ast.select;
  }

let pred_applicable side p =
  List.for_all
    (fun (q, n) -> Option.is_some (resolve_in side.schema (q, n)))
    (Ast.cols_of_pred p)

let theta_expr catalog t =
  Sqlfront.Binder.pred_expr catalog (Ast.conj t.theta)

let side_query ?(overrides = []) side =
  let from =
    List.map
      (fun (name, alias) ->
        match List.assoc_opt alias overrides with
        | Some item -> item
        | None -> Ast.T_table (name, Some alias))
      side.tables
  in
  let where = match side.local with [] -> None | ps -> Some (Ast.conj ps) in
  Ast.simple_select ?where [ Ast.Sel_star ] from

let side_attrs side = List.map col_name (Schema.cols side.schema)

let superkey side attrs = side.keyed && Fdreason.Fd.superkey side.fds ~all:(side_attrs side) attrs

let resolve_cols side cols =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | c :: rest ->
      (match resolve_in side.schema c with
       | Some col -> go (col :: acc) rest
       | None -> None)
  in
  go [] cols

let lambda_applicable t =
  let group_cols = t.left.group_cols @ t.right.group_cols in
  let is_group_col (q, n) =
    List.exists
      (fun c ->
        String.equal c.Schema.name n
        && match q with None -> true | Some q -> c.Schema.qualifier = Some q)
      group_cols
  in
  let arg_cols a =
    match a with
    | Ast.A_count_star -> []
    | Ast.A_count x | Ast.A_count_distinct x | Ast.A_sum x | Ast.A_min x
    | Ast.A_max x | Ast.A_avg x -> Ast.cols_of_scalar x
  in
  List.for_all
    (fun item ->
      match item with
      | Ast.Sel_star -> false
      | Ast.Sel_expr (s, _) ->
        let aggs = Ast.aggs_of_scalar s in
        let agg_args_ok =
          List.for_all
            (fun a ->
              List.for_all
                (fun (q, n) -> Option.is_some (resolve_in t.right.schema (q, n)))
                (arg_cols a))
            aggs
        in
        (* Strip aggregates, then the remaining column references must be
           group columns. *)
        let stripped =
          let rec strip = function
            | (Ast.S_const _ | Ast.S_col _) as s -> s
            | Ast.S_binop (op, a, b) -> Ast.S_binop (op, strip a, strip b)
            | Ast.S_neg a -> Ast.S_neg (strip a)
            | Ast.S_agg _ -> Ast.icst 0
          in
          strip s
        in
        agg_args_ok && List.for_all is_group_col (Ast.cols_of_scalar stripped))
    t.select

let outer_group_is_key t =
  let names = List.map col_name t.left.group_cols_eff in
  superkey t.left names

let all_aggs t =
  List.fold_left
    (fun acc a -> if List.exists (Ast.equal_agg a) acc then acc else acc @ [ a ])
    []
    (Ast.aggs_of_pred t.having
    @ List.concat_map
        (function Ast.Sel_star -> [] | Ast.Sel_expr (s, _) -> Ast.aggs_of_scalar s)
        t.select)

let col_nonneg catalog t (q, n) =
  let check side =
    match resolve_in side.schema (q, n) with
    | None -> None
    | Some col ->
      let alias = Option.value col.Schema.qualifier ~default:"" in
      (match List.find_opt (fun (_, a) -> String.equal a alias) side.tables with
       | None -> Some false
       | Some (tname, _) ->
         Some (Catalog.is_nonneg (Catalog.find catalog tname) col.Schema.name))
  in
  match check t.left with
  | Some b -> b
  | None -> (match check t.right with Some b -> b | None -> false)
