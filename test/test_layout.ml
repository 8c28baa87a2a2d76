(* σ, π, ⋈ and γ over the same rows stored row-primary and column-primary
   must agree: data skipping and the typed scan kernels never drop or
   invent rows.  Whole queries across layouts are the oracle's job. *)
open Relalg
open Helpers

(* Small block size so multi-block relations (and thus real skipping
   decisions) occur at these sizes. *)
let columnar rel =
  Relation.of_cstore
    (Column.Cstore.of_rows ~block_size:16 rel.Relation.schema (Relation.rows rel))

(* Rows whose columns each draw one kind (Int, Int or NULL, Float or NaN,
   string, or any of the oracle's values), so typed and dictionary blocks
   form beside mixed ones; the first column is numeric so arithmetic
   projections and join keys type-check. *)
let gen_ops =
  let open QCheck2.Gen in
  let rows names =
    let kind = frequency [ (3, Oracle.column (-5) 12); (1, pure (Oracle.str "s" 3)); (1, pure Oracle.value) ] in
    let* cells = flatten_l (Oracle.column (-5) 12 :: List.map (fun _ -> kind) (List.tl names)) in
    map (fun rs -> rel names rs) (list_size (int_range 0 120) (flatten_l cells))
  in
  let conj =
    let+ c = oneofl [ "a"; "b"; "c" ]
    and+ op = oneofl Expr.[ Eq; Ne; Lt; Le; Gt; Ge ]
    and+ v = Oracle.value
    and+ flip = bool in
    if flip then Expr.Cmp (op, Expr.Const v, Expr.col c) else Expr.Cmp (op, Expr.col c, Expr.Const v)
  in
  let pred =
    oneof
      [ conj;
        map2 (fun x y -> Expr.And (x, y)) conj conj;
        map3 (fun x y z -> Expr.And (x, Expr.And (y, z))) conj conj conj;
        (* outside the zone-probe shape: forces the per-row fallback *)
        map2 (fun x y -> Expr.Or (x, y)) conj conj ]
  in
  tup4 (rows [ "a"; "b"; "c" ]) (rows [ "d"; "e" ]) pred (oneofl Expr.[ Eq; Le ])

(* σ, π, ⋈ and γ applied to the same data in both layouts (row result
   expected). *)
let check_ops (r, s, p, jop) =
  let rc = columnar r and sc = columnar s in
  (* σ: both the zone-probe path and the fallback *)
  check_bag (Printf.sprintf "select %s" (Expr.to_string p))
    (Ops.select p r) (Ops.select p rc);
  (* π with computed columns *)
  let outs =
    [ (Expr.col "b", Schema.col "b");
      (Expr.Binop (Expr.Add, Expr.col "a", Expr.int 1), Schema.col "a1") ]
  in
  check_bag "project" (Ops.project outs r) (Ops.project outs rc);
  (* ⋈: nested loop with a θ-predicate, and hashed equi-join *)
  let jp = Expr.Cmp (jop, Expr.col "a", Expr.col "d") in
  let join mk a b = exec (mk (values "r" a) (values "s" b)) in
  let nl left right = Plan.Nl_join { pred = jp; left; right } in
  let hash left right =
    Plan.Hash_join
      { keys = [ (Expr.col "a", Expr.col "d") ]; residual = Expr.tt; left; right }
  in
  check_bag "nl_join" (join nl r s) (join nl rc sc);
  check_bag "hash_join" (join hash r s) (join hash rc sc);
  (* γ over a group column with a mix of aggregates *)
  let aggs =
    [ (Agg.Count_star, Schema.col "n");
      (Agg.Sum (Expr.col "a"), Schema.col "s");
      (Agg.Min (Expr.col "c"), Schema.col "m") ]
  in
  check_bag "group_by"
    (exec_group ~group_cols:[ (Expr.col "b", Schema.col "b") ] ~aggs r)
    (exec_group ~group_cols:[ (Expr.col "b", Schema.col "b") ] ~aggs rc);
  true

let suite =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"σ/π/⋈/γ agree across layouts" ~count:60 gen_ops check_ops) ]
