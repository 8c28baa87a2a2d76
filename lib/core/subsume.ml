open Relalg

type t = {
  formula : Qelim.Formula.t;
  jl : Schema.col list;
}

(* Variable naming: the candidate binding w uses w0, w1, …; the cached
   binding w' uses wp0, wp1, …; R's join attributes use r0, r1, …. *)
let w_var i = Printf.sprintf "w%d" i
let wp_var i = Printf.sprintf "wp%d" i
let r_var i = Printf.sprintf "r%d" i

let index_of col cols =
  let rec go i = function
    | [] -> None
    | c :: rest -> if c = col then Some i else go (i + 1) rest
  in
  go 0 cols

(* Check the non-numeric restriction: every conjunct containing a
   non-numeric column must be a plain (in)equality between columns or
   constants — interning then preserves = and ≠. *)
let nonnumeric_ok theta numeric =
  let conjs = Expr.conjuncts theta in
  let rec pred_ok = function
    | Expr.Cmp ((Expr.Eq | Expr.Ne), a, b) ->
      let simple = function Expr.Col _ | Expr.Const _ -> true | _ -> false in
      simple a && simple b
    | Expr.Cmp _ -> false
    | Expr.And (a, b) | Expr.Or (a, b) -> pred_ok a && pred_ok b
    | Expr.Not a -> pred_ok a
    | _ -> false
  in
  List.for_all
    (fun c ->
      let has_nonnum = List.exists (fun col -> not (numeric col)) (Expr.columns c) in
      (not has_nonnum) || pred_ok c)
    conjs

let derive ~theta ~jl ~jr ~numeric =
  if not (nonnumeric_ok theta numeric) then None
  else begin
    let var_for ~primed col =
      match index_of col jl with
      | Some i -> Some (if primed then wp_var i else w_var i)
      | None ->
        (match index_of col jr with
         | Some i -> Some (r_var i)
         | None -> None)
    in
    (* Translation fails (None) if some Θ column is neither in J_L nor J_R
       (should not happen) — map it to a sentinel that forces failure. *)
    let ok = ref true in
    let mk primed col =
      match var_for ~primed col with
      | Some v -> v
      | None ->
        ok := false;
        "__unknown"
    in
    let premise = Qelim.Translate.formula ~var:(mk true) theta in
    let conclusion = Qelim.Translate.formula ~var:(mk false) theta in
    match premise, conclusion with
    | Some premise, Some conclusion when !ok ->
      let rvars = List.mapi (fun i _ -> r_var i) jr in
      let formula = Qelim.Qe.forall_implies ~vars:rvars ~premise ~conclusion in
      Some { formula; jl }
    | _ -> None
  end

(* [Some (x, y)] when [e] is [c·x − c·y] with [c > 0] and no constant. *)
let exact_difference e =
  match Qelim.Linexpr.vars e with
  | [ u; v ] when Qelim.Rat.is_zero (Qelim.Linexpr.constant e) ->
    let cu = Qelim.Linexpr.coeff e u and cv = Qelim.Linexpr.coeff e v in
    if not (Qelim.Rat.is_zero (Qelim.Rat.add cu cv)) then None
    else if Qelim.Rat.sign cu > 0 then Some (u, v)
    else Some (v, u)
  | _ -> None

(* The test runs once per cache entry per outer tuple, so we compile the
   formula down to closures over the two binding rows instead of re-walking
   it with a name-lookup environment. *)
let compile t =
  let n = List.length t.jl in
  (* Interned codes for non-numeric values, shared across calls. *)
  let interned : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let next_code = ref 0. in
  let to_float v =
    match v with
    | Value.Int i -> float_of_int i
    | Value.Float f -> f
    | Value.Bool b -> if b then 1. else 0.
    | Value.Null -> nan
    | Value.Str s ->
      (match Hashtbl.find_opt interned s with
       | Some f -> f
       | None ->
         next_code := !next_code +. 1.;
         Hashtbl.add interned s !next_code;
         !next_code)
  in
  let resolve name =
    let rec find i =
      if i >= n then invalid_arg ("Subsume: unbound variable " ^ name)
      else if String.equal name (w_var i) then `W i
      else if String.equal name (wp_var i) then `Wp i
      else find (i + 1)
    in
    find 0
  in
  (* Linear expressions evaluate over flat coefficient arrays, split by
     which binding row the variable reads from, so the per-probe cost is
     two tight float loops with no tag dispatch. *)
  let compile_linexpr e =
    let w_terms = ref [] and wp_terms = ref [] in
    List.iter
      (fun v ->
        let c = Qelim.Rat.to_float (Qelim.Linexpr.coeff e v) in
        match resolve v with
        | `W i -> w_terms := (i, c) :: !w_terms
        | `Wp i -> wp_terms := (i, c) :: !wp_terms)
      (Qelim.Linexpr.vars e);
    let widx = Array.of_list (List.rev_map fst !w_terms)
    and wcoef = Array.of_list (List.rev_map snd !w_terms)
    and pidx = Array.of_list (List.rev_map fst !wp_terms)
    and pcoef = Array.of_list (List.rev_map snd !wp_terms) in
    let nw = Array.length widx and np = Array.length pidx in
    let const = Qelim.Rat.to_float (Qelim.Linexpr.constant e) in
    fun w w' ->
      let acc = ref const in
      for k = 0 to nw - 1 do
        acc := !acc +. (wcoef.(k) *. to_float w.(widx.(k)))
      done;
      for k = 0 to np - 1 do
        acc := !acc +. (pcoef.(k) *. to_float w'.(pidx.(k)))
      done;
      !acc
  in
  let rec compile_formula f =
    match f with
    | Qelim.Formula.True -> fun _ _ -> true
    | Qelim.Formula.False -> fun _ _ -> false
    | Qelim.Formula.Atom a ->
      let ev = compile_linexpr a.Qelim.Atom.e in
      let holds sign =
        match a.Qelim.Atom.op with
        | Qelim.Atom.Le -> sign <= 0
        | Qelim.Atom.Lt -> sign < 0
        | Qelim.Atom.Eq -> sign = 0
      in
      let by_float w w' =
        let x = ev w w' in
        if Float.is_nan x then false else holds (Float.compare x 0.)
      in
      (match exact_difference a.Qelim.Atom.e with
       | None -> by_float
       | Some (x, y) ->
         (* c·(x − y) op 0 with c > 0 is [compare x y] op 0; comparing the
            values exactly keeps ints beyond 2^53 apart, which a float
            difference rounds together *)
         let get = function `W i -> fun w _ -> w.(i) | `Wp i -> fun _ w' -> w'.(i) in
         let gx = get (resolve x) and gy = get (resolve y) in
         fun w w' ->
           (match (gx w w', gy w w') with
            | ((Value.Int _ | Value.Float _) as u), ((Value.Int _ | Value.Float _) as v)
              when not (Value.is_nan u || Value.is_nan v) ->
              holds (Value.compare_total u v)
            | _ -> by_float w w'))
    | Qelim.Formula.Not g ->
      let fg = compile_formula g in
      fun w w' -> not (fg w w')
    | Qelim.Formula.And gs ->
      let fgs = Array.of_list (List.map compile_formula gs) in
      let n = Array.length fgs in
      fun w w' ->
        let rec go i = i >= n || (fgs.(i) w w' && go (i + 1)) in
        go 0
    | Qelim.Formula.Or gs ->
      let fgs = Array.of_list (List.map compile_formula gs) in
      let n = Array.length fgs in
      fun w w' ->
        let rec go i = i < n && (fgs.(i) w w' || go (i + 1)) in
        go 0
    | Qelim.Formula.Exists _ | Qelim.Formula.Forall _ ->
      invalid_arg "Subsume.compile: quantified formula"
  in
  compile_formula t.formula

let to_string t =
  let names =
    String.concat ", "
      (List.mapi
         (fun i c -> Printf.sprintf "%s=%s" (w_var i) (Schema.col_to_string c))
         t.jl)
  in
  Printf.sprintf "p>=(w, w') = %s  [%s]" (Qelim.Formula.to_string t.formula) names

let subsumes_instance ~theta ~jl_schema ~r ~w ~w' =
  let ok = Compile.join_pred jl_schema r.Relation.schema theta in
  Relation.fold
    (fun acc rrow -> acc && ((not (ok w' rrow)) || ok w rrow))
    true r
