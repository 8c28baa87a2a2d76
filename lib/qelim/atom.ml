type op = Le | Lt | Eq

type t = { e : Linexpr.t; op : op }

let le a b = { e = Linexpr.sub a b; op = Le }
let lt a b = { e = Linexpr.sub a b; op = Lt }
let eq a b = { e = Linexpr.sub a b; op = Eq }

let truth t =
  if Linexpr.is_constant t.e then
    let k = Linexpr.constant t.e in
    Some
      (match t.op with
       | Le -> Rat.sign k <= 0
       | Lt -> Rat.sign k < 0
       | Eq -> Rat.is_zero k)
  else None

let vars t = Linexpr.vars t.e
let mentions t x = not (Rat.is_zero (Linexpr.coeff t.e x))
let rename f t = { t with e = Linexpr.rename f t.e }
let subst x repl t = { t with e = Linexpr.subst x repl t.e }

let eval env t =
  let v = Rat.sign (Linexpr.eval env t.e) in
  match t.op with Le -> v <= 0 | Lt -> v < 0 | Eq -> v = 0

let eval_float env t =
  let v = Linexpr.eval_float env t.e in
  match t.op with Le -> v <= 0. | Lt -> v < 0. | Eq -> v = 0.

let op_rank = function Le -> 0 | Lt -> 1 | Eq -> 2

let compare a b =
  let c = Stdlib.compare (op_rank a.op) (op_rank b.op) in
  if c <> 0 then c else Linexpr.compare a.e b.e

let equal a b = compare a b = 0

let normalize t =
  match Linexpr.vars t.e with
  | [] -> t
  | x :: _ ->
    let c = Linexpr.coeff t.e x in
    let s = Rat.of_int (Rat.sign c) in
    let k = Rat.div s c (* positive scale making leading coeff ±1 *) in
    let e = Linexpr.scale k t.e in
    (* For Eq, also fix the sign of the leading coefficient to +1. *)
    if t.op = Eq && Rat.sign (Linexpr.coeff e x) < 0 then
      { e = Linexpr.neg e; op = Eq }
    else { t with e }

let implies a b =
  (* e + k1 op1 0 implies e + k2 op2 0 when the bound is at least as tight. *)
  let da = Linexpr.sub a.e (Linexpr.const (Linexpr.constant a.e))
  and db = Linexpr.sub b.e (Linexpr.const (Linexpr.constant b.e)) in
  if not (Linexpr.equal da db) then equal a b
  else
    let ka = Linexpr.constant a.e and kb = Linexpr.constant b.e in
    match a.op, b.op with
    | Le, Le | Lt, Lt | Lt, Le -> Rat.compare ka kb >= 0
    | Eq, Eq -> Rat.equal ka kb  (* e = -ka and e = -kb agree only if ka = kb *)
    | Le, Lt -> Rat.compare ka kb > 0
    | Eq, Le -> Rat.compare ka kb >= 0  (* e = -ka, need -ka + kb <= 0 *)
    | Eq, Lt -> Rat.compare ka kb > 0
    | Le, Eq | Lt, Eq -> false

let op_to_string = function Le -> "<=" | Lt -> "<" | Eq -> "="

let to_string t =
  (* Render with positive terms on the left for readability. *)
  Printf.sprintf "%s %s 0" (Linexpr.to_string t.e) (op_to_string t.op)
