type func =
  | Count_star
  | Count of Expr.t
  | Count_distinct of Expr.t
  | Sum of Expr.t
  | Min of Expr.t
  | Max of Expr.t
  | Avg of Expr.t

type state =
  | Count_st of { mutable n : int }
  | Sum_st of Value.Sum.t
  | Minmax_st of { mutable acc : Value.t; smaller : bool }
  | Avg_st of { sum : Value.Sum.t; mutable n : int }
  | Distinct_st of unit Row.Tbl.t

type compiled = {
  fresh : unit -> state;
  step : state -> Row.t -> unit;
  merge : state -> state -> unit;
  final : state -> Value.t;
}

let bad () = invalid_arg "Agg: state does not match function"

let compile schema func =
  match func with
  | Count_star ->
    {
      fresh = (fun () -> Count_st { n = 0 });
      step = (fun st _ -> match st with Count_st s -> s.n <- s.n + 1 | _ -> bad ());
      merge =
        (fun a b ->
          match a, b with Count_st x, Count_st y -> x.n <- x.n + y.n | _ -> bad ());
      final = (fun st -> match st with Count_st s -> Value.Int s.n | _ -> bad ());
    }
  | Count e ->
    let f = Compile.scalar schema e in
    {
      fresh = (fun () -> Count_st { n = 0 });
      step =
        (fun st row ->
          match st with
          | Count_st s -> if not (Value.is_null (f row)) then s.n <- s.n + 1
          | _ -> bad ());
      merge =
        (fun a b ->
          match a, b with Count_st x, Count_st y -> x.n <- x.n + y.n | _ -> bad ());
      final = (fun st -> match st with Count_st s -> Value.Int s.n | _ -> bad ());
    }
  | Count_distinct e ->
    let f = Compile.scalar schema e in
    {
      fresh = (fun () -> Distinct_st (Row.Tbl.create 16));
      step =
        (fun st row ->
          match st with
          | Distinct_st tbl ->
            let v = f row in
            if not (Value.is_null v) then Row.Tbl.replace tbl [| v |] ()
          | _ -> bad ());
      merge =
        (fun a b ->
          match a, b with
          | Distinct_st x, Distinct_st y -> Row.Tbl.iter (fun k () -> Row.Tbl.replace x k ()) y
          | _ -> bad ());
      final =
        (fun st ->
          match st with Distinct_st tbl -> Value.Int (Row.Tbl.length tbl) | _ -> bad ());
    }
  | Sum e ->
    let f = Compile.scalar schema e in
    {
      fresh = (fun () -> Sum_st (Value.Sum.create ()));
      step =
        (fun st row -> match st with Sum_st s -> Value.Sum.add s (f row) | _ -> bad ());
      merge =
        (fun a b ->
          match a, b with Sum_st x, Sum_st y -> Value.Sum.merge x y | _ -> bad ());
      final = (fun st -> match st with Sum_st s -> Value.Sum.value s | _ -> bad ());
    }
  | Min e | Max e ->
    let smaller = (match func with Min _ -> true | _ -> false) in
    let f = Compile.scalar schema e in
    let better a b =
      match Value.compare_sql a b with
      | None -> false
      | Some c -> if smaller then c < 0 else c > 0
    in
    {
      fresh = (fun () -> Minmax_st { acc = Value.Null; smaller });
      step =
        (fun st row ->
          match st with
          | Minmax_st s ->
            let v = f row in
            if not (Value.is_null v) then
              if Value.is_null s.acc || better v s.acc then s.acc <- v
          | _ -> bad ());
      merge =
        (fun a b ->
          match a, b with
          | Minmax_st x, Minmax_st y ->
            if not (Value.is_null y.acc) then
              if Value.is_null x.acc || better y.acc x.acc then x.acc <- y.acc
          | _ -> bad ());
      final = (fun st -> match st with Minmax_st s -> s.acc | _ -> bad ());
    }
  | Avg e ->
    let f = Compile.scalar schema e in
    {
      fresh = (fun () -> Avg_st { sum = Value.Sum.create (); n = 0 });
      step =
        (fun st row ->
          match st with
          | Avg_st s ->
            let v = f row in
            if not (Value.is_null v) then begin
              Value.Sum.add s.sum v;
              s.n <- s.n + 1
            end
          | _ -> bad ());
      merge =
        (fun a b ->
          match a, b with
          | Avg_st x, Avg_st y ->
            Value.Sum.merge x.sum y.sum;
            x.n <- x.n + y.n
          | _ -> bad ());
      final =
        (fun st ->
          match st with
          | Avg_st s ->
            if s.n = 0 then Value.Null
            else Value.Float (Value.Sum.to_float s.sum /. float_of_int s.n)
          | _ -> bad ());
    }

(* Raw state constructors for the vectorized kernels (Colagg): a kernel
   accumulates into unboxed scratch and boxes the result as a state once at
   the end of an evaluation; the states interoperate with [compile]'s
   [merge]/[final] for the matching function. *)
let count_state n = Count_st { n }
let sum_state acc = Sum_st acc
let min_state acc = Minmax_st { acc; smaller = true }
let max_state acc = Minmax_st { acc; smaller = false }
let avg_state ~sum ~n = Avg_st { sum; n }

let is_algebraic = function
  | Count_star | Count _ | Sum _ | Min _ | Max _ | Avg _ -> true
  | Count_distinct _ -> false

let input_expr = function
  | Count_star -> None
  | Count e | Count_distinct e | Sum e | Min e | Max e | Avg e -> Some e

let map_expr f = function
  | Count_star -> Count_star
  | Count e -> Count (f e)
  | Count_distinct e -> Count_distinct (f e)
  | Sum e -> Sum (f e)
  | Min e -> Min (f e)
  | Max e -> Max (f e)
  | Avg e -> Avg (f e)

let to_string = function
  | Count_star -> "COUNT(*)"
  | Count e -> Printf.sprintf "COUNT(%s)" (Expr.to_string e)
  | Count_distinct e -> Printf.sprintf "COUNT(DISTINCT %s)" (Expr.to_string e)
  | Sum e -> Printf.sprintf "SUM(%s)" (Expr.to_string e)
  | Min e -> Printf.sprintf "MIN(%s)" (Expr.to_string e)
  | Max e -> Printf.sprintf "MAX(%s)" (Expr.to_string e)
  | Avg e -> Printf.sprintf "AVG(%s)" (Expr.to_string e)

let equal a b =
  match a, b with
  | Count_star, Count_star -> true
  | Count x, Count y
  | Count_distinct x, Count_distinct y
  | Sum x, Sum y
  | Min x, Min y
  | Max x, Max y
  | Avg x, Avg y -> Expr.equal x y
  | _ -> false

let state_bytes = function
  | Count_st _ -> 16
  | Sum_st _ -> 48
  | Minmax_st _ -> 16
  | Avg_st _ -> 64
  | Distinct_st tbl -> 32 + (24 * Row.Tbl.length tbl)

let decompose func ~name =
  let p suffix = name ^ "_" ^ suffix in
  let ucol n = Expr.Col (Schema.col n) in
  match func with
  | Count_star ->
    `Algebraic
      ( [ (p "cnt", Count_star) ],
        [ (p "ocnt", Sum (ucol (p "cnt"))) ],
        ucol (p "ocnt") )
  | Count e ->
    `Algebraic
      ( [ (p "cnt", Count e) ],
        [ (p "ocnt", Sum (ucol (p "cnt"))) ],
        ucol (p "ocnt") )
  | Sum e ->
    `Algebraic
      ( [ (p "sum", Sum e) ],
        [ (p "osum", Sum (ucol (p "sum"))) ],
        ucol (p "osum") )
  | Min e ->
    `Algebraic
      ( [ (p "min", Min e) ],
        [ (p "omin", Min (ucol (p "min"))) ],
        ucol (p "omin") )
  | Max e ->
    `Algebraic
      ( [ (p "max", Max e) ],
        [ (p "omax", Max (ucol (p "max"))) ],
        ucol (p "omax") )
  | Avg e ->
    let final =
      Expr.Binop
        ( Expr.Div,
          Expr.Binop (Expr.Mul, ucol (p "osum"), Expr.Const (Value.Float 1.0)),
          ucol (p "ocnt") )
    in
    `Algebraic
      ( [ (p "sum", Sum e); (p "cnt", Count e) ],
        [ (p "osum", Sum (ucol (p "sum"))); (p "ocnt", Sum (ucol (p "cnt"))) ],
        final )
  | Count_distinct _ -> `Holistic
