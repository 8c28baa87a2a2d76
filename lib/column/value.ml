type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let is_null = function Null -> true | Int _ | Float _ | Str _ | Bool _ -> false

(* NaN behaves like NULL in SQL predicate comparisons: any comparison
   involving it is false.  (The total order still places it below other
   floats, so sorting and MIN/MAX remain deterministic.) *)
let is_nan = function Float f -> Float.is_nan f | _ -> false

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ -> 3

(* An int against a float, exactly: [float_of_int] rounds ints beyond 2^53,
   which would make 2^62 - 1 equal 2^62. and, through it, 2^62 - 2, while
   the ints themselves differ — no total order.  NaN sorts first, as
   [compare] places it. *)
let compare_int_float x f =
  if Float.is_nan f then 1
  else if f >= 0x1p62 then -1
  else if f < -0x1p62 then 1
  else
    (* |f| <= 2^62: its integral part is an int, exactly *)
    let i = Float.to_int f in
    if x <> i then compare x i else compare 0. (f -. Float.of_int i)

let compare_total a b =
  match a, b with
  | Int x, Int y -> compare x y
  | Float x, Float y -> compare x y
  | Int x, Float y -> compare_int_float x y
  | Float x, Int y -> - compare_int_float y x
  | Str x, Str y -> compare x y
  | Bool x, Bool y -> compare x y
  | Null, Null -> 0
  | _ -> compare (rank a) (rank b)

let equal_total a b = compare_total a b = 0

let compare_sql a b =
  match a, b with
  | Null, _ | _, Null -> None
  | _ -> Some (compare_total a b)

let compare_sql_code a b =
  match a, b with
  | Null, _ | _, Null -> min_int
  | _ -> if is_nan a || is_nan b then min_int else compare_total a b

let arith name fi ff a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (fi x y)
  | Float x, Float y -> Float (ff x y)
  | Int x, Float y -> Float (ff (float_of_int x) y)
  | Float x, Int y -> Float (ff x (float_of_int y))
  | _ -> type_error "%s: non-numeric operands" name

(* Int addition that promotes to float instead of wrapping: two same-sign
   operands whose sum flips sign overflowed the 63-bit range.  SUM/AVG fold
   through this, so large sums degrade to float precision rather than
   silently wrapping — and the vectorized kernels replay the same rule
   (Colagg.step_sum_int) to stay bit-identical. *)
let add a b =
  match a, b with
  | Int x, Int y ->
    let s = x + y in
    if (x >= 0) = (y >= 0) && (s >= 0) <> (x >= 0) then
      Float (float_of_int x +. float_of_int y)
    else Int s
  | _ -> arith "add" ( + ) ( +. ) a b
let sub = arith "sub" ( - ) ( -. )
let mul = arith "mul" ( * ) ( *. )

let div a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | _, Int 0 -> type_error "div: division by zero"
  | Int x, Int y -> Int (x / y)
  | _ ->
    let fa =
      (match a with
       | Int x -> float_of_int x
       | Float x -> x
       | _ -> type_error "div: non-numeric operands")
    and fb =
      (match b with
       | Int y -> float_of_int y
       | Float y -> y
       | _ -> type_error "div: non-numeric operands")
    in
    Float (fa /. fb)

let neg = function
  | Null -> Null
  | Int x -> Int (-x)
  | Float x -> Float (-.x)
  | v -> type_error "neg: non-numeric operand %s" (match v with Str s -> s | _ -> "bool")

let to_float = function
  | Int x -> float_of_int x
  | Float x -> x
  | Null -> type_error "to_float: null"
  | Str s -> type_error "to_float: string %S" s
  | Bool _ -> type_error "to_float: bool"

let to_bool = function
  | Bool b -> b
  | Null -> false
  | v -> type_error "to_bool: %s" (match v with Int _ -> "int" | Float _ -> "float" | _ -> "string")

let of_int x = Int x
let of_float x = Float x
let of_string s = Str s
let of_bool b = Bool b

let to_string = function
  | Null -> "NULL"
  | Int x -> string_of_int x
  | Float x ->
    if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
    else Printf.sprintf "%g" x
  | Str s -> s
  | Bool b -> if b then "true" else "false"

let pp fmt v = Format.pp_print_string fmt (to_string v)

let of_csv_field s =
  if s = "" then Null
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None ->
      (match float_of_string_opt s with
       | Some f -> Float f
       | None ->
         (match String.lowercase_ascii s with
          | "true" -> Bool true
          | "false" -> Bool false
          | _ -> Str s))

let approx_bytes = function
  | Null -> 8
  | Int _ -> 8
  | Float _ -> 8
  | Bool _ -> 1
  | Str s -> 16 + String.length s

let hash = function
  | Null -> 17
  | Int x -> Hashtbl.hash x
  | Float x -> if Float.is_integer x then Hashtbl.hash (int_of_float x) else Hashtbl.hash x
  | Str s -> Hashtbl.hash s
  | Bool b -> Hashtbl.hash b

module Sum = struct
  (* ints as hi·2^32 + lo with 0 <= lo < 2^32; floats summed apart *)
  type t = {
    mutable hi : int;
    mutable lo : int;
    mutable fl : float;
    mutable ints : bool;
    mutable floats : bool;
  }

  let create () = { hi = 0; lo = 0; fl = 0.; ints = false; floats = false }
  let mask = (1 lsl 32) - 1

  let carry s =
    s.hi <- s.hi + (s.lo asr 32);
    s.lo <- s.lo land mask

  (* [v] added [len] times; exact while [len < 2^30]. *)
  let add_int_run s v len =
    if len > 0 then begin
      s.ints <- true;
      s.hi <- s.hi + ((v asr 32) * len);
      s.lo <- s.lo + ((v land mask) * len);
      carry s
    end

  let add_int s v = add_int_run s v 1

  let add_float s f =
    s.floats <- true;
    s.fl <- s.fl +. f

  let add s = function
    | Null -> ()
    | Int x -> add_int s x
    | Float f -> add_float s f
    | Str _ | Bool _ -> type_error "sum: non-numeric operand"

  let merge s o =
    s.hi <- s.hi + o.hi;
    s.lo <- s.lo + o.lo;
    carry s;
    s.fl <- s.fl +. o.fl;
    s.ints <- s.ints || o.ints;
    s.floats <- s.floats || o.floats

  let is_empty s = not (s.ints || s.floats)
  let fits s = s.hi >= -(1 lsl 30) && s.hi < 1 lsl 30
  let int_float s = (float_of_int s.hi *. 4294967296.) +. float_of_int s.lo

  let to_float s =
    if s.floats then int_float s +. s.fl else int_float s

  let value s =
    if is_empty s then Null
    else if s.floats then Float (int_float s +. s.fl)
    else if fits s then Int ((s.hi lsl 32) + s.lo)
    else Float (int_float s)
end
