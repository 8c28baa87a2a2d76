type t = Value.t array

let make = Array.of_list
let append = Array.append
let project t idxs = Array.of_list (List.map (fun i -> t.(i)) idxs)

let equal a b =
  Array.length a = Array.length b && Array.for_all2 Value.equal_total a b

let compare a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la || i >= lb then compare la lb
    else
      let c = Value.compare_total a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 t

(* SQL: a NULL in an equi-join key matches nothing, and neither does a NaN
   (it compares false against everything, itself included), so key-based
   joins must drop such rows rather than let the hashtable's structural
   equality pair NULL with NULL or NaN with NaN. *)
let has_null t = Array.exists (fun v -> v = Value.Null || Value.is_nan v) t

let to_string t =
  "(" ^ String.concat ", " (Array.to_list (Array.map Value.to_string t)) ^ ")"

module Key = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Tbl = Hashtbl.Make (Key)
