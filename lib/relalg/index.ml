module Hash = struct
  type t = { key_idxs : int list; tbl : Row.t list ref Row.Tbl.t }

  let build rel key_idxs =
    let tbl = Row.Tbl.create (max 16 (Relation.cardinality rel)) in
    Relation.iter
      (fun row ->
        let key = Row.project row key_idxs in
        match Row.Tbl.find_opt tbl key with
        | Some cell -> cell := row :: !cell
        | None -> Row.Tbl.add tbl key (ref [ row ]))
      rel;
    { key_idxs; tbl }

  let key_idxs t = t.key_idxs

  let probe t key =
    match Row.Tbl.find_opt t.tbl key with Some cell -> !cell | None -> []

  let distinct_keys t = Row.Tbl.length t.tbl
end

module Sorted = struct
  type t = { key_idxs : int list; rows : Row.t array }

  (* A stable sort of row positions over keys extracted once: ties keep
     input order.  When every key value is an [Int] the keys live in an
     unboxed int array and compare without touching the rows. *)
  let build rel key_idxs =
    let src = Relation.rows rel in
    let n = Array.length src in
    let cols = Array.of_list key_idxs in
    let k = Array.length cols in
    let is_int = function Value.Int _ -> true | _ -> false in
    let all_int =
      Array.for_all (fun row -> Array.for_all (fun i -> is_int row.(i)) cols) src
    in
    let cmp =
      if all_int then begin
        let keys = Array.make (n * k) 0 in
        Array.iteri
          (fun r row ->
            Array.iteri
              (fun j i -> match row.(i) with Value.Int x -> keys.((r * k) + j) <- x | _ -> ())
              cols)
          src;
        fun a b ->
          let c = ref 0 and j = ref 0 in
          while !c = 0 && !j < k do
            c := Int.compare keys.((a * k) + !j) keys.((b * k) + !j);
            incr j
          done;
          !c
      end
      else begin
        let keys = Array.map (fun row -> Array.map (fun i -> row.(i)) cols) src in
        fun a b ->
          let c = ref 0 and j = ref 0 in
          while !c = 0 && !j < k do
            c := Value.compare_total keys.(a).(!j) keys.(b).(!j);
            incr j
          done;
          !c
      end
    in
    let perm = Array.init n Fun.id in
    Array.stable_sort cmp perm;
    { key_idxs; rows = Array.map (fun r -> src.(r)) perm }

  let key_idxs t = t.key_idxs

  let first_key t row =
    match t.key_idxs with
    | [] -> invalid_arg "Index.Sorted: empty key"
    | i :: _ -> row.(i)

  (* Smallest index whose first-key-column value is >= (or > if strict) v. *)
  let lower_bound t v strict =
    let n = Array.length t.rows in
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        let c = Value.compare_total (first_key t t.rows.(mid)) v in
        let keep_right = if strict then c <= 0 else c < 0 in
        if keep_right then go (mid + 1) hi else go lo mid
    in
    go 0 n

  let bounds t ~lo ~hi =
    let n = Array.length t.rows in
    let start =
      match lo with
      | None -> 0
      | Some (v, `Inclusive) -> lower_bound t v false
      | Some (v, `Strict) -> lower_bound t v true
    in
    let stop =
      match hi with
      | None -> n
      | Some (v, `Inclusive) -> lower_bound t v true
      | Some (v, `Strict) -> lower_bound t v false
    in
    (start, stop)

  let range t ~lo ~hi =
    let start, stop = bounds t ~lo ~hi in
    let rec seq i () =
      if i >= stop then Seq.Nil else Seq.Cons (t.rows.(i), seq (i + 1))
    in
    seq start

  let iter_range t ~lo ~hi f =
    let start, stop = bounds t ~lo ~hi in
    for i = start to stop - 1 do
      f t.rows.(i)
    done

  let cardinality t = Array.length t.rows
end
