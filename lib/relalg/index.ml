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

module Range_count = struct
  type bound = (Value.t * [ `Strict | `Inclusive ]) option

  (* y coordinates: unboxed when every one is an [Int], which the block
     sorts and searches then compare without touching a [Value.t]. *)
  type coords = Ints of int array | Values of Value.t array

  (* The points are rows of [rows] — all of them in place when [order] is
     [None], else the rows at the positions [order] lists — in ascending x
     order.  [blocks] holds their y coordinates cut into runs of [block]
     points, each run sorted.  A count binary-searches the rows for the x
     range, scans the rows of the partial runs at its two ends and
     binary-searches every full run in between.  The rows are the ones the
     caller already holds, so a build allocates [blocks] and, when it drops
     or sorts rows, [order]. *)
  type t = {
    rows : Row.t array;
    order : int array option;
    x : int;
    y : int;
    blocks : coords;
  }

  let block = 256

  let comparable v = not (Value.is_null v || Value.is_nan v)

  let length = function Ints a -> Array.length a | Values a -> Array.length a

  let cardinality t = length t.blocks

  let point_row rows order i = match order with None -> rows.(i) | Some o -> rows.(o.(i))
  let row t i = point_row t.rows t.order i

  let sort_slice cmp a s e =
    let run = Array.sub a s (e - s) in
    Array.stable_sort cmp run;
    Array.blit run 0 a s (e - s)

  (* Counting sort of [a.(s) .. a.(e - 1)] when they span fewer distinct
     integers than [counts] has cells (small domains such as counts, where
     it is O(block + span)); false, leaving them unsorted, otherwise. *)
  let counting_sort counts a s e =
    let lo = ref a.(s) and hi = ref a.(s) in
    for i = s + 1 to e - 1 do
      if a.(i) < !lo then lo := a.(i);
      if a.(i) > !hi then hi := a.(i)
    done;
    let width = !hi - !lo in
    (* [width] is negative when the difference overflows *)
    width >= 0 && width < Array.length counts
    && begin
      Array.fill counts 0 (width + 1) 0;
      for i = s to e - 1 do
        let d = a.(i) - !lo in
        counts.(d) <- counts.(d) + 1
      done;
      let k = ref s in
      for d = 0 to width do
        for _ = 1 to counts.(d) do
          a.(!k) <- !lo + d;
          incr k
        done
      done;
      true
    end

  let sort_runs c =
    let n = length c in
    let counts = Array.make (4 * block) 0 in
    for r = 0 to ((n + block - 1) / block) - 1 do
      let s = r * block in
      let e = min n (s + block) in
      match c with
      | Ints a -> if not (counting_sort counts a s e) then sort_slice Int.compare a s e
      | Values a -> sort_slice Value.compare_total a s e
    done

  (* [order] lists the points' positions in [rows] in x order ([None]: every
     row, in place); every point is comparable on x and y. *)
  let make rows ~x ~y order =
    let y_at i = (point_row rows order i).(y) in
    let m = match order with None -> Array.length rows | Some o -> Array.length o in
    let ys = Array.make m 0 in
    let rec fill i =
      i >= m
      || match y_at i with
         | Value.Int v ->
           ys.(i) <- v;
           fill (i + 1)
         | _ -> false
    in
    let blocks = if fill 0 then Ints ys else Values (Array.init m y_at) in
    sort_runs blocks;
    { rows; order; x; y; blocks }

  (* Positions of the rows that are points (comparable on x and y); [None]
     when all are. *)
  let points rows ~x ~y =
    let point r = comparable rows.(r).(x) && comparable rows.(r).(y) in
    let n = Array.length rows in
    let m = ref 0 in
    for r = 0 to n - 1 do
      if point r then incr m
    done;
    if !m = n then None
    else begin
      let keep = Array.make !m 0 and k = ref 0 in
      for r = 0 to n - 1 do
        if point r then begin
          keep.(!k) <- r;
          incr k
        end
      done;
      Some keep
    end

  let of_sorted (idx : Sorted.t) ~x ~y =
    (match idx.Sorted.key_idxs with
     | k :: _ when k = x -> ()
     | _ -> invalid_arg "Index.Range_count.of_sorted: index not led by x");
    make idx.Sorted.rows ~x ~y (points idx.Sorted.rows ~x ~y)

  let build rows ~x ~y =
    let order =
      match points rows ~x ~y with
      | Some o -> o
      | None -> Array.init (Array.length rows) Fun.id
    in
    Array.stable_sort (fun a b -> Value.compare_total rows.(a).(x) rows.(b).(x)) order;
    make rows ~x ~y (Some order)

  (* First position in [lo, hi) whose value ([at i]) is >= v (> v if
     strict); the values are ascending there. *)
  let search at lo hi v strict =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        let k = Value.compare_total (at mid) v in
        if (if strict then k <= 0 else k < 0) then go (mid + 1) hi else go lo mid
    in
    go lo hi

  (* The same over a run of [blocks], without boxing an [Int] one. *)
  let search_run c lo hi v strict =
    match c, v with
    | Ints a, Value.Int b ->
      let rec go lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if (if strict then a.(mid) <= b else a.(mid) < b) then go (mid + 1) hi
          else go lo mid
      in
      go lo hi
    | Ints a, _ -> search (fun i -> Value.Int a.(i)) lo hi v strict
    | Values a, _ -> search (Array.get a) lo hi v strict

  let start_pos search lo hi = function
    | None -> lo
    | Some (v, `Inclusive) -> search lo hi v false
    | Some (v, `Strict) -> search lo hi v true

  let stop_pos search lo hi = function
    | None -> hi
    | Some (v, `Inclusive) -> search lo hi v true
    | Some (v, `Strict) -> search lo hi v false

  let within ~lo ~hi v =
    (match lo with
     | None -> true
     | Some (b, `Inclusive) -> Value.compare_total v b >= 0
     | Some (b, `Strict) -> Value.compare_total v b > 0)
    &&
    match hi with
    | None -> true
    | Some (b, `Inclusive) -> Value.compare_total v b <= 0
    | Some (b, `Strict) -> Value.compare_total v b < 0

  let count t ~xlo ~xhi ~ylo ~yhi =
    let n = cardinality t in
    let on_x = search (fun i -> (row t i).(t.x)) in
    let start = start_pos on_x 0 n xlo and stop = stop_pos on_x 0 n xhi in
    let scan a b =
      let c = ref 0 in
      for i = a to b - 1 do
        if within ~lo:ylo ~hi:yhi (row t i).(t.y) then incr c
      done;
      !c
    in
    let first_full = (start + block - 1) / block * block in
    let last_full = stop / block * block in
    if stop <= start then 0
    else if first_full >= last_full then scan start stop
    else begin
      let on_y = search_run t.blocks in
      let c = ref (scan start first_full + scan last_full stop) in
      let b = ref first_full in
      while !b < last_full do
        let e = !b + block in
        let lo = start_pos on_y !b e ylo and hi = stop_pos on_y !b e yhi in
        if hi > lo then c := !c + (hi - lo);
        b := e
      done;
      !c
    end
end
