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

  (* One coordinate of every point, unboxed when every one is an [Int] or
     every one a [Float]: block sorts, searches and scans then compare
     without touching a [Value.t]. *)
  type coords = Ints of int array | Floats of float array | Values of Value.t array

  (* The points are rows of [rows] — all of them in place when [order] is
     [None], else the rows at the positions [order] lists — in ascending x
     order, x being column [cols.(0)].  [blocks] holds their y coordinates
     (column [cols.(1)]) cut into runs of [block] points, each run sorted;
     [extra] holds each further column's coordinates in the same order, and
     [lo]/[hi] each run's least and greatest coordinate there, indexed by
     run.  A count binary-searches the rows for the x range, scans the rows
     of the partial runs at its two ends and binary-searches every full run
     in between for the y range, which it counts whole when the run's box
     on the extra columns lies inside the query, skips when the two are
     disjoint and scans otherwise.  The rows are the ones the caller
     already holds, so a build allocates the coordinates and, when it drops
     or sorts rows, [order]. *)
  type t = {
    rows : Row.t array;
    order : int array option;
    cols : int array;
    blocks : coords;
    extra : coords array;
    lo : coords array;
    hi : coords array;
  }

  let block = 256

  let comparable v = not (Value.is_null v || Value.is_nan v)

  let length = function
    | Ints a -> Array.length a
    | Floats a -> Array.length a
    | Values a -> Array.length a

  let cardinality t = length t.blocks

  let point_row rows order i = match order with None -> rows.(i) | Some o -> rows.(o.(i))
  let row t i = point_row t.rows t.order i

  (* Column [c] of the first [m] points ([point_row rows order]), unboxed
     when the values allow it: one pass when they are all [Int]s, the
     common case. *)
  let coords rows order m c =
    let f i = (point_row rows order i).(c) in
    let ints = Array.make m 0 in
    let rec fill_ints i =
      i >= m
      || match f i with
         | Value.Int v ->
           ints.(i) <- v;
           fill_ints (i + 1)
         | _ -> false
    in
    if fill_ints 0 then Ints ints
    else begin
      let floats = Array.make m 0. in
      let rec fill_floats i =
        i >= m
        || match f i with
           | Value.Float v ->
             floats.(i) <- v;
             fill_floats (i + 1)
           | _ -> false
      in
      if fill_floats 0 then Floats floats else Values (Array.init m f)
    end

  (* [c.(i)] against [v] under {!Value.compare_total}, without boxing an
     unboxed coordinate. *)
  let compare_at c i v =
    match c, v with
    | Ints a, Value.Int b -> Int.compare a.(i) b
    | Ints a, Value.Float b -> Value.compare_int_float a.(i) b
    | Floats a, Value.Float b -> Float.compare a.(i) b
    | Floats a, Value.Int b -> - Value.compare_int_float b a.(i)
    | Ints a, _ -> Value.compare_total (Value.Int a.(i)) v
    | Floats a, _ -> Value.compare_total (Value.Float a.(i)) v
    | Values a, _ -> Value.compare_total a.(i) v

  (* [c.(i)] against [c.(j)]. *)
  let compare_within = function
    | Ints a -> fun i j -> Int.compare a.(i) a.(j)
    | Floats a -> fun i j -> Float.compare a.(i) a.(j)
    | Values a -> fun i j -> Value.compare_total a.(i) a.(j)

  let above lo c i =
    match lo with
    | None -> true
    | Some (v, `Inclusive) -> compare_at c i v >= 0
    | Some (v, `Strict) -> compare_at c i v > 0

  let below hi c i =
    match hi with
    | None -> true
    | Some (v, `Inclusive) -> compare_at c i v <= 0
    | Some (v, `Strict) -> compare_at c i v < 0

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

  (* Reorder [c.(s) .. c.(s + len - 1)] so that position [s + j] holds what
     [s + perm.(j)] held.  One loop per case: a float array read through
     polymorphic code would box every element. *)
  let permute c s perm =
    let len = Array.length perm in
    match c with
    | Ints a ->
      let run = Array.sub a s len in
      Array.iteri (fun j p -> a.(s + j) <- run.(p)) perm
    | Floats a ->
      let run = Array.sub a s len in
      Array.iteri (fun j p -> a.(s + j) <- run.(p)) perm
    | Values a ->
      let run = Array.sub a s len in
      Array.iteri (fun j p -> a.(s + j) <- run.(p)) perm

  let runs c = (length c + block - 1) / block

  (* Sort every run of [ys] and carry [extra] along: integer y values with
     no extra coordinates in place, the rest through a permutation. *)
  let sort_runs ys extra =
    let n = length ys in
    let counts = Array.make (4 * block) 0 in
    let cmp = compare_within ys in
    for r = 0 to runs ys - 1 do
      let s = r * block in
      let e = min n (s + block) in
      match ys with
      | Ints a when Array.length extra = 0 ->
        if not (counting_sort counts a s e) then sort_slice Int.compare a s e
      | _ ->
        let perm = Array.init (e - s) Fun.id in
        Array.stable_sort (fun i j -> cmp (s + i) (s + j)) perm;
        permute ys s perm;
        Array.iter (fun c -> permute c s perm) extra
    done

  (* Each run's least ([`Min]) or greatest coordinate of [c]. *)
  let run_bounds c which =
    let n = length c and cmp = compare_within c in
    let best =
      Array.init (runs c) (fun r ->
          let b = ref (r * block) in
          for i = !b + 1 to min n ((r + 1) * block) - 1 do
            let k = cmp i !b in
            if (which = `Min && k < 0) || (which = `Max && k > 0) then b := i
          done;
          !b)
    in
    match c with
    | Ints a -> Ints (Array.map (Array.get a) best)
    | Floats a -> Floats (Array.map (Array.get a) best)
    | Values a -> Values (Array.map (Array.get a) best)

  (* [order] lists the points' positions in [rows] in x order ([None]: every
     row, in place); every point is comparable on every column. *)
  let make rows ~cols order =
    let m = match order with None -> Array.length rows | Some o -> Array.length o in
    let blocks = coords rows order m cols.(1) in
    let extra =
      Array.init (Array.length cols - 2) (fun d -> coords rows order m cols.(d + 2))
    in
    sort_runs blocks extra;
    {
      rows;
      order;
      cols;
      blocks;
      extra;
      lo = Array.map (fun c -> run_bounds c `Min) extra;
      hi = Array.map (fun c -> run_bounds c `Max) extra;
    }

  let check_cols cols =
    if Array.length cols < 2 then invalid_arg "Index.Range_count: fewer than two columns"

  (* Positions of the rows that are points (comparable on every column);
     [None] when all are. *)
  let points rows ~cols =
    let k = Array.length cols and x = cols.(0) and y = cols.(1) in
    let rec extra_from row d =
      d >= k || (comparable row.(cols.(d)) && extra_from row (d + 1))
    in
    let point r =
      let row = rows.(r) in
      comparable row.(x) && comparable row.(y) && (k = 2 || extra_from row 2)
    in
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

  let of_sorted (idx : Sorted.t) ~cols =
    let cols = Array.of_list cols in
    check_cols cols;
    (match idx.Sorted.key_idxs with
     | k :: _ when k = cols.(0) -> ()
     | _ -> invalid_arg "Index.Range_count.of_sorted: index not led by x");
    make idx.Sorted.rows ~cols (points idx.Sorted.rows ~cols)

  let build rows ~cols =
    let cols = Array.of_list cols in
    check_cols cols;
    let order =
      match points rows ~cols with
      | Some o -> o
      | None -> Array.init (Array.length rows) Fun.id
    in
    (* sorted on the x coordinates, extracted (unboxed where they allow) *)
    let cmp = compare_within (coords rows (Some order) (Array.length order) cols.(0)) in
    let perm = Array.init (Array.length order) Fun.id in
    Array.stable_sort cmp perm;
    make rows ~cols (Some (Array.map (Array.get order) perm))

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

  (* The same over a run of [blocks], without boxing an unboxed one or
     allocating: it runs twice per full block of every count. *)
  let search_run c lo hi v strict =
    let lo = ref lo and hi = ref hi in
    (match c, v with
     | Ints a, Value.Int b ->
       while !lo < !hi do
         let mid = (!lo + !hi) / 2 in
         if (if strict then a.(mid) <= b else a.(mid) < b) then lo := mid + 1 else hi := mid
       done
     | _ ->
       while !lo < !hi do
         let mid = (!lo + !hi) / 2 in
         let k = compare_at c mid v in
         if (if strict then k <= 0 else k < 0) then lo := mid + 1 else hi := mid
       done);
    !lo

  let start_pos search lo hi = function
    | None -> lo
    | Some (v, `Inclusive) -> search lo hi v false
    | Some (v, `Strict) -> search lo hi v true

  let stop_pos search lo hi = function
    | None -> hi
    | Some (v, `Inclusive) -> search lo hi v true
    | Some (v, `Strict) -> search lo hi v false

  let within (lo, hi) v =
    (match lo with
     | None -> true
     | Some (b, `Inclusive) -> Value.compare_total v b >= 0
     | Some (b, `Strict) -> Value.compare_total v b > 0)
    &&
    match hi with
    | None -> true
    | Some (b, `Inclusive) -> Value.compare_total v b <= 0
    | Some (b, `Strict) -> Value.compare_total v b < 0

  let count t box =
    if Array.length box <> Array.length t.cols then
      invalid_arg "Index.Range_count.count: one range per column";
    let n = cardinality t in
    let xlo, xhi = box.(0) and ylo, yhi = box.(1) in
    let on_x = search (fun i -> (row t i).(t.cols.(0))) in
    let start = start_pos on_x 0 n xlo and stop = stop_pos on_x 0 n xhi in
    let k = Array.length t.cols in
    let scan a b =
      let c = ref 0 in
      for i = a to b - 1 do
        let r = row t i and d = ref 1 in
        while !d < k && within box.(!d) r.(t.cols.(!d)) do
          incr d
        done;
        if !d = k then incr c
      done;
      !c
    in
    let first_full = (start + block - 1) / block * block in
    let last_full = stop / block * block in
    if stop <= start then 0
    else if first_full >= last_full then scan start stop
    else begin
      let on_y = search_run t.blocks in
      let extras = Array.length t.extra in
      (* The full run [r]'s box on the extra columns against the query's:
         [`Inside], [`Disjoint] or [`Overlaps]. *)
      let run_box r =
        let rec go d inside =
          if d >= extras then if inside then `Inside else `Overlaps
          else
            let lo, hi = box.(d + 2) and rlo = t.lo.(d) and rhi = t.hi.(d) in
            if not (above lo rhi r && below hi rlo r) then `Disjoint
            else go (d + 1) (inside && above lo rlo r && below hi rhi r)
        in
        go 0 true
      in
      let in_extras i =
        let d = ref 0 in
        while
          !d < extras
          &&
          let lo, hi = box.(!d + 2) in
          above lo t.extra.(!d) i && below hi t.extra.(!d) i
        do
          incr d
        done;
        !d = extras
      in
      let c = ref (scan start first_full + scan last_full stop) in
      let b = ref first_full in
      while !b < last_full do
        let e = !b + block in
        let lo = start_pos on_y !b e ylo and hi = stop_pos on_y !b e yhi in
        if hi > lo then begin
          match if extras = 0 then `Inside else run_box (!b / block) with
          | `Inside -> c := !c + (hi - lo)
          | `Disjoint -> ()
          | `Overlaps ->
            for i = lo to hi - 1 do
              if in_extras i then incr c
            done
        end;
        b := e
      done;
      !c
    end
end
