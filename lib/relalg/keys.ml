let null_code = 0
let nan_code = 1

(* ---- int-keyed open addressing ---- *)

module Itbl = struct
  type t = {
    mutable keys : int array;
    mutable ids : int array;  (* -1: empty slot *)
    mutable shift : int;  (* 63 - log2 (capacity) *)
    mutable by_id : int array;
    mutable n : int;
  }

  (* Fibonacci hashing: the top bits of the key times an odd constant
     near 2^60 / golden ratio spread consecutive keys apart. *)
  let golden = 0x9E3779B97F4A7C1

  let alloc bits =
    let cap = 1 lsl bits in
    (Array.make cap 0, Array.make cap (-1), 63 - bits)

  let create hint =
    let rec bits b = if 1 lsl b >= 2 * hint then b else bits (b + 1) in
    let keys, ids, shift = alloc (bits 4) in
    { keys; ids; shift; by_id = Array.make (max 16 hint) 0; n = 0 }

  let length t = t.n

  (* The slot holding [k], or the empty slot where it would go. *)
  let rec probe keys ids mask k i =
    if ids.(i) < 0 || keys.(i) = k then i else probe keys ids mask k ((i + 1) land mask)

  let slot t k =
    probe t.keys t.ids (Array.length t.ids - 1) k ((k * golden) lsr t.shift)

  let find t k = t.ids.(slot t k)

  let grow t =
    let keys, ids, shift = alloc (63 - t.shift + 1) in
    t.keys <- keys;
    t.ids <- ids;
    t.shift <- shift;
    for id = 0 to t.n - 1 do
      let i = slot t t.by_id.(id) in
      keys.(i) <- t.by_id.(id);
      ids.(i) <- id
    done

  let intern t k =
    let i = slot t k in
    let id = t.ids.(i) in
    if id >= 0 then id
    else begin
      let id = t.n in
      t.keys.(i) <- k;
      t.ids.(i) <- id;
      if id = Array.length t.by_id then begin
        let by_id = Array.make (2 * id) 0 in
        Array.blit t.by_id 0 by_id 0 id;
        t.by_id <- by_id
      end;
      t.by_id.(id) <- k;
      t.n <- id + 1;
      if 2 * t.n > Array.length t.ids then grow t;
      id
    end

  let key t id = t.by_id.(id)
end

(* ---- one component's domain ---- *)

module Stbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type dom = {
  name : string;
  mutable ints : bool;  (* an Int or an integral Float in int range *)
  mutable strs : bool;
  mutable nulls : bool;
  mutable nans : bool;
  mutable lo : int;  (* least int or string code seen *)
  mutable hi : int;
  strings : int Stbl.t;  (* interned in first-seen order *)
  mutable bad : string option;
}

type column = { dom : dom; codes : int array }

exception Bad of string

(* Integral floats in [-2^62, 2^62) are exactly the ints they equal. *)
let int_of_integral f = if f >= -0x1p62 && f < 0x1p62 then Some (Float.to_int f) else None

let column ~name rows col =
  let n = Array.length rows in
  let d =
    { name; ints = false; strs = false; nulls = false; nans = false; lo = max_int;
      hi = min_int; strings = Stbl.create 16; bad = None }
  in
  let codes = Array.make n 0 in
  (* NULL and NaN rows, marked with their code + 1 once the first shows *)
  let special = ref Bytes.empty in
  let mark i c =
    if Bytes.length !special = 0 then special := Bytes.make n '\000';
    Bytes.unsafe_set !special i (Char.unsafe_chr (c + 1))
  in
  let see_int i x =
    if d.strs then raise (Bad "mixes Str and numbers");
    d.ints <- true;
    if x < d.lo then d.lo <- x;
    if x > d.hi then d.hi <- x;
    codes.(i) <- x
  in
  (try
     for i = 0 to n - 1 do
       match rows.(i).(col) with
       | Value.Int x -> see_int i x
       | Value.Str s ->
         if d.ints then raise (Bad "mixes Str and numbers");
         d.strs <- true;
         codes.(i) <-
           (match Stbl.find d.strings s with
            | c -> c
            | exception Not_found ->
              let c = Stbl.length d.strings in
              Stbl.add d.strings s c;
              c)
       | Value.Float f when Float.is_nan f ->
         d.nans <- true;
         mark i nan_code
       | Value.Float f when Float.is_integer f ->
         (match int_of_integral f with
          | Some x -> see_int i x
          | None -> raise (Bad "holds a float past the int range"))
       | Value.Float _ -> raise (Bad "holds a non-integral float")
       | Value.Null ->
         d.nulls <- true;
         mark i null_code
       | Value.Bool _ -> raise (Bad "holds Bool values")
     done
   with Bad why -> d.bad <- Some (Printf.sprintf "column %s %s" name why));
  if d.bad = None then begin
    if d.strs then begin
      d.lo <- 0;
      d.hi <- Stbl.length d.strings - 1
    end
    else if not d.ints then begin
      d.lo <- 0;
      d.hi <- 0
    end;
    let lo = d.lo and sp = !special in
    if Bytes.length sp = 0 then
      for i = 0 to n - 1 do
        codes.(i) <- codes.(i) - lo + 2
      done
    else
      for i = 0 to n - 1 do
        let s = Bytes.unsafe_get sp i in
        codes.(i) <- (if s = '\000' then codes.(i) - lo + 2 else Char.code s - 1)
      done
  end;
  { dom = d; codes }

let code d v =
  match v with
  | Value.Int x -> if d.ints && x >= d.lo && x <= d.hi then x - d.lo + 2 else -1
  | Value.Str s ->
    if d.strs then (match Stbl.find d.strings s with c -> c + 2 | exception Not_found -> -1)
    else -1
  | Value.Float f when Float.is_nan f -> if d.nans then nan_code else -1
  | Value.Float f ->
    if d.ints && Float.is_integer f then
      match int_of_integral f with
      | Some x when x >= d.lo && x <= d.hi -> x - d.lo + 2
      | _ -> -1
    else -1
  | Value.Null -> if d.nulls then null_code else -1
  | Value.Bool _ -> -1

(* Codes [x - lo + 2] stay in [2, max_int] while [hi - lo <= max_int - 3],
   so they never meet the special codes or the -1 of "absent".  Components
   pack in mixed radix, each in a width of [hi - lo + 3], while the product
   of the widths fits in an int. *)
let pack doms =
  match Array.find_map (fun d -> d.bad) doms with
  | Some why -> Error why
  | None ->
    let too_wide () =
      Error
        (Printf.sprintf "keys %s: ranges too wide to pack"
           (String.concat ", " (Array.to_list (Array.map (fun d -> d.name) doms))))
    in
    let k = Array.length doms in
    let mult = Array.make k 1 in
    let rec go c total =
      if c = k then Ok mult
      else
        let span = doms.(c).hi - doms.(c).lo in
        if span < 0 || span > max_int - 3 then too_wide ()
        else
          let w = span + 3 in
          if total > max_int / w then too_wide ()
          else begin
            mult.(c) <- total;
            go (c + 1) (total * w)
          end
    in
    go 0 1

type path = Packed of string list | Generic of string

let describe = function
  | Packed cols -> Printf.sprintf "keys: packed (%s)" (String.concat ", " cols)
  | Generic why -> Printf.sprintf "keys: generic (%s)" why

let m_packed = Obs.Metrics.counter "exec.keys_packed"
let m_generic = Obs.Metrics.counter "exec.keys_generic"

let count = function
  | Packed _ -> Obs.Metrics.incr m_packed
  | Generic _ -> Obs.Metrics.incr m_generic

module Set = struct
  type t = { doms : dom array; mult : int array; keys : Itbl.t }

  let build ~names rows =
    let cols = Array.mapi (fun i name -> column ~name rows i) names in
    let doms = Array.map (fun c -> c.dom) cols in
    match pack doms with
    | Error why -> Error why
    | Ok mult ->
      let keys = Itbl.create (Array.length rows) in
      for r = 0 to Array.length rows - 1 do
        let k = ref 0 in
        for c = 0 to Array.length cols - 1 do
          k := !k + (cols.(c).codes.(r) * mult.(c))
        done;
        ignore (Itbl.intern keys !k)
      done;
      Ok { doms; mult; keys }

  let arity s = Array.length s.doms
  let cardinality s = Itbl.length s.keys
  let code s i v = code s.doms.(i) v
  let mult s i = s.mult.(i)
  let mem_key s k = Itbl.find s.keys k >= 0

  let mem s row =
    Array.length row = arity s
    &&
    let k = ref 0 and ok = ref true in
    Array.iteri
      (fun i v ->
        let c = code s i v in
        if c < 0 then ok := false else k := !k + (c * s.mult.(i)))
      row;
    !ok && mem_key s !k
end
