(* Seeded inputs of the benchmark: table sizes, table generation and the
   query texts of every workload.  Everything the program under test
   receives is made here from the workload seed, so the same seed gives the
   same tables and the same query sequence (checked by test_inputs.ml). *)

open Relalg

(* Sub-seed [k] of a workload seed: one independent generator per table or
   query family, so adding a family never shifts another's inputs. *)
let sub seed k = (seed * 7919) + k

(* ---- query families ---- *)

(* A family is one query shape with a free threshold.  [draw] hands out
   thresholds from a seeded shuffle of [lo, lo + span), so every text of a
   run is distinct without drifting: the n-th draw past the deck reuses the
   shuffle shifted by [span]. *)
type family = {
  name : string;
  text : int -> string;
  deck : int array;
  lo : int;
  mutable next : int;
}

(* A seeded permutation of [0, n). *)
let shuffle seed n =
  let rng = Workload.Prng.create seed in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Workload.Prng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let family ~seed ~k name ~lo ~span text =
  { name; text; deck = shuffle (sub seed (1000 + k)) span; lo; next = 0 }

let draw f =
  let n = Array.length f.deck in
  let i = f.next in
  f.next <- i + 1;
  f.text (f.lo + f.deck.(i mod n) + (n * (i / n)))

module Q = Workload.Queries

let sky ~seed ~k = family ~seed ~k "skyband_q1" ~lo:30 ~span:200 (fun k -> Q.skyband ~k ())

let sky_q3 ~seed ~k =
  family ~seed ~k "skyband_q3" ~lo:20 ~span:100 (fun k ->
      Q.skyband ~a:("b_2b", "b_3b") ~k ())

let sky_q8 ~seed ~k =
  family ~seed ~k "skyband_q8" ~lo:30 ~span:120 (fun k -> Q.skyband_avg ~k ())

let pairs ~seed ~k name ~agg ~c ~lo ~span =
  family ~seed ~k name ~lo ~span (fun k -> Q.pairs ~agg ~c ~k ())

(* Complex and basket thresholds scale with the table, so the share of
   groups that pass stays put when a size changes: at the top of each range
   about a hundred groups pass, at the bottom a few thousand. *)
let complex ~seed ~k ~rows =
  family ~seed ~k "complex" ~lo:(max 2 (rows / 100)) ~span:(max 10 (rows / 100))
    (fun threshold -> Q.complex ~threshold)

(* One team's slice passes thresholds up to about 8, so the family varies
   the team as well: value [v] filters team [v mod 30] at threshold
   [2 + v / 30]. *)
let complex_filtered ~seed ~k =
  family ~seed ~k "complex_filtered" ~lo:0 ~span:180 (fun v ->
      Q.complex_filtered ~category:(Printf.sprintf "team%d" (v mod 30)) ~threshold:(2 + (v / 30)) ())

let basket_pairs ~seed ~k ~rows =
  family ~seed ~k "basket_pairs" ~lo:(max 2 (rows / 200)) ~span:(max 10 (rows / 200))
    (fun threshold -> Q.listing1 ~threshold)

(* ---- tables ---- *)

let add_player cat ~seed ~rows =
  ignore (Workload.Baseball.register cat ~rows ~seed:(sub seed 1))

let add_kv cat ~seed ~rows =
  ignore (Workload.Baseball.register_unpivoted cat ~rows ~seed:(sub seed 2))

(* [rows] is the target row count; a basket holds 5.5 items on average
   before duplicate items are dropped. *)
let add_basket cat ~seed ~rows =
  ignore
    (Workload.Basket.register cat ~baskets:(rows / 5) ~items:200 ~avg_size:5
       ~seed:(sub seed 3))

(* ---- workload definitions ---- *)

(* adhoc_paper: three catalogs, sized so that no family dominates the
   run.  Skyband Q1, Q2, Q8 and the basket pairs run at paper scale on
   [Big]; Q3 compares the weakly correlated doubles/triples pair, where
   pruning does least, and costs 0.6-1.1 s at 10^5 rows, so it runs on
   [Mid]; the pairs-with-CTE and complex families, quadratic per
   team-season and a four-way join, run on [Small]. *)
type adhoc_sizes = {
  big_player : int;
  big_basket : int;
  mid_player : int;
  small_player : int;
  kv : int;
}

let adhoc_full =
  { big_player = 100_000; big_basket = 100_000; mid_player = 50_000; small_player = 8_000;
    kv = 8_000 }

(* Reduced-scale copy for the check against the baseline executor, which
   materializes the whole join. *)
let adhoc_reduced =
  { big_player = 600; big_basket = 3_000; mid_player = 600; small_player = 500; kv = 600 }

let adhoc_catalogs ~seed sz =
  let big = Catalog.create () and mid = Catalog.create () and small = Catalog.create () in
  add_player big ~seed ~rows:sz.big_player;
  add_basket big ~seed ~rows:sz.big_basket;
  add_player mid ~seed ~rows:sz.mid_player;
  add_player small ~seed ~rows:sz.small_player;
  add_kv small ~seed ~rows:sz.kv;
  [ (`Big, big); (`Mid, mid); (`Small, small) ]

(* Copies of the adhoc_paper catalogs, each generated from its own
   sub-seed; a family's j-th text runs on copy j (see [adhoc_texts]).  The
   cost of one query shape moves by up to 3x between generated data sets
   (skyband Q1 at 10^5 rows takes 0.14-0.45 s across seeds), so a run
   averages over several instead of measuring one. *)
let adhoc_copies = 3

let adhoc_copy_seed seed j = sub seed (500 + j)

let adhoc_pool ~seed sz =
  Array.init adhoc_copies (fun j -> adhoc_catalogs ~seed:(adhoc_copy_seed seed j) sz)

(* Each family with the catalog it runs on. *)
let adhoc_families ~seed sz =
  [ (`Big, sky ~seed ~k:0);
    (`Big, { (sky ~seed ~k:1) with name = "skyband_q2"; lo = 150 });
    (`Mid, sky_q3 ~seed ~k:2);
    (`Big, sky_q8 ~seed ~k:3);
    (`Small, pairs ~seed ~k:4 "pairs_q4" ~agg:`Avg ~c:3 ~lo:20 ~span:100);
    (`Small, pairs ~seed ~k:5 "pairs_q5" ~agg:`Sum ~c:3 ~lo:50 ~span:50);
    (`Small, pairs ~seed ~k:6 "pairs_q6" ~agg:`Avg ~c:5 ~lo:20 ~span:100);
    (`Small, pairs ~seed ~k:7 "pairs_q7" ~agg:`Sum ~c:3 ~lo:100 ~span:100);
    (`Small, complex ~seed ~k:8 ~rows:sz.kv);
    (`Small, complex_filtered ~seed ~k:9);
    (`Big, basket_pairs ~seed ~k:10 ~rows:sz.big_basket) ]

(* The texts of one adhoc_paper run, with the copy and catalog each runs
   on: [adhoc_copies] per family, text j on copy j with its threshold from
   the j-th of [adhoc_copies] equal slices of the family's range, at a
   seeded offset within it.  Whatever the seed, each family's texts cover
   its whole range and every data copy, so the cost of the set moves less
   between seeds than that of as many random draws. *)
let adhoc_texts ~seed sz =
  List.concat_map
    (fun (which, f) ->
      let slice = max 1 (Array.length f.deck / adhoc_copies) in
      List.init adhoc_copies (fun j ->
          (f.name, (j, which), f.text (f.lo + (j * slice) + (f.deck.(j) mod slice)))))
    (adhoc_families ~seed sz)

(* serve_mixed: small player table (a fresh skyband text is dominated by
   Core.Delta.init, which is quadratic in it), basket large enough that
   its decoded blocks overflow the capped block cache. *)
type serve_sizes = { s_player : int; s_kv : int; s_basket : int }

let serve_full = { s_player = 2_000; s_kv = 4_000; s_basket = 200_000 }

let serve_catalog ~seed sz =
  let cat = Catalog.create () in
  add_player cat ~seed ~rows:sz.s_player;
  add_kv cat ~seed ~rows:sz.s_kv;
  add_basket cat ~seed ~rows:sz.s_basket;
  cat

let serve_families ~seed sz =
  [ sky ~seed ~k:0;
    complex ~seed ~k:8 ~rows:sz.s_kv;
    complex_filtered ~seed ~k:9;
    basket_pairs ~seed ~k:10 ~rows:sz.s_basket ]

(* stream_append: basket at the scale of `bench stream`, plus a player
   table that the appends never touch. *)
type stream_sizes = { t_basket : int; t_player : int }

let stream_full = { t_basket = 50_000; t_player = 3_000 }

let stream_catalog ~seed sz =
  let cat = Catalog.create () in
  add_basket cat ~seed ~rows:sz.t_basket;
  add_player cat ~seed ~rows:sz.t_player;
  cat

(* Generated basket ids stay below this, so appended baskets are fresh and a
   WHERE bound on [bid] refutes every appended row. *)
let fresh_bid_base = 1_000_000

(* The three texts of stream_append over [cat].  Each threshold is the
   aggregate of the group ranked about [rows] (seeded) when the groups are
   sorted by it, so every answer carries about that many rows whatever the
   data: a cached read's cost follows its payload, and a thousand rows make
   it milliseconds of encoding rather than scheduling noise. *)
let stream_texts ~seed cat =
  let rng = Workload.Prng.create (sub seed 2000) in
  let bound = Printf.sprintf "i1.bid < %d AND i2.bid < %d" fresh_bid_base fresh_bid_base in
  let threshold ~rows select having_of =
    let rel = Core.Runner.run_baseline cat (Sqlfront.Parser.parse select) in
    let sums =
      Relation.fold
        (fun acc row -> (match row.(Array.length row - 1) with Value.Int n -> n | _ -> 0) :: acc)
        [] rel
    in
    let sorted = Array.of_list (List.sort (fun a b -> compare b a) sums) in
    let rank = min (Array.length sorted - 1) (rows + Workload.Prng.int rng (rows / 10)) in
    having_of (max 1 sorted.(rank))
  in
  let pairs_sql where =
    Printf.sprintf
      "SELECT i1.item, i2.item, COUNT(*) FROM basket i1, basket i2 WHERE \
       i1.bid = i2.bid AND i1.item < i2.item%s GROUP BY i1.item, i2.item" where
  in
  let having th = Printf.sprintf " HAVING COUNT(*) >= %d" th in
  let pairs = threshold ~rows:1500 (pairs_sql "") (fun th -> pairs_sql "" ^ having th) in
  let refuted =
    threshold ~rows:1000 (pairs_sql (" AND " ^ bound)) (fun th -> pairs_sql (" AND " ^ bound) ^ having th)
  in
  let player_sql =
    "SELECT P.teamid, P.year, COUNT(*), SUM(P.b_hr) FROM player_performance P \
     GROUP BY P.teamid, P.year"
  in
  let player =
    threshold ~rows:200 player_sql (fun th -> Printf.sprintf "%s HAVING SUM(P.b_hr) >= %d" player_sql th)
  in
  (pairs, refuted, player)

(* One burst of [n] fresh baskets of 5 distinct items each (offsets coprime
   to the 200-item catalogue keep (bid, item) a key), as JSON rows. *)
let burst rng ~first_bid ~n =
  List.concat
    (List.init n (fun b ->
         let base = Workload.Prng.int rng 200 in
         List.init 5 (fun i ->
             Obs.Json.Arr
               [ Obs.Json.Num (float_of_int (first_bid + b));
                 Obs.Json.Str (Printf.sprintf "item%04d" ((base + (7 * i)) mod 200)) ])))

(* ---- digests ---- *)

(* Order-independent digest of a relation's rows: a bag of rows hashes the
   same in any order. *)
let digest rel =
  let rows =
    Relation.fold
      (fun acc row ->
        String.concat "\x1f" (Array.to_list (Array.map Value.to_string row)) :: acc)
      [] rel
  in
  Digest.to_hex (Digest.string (String.concat "\x1e" (List.sort compare rows)))

let catalog_digest cat =
  Digest.to_hex
    (Digest.string
       (String.concat ","
          (List.map
             (fun name -> name ^ "=" ^ digest (Catalog.find cat name).Catalog.rel)
             (List.sort compare (Catalog.table_names cat)))))
