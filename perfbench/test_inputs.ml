(* The workload seed fixes every input: the same seed gives the same tables
   and query sequence, a different seed gives different ones. *)

let adhoc = Inputs.adhoc_reduced
let serve = { Inputs.s_player = 300; s_kv = 400; s_basket = 2_000 }
let stream = { Inputs.t_basket = 2_000; t_player = 300 }

(* Everything one seed produces, as digests of tables and the first texts
   of every query sequence. *)
let inputs seed =
  let texts fams = List.concat_map (fun f -> List.init 5 (fun _ -> Inputs.draw f)) fams in
  let stream_cat = Inputs.stream_catalog ~seed stream in
  let pairs, refuted, player = Inputs.stream_texts ~seed stream_cat in
  let rng = Workload.Prng.create (Inputs.sub seed 3000) in
  [ ("adhoc tables",
     String.concat ","
       (List.concat_map
          (List.map (fun (_, c) -> Inputs.catalog_digest c))
          (Array.to_list (Inputs.adhoc_pool ~seed adhoc))));
    ("adhoc texts",
     String.concat "\n" (List.map (fun (_, _, text) -> text) (Inputs.adhoc_texts ~seed adhoc)));
    ("serve tables", Inputs.catalog_digest (Inputs.serve_catalog ~seed serve));
    ("serve texts", String.concat "\n" (texts (Inputs.serve_families ~seed serve)));
    ("stream tables", Inputs.catalog_digest stream_cat);
    ("stream requests",
     String.concat "\n"
       [ pairs; refuted; player;
         Obs.Json.to_string
           (Obs.Json.Arr (Inputs.burst rng ~first_bid:Inputs.fresh_bid_base ~n:20)) ]) ]

let () =
  let a = inputs 1 and again = inputs 1 and b = inputs 2 in
  let failures = ref 0 in
  List.iter2
    (fun (what, x) ((_, y), (_, z)) ->
      if x <> y then begin
        Printf.printf "FAIL %s: seed 1 differs between two calls\n" what;
        incr failures
      end;
      if x = z then begin
        Printf.printf "FAIL %s: seeds 1 and 2 give the same inputs\n" what;
        incr failures
      end)
    a (List.combine again b);
  if !failures > 0 then exit 1;
  print_endline "perfbench inputs: same seed same inputs, other seed other inputs"
