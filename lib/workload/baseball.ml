open Relalg

let table_name = "player_performance"
let unpivoted_name = "perf_kv"

let columns =
  [ "playerid"; "year"; "round"; "teamid"; "b_h"; "b_hr"; "b_2b"; "b_3b"; "b_bb"; "b_sb" ]

let stat_columns = [ "b_h"; "b_hr"; "b_2b"; "b_3b"; "b_bb"; "b_sb" ]

let clamp_nonneg x = if x < 0 then 0 else x

(* One season line for a player with a given skill in [0, 1].  b_h and b_hr
   are strongly tied through skill (Figure 2, left pairing); b_2b and b_3b
   are weakly related and b_3b is heavily bottom-skewed (right pairing). *)
let season_stats rng skill =
  let g () = Prng.gaussian rng in
  let b_h = clamp_nonneg (int_of_float ((skill *. 160.) +. (25. *. g ()))) in
  let b_hr =
    clamp_nonneg
      (int_of_float ((float_of_int b_h *. 0.22 *. (0.5 +. skill)) +. (4. *. g ())))
  in
  let b_2b = clamp_nonneg (int_of_float ((skill *. 35.) +. (10. *. g ()))) in
  let b_3b = clamp_nonneg (int_of_float (Float.abs (2.5 *. g ()) *. (1.2 -. skill))) in
  let b_bb = clamp_nonneg (int_of_float ((skill *. 70.) +. (15. *. g ()))) in
  let b_sb = clamp_nonneg (int_of_float (Float.abs (8. *. g ()))) in
  [ b_h; b_hr; b_2b; b_3b; b_bb; b_sb ]

let rounds_per_year = 2

let generate ~rows ~seed =
  let rng = Prng.create seed in
  let years = 10 in
  let out = ref [] in
  let count = ref 0 in
  let pid = ref 0 in
  (* Careers vary in length and starting year (like the real dataset), so
     thresholds on seasons-played are actually selective — without this the
     pairs reducers would be vacuous. *)
  while !count < rows do
    let skill = Float.min 1.0 (Float.max 0.0 (0.45 +. (0.2 *. Prng.gaussian rng))) in
    let team = Prng.int rng 30 in
    let career = 1 + Prng.int rng years in
    let start = Prng.int rng (years - career + 1) in
    for year = start to start + career - 1 do
      for round = 1 to rounds_per_year do
        if !count < rows then begin
          incr count;
          let stats = season_stats rng skill in
          let row =
            Array.of_list
              (Value.Int !pid :: Value.Int (2000 + year) :: Value.Int round
              :: Value.Int team
              :: List.map (fun s -> Value.Int s) stats)
          in
          out := row :: !out
        end
      done
    done;
    incr pid
  done;
  Relation.of_rows (Schema.of_names columns) (List.rev !out)

let register catalog ~rows ~seed =
  let rel = generate ~rows ~seed in
  Catalog.add_table catalog
    ~keys:[ [ "playerid"; "year"; "round" ] ]
    ~fds:[ ([ "playerid" ], [ "teamid" ]) ]
    ~nonneg:stat_columns table_name rel;
  Relation.cardinality rel

let default_attrs = [ "b_h"; "b_hr"; "b_2b"; "b_3b" ]

let register_unpivoted ?(attrs = default_attrs) catalog ~rows ~seed =
  let per_row = List.length attrs in
  let pivoted = generate ~rows:((rows + per_row - 1) / per_row) ~seed in
  let schema = pivoted.Relation.schema in
  let idx name = Schema.index_of schema name in
  let team_idx = idx "teamid" in
  let out = ref [] in
  let count = ref 0 in
  let rowid = ref 0 in
  Relation.iter
    (fun row ->
      let id = !rowid in
      incr rowid;
      List.iter
        (fun attr ->
          if !count < rows then begin
            incr count;
            out :=
              [| Value.Int id;
                 Value.Str (Printf.sprintf "team%s" (Value.to_string row.(team_idx)));
                 Value.Str attr;
                 row.(idx attr) |]
              :: !out
          end)
        attrs)
    pivoted;
  let rel =
    Relation.of_rows (Schema.of_names [ "id"; "category"; "attr"; "val" ]) (List.rev !out)
  in
  Catalog.add_table catalog
    ~keys:[ [ "id"; "attr" ] ]
    ~fds:[ ([ "id" ], [ "category" ]) ]
    ~nonneg:[ "val" ] unpivoted_name rel;
  Relation.cardinality rel

let build_indexes ?(bt = true) catalog =
  if Catalog.mem catalog table_name then begin
    Catalog.drop_indexes catalog table_name;
    if bt then begin
      Catalog.build_sorted_index catalog table_name [ "b_h"; "b_hr" ];
      Catalog.build_sorted_index catalog table_name [ "b_2b"; "b_3b" ]
    end
  end;
  if Catalog.mem catalog unpivoted_name then begin
    Catalog.drop_indexes catalog unpivoted_name;
    if bt then Catalog.build_sorted_index catalog unpivoted_name [ "val" ]
  end
