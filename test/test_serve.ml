(* The query server: protocol plumbing, the LRU tiers, and end-to-end
   socket tests — concurrent-session differential fuzzing against one-shot
   execution, plan-cache hit/miss accounting, result-cache invalidation on
   append, and admission-control rejection under a full queue. *)
open Relalg
open Helpers
module Json = Obs.Json
module P = Serve.Protocol

(* ---- lru ---- *)

let test_lru_basic () =
  let c = Cache.Lru.create 2 in
  Cache.Lru.put c "a" 1;
  Cache.Lru.put c "b" 2;
  Alcotest.(check (option int)) "hit a" (Some 1) (Cache.Lru.find c "a");
  (* a is now most recent; inserting c evicts b *)
  Cache.Lru.put c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Cache.Lru.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Cache.Lru.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Cache.Lru.find c "c");
  let s = Cache.Lru.stats c in
  Alcotest.(check int) "evictions" 1 s.Cache.Lru.s_evictions;
  Alcotest.(check int) "len" 2 s.Cache.Lru.s_len

let test_lru_retain () =
  let c = Cache.Lru.create 8 in
  List.iter (fun i -> Cache.Lru.put c (string_of_int i) i) [ 1; 2; 3; 4; 5 ];
  let dropped = Cache.Lru.retain c (fun _ v -> v mod 2 = 0) in
  Alcotest.(check int) "dropped odd" 3 dropped;
  Alcotest.(check int) "left" 2 (Cache.Lru.length c);
  Alcotest.(check (option int)) "even kept" (Some 4) (Cache.Lru.find c "4");
  Alcotest.(check (option int)) "odd gone" None (Cache.Lru.find c "3")

(* ---- protocol ---- *)

let test_addr_strings () =
  Alcotest.(check string) "unix round-trip" "unix:/tmp/x.sock"
    (P.addr_to_string (P.addr_of_string "unix:/tmp/x.sock"));
  Alcotest.(check string) "bare path is unix" "unix:/tmp/y.sock"
    (P.addr_to_string (P.addr_of_string "/tmp/y.sock"));
  Alcotest.(check string) "tcp" "tcp:127.0.0.1:7070"
    (P.addr_to_string (P.addr_of_string "tcp:127.0.0.1:7070"));
  Alcotest.(check string) "host:port shorthand" "tcp:localhost:7070"
    (P.addr_to_string (P.addr_of_string "localhost:7070"))

let test_value_json_roundtrip () =
  List.iter
    (fun v ->
      Alcotest.(check bool) "round-trip" true
        (Value.equal_total v (P.value_of_json (P.value_to_json v))))
    [ Value.Null; Value.Bool true; Value.Int 42; Value.Int (-7);
      Value.Float 2.5; Value.Str "x y" ];
  (* integral floats come back as ints — the documented coercion *)
  Alcotest.(check bool) "2.0 -> Int 2" true
    (P.value_of_json (P.value_to_json (Value.Float 2.)) = Value.Int 2)

let test_parse_request () =
  let ok s =
    match P.parse_request (Json.of_string s) with
    | Ok e -> e
    | Error m -> Alcotest.failf "parse_request %s: %s" s m
  in
  let e = ok {|{"id":3,"op":"query","sql":"SELECT 1"}|} in
  Alcotest.(check int) "id" 3 e.P.rq_id;
  (match e.P.rq with
   | P.Query { sql; analyze } ->
     Alcotest.(check string) "sql" "SELECT 1" sql;
     Alcotest.(check bool) "analyze defaults off" false analyze
   | _ -> Alcotest.fail "expected Query");
  (match (ok {|{"id":1,"op":"append","table":"t","rows":[[1,"a"]]}|}).P.rq with
   | P.Append { table; rows } ->
     Alcotest.(check string) "table" "t" table;
     Alcotest.(check int) "rows" 1 (List.length rows)
   | _ -> Alcotest.fail "expected Append");
  (match P.parse_request (Json.of_string {|{"id":9,"op":"nope"}|}) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown op must be rejected")

(* ---- end-to-end fixtures ---- *)

let sock_counter = ref 0

(* Full fixture: [f] gets the address and the server handle (the handle is
   how the metrics tests resolve an ephemerally bound exporter port). *)
let with_server_full ?(pool = 2) ?(queue_cap = 32) ?(maintain = true)
    ?metrics_addr ?slow_ms ?slow_log ?(trace_sample = 0.) catalogs f =
  incr sock_counter;
  let path =
    Printf.sprintf "/tmp/si-test-%d-%d.sock" (Unix.getpid ()) !sock_counter
  in
  let config =
    {
      Serve.Server.listen = `Unix path;
      pool;
      queue_cap;
      plan_cache_cap = 32;
      result_cache_cap = 64;
      max_rows = None;
      maintain;
      metrics_addr;
      slow_ms;
      slow_log;
      trace_sample;
    }
  in
  let srv = Serve.Server.start ~config catalogs in
  Fun.protect
    ~finally:(fun () -> Serve.Server.shutdown srv)
    (fun () -> f (`Unix path : P.addr) srv)

let with_server ?pool ?queue_cap ?maintain ?slow_ms ?slow_log ?trace_sample
    catalogs f =
  with_server_full ?pool ?queue_cap ?maintain ?slow_ms ?slow_log ?trace_sample
    catalogs (fun addr _srv -> f addr)

(* The expected relation as the wire carries it: NaN travels as null, and
   integers beyond 2^53 as floats. *)
let wire_rel rel =
  Relation.map_rows rel.Relation.schema
    (Array.map (fun v ->
         P.value_of_json (Json.of_string (Json.to_string (P.value_to_json v)))))
    rel

let check_wire_bag msg expected response =
  let got = Serve.Client.relation_of_response response in
  if not (Core.Runner.same_result expected got) then
    Alcotest.failf "%s: server result differs\nexpected:\n%sgot:\n%s" msg
      (Relation.to_string ~max_rows:30 (Relation.sorted expected))
      (Relation.to_string ~max_rows:30 (Relation.sorted got))

let basket_sql =
  "SELECT i1.item, COUNT(*) FROM basket i1, basket i2 WHERE i1.bid = i2.bid \
   GROUP BY i1.item HAVING COUNT(*) >= 2"

(* ---- basic end-to-end ---- *)

let test_serve_basic () =
  let catalog = basket_catalog () in
  let expected, _ =
    Core.Runner.run (basket_catalog ()) (Sqlfront.Parser.parse basket_sql)
  in
  ignore catalog;
  with_server [ (`Row, basket_catalog ()) ] (fun addr ->
      let c = Serve.Client.connect addr in
      Serve.Client.ping c;
      let r1 = Serve.Client.query c basket_sql in
      check_wire_bag "fresh" expected r1;
      Alcotest.(check bool) "first is uncached" false (Serve.Client.cached r1);
      let r2 = Serve.Client.query c basket_sql in
      check_wire_bag "repeat" expected r2;
      Alcotest.(check bool) "repeat is cached" true (Serve.Client.cached r2);
      (* bad SQL comes back as bad_request, not a dead connection *)
      (try
         ignore (Serve.Client.query c "SELECT FROM WHERE");
         Alcotest.fail "expected parse error"
       with Serve.Client.Server_error { code; _ } ->
         Alcotest.(check string) "parse error code" "bad_request" code);
      (* so is an integer literal that overflows [int] (a lexing error) *)
      (try
         ignore
           (Serve.Client.query c
              "SELECT i1.bid FROM basket i1 WHERE i1.bid > 99999999999999999999");
         Alcotest.fail "expected lex error"
       with Serve.Client.Server_error { code; _ } ->
         Alcotest.(check string) "lex error code" "bad_request" code);
      (* the session still works after an error *)
      let r3 = Serve.Client.query c basket_sql in
      Alcotest.(check bool) "still cached" true (Serve.Client.cached r3);
      Serve.Client.close c)

let test_serve_set_config () =
  with_server [ (`Row, basket_catalog ()) ] (fun addr ->
      let c = Serve.Client.connect addr in
      ignore
        (Serve.Client.set c
           [ ("workers", Json.Num 2.); ("transfer", Json.Bool false);
             ("tech", Json.Str "memo+pruning") ]);
      (try
         ignore (Serve.Client.set c [ ("layout", Json.Str "column") ]);
         Alcotest.fail "column layout is not loaded on this server"
       with Serve.Client.Server_error { code; _ } ->
         Alcotest.(check string) "unloaded layout" "bad_request" code);
      (try
         ignore (Serve.Client.set c [ ("nonsense", Json.Num 1.) ]);
         Alcotest.fail "unknown key must be rejected"
       with Serve.Client.Server_error { code; _ } ->
         Alcotest.(check string) "unknown key" "bad_request" code);
      let r = Serve.Client.query c basket_sql in
      Alcotest.(check bool) "still executes after set" true
        (Serve.Client.rows_n r > 0);
      Serve.Client.close c)

(* ---- plan-cache accounting ---- *)

let session_field stats sid name =
  match Json.member "sessions" stats with
  | Some (Json.Arr sessions) ->
    let own =
      List.find_opt
        (fun s -> Json.member "session" s = Some (Json.Num (float_of_int sid)))
        sessions
    in
    (match own with
     | Some s ->
       (match Json.member name s with
        | Some (Json.Num x) -> int_of_float x
        | _ -> Alcotest.failf "session field %s missing" name)
     | None -> Alcotest.failf "session %d not in stats" sid)
  | _ -> Alcotest.fail "stats has no sessions array"

let plan_of r =
  match Json.member "plan" r with Some (Json.Str s) -> s | _ -> "?"

let test_plan_cache_accounting () =
  with_server [ (`Row, basket_catalog ()) ] (fun addr ->
      let c = Serve.Client.connect addr in
      (* result cache off: every run goes to the planner or the plan cache *)
      ignore (Serve.Client.set c [ ("result_cache", Json.Bool false) ]);
      let r1 = Serve.Client.query c basket_sql in
      let r2 = Serve.Client.query c basket_sql in
      let r3 = Serve.Client.query c basket_sql in
      Alcotest.(check string) "first plans" "miss" (plan_of r1);
      Alcotest.(check string) "second reuses" "hit" (plan_of r2);
      Alcotest.(check string) "third reuses" "hit" (plan_of r3);
      Alcotest.(check bool) "none cached" true
        (List.for_all (fun r -> not (Serve.Client.cached r)) [ r1; r2; r3 ]);
      let stats = Serve.Client.stats c in
      let sid = Serve.Client.session c in
      Alcotest.(check int) "session plan hits" 2
        (session_field stats sid "plan_hits");
      Alcotest.(check int) "session queries" 3
        (session_field stats sid "queries");
      (* plan cache off: execution still works, reported as bypass *)
      ignore (Serve.Client.set c [ ("plan_cache", Json.Bool false) ]);
      let r4 = Serve.Client.query c basket_sql in
      Alcotest.(check string) "bypass" "bypass" (plan_of r4);
      (* a config change is a different plan key: back on, it re-plans
         rather than reusing a plan prepared for other settings *)
      ignore
        (Serve.Client.set c
           [ ("plan_cache", Json.Bool true); ("workers", Json.Num 2.) ]);
      let r5 = Serve.Client.query c basket_sql in
      Alcotest.(check string) "config change misses" "miss" (plan_of r5);
      Serve.Client.close c)

(* ---- result-cache maintenance / invalidation on append ---- *)

let int_field resp name =
  match Json.member name resp with
  | Some (Json.Num n) -> int_of_float n
  | _ -> Alcotest.failf "append response lacks %s" name

(* One-shot expected result for basket_sql after appending [extra] rows. *)
let basket_expected extra =
  let catalog = basket_catalog () in
  let tbl = Catalog.find catalog "basket" in
  let rows = Array.to_list (Relation.rows tbl.Catalog.rel) @ extra in
  Catalog.replace_rows catalog "basket"
    (Relation.of_rows tbl.Catalog.rel.Relation.schema rows);
  fst (Core.Runner.run catalog (Sqlfront.Parser.parse basket_sql))

let test_append_maintenance () =
  with_server [ (`Row, basket_catalog ()); (`Column, basket_catalog ()) ]
    (fun addr ->
      let c = Serve.Client.connect addr in
      (* an engine run (result cache off) leaves a prepared plan behind;
         cached answers come from partial state and prepare none *)
      ignore (Serve.Client.set c [ ("result_cache", Json.Bool false) ]);
      ignore (Serve.Client.query c basket_sql);
      ignore (Serve.Client.set c [ ("result_cache", Json.Bool true) ]);
      ignore (Serve.Client.query c basket_sql);
      let r2 = Serve.Client.query c basket_sql in
      Alcotest.(check bool) "warm before append" true (Serve.Client.cached r2);
      (* two more rows for bid 1: bid-1 items now pair with 4 rows *)
      let resp =
        Serve.Client.append c "basket"
          [ Json.Arr [ Json.Num 1.; Json.Str "z" ];
            Json.Arr [ Json.Num 1.; Json.Str "w" ] ]
      in
      (* the entry has a delta rule: it is folded forward, not dropped *)
      Alcotest.(check bool) "append maintained the cached result" true
        (int_field resp "incremental" >= 1);
      Alcotest.(check int) "nothing dropped" 0 (int_field resp "invalidated");
      Alcotest.(check bool) "cached plan survived the append" true
        (int_field resp "plans_refreshed" >= 1);
      let r3 = Serve.Client.query c basket_sql in
      Alcotest.(check bool) "maintained entry still serves hits" true
        (Serve.Client.cached r3);
      Alcotest.(check string) "payload marks maintenance" "maintained"
        (plan_of r3);
      let extra1 = [ row [ iv 1; sv "z" ]; row [ iv 1; sv "w" ] ] in
      check_wire_bag "post-append" (basket_expected extra1) r3;
      (* a second append folds into the already-maintained state *)
      ignore
        (Serve.Client.append c "basket" [ Json.Arr [ Json.Num 2.; Json.Str "z" ] ]);
      let r4 = Serve.Client.query c basket_sql in
      Alcotest.(check bool) "still cached after second append" true
        (Serve.Client.cached r4);
      let extra2 = extra1 @ [ row [ iv 2; sv "z" ] ] in
      let expected2 = basket_expected extra2 in
      check_wire_bag "second append" expected2 r4;
      (* both layouts saw the appends *)
      ignore (Serve.Client.set c [ ("layout", Json.Str "column") ]);
      let r5 = Serve.Client.query c basket_sql in
      check_wire_bag "column layout post-append" expected2 r5;
      Serve.Client.close c)

let test_append_invalidation () =
  (* maintenance off: appends fall back to dropping affected entries *)
  with_server ~maintain:false [ (`Row, basket_catalog ()) ] (fun addr ->
      let c = Serve.Client.connect addr in
      ignore (Serve.Client.query c basket_sql);
      let r2 = Serve.Client.query c basket_sql in
      Alcotest.(check bool) "warm before append" true (Serve.Client.cached r2);
      let resp =
        Serve.Client.append c "basket"
          [ Json.Arr [ Json.Num 1.; Json.Str "z" ];
            Json.Arr [ Json.Num 1.; Json.Str "w" ] ]
      in
      Alcotest.(check bool) "append invalidated the cached result" true
        (int_field resp "invalidated" >= 1);
      let r3 = Serve.Client.query c basket_sql in
      Alcotest.(check bool) "append evicts" false (Serve.Client.cached r3);
      check_wire_bag "post-append"
        (basket_expected [ row [ iv 1; sv "z" ]; row [ iv 1; sv "w" ] ])
        r3;
      Serve.Client.close c)

(* Regression for the lockstep bug: a bad row anywhere in the batch (or a
   table one layout catalog lacks) must leave every catalog untouched —
   decode-all-before-mutate, all-or-nothing. *)
let test_append_all_or_nothing () =
  with_server [ (`Row, basket_catalog ()); (`Column, basket_catalog ()) ]
    (fun addr ->
      let c = Serve.Client.connect addr in
      let expected0 = basket_expected [] in
      let bad_batches =
        [ (* arity mismatch in the middle of the batch *)
          [ Json.Arr [ Json.Num 9.; Json.Str "ok" ];
            Json.Arr [ Json.Num 9. ];
            Json.Arr [ Json.Num 9.; Json.Str "ok2" ] ];
          (* not even a row *)
          [ Json.Arr [ Json.Num 9.; Json.Str "ok" ]; Json.Str "junk" ] ]
      in
      List.iter
        (fun batch ->
          try
            ignore (Serve.Client.append c "basket" batch);
            Alcotest.fail "bad batch must be rejected"
          with Serve.Client.Server_error { code; _ } ->
            Alcotest.(check string) "bad batch" "bad_request" code)
        bad_batches;
      (try
         ignore
           (Serve.Client.append c "nosuch" [ Json.Arr [ Json.Num 1. ] ]);
         Alcotest.fail "unknown table must be rejected"
       with Serve.Client.Server_error { code; _ } ->
         Alcotest.(check string) "unknown table" "bad_request" code);
      (* neither layout saw any of the valid prefix rows *)
      let r_row = Serve.Client.query c basket_sql in
      check_wire_bag "row untouched" expected0 r_row;
      ignore (Serve.Client.set c [ ("layout", Json.Str "column") ]);
      let r_col = Serve.Client.query c basket_sql in
      check_wire_bag "column untouched" expected0 r_col;
      (* and a good append still lands in both *)
      ignore
        (Serve.Client.append c "basket" [ Json.Arr [ Json.Num 1.; Json.Str "z" ] ]);
      let expected1 = basket_expected [ row [ iv 1; sv "z" ] ] in
      let r_col2 = Serve.Client.query c basket_sql in
      check_wire_bag "column after good append" expected1 r_col2;
      ignore (Serve.Client.set c [ ("layout", Json.Str "row") ]);
      let r_row2 = Serve.Client.query c basket_sql in
      check_wire_bag "row after good append" expected1 r_row2;
      Serve.Client.close c)

(* Regression for the blanket-sweep bug: appending to one table must not
   evict cached results of queries that never read it. *)
let test_append_unrelated_survives () =
  let mixed_catalog () =
    let catalog = basket_catalog () in
    Catalog.add_table catalog ~keys:[ [ "id" ] ] ~nonneg:[ "x"; "y" ] "object"
      (rel [ "id"; "x"; "y" ]
         (List.init 12 (fun i -> [ iv i; iv (i mod 4); iv (i mod 3) ])));
    catalog
  in
  let object_sql =
    "SELECT o1.x, COUNT(*) FROM object o1, object o2 WHERE o1.x = o2.x GROUP \
     BY o1.x HAVING COUNT(*) >= 2"
  in
  with_server ~maintain:false [ (`Row, mixed_catalog ()) ] (fun addr ->
      let c = Serve.Client.connect addr in
      ignore (Serve.Client.query c basket_sql);
      ignore (Serve.Client.query c object_sql);
      (* append to object: the basket entry reads a disjoint table set and
         must survive even with maintenance off *)
      let resp =
        Serve.Client.append c "object"
          [ Json.Arr [ Json.Num 100.; Json.Num 1.; Json.Num 1. ] ]
      in
      Alcotest.(check int) "only the object entry dropped" 1
        (int_field resp "invalidated");
      let rb = Serve.Client.query c basket_sql in
      Alcotest.(check bool) "unrelated entry survived" true
        (Serve.Client.cached rb);
      let ro = Serve.Client.query c object_sql in
      Alcotest.(check bool) "related entry dropped" false
        (Serve.Client.cached ro);
      Serve.Client.close c)

(* ---- append/query race ---- *)

let test_concurrent_append_query () =
  let appends = 6 in
  with_server ~pool:3 [ (`Row, basket_catalog ()) ] (fun addr ->
      let failures = Array.make 3 None in
      let stop = Atomic.make false in
      let readers =
        List.init 2 (fun i ->
            Thread.create
              (fun () ->
                try
                  let c = Serve.Client.connect addr in
                  while not (Atomic.get stop) do
                    let r = Serve.Client.query c basket_sql in
                    (* every in-flight snapshot is internally consistent:
                       at least the seed groups, never a torn row *)
                    if Serve.Client.rows_n r < 1 then
                      failwith "result lost the seed groups"
                  done;
                  Serve.Client.close c
                with e -> failures.(i) <- Some (Printexc.to_string e))
              ())
      in
      let writer =
        Thread.create
          (fun () ->
            try
              let c = Serve.Client.connect addr in
              for k = 1 to appends do
                ignore
                  (Serve.Client.append c "basket"
                     [ Json.Arr
                         [ Json.Num (float_of_int (10 + k)); Json.Str "a" ];
                       Json.Arr
                         [ Json.Num (float_of_int (10 + k)); Json.Str "b" ] ]);
                Thread.yield ()
              done;
              Serve.Client.close c
            with e -> failures.(2) <- Some (Printexc.to_string e))
          ()
      in
      Thread.join writer;
      Atomic.set stop true;
      List.iter Thread.join readers;
      Array.iter
        (function
          | Some m -> Alcotest.failf "append/query race: %s" m | None -> ())
        failures;
      (* after the dust settles, the served result (maintained or cached)
         equals a one-shot recompute over everything appended *)
      let extra =
        List.concat_map
          (fun k -> [ row [ iv (10 + k); sv "a" ]; row [ iv (10 + k); sv "b" ] ])
          (List.init appends (fun k -> k + 1))
      in
      let expected = basket_expected extra in
      let c = Serve.Client.connect addr in
      check_wire_bag "final state" expected (Serve.Client.query c basket_sql);
      Serve.Client.close c)

let test_catalog_version () =
  let catalog = basket_catalog () in
  let v0 = Catalog.version catalog in
  Catalog.add_temp catalog "tmp_x" (rel [ "a" ] [ [ iv 1 ] ]);
  Catalog.remove_table catalog "tmp_x";
  Alcotest.(check int) "temp lifecycle is version-neutral" v0
    (Catalog.version catalog);
  let tbl = Catalog.find catalog "basket" in
  Catalog.replace_rows catalog "basket" tbl.Catalog.rel;
  Alcotest.(check bool) "replace_rows bumps" true (Catalog.version catalog > v0)

(* ---- admission control ---- *)

let test_admission_rejection () =
  let catalog = Catalog.create () in
  ignore (Workload.Baseball.register catalog ~rows:4000 ~seed:2017);
  let sql = List.assoc "Q1" Workload.Queries.figure1 in
  with_server ~pool:1 ~queue_cap:1 [ (`Row, catalog) ] (fun addr ->
      (* pipeline a burst past the high-water mark on a raw connection: a
         1-deep queue with 1 worker must reject most of an 8-deep burst *)
      let path = match addr with `Unix p -> p | _ -> assert false in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      ignore (input_line ic) (* hello *);
      let n = 8 in
      for i = 1 to n do
        output_string oc
          (Json.to_string
             (P.encode_request { P.rq_id = i; rq = P.Query { sql; analyze = false } }));
        output_char oc '\n'
      done;
      flush oc;
      let ok = ref 0 and overloaded = ref 0 and other = ref 0 in
      for _ = 1 to n do
        let j = Json.of_string (input_line ic) in
        match (Json.member "ok" j, Json.member "code" j) with
        | Some (Json.Bool true), _ -> incr ok
        | _, Some (Json.Str "overloaded") -> incr overloaded
        | _ -> incr other
      done;
      Alcotest.(check int) "no unexpected errors" 0 !other;
      Alcotest.(check bool) "some executed" true (!ok >= 1);
      Alcotest.(check bool) "backpressure engaged" true (!overloaded >= 1);
      Alcotest.(check int) "every request answered" n (!ok + !overloaded);
      close_out_noerr oc;
      (* rejection did not poison the server: a fresh client still works *)
      let c = Serve.Client.connect addr in
      let r = Serve.Client.query c sql in
      Alcotest.(check bool) "healthy after burst" true (Serve.Client.rows_n r >= 0);
      Serve.Client.close c)

(* ---- hostile request lines ---- *)

(* A truncated JSON line and bytes that are not UTF-8 each get
   [bad_request]; so does a line past the cap that never ends — the server
   must act on the cap, not wait for a newline — and its connection then
   closes.  [serve.errors] counts them, and another session still works. *)
let test_hostile_lines () =
  let errors = Obs.Metrics.counter "serve.errors" in
  let saved = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe saved) @@ fun () ->
  with_server [ (`Row, basket_catalog ()) ] (fun addr ->
      let path = match addr with `Unix p -> p | `Tcp _ -> assert false in
      let before = Obs.Metrics.read errors in
      List.iter
        (fun (what, payload) ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
          let ic = Unix.in_channel_of_descr fd in
          Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
          ignore (input_line ic : string);
          ignore (Unix.write_substring fd payload 0 (String.length payload) : int);
          let rec lines acc =
            match input_line ic with
            | l -> lines (l :: acc)
            | exception End_of_file -> acc
            | exception Sys_error m -> Alcotest.failf "%s: no answer and no close: %s" what m
          in
          if String.ends_with ~suffix:"\n" payload then Unix.shutdown fd Unix.SHUTDOWN_SEND;
          match lines [] with
          | [ l ] when Json.member "code" (Json.of_string l) = Some (Json.Str "bad_request") -> ()
          | ls -> Alcotest.failf "%s: expected one bad_request, got [%s]" what (String.concat "; " ls))
        [ ("truncated JSON", "{\"id\":1,\"op\":\"qu\n");
          ("non-UTF-8 bytes", "\xff\xfe\x80\xc3 \x00\n");
          ("over-cap line", String.make (P.max_line_bytes + 1) 'x') ];
      Alcotest.(check bool) "serve.errors moved" true (Obs.Metrics.read errors >= before + 3);
      let c = Serve.Client.connect addr in
      Serve.Client.ping c;
      Alcotest.(check bool) "another session still queries" true
        (Serve.Client.rows_n (Serve.Client.query c basket_sql) >= 1);
      Serve.Client.close c)

(* ---- concurrent-session differential fuzz ---- *)

let test_concurrent_fuzz () =
  (* Tables of every oracle family and ten of its queries, drawn at the
     suite's seed; the server catalogs and the one-shot baseline catalog
     are built from the same rows. *)
  let rand = Random.State.make [| qcheck_seed |] in
  let draw g = QCheck2.Gen.generate1 ~rand g in
  let tables = List.concat_map (fun f -> draw (Oracle.gen_tables f)) Oracle.families in
  let queries = List.init 10 (fun i -> draw (Oracle.gen_query (List.nth Oracle.families (i mod 6)))) in
  let expected =
    let catalog = Oracle.row_catalog tables in
    List.map (fun sql -> Core.Runner.run_baseline catalog (Sqlfront.Parser.parse sql)) queries
  in
  let col_catalog = Oracle.row_catalog tables in
  Catalog.set_all_layouts col_catalog `Column;
  with_server ~pool:3
    [ (`Row, Oracle.row_catalog tables); (`Column, col_catalog) ]
    (fun addr ->
      (* 4 sessions x (layout x technique x transfer), all running the same
         query list concurrently, twice — the second round flows through
         the result cache, so cached results are differentially checked
         against one-shot execution too. *)
      let configs =
        [ [ ("layout", Json.Str "row"); ("tech", Json.Str "all") ];
          [ ("layout", Json.Str "column"); ("tech", Json.Str "all");
            ("transfer", Json.Bool false) ];
          [ ("layout", Json.Str "row"); ("tech", Json.Str "memo+pruning");
            ("workers", Json.Num 2.) ];
          [ ("layout", Json.Str "column"); ("tech", Json.Str "none") ] ]
      in
      let failures = Array.make (List.length configs) None in
      let threads =
        List.mapi
          (fun i cfg ->
            Thread.create
              (fun () ->
                try
                  let c = Serve.Client.connect addr in
                  ignore (Serve.Client.set c cfg);
                  for _round = 1 to 2 do
                    List.iteri
                      (fun j sql ->
                        let r = Serve.Client.query c sql in
                        let got = Serve.Client.relation_of_response r in
                        let want = wire_rel (List.nth expected j) in
                        if
                          not (Core.Runner.same_result want got)
                        then
                          failwith
                            (Printf.sprintf "session %d query %d diverged: %s"
                               i j sql))
                      queries
                  done;
                  Serve.Client.close c
                with e -> failures.(i) <- Some (Printexc.to_string e))
              ())
          configs
      in
      List.iter Thread.join threads;
      Array.iter
        (function
          | Some m -> Alcotest.failf "concurrent fuzz: %s" m
          | None -> ())
        failures)

(* ---- prepared statements (the plan cache's substrate) ---- *)

let test_prepared_statements () =
  let catalog = basket_catalog () in
  let q = Sqlfront.Parser.parse basket_sql in
  let expected, _ = Core.Runner.run catalog q in
  let p = Core.Runner.prepare catalog q in
  Alcotest.(check int) "prepared at current version"
    (Catalog.version catalog)
    (Core.Runner.prepared_version p);
  (* repeated executions reuse the decision and stay bag-equal *)
  for i = 1 to 3 do
    let r, _ = Core.Runner.run_prepared p in
    if not (Core.Runner.same_result expected r) then
      Alcotest.failf "run_prepared #%d diverged" i
  done;
  (* NLJP plans carry a shared cache tier that persists across runs *)
  (match Core.Runner.plan p with
   | Core.Runner.Optimized { Core.Optimizer.nljp = Some _; _ } ->
     (match Core.Runner.prepared_shared_rows p with
      | Some (prune, memo) ->
        Alcotest.(check bool) "shared tier warmed" true (prune + memo > 0)
      | None -> Alcotest.fail "NLJP plan without a shared tier")
   | _ -> ())

(* ---- telemetry: metrics op, Prometheus exporter, slow-query log ---- *)

let test_metrics_op () =
  with_server [ (`Row, basket_catalog ()) ] (fun addr ->
      let c = Serve.Client.connect addr in
      let counter m name =
        match Json.member "counters" m with
        | Some cs ->
          (match Json.member name cs with
           | Some (Json.Num x) -> x
           | _ -> Alcotest.failf "metrics counters missing %s" name)
        | None -> Alcotest.fail "metrics missing counters"
      in
      let m0 = Serve.Client.metrics c in
      let r1 = Serve.Client.query c basket_sql in
      let r2 = Serve.Client.query c basket_sql in
      Alcotest.(check bool) "second is a result-cache hit" true
        (Serve.Client.cached r2);
      (* a second threshold of the same text is answered from the state the
         first built; an append then folds that state once for both *)
      let basket_sql3 =
        String.sub basket_sql 0 (String.length basket_sql - 1) ^ "3"
      in
      Alcotest.(check string) "second threshold from partials" "partials"
        (plan_of (Serve.Client.query c basket_sql3));
      ignore
        (Serve.Client.append c "basket" [ Json.Arr [ Json.Num 1.; Json.Str "z" ] ]);
      (* the cached answer came from partial state; an engine run (result
         cache off) fills the plan cache *)
      ignore (Serve.Client.set c [ ("result_cache", Json.Bool false) ]);
      ignore (Serve.Client.query c basket_sql);
      (* every query response carries its request id *)
      (match (Json.member "rid" r1, Json.member "rid" r2) with
       | Some (Json.Num a), Some (Json.Num b) ->
         Alcotest.(check bool) "rids are distinct" true (a <> b)
       | _ -> Alcotest.fail "query responses must carry rid");
      let m = Serve.Client.metrics c in
      let num j name =
        match Json.member name j with
        | Some (Json.Num x) -> x
        | _ -> Alcotest.failf "metrics missing numeric %s" name
      in
      let obj j name =
        match Json.member name j with
        | Some (Json.Obj _ as o) -> o
        | _ -> Alcotest.failf "metrics missing object %s" name
      in
      Alcotest.(check bool) "uptime" true (num m "uptime_ms" >= 0.);
      Alcotest.(check bool) "queue drained" true (num m "queue_depth" >= 0.);
      Alcotest.(check bool) "pool" true (num m "pool" >= 1.);
      let counters = obj m "counters" in
      Alcotest.(check bool) "serve.queries counted" true
        (num counters "serve.queries" >= 2.);
      let moved name = counter m name -. counter m0 name in
      Alcotest.(check bool) "the first answer built a partial state" true
        (moved "serve.partials_build" >= 1.);
      Alcotest.(check bool) "the second threshold hit it" true
        (moved "serve.partials_hit" >= 1.);
      Alcotest.(check bool) "the append folded it once for both entries" true
        (moved "serve.partials_shared" >= 1.);
      Alcotest.(check bool) "partials registry reported" true
        (num (obj m "partials") "entries" >= 1.);
      let hists = obj m "histograms" in
      let qms = obj hists "serve.query_ms" in
      Alcotest.(check bool) "histogram count moved" true
        (num qms "count" >= 1.);
      Alcotest.(check bool) "histogram p95 >= p50" true
        (num qms "p95" >= num qms "p50");
      let rolling = obj m "rolling" in
      let rq = obj rolling "serve.queries" in
      Alcotest.(check bool) "rolling qps covers this burst" true
        (num rq "count" >= 2. && num rq "rate" > 0.);
      let rl = obj rolling "serve.query_ms" in
      Alcotest.(check bool) "rolling latency recorded" true
        (num rl "count" >= 1. && num rl "p50" >= 0.);
      let pc = obj m "plan_cache" in
      Alcotest.(check bool) "plan cache entries" true (num pc "entries" >= 1.);
      let rc = obj m "result_cache" in
      Alcotest.(check bool) "result cache hit recorded" true
        (num rc "hits" >= 1.);
      Alcotest.(check int) "caller's session id echoed"
        (Serve.Client.session c)
        (int_of_float (num m "session"));
      Serve.Client.close c)

let http_get host port path_q =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  let req = Printf.sprintf "GET %s HTTP/1.0\r\nHost: x\r\n\r\n" path_q in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    let n = Unix.read fd chunk 0 4096 in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
    end
  in
  drain ();
  Unix.close fd;
  Buffer.contents buf

let test_metrics_http () =
  with_server_full
    ~metrics_addr:(`Tcp ("127.0.0.1", 0))
    [ (`Row, basket_catalog ()) ]
    (fun addr srv ->
      let host, port =
        match Serve.Server.metrics_addr srv with
        | Some (`Tcp (h, p)) ->
          Alcotest.(check bool) "ephemeral port resolved" true (p > 0);
          (h, p)
        | _ -> Alcotest.fail "metrics listener not bound"
      in
      let c = Serve.Client.connect addr in
      ignore (Serve.Client.query c basket_sql);
      ignore
        (Serve.Client.append c "basket"
           [ Json.Arr [ Json.Num 9001.; Json.Str "itemX" ] ]);
      let body = http_get host port "/metrics" in
      Serve.Client.close c;
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "HTTP 200" true (contains body "200 OK");
      List.iter
        (fun needle ->
          if not (contains body needle) then
            Alcotest.failf "exposition missing %S:\n%s" needle body)
        [ "# TYPE serve_queries_total counter";
          "serve_queries_total";
          "# TYPE serve_query_ms histogram";
          "serve_query_ms_bucket{le=";
          "serve_query_ms_bucket{le=\"+Inf\"}";
          "serve_query_ms_count";
          "serve_queries_rolling_rate";
          "serve_uptime_seconds";
          "serve_queue_depth";
          "serve_plan_cache_entries";
          "serve_result_cache_entries";
          "serve_appends_total";
          "serve_partials_hit_total";
          "serve_partials_build_total";
          "serve_partials_shared_total";
          "serve_partials_entries 1";
          "serve_session_queries{session=" ])

let read_jsonl path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (Json.of_string line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_slow_log () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "si-slow-%d.jsonl" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  (* Threshold 0: every query is "slow", so the log is deterministic. *)
  with_server ~slow_ms:0. ~slow_log:path [ (`Row, basket_catalog ()) ]
    (fun addr ->
      let c = Serve.Client.connect addr in
      ignore (Serve.Client.query c basket_sql);
      Serve.Client.close c);
  let records = read_jsonl path in
  Alcotest.(check bool) "at least one record" true (records <> []);
  let r = List.hd records in
  (match Json.member "sql" r with
   | Some (Json.Str s) -> Alcotest.(check string) "sql" basket_sql s
   | _ -> Alcotest.fail "record has no sql");
  (match Json.member "kind" r with
   | Some (Json.Str "slow") -> ()
   | k -> Alcotest.failf "unexpected kind: %s"
            (match k with Some j -> Json.to_string j | None -> "absent"));
  (match Json.member "config" r with
   | Some (Json.Obj _) -> ()
   | _ -> Alcotest.fail "record has no session config");
  (* the per-node Analyze summary rode along *)
  (match Json.member "analyze" r with
   | Some doc ->
     (match (Json.member "analyze" doc, Json.member "summary" doc) with
      | Some _, Some _ -> ()
      | _ -> Alcotest.fail "analyze document missing tree or summary")
   | None -> Alcotest.fail "record has no analyze document");
  (match Json.member "trace" r with
   | Some Json.Null -> ()  (* not sampled: no full span tree *)
   | _ -> Alcotest.fail "unsampled slow record must not carry a trace");
  Sys.remove path

let test_trace_sampling () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "si-trace-%d.jsonl" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  (* Sample 100%: every request runs instrumented and logs its span tree;
     instrumented runs bypass the result cache, so repeats stay fresh. *)
  with_server ~slow_log:path ~trace_sample:1.0 [ (`Row, basket_catalog ()) ]
    (fun addr ->
      let c = Serve.Client.connect addr in
      let r1 = Serve.Client.query c basket_sql in
      let r2 = Serve.Client.query c basket_sql in
      Alcotest.(check bool) "sampled queries bypass the result cache" false
        (Serve.Client.cached r1 || Serve.Client.cached r2);
      Serve.Client.close c);
  let records = read_jsonl path in
  Alcotest.(check int) "one record per sampled query" 2 (List.length records);
  List.iter
    (fun r ->
      (match Json.member "kind" r with
       | Some (Json.Str "sampled") -> ()
       | k -> Alcotest.failf "unexpected kind: %s"
                (match k with Some j -> Json.to_string j | None -> "absent"));
      match Json.member "trace" r with
      | Some (Json.Obj _ as tr) ->
        (* a real span tree: the root names the query span *)
        let root = Obs.Span.of_json tr in
        Alcotest.(check bool) "root span is the query" true
          (root.Obs.Span.name = "serve.query")
      | _ -> Alcotest.fail "sampled record must carry the full span tree")
    records;
  Sys.remove path

(* ---- connection churn (descriptors closed exactly once) ---- *)

(* Regression for the double close: [Client.close] and the server's reader
   loop each closed a connection's descriptor twice, so the second close
   could hit a descriptor another thread had just opened.  Threads open and
   close connections while one session keeps querying; nothing may fail. *)
let test_connection_churn () =
  with_server [ (`Row, basket_catalog ()) ] (fun addr ->
      let stop = Atomic.make false in
      let failures = Array.make 4 None in
      let querier =
        Thread.create
          (fun () ->
            try
              let c = Serve.Client.connect addr in
              let n = ref 0 in
              while (not (Atomic.get stop)) || !n < 20 do
                let r = Serve.Client.query c basket_sql in
                if Serve.Client.rows_n r < 1 then failwith "lost rows";
                incr n
              done;
              Serve.Client.close c
            with e -> failures.(0) <- Some (Printexc.to_string e))
          ()
      in
      let churners =
        List.init 3 (fun i ->
            Thread.create
              (fun () ->
                try
                  for _ = 1 to 40 do
                    let c = Serve.Client.connect addr in
                    Serve.Client.ping c;
                    Serve.Client.close c
                  done
                with e -> failures.(i + 1) <- Some (Printexc.to_string e))
              ())
      in
      List.iter Thread.join churners;
      Atomic.set stop true;
      Thread.join querier;
      Array.iter
        (function Some m -> Alcotest.failf "connection churn: %s" m | None -> ())
        failures)

(* ---- shared partial state: a family of thresholds and SELECT lists ---- *)

(* Rows of table [m]: join key [g], group key [k], a float [x] with NULLs
   and a NaN (in one join group only), and an int [y] that reaches max_int
   and min_int in some groups. *)
let family_row i =
  [ iv (i mod 4);
    iv ((i mod 3) + if i mod 10 = 9 then 3 else 0);
    (if i mod 7 = 0 then Value.Null
     else if i = 11 then fv Float.nan
     else fv (float_of_int i *. 0.5));
    (if i mod 13 = 0 then iv max_int
     else if i mod 17 = 1 then iv min_int
     else if i mod 6 = 2 then Value.Null
     else iv (i - 20)) ]

let family_catalog rows =
  let catalog = Catalog.create () in
  Catalog.add_table catalog "m" (rel [ "g"; "k"; "x"; "y" ] rows);
  catalog

(* One partials shape — the self-join on [g] grouped by [a.g, a.k] with
   COUNT, SUM and AVG over [b.x] and MIN/MAX over [b.y] — under different
   SELECT lists and HAVING thresholds. *)
let family_variants =
  let from = " FROM m a, m b WHERE a.g = b.g GROUP BY a.g, a.k" in
  [ "SELECT a.g, a.k, COUNT(*), SUM(b.x), AVG(b.x), MIN(b.y), MAX(b.y)" ^ from
    ^ " HAVING COUNT(*) >= 30";
    "SELECT a.k, MAX(b.y), MIN(b.y), COUNT(*)" ^ from
    ^ " HAVING AVG(b.x) > 9.4 AND SUM(b.x) < 400";
    "SELECT a.g, AVG(b.x) AS mean" ^ from
    ^ " HAVING COUNT(*) >= 20 AND MIN(b.y) < 0 AND MAX(b.y) > 0 AND SUM(b.x) \
       > 0";
    "SELECT a.k, a.g, COUNT(*) AS n, SUM(b.x)" ^ from
    ^ " HAVING MAX(b.y) >= MIN(b.y) AND AVG(b.x) >= 0" ]

let partials_counter stats name =
  match Json.member "partials" stats with
  | Some p ->
    (match Json.member name p with
     | Some (Json.Num x) -> int_of_float x
     | _ -> Alcotest.failf "stats partials lacks %s" name)
  | None -> Alcotest.fail "stats has no partials object"

let test_partials_family () =
  let base = List.init 40 family_row in
  let col_catalog = family_catalog base in
  Catalog.set_all_layouts col_catalog `Column;
  with_server [ (`Row, family_catalog base); (`Column, col_catalog) ]
    (fun addr ->
      let c = Serve.Client.connect addr in
      let check_all what rows ~cached =
        let want = family_catalog rows in
        List.iter
          (fun layout ->
            ignore (Serve.Client.set c [ ("layout", Json.Str layout) ]);
            List.iteri
              (fun i sql ->
                let r = Serve.Client.query c sql in
                Alcotest.(check bool)
                  (Printf.sprintf "%s %s variant %d cached" what layout i)
                  cached (Serve.Client.cached r);
                check_wire_bag
                  (Printf.sprintf "%s %s variant %d" what layout i)
                  (wire_rel
                     (Core.Runner.run_baseline want (Sqlfront.Parser.parse sql)))
                  r)
              family_variants)
          [ "row"; "column" ]
      in
      let stats0 = Serve.Client.stats c in
      (* first round: one state per layout, built once, the rest answered
         from it *)
      List.iter
        (fun layout ->
          ignore (Serve.Client.set c [ ("layout", Json.Str layout) ]);
          List.iter
            (fun sql ->
              Alcotest.(check string) "answered from partial state" "partials"
                (plan_of (Serve.Client.query c sql)))
            family_variants)
        [ "row"; "column" ];
      let stats1 = Serve.Client.stats c in
      let moved stats0 stats1 name =
        partials_counter stats1 name - partials_counter stats0 name
      in
      let nv = List.length family_variants in
      Alcotest.(check int) "one build per layout" 2 (moved stats0 stats1 "builds");
      Alcotest.(check int) "every other variant hits" (2 * (nv - 1))
        (moved stats0 stats1 "hits");
      check_all "warm" base ~cached:true;
      (* three bursts with NULLs, a NaN and boundary integers *)
      let rows = ref base in
      List.iteri
        (fun b burst ->
          let fresh = List.map (fun i -> family_row (100 + (10 * b) + i)) burst in
          let before = Serve.Client.stats c in
          let resp =
            Serve.Client.append c "m"
              (List.map
                 (fun r -> Json.Arr (List.map P.value_to_json r))
                 fresh)
          in
          let after = Serve.Client.stats c in
          Alcotest.(check int) "every entry maintained" (2 * nv)
            (int_field resp "incremental");
          Alcotest.(check int) "nothing dropped" 0 (int_field resp "invalidated");
          (* one shared state per layout, each folded once *)
          Alcotest.(check int) "one shared fold per layout" 2
            (moved before after "shared");
          rows := !rows @ fresh;
          check_all (Printf.sprintf "burst %d" b) !rows ~cached:true)
        [ [ 0; 1; 2 ]; [ 3; 4 ]; [ 5; 6; 7; 8 ] ];
      (* a delta over half the table fails the fold: every sharer drops,
         and the next answers rebuild from scratch *)
      let big = List.init 80 (fun i -> family_row (200 + i)) in
      let resp =
        Serve.Client.append c "m"
          (List.map (fun r -> Json.Arr (List.map P.value_to_json r)) big)
      in
      Alcotest.(check int) "failed fold drops every sharer" (2 * nv)
        (int_field resp "invalidated");
      Alcotest.(check int) "nothing maintained" 0 (int_field resp "maintained");
      rows := !rows @ big;
      let before = Serve.Client.stats c in
      check_all "after failed fold" !rows ~cached:false;
      let after = Serve.Client.stats c in
      Alcotest.(check int) "rebuilt once per layout" 2
        (moved before after "builds");
      (* instrumented and uncached runs still go through the engine *)
      let sql = List.hd family_variants in
      let want =
        wire_rel
          (Core.Runner.run_baseline (family_catalog !rows)
             (Sqlfront.Parser.parse sql))
      in
      let engine what r =
        Alcotest.(check bool) (what ^ " not cached") false (Serve.Client.cached r);
        Alcotest.(check bool)
          (what ^ " ran the engine")
          true
          (List.mem (plan_of r) [ "miss"; "hit"; "bypass" ]);
        check_wire_bag what want r
      in
      engine "analyze" (Serve.Client.query ~analyze:true c sql);
      ignore (Serve.Client.set c [ ("trace_sample", Json.Num 1.) ]);
      engine "sampled" (Serve.Client.query c sql);
      ignore
        (Serve.Client.set c
           [ ("trace_sample", Json.Num 0.); ("result_cache", Json.Bool false) ]);
      let r1 = Serve.Client.query c sql in
      let r2 = Serve.Client.query c sql in
      engine "uncached" r1;
      engine "uncached repeat" r2;
      Alcotest.(check string) "uncached plans" "miss" (plan_of r1);
      Alcotest.(check string) "uncached reuses the plan" "hit" (plan_of r2);
      Serve.Client.close c)

(* Fresh texts whose WHERE constants a six-digit [%g] prints alike select
   different rows: the second must not be answered from the first's state. *)
let test_partials_lossless_key () =
  let sql c =
    "SELECT i1.item, COUNT(*) FROM basket i1, basket i2 WHERE i1.bid = i2.bid \
     AND i1.bid < " ^ c ^ " GROUP BY i1.item HAVING COUNT(*) >= 1"
  in
  with_server [ (`Row, basket_catalog ()) ] (fun addr ->
      let c = Serve.Client.connect addr in
      List.iter
        (fun k ->
          let r = Serve.Client.query c (sql k) in
          Alcotest.(check bool) (k ^ " not cached") false (Serve.Client.cached r);
          check_wire_bag k
            (Core.Runner.run_baseline (basket_catalog ())
               (Sqlfront.Parser.parse (sql k)))
            r)
        [ "2.0000001"; "1.9999999" ];
      Serve.Client.close c)

let suite =
  [
    Alcotest.test_case "lru basic" `Quick test_lru_basic;
    Alcotest.test_case "lru retain" `Quick test_lru_retain;
    Alcotest.test_case "addr strings" `Quick test_addr_strings;
    Alcotest.test_case "value json round-trip" `Quick test_value_json_roundtrip;
    Alcotest.test_case "parse request" `Quick test_parse_request;
    Alcotest.test_case "serve basic" `Quick test_serve_basic;
    Alcotest.test_case "serve set config" `Quick test_serve_set_config;
    Alcotest.test_case "plan cache accounting" `Quick test_plan_cache_accounting;
    Alcotest.test_case "append maintenance" `Quick test_append_maintenance;
    Alcotest.test_case "append invalidation" `Quick test_append_invalidation;
    Alcotest.test_case "append all-or-nothing" `Quick test_append_all_or_nothing;
    Alcotest.test_case "append unrelated survives" `Quick
      test_append_unrelated_survives;
    Alcotest.test_case "append/query race" `Quick test_concurrent_append_query;
    Alcotest.test_case "catalog version" `Quick test_catalog_version;
    Alcotest.test_case "admission rejection" `Quick test_admission_rejection;
    Alcotest.test_case "hostile request lines" `Quick test_hostile_lines;
    Alcotest.test_case "concurrent differential fuzz" `Quick test_concurrent_fuzz;
    Alcotest.test_case "prepared statements" `Quick test_prepared_statements;
    Alcotest.test_case "metrics op" `Quick test_metrics_op;
    Alcotest.test_case "prometheus http exporter" `Quick test_metrics_http;
    Alcotest.test_case "slow-query log" `Quick test_slow_log;
    Alcotest.test_case "trace sampling" `Quick test_trace_sampling;
    Alcotest.test_case "connection churn" `Quick test_connection_churn;
    Alcotest.test_case "partials family" `Quick test_partials_family;
    Alcotest.test_case "partials lossless key" `Quick test_partials_lossless_key;
  ]
