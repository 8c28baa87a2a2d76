open Sqlfront

let t name f = Alcotest.test_case name `Quick f

let parses sql = ignore (Parser.parse sql)

let roundtrip sql =
  (* parse → print → parse → print must be a fixpoint *)
  let q1 = Parser.parse sql in
  let s1 = Pretty.query q1 in
  let q2 = Parser.parse s1 in
  let s2 = Pretty.query q2 in
  Alcotest.(check string) "pretty fixpoint" s1 s2

let lexing =
  [ t "keywords case-insensitive" (fun () ->
        parses "select 1 a from t";
        parses "SELECT 1 a FROM t";
        parses "SeLeCt 1 a FrOm t");
    t "comments skipped" (fun () -> parses "SELECT a FROM t -- trailing comment");
    t "operators" (fun () ->
        let toks = Lexer.tokenize "<= >= <> != < > =" in
        Alcotest.(check int) "7+eof" 8 (Array.length toks));
    t "string literal with escaped quote" (fun () ->
        match Lexer.tokenize "'it''s'" with
        | [| Lexer.STRING s; Lexer.EOF |] -> Alcotest.(check string) "s" "it's" s
        | _ -> Alcotest.fail "bad tokens");
    t "unterminated string raises" (fun () ->
        match Lexer.tokenize "'oops" with
        | exception Lexer.Lex_error _ -> ()
        | _ -> Alcotest.fail "expected lex error");
    t "out-of-range integer literal raises Lex_error" (fun () ->
        match Lexer.tokenize "x > 99999999999999999999" with
        | exception Lexer.Lex_error (_, off) -> Alcotest.(check int) "offset" 4 off
        | _ -> Alcotest.fail "expected lex error");
    t "float literal" (fun () ->
        match Lexer.tokenize "3.25" with
        | [| Lexer.FLOAT f; Lexer.EOF |] -> Alcotest.(check (float 0.0)) "f" 3.25 f
        | _ -> Alcotest.fail "bad tokens") ]

let structure =
  [ t "select list with aliases" (fun () ->
        let q = Parser.parse "SELECT a AS x, b y, c FROM t" in
        match q.Ast.select with
        | [ Ast.Sel_expr (_, Some "x"); Ast.Sel_expr (_, Some "y"); Ast.Sel_expr (_, None) ] ->
          ()
        | _ -> Alcotest.fail "bad select list");
    t "table aliases with and without AS" (fun () ->
        let q = Parser.parse "SELECT * FROM foo AS f, bar b, baz" in
        match q.Ast.from with
        | [ Ast.T_table ("foo", Some "f"); Ast.T_table ("bar", Some "b");
            Ast.T_table ("baz", None) ] ->
          ()
        | _ -> Alcotest.fail "bad from list");
    t "count star and count(1)" (fun () ->
        let q = Parser.parse "SELECT COUNT(*) c1, COUNT(1) c2 FROM t" in
        match q.Ast.select with
        | [ Ast.Sel_expr (Ast.S_agg Ast.A_count_star, _);
            Ast.Sel_expr (Ast.S_agg Ast.A_count_star, _) ] ->
          ()
        | _ -> Alcotest.fail "bad aggregates");
    t "count distinct" (fun () ->
        let q = Parser.parse "SELECT COUNT(DISTINCT a) FROM t" in
        match q.Ast.select with
        | [ Ast.Sel_expr (Ast.S_agg (Ast.A_count_distinct _), _) ] -> ()
        | _ -> Alcotest.fail "bad count distinct");
    t "group by qualified columns" (fun () ->
        let q = Parser.parse "SELECT t.a FROM t GROUP BY t.a, b" in
        Alcotest.(check int) "2 cols" 2 (List.length q.Ast.group_by));
    t "having with aggregate" (fun () ->
        let q = Parser.parse "SELECT a FROM t GROUP BY a HAVING COUNT(*) >= 10" in
        match q.Ast.having with
        | Some (Ast.P_cmp (Relalg.Expr.Ge, Ast.S_agg Ast.A_count_star, Ast.S_const _)) -> ()
        | _ -> Alcotest.fail "bad having");
    t "where precedence: AND binds tighter than OR" (fun () ->
        let q = Parser.parse "SELECT a FROM t WHERE a = 1 OR a = 2 AND b = 3" in
        match q.Ast.where with
        | Some (Ast.P_or (_, Ast.P_and (_, _))) -> ()
        | _ -> Alcotest.fail "bad precedence");
    t "parenthesized or inside and" (fun () ->
        let q = Parser.parse "SELECT a FROM t WHERE (a = 1 OR a = 2) AND b = 3" in
        match q.Ast.where with
        | Some (Ast.P_and (Ast.P_or (_, _), _)) -> ()
        | _ -> Alcotest.fail "bad grouping");
    t "scalar parentheses vs predicate parentheses" (fun () ->
        let q = Parser.parse "SELECT a FROM t WHERE (a + 1) * 2 > b" in
        match q.Ast.where with
        | Some (Ast.P_cmp (Relalg.Expr.Gt, Ast.S_binop (Relalg.Expr.Mul, _, _), _)) -> ()
        | _ -> Alcotest.fail "bad scalar parens");
    t "tuple IN subquery" (fun () ->
        let q = Parser.parse "SELECT a FROM t WHERE (a, b) IN (SELECT x, y FROM u)" in
        match q.Ast.where with
        | Some (Ast.P_in ([ _; _ ], _)) -> ()
        | _ -> Alcotest.fail "bad tuple IN");
    t "single-column IN without parens" (fun () ->
        let q = Parser.parse "SELECT a FROM t WHERE a IN (SELECT x FROM u)" in
        match q.Ast.where with
        | Some (Ast.P_in ([ _ ], _)) -> ()
        | _ -> Alcotest.fail "bad IN");
    t "with clause" (fun () ->
        let q =
          Parser.parse
            "WITH c1 AS (SELECT a FROM t), c2 AS (SELECT b FROM u) SELECT * FROM c1, c2"
        in
        Alcotest.(check int) "2 ctes" 2 (List.length q.Ast.with_defs));
    t "subquery in FROM" (fun () ->
        let q = Parser.parse "SELECT s.a FROM (SELECT a FROM t) s" in
        match q.Ast.from with
        | [ Ast.T_subquery (_, "s") ] -> ()
        | _ -> Alcotest.fail "bad subquery");
    t "order by and limit" (fun () ->
        let q = Parser.parse "SELECT a FROM t ORDER BY a DESC, b LIMIT 5" in
        Alcotest.(check int) "2 keys" 2 (List.length q.Ast.order_by);
        Alcotest.(check (option int)) "limit" (Some 5) q.Ast.limit);
    t "trailing semicolon allowed" (fun () -> parses "SELECT a FROM t;");
    t "trailing garbage rejected" (fun () ->
        match Parser.parse "SELECT a FROM t extra stuff everywhere" with
        | exception Parser.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
    t "arithmetic precedence" (fun () ->
        match Parser.parse_scalar "1 + 2 * 3" with
        | Ast.S_binop (Relalg.Expr.Add, _, Ast.S_binop (Relalg.Expr.Mul, _, _)) -> ()
        | _ -> Alcotest.fail "bad precedence");
    t "constants print without loss" (fun () ->
        (* floats that [%g] prints alike, and a quote inside a string *)
        let sql =
          "SELECT a FROM t WHERE b < 2.0000001 AND c < 1.9999999 AND d = \
           1234567.5 AND e = 'it''s'"
        in
        let q = Parser.parse sql in
        Alcotest.(check bool) "reparses to the same query" true
          (Parser.parse (Pretty.query q) = q);
        Alcotest.(check bool) "distinct floats print apart" true
          (Pretty.query (Parser.parse "SELECT a FROM t WHERE b < 2.0000001")
          <> Pretty.query (Parser.parse "SELECT a FROM t WHERE b < 1.9999999")));
    t "NOT binds predicates" (fun () ->
        match Parser.parse_pred "NOT a = 1 AND b = 2" with
        | Ast.P_and (Ast.P_not _, _) -> ()
        | _ -> Alcotest.fail "bad NOT") ]

let paper_queries =
  let queries =
    [ ("listing1", Workload.Queries.listing1 ~threshold:20);
      ("listing2", Workload.Queries.listing2 ~k:50);
      ("listing3", Workload.Queries.listing3 ~threshold:10);
      ("listing4", Workload.Queries.listing4 ~c:3 ~k:20) ]
    @ Workload.Queries.figure1
  in
  List.map
    (fun (name, sql) -> t (Printf.sprintf "roundtrip %s" name) (fun () -> roundtrip sql))
    queries

let suite = lexing @ structure @ paper_queries
