(* Compiled vs interpreted expressions.  Iceberg queries against the
   baseline are the oracle's job (oracle.ml). *)
open Relalg

(* The staged compiler (Compile) must agree with the reference interpreter
   (Expr.eval / eval_bool) on arbitrary expressions over the oracle's values
   (NULL, NaN, int extremes, strings, bools), including Null propagation,
   NULL-comparison semantics and Type_error situations (strings in
   arithmetic, division by zero, non-boolean predicates). *)

let fuzz_schema = Schema.of_names [ "a"; "b"; "c" ]

let gen_expr =
  let open QCheck2.Gen in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         let leaf =
           oneof [ map (fun c -> Expr.col c) (oneofl [ "a"; "b"; "c" ]); map (fun v -> Expr.Const v) Oracle.value ]
         in
         if n = 0 then leaf
         else
           let sub = self (n - 1) in
           frequency
             [ (2, leaf);
               (2, map3 (fun op a b -> Expr.Binop (op, a, b)) (oneofl Expr.[ Add; Sub; Mul; Div ]) sub sub);
               (3, map3 (fun op a b -> Expr.Cmp (op, a, b)) (oneofl Expr.[ Eq; Ne; Lt; Le; Gt; Ge ]) sub sub);
               (1, map2 (fun a b -> Expr.And (a, b)) sub sub);
               (1, map2 (fun a b -> Expr.Or (a, b)) sub sub);
               (1, map (fun a -> Expr.Not a) sub);
               (1, map (fun a -> Expr.Neg a) sub) ])

(* An expression and eight rows of a, b, c. *)
let gen_case = QCheck2.Gen.(pair gen_expr (list_repeat 8 (array_repeat 3 Oracle.value)))

let print_case (e, rows) =
  Expr.to_string e ^ "\n"
  ^ String.concat "\n" (List.map (fun r -> Row.to_string r) rows)

let outcome f = match f () with v -> Ok v | exception Value.Type_error m -> Error m

let agree eq pp name a b =
  match a, b with
  | Ok x, Ok y when eq x y -> true
  | Error _, Error _ -> true
  | _ ->
    let show = function Ok v -> pp v | Error m -> "Type_error: " ^ m in
    QCheck2.Test.fail_reportf "%s disagree:\ninterpreted: %s\ncompiled:    %s" name
      (show a) (show b)

let check_compiled_scalar (e, rows) =
  let scalar = Compile.scalar fuzz_schema e in
  let predicate = outcome (fun () -> Compile.pred fuzz_schema e) in
  List.for_all
    (fun row ->
      agree Value.equal_total Value.to_string ("eval of " ^ Expr.to_string e)
        (outcome (fun () -> Expr.eval fuzz_schema row e))
        (outcome (fun () -> scalar row))
      &&
      match predicate with
      | Error _ -> true (* constant folding surfaced a Type_error early *)
      | Ok p ->
        agree Bool.equal string_of_bool ("eval_bool of " ^ Expr.to_string e)
          (outcome (fun () -> Expr.eval_bool fuzz_schema row e))
          (outcome (fun () -> p row)))
    rows

(* The same expression as a join predicate: a, b from the left row, c from
   the right. *)
let check_compiled_join (e, rows) =
  let left = Schema.of_names ~q:"L" [ "a"; "b" ] and right = Schema.of_names ~q:"R" [ "c" ] in
  match outcome (fun () -> Compile.join_pred left right e) with
  | Error _ -> true
  | Ok p ->
    List.for_all
      (fun row ->
        agree Bool.equal string_of_bool ("join_pred of " ^ Expr.to_string e)
          (outcome (fun () -> Expr.eval_bool (Schema.append left right) row e))
          (outcome (fun () -> p (Array.sub row 0 2) (Array.sub row 2 1))))
      rows

(* Exhaustive check of every comparator and arithmetic operator over a pool
   of values covering ties, sign changes, Null, Bool and Str — and of every
   operand-shape specialization in the compiler (Col/Col, Col/Const,
   Const/Col, generic, join-pair).  Random expressions rarely produce a live
   [Int = Int] tie, so this is what actually pins the </ <= and >/ >=
   distinctions in each compiled fast path. *)
let exhaustive_operators () =
  let pool =
    Value.
      [ Int (-1); Int 0; Int 1; Int 2; Float (-0.5); Float 0.; Float 1.;
        Null; Bool true; Bool false; Str "x"; Str "y" ]
  in
  let cmps = Expr.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let binops = Expr.[ Add; Sub; Mul; Div ] in
  let check_scalar what e row =
    agree Value.equal_total Value.to_string what
      (outcome (fun () -> Expr.eval fuzz_schema row e))
      (outcome (fun () ->
           let f = Compile.scalar fuzz_schema e in
           f row))
  in
  let lschema = Schema.of_names [ "a" ] and rschema = Schema.of_names [ "b" ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let row = [| a; b; Value.Int 0 |] in
          List.iter
            (fun op ->
              let shapes =
                [ ("col/col", Expr.Cmp (op, Expr.col "a", Expr.col "b"));
                  ("col/const", Expr.Cmp (op, Expr.col "a", Expr.Const b));
                  ("const/col", Expr.Cmp (op, Expr.Const a, Expr.col "b"));
                  ( "generic",
                    Expr.Cmp
                      (op, Expr.Binop (Expr.Mul, Expr.col "a", Expr.int 1), Expr.col "b")
                  ) ]
              in
              List.iter
                (fun (shape, e) ->
                  ignore
                    (check_scalar
                       (Printf.sprintf "cmp %s %s" shape (Expr.to_string e))
                       e row))
                shapes;
              (* join-pair specialization: a from the left row, b from the right *)
              let e = Expr.Cmp (op, Expr.col "a", Expr.col "b") in
              ignore
                (agree Bool.equal string_of_bool
                   (Printf.sprintf "join cmp %s" (Expr.to_string e))
                   (outcome (fun () ->
                        Expr.eval_bool (Schema.append lschema rschema)
                          [| a; b |] e))
                   (outcome (fun () ->
                        let p = Compile.join_pred lschema rschema e in
                        p [| a |] [| b |]))))
            cmps;
          List.iter
            (fun op ->
              let e = Expr.Binop (op, Expr.col "a", Expr.col "b") in
              ignore (check_scalar (Printf.sprintf "binop %s" (Expr.to_string e)) e row))
            binops)
        pool)
    pool

let suite =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"compiled scalars and predicates agree with the interpreter"
         ~count:300 ~print:print_case gen_case check_compiled_scalar);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"compiled join predicates agree with the interpreter"
         ~count:300 ~print:print_case gen_case check_compiled_join);
    Alcotest.test_case "all operators and operand shapes agree exhaustively" `Quick
      exhaustive_operators ]
