open Qelim

let t name f = Alcotest.test_case name `Quick f

let rat_tests =
  [ t "normalization" (fun () ->
        Alcotest.(check string) "2/4 = 1/2" "1/2" (Rat.to_string (Rat.make 2 4));
        Alcotest.(check string) "-2/-4 = 1/2" "1/2" (Rat.to_string (Rat.make (-2) (-4)));
        Alcotest.(check string) "3/-6 = -1/2" "-1/2" (Rat.to_string (Rat.make 3 (-6))));
    t "arithmetic" (fun () ->
        Alcotest.(check bool) "1/2 + 1/3 = 5/6" true
          (Rat.equal (Rat.add (Rat.make 1 2) (Rat.make 1 3)) (Rat.make 5 6));
        Alcotest.(check bool) "2/3 * 3/4 = 1/2" true
          (Rat.equal (Rat.mul (Rat.make 2 3) (Rat.make 3 4)) (Rat.make 1 2)));
    t "division and inverse" (fun () ->
        Alcotest.(check bool) "(1/2)/(1/4) = 2" true
          (Rat.equal (Rat.div (Rat.make 1 2) (Rat.make 1 4)) (Rat.of_int 2));
        Alcotest.check_raises "inv 0" (Invalid_argument "Rat.inv: zero") (fun () ->
            ignore (Rat.inv Rat.zero)));
    t "of_float exact for decimals" (fun () ->
        Alcotest.(check bool) "0.25" true (Rat.equal (Rat.of_float 0.25) (Rat.make 1 4));
        Alcotest.(check bool) "3.0" true (Rat.equal (Rat.of_float 3.0) (Rat.of_int 3)));
    t "compare" (fun () ->
        Alcotest.(check bool) "1/3 < 1/2" true (Rat.compare (Rat.make 1 3) (Rat.make 1 2) < 0)) ]

let rat_props =
  let arb = QCheck.map (fun (n, d) -> Rat.make n (if d = 0 then 1 else d))
      QCheck.(pair (int_range (-50) 50) (int_range (-20) 20)) in
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"rat add associates" ~count:300 (QCheck.triple arb arb arb)
         (fun (a, b, c) ->
           Rat.equal (Rat.add a (Rat.add b c)) (Rat.add (Rat.add a b) c)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"rat mul distributes over add" ~count:300
         (QCheck.triple arb arb arb)
         (fun (a, b, c) ->
           Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)))) ]

let v = Linexpr.var
let c i = Linexpr.const (Rat.of_int i)

let linexpr_tests =
  [ t "coefficients combine" (fun () ->
        let e = Linexpr.add (Linexpr.scale (Rat.of_int 2) (v "x")) (v "x") in
        Alcotest.(check bool) "3x" true (Rat.equal (Linexpr.coeff e "x") (Rat.of_int 3)));
    t "zero coefficients dropped" (fun () ->
        let e = Linexpr.sub (v "x") (v "x") in
        Alcotest.(check (list string)) "no vars" [] (Linexpr.vars e));
    t "subst" (fun () ->
        (* x + y with x := 2y + 1  ⇒  3y + 1 *)
        let e = Linexpr.add (v "x") (v "y") in
        let repl = Linexpr.add (Linexpr.scale (Rat.of_int 2) (v "y")) (c 1) in
        let e' = Linexpr.subst "x" repl e in
        Alcotest.(check bool) "3y" true (Rat.equal (Linexpr.coeff e' "y") (Rat.of_int 3));
        Alcotest.(check bool) "+1" true (Rat.equal (Linexpr.constant e') Rat.one));
    t "eval" (fun () ->
        let e = Linexpr.add (Linexpr.scale (Rat.of_int 2) (v "x")) (c 5) in
        let env _ = Rat.of_int 3 in
        Alcotest.(check bool) "11" true (Rat.equal (Linexpr.eval env e) (Rat.of_int 11))) ]

(* FME must preserve satisfiability: eliminating x from a conjunction, any
   solution of the residue extends to a solution with some x, and any
   solution of the original projects to one of the residue. *)
let atom_gen =
  let open QCheck.Gen in
  let term =
    map2
      (fun cx cy ->
        Linexpr.add
          (Linexpr.scale (Rat.of_int cx) (v "x"))
          (Linexpr.scale (Rat.of_int cy) (v "y")))
      (int_range (-3) 3) (int_range (-3) 3)
  in
  map3
    (fun e k op ->
      let e = Linexpr.add e (c k) in
      { Atom.e; op })
    term (int_range (-5) 5)
    (frequency [ (4, return Atom.Le); (3, return Atom.Lt); (1, return Atom.Eq) ])

let conj_sat atoms env = List.for_all (Atom.eval env) atoms

let fme_props =
  let arb =
    QCheck.make
      ~print:(fun l -> String.concat " & " (List.map Atom.to_string l))
      QCheck.Gen.(list_size (int_range 0 5) atom_gen)
  in
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"FME residue holds whenever original holds" ~count:500
         (QCheck.pair arb (QCheck.pair (QCheck.int_range (-6) 6) (QCheck.int_range (-6) 6)))
         (fun (atoms, (xv, yv)) ->
           let env name =
             if name = "x" then Rat.of_int xv
             else if name = "y" then Rat.of_int yv
             else Rat.zero
           in
           let residue = Fme.eliminate "x" atoms in
           (* soundness direction: if the original is satisfied at (x, y),
              the residue must be satisfied at y *)
           (not (conj_sat atoms env)) || conj_sat residue env));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"FME residue satisfiable implies witness exists (grid)"
         ~count:300
         (QCheck.pair arb (QCheck.int_range (-6) 6))
         (fun (atoms, yv) ->
           (* completeness over a rational grid: if the residue holds at y,
              some rational x satisfies the original.  We search a dense
              grid of candidate rationals, which suffices for these small
              coefficients. *)
           let env_y name = if name = "y" then Rat.of_int yv else Rat.zero in
           let residue = Fme.eliminate "x" atoms in
           if not (conj_sat residue env_y) then true
           else begin
             let candidates =
               List.concat_map
                 (fun n -> List.map (fun d -> Rat.make n d) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 12 ])
                 (List.init 241 (fun i -> i - 120))
             in
             List.exists
               (fun xv ->
                 let env name = if name = "x" then xv else env_y name in
                 conj_sat atoms env)
               candidates
           end)) ]

(* The paper's worked examples. *)
let skyband_simple_theta x y xr yr =
  Formula.conj
    [ Formula.atom (Atom.lt (v x) (v xr)); Formula.atom (Atom.lt (v y) (v yr)) ]

let skyband_full_theta x y xr yr =
  (* L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) *)
  Formula.conj
    [ Formula.atom (Atom.le (v x) (v xr));
      Formula.atom (Atom.le (v y) (v yr));
      Formula.disj
        [ Formula.atom (Atom.lt (v x) (v xr)); Formula.atom (Atom.lt (v y) (v yr)) ] ]

let eval_xyxy formula (x, y, x', y') =
  Formula.eval
    (fun name ->
      match name with
      | "x" -> Rat.of_int x
      | "y" -> Rat.of_int y
      | "x'" -> Rat.of_int x'
      | "y'" -> Rat.of_int y'
      | _ -> Rat.zero)
    formula

let expected_subsume (x, y, x', y') = x <= x' && y <= y'

let derivations =
  [ t "Example 11: simplified skyband join condition" (fun () ->
        let p =
          Qe.forall_implies ~vars:[ "xr"; "yr" ]
            ~premise:(skyband_simple_theta "x'" "y'" "xr" "yr")
            ~conclusion:(skyband_simple_theta "x" "y" "xr" "yr")
        in
        (* must be equivalent to x <= x' ∧ y <= y' on a grid *)
        List.iter
          (fun pt ->
            Alcotest.(check bool)
              (Printf.sprintf "at %s" (Formula.to_string p))
              (expected_subsume pt) (eval_xyxy p pt))
          (List.concat_map
             (fun a ->
               List.concat_map
                 (fun b ->
                   List.concat_map
                     (fun cc -> List.map (fun d -> (a, b, cc, d)) [ 0; 1; 2 ])
                     [ 0; 1; 2 ])
                 [ 0; 1; 2 ])
             [ 0; 1; 2 ]));
    t "Appendix B: full skyband join condition" (fun () ->
        let p =
          Qe.forall_implies ~vars:[ "xr"; "yr" ]
            ~premise:(skyband_full_theta "x'" "y'" "xr" "yr")
            ~conclusion:(skyband_full_theta "x" "y" "xr" "yr")
        in
        List.iter
          (fun pt ->
            Alcotest.(check bool) "appendix B grid" (expected_subsume pt) (eval_xyxy p pt))
          [ (0, 0, 0, 0); (0, 0, 1, 1); (1, 1, 0, 0); (2, 1, 2, 2); (1, 2, 2, 1);
            (2, 2, 1, 1); (0, 2, 0, 2); (2, 0, 1, 1); (1, 1, 1, 1); (0, 1, 1, 0) ]);
    t "equality join condition yields equality test" (fun () ->
        (* Θ: w = r  ⇒  p⪰(w,w') ≡ w = w' *)
        let theta w r = Formula.atom (Atom.eq (v w) (v r)) in
        let p =
          Qe.forall_implies ~vars:[ "r" ] ~premise:(theta "x'" "r")
            ~conclusion:(theta "x" "r")
        in
        List.iter
          (fun (a, b) ->
            let env name = if name = "x" then Rat.of_int a else Rat.of_int b in
            Alcotest.(check bool) "eq" (a = b) (Formula.eval env p))
          [ (0, 0); (1, 2); (2, 1); (3, 3) ]);
    t "implies_atom detects entailment" (fun () ->
        let f =
          Formula.conj
            [ Formula.atom (Atom.le (v "a") (v "b"));
              Formula.atom (Atom.le (v "b") (v "c")) ]
        in
        Alcotest.(check bool) "a<=c" true (Qe.implies_atom f (Atom.le (v "a") (v "c")));
        Alcotest.(check bool) "not c<=a" false (Qe.implies_atom f (Atom.le (v "c") (v "a"))));
    t "eliminate_exists on one-sided bounds drops the variable" (fun () ->
        (* ∃x (x >= y) is always true over the reals *)
        let f = Formula.atom (Atom.le (v "y") (v "x")) in
        Alcotest.(check bool) "true" true
          (Formula.equal (Qe.eliminate_exists [ "x" ] f) Formula.True));
    t "eliminate_exists detects contradiction" (fun () ->
        (* ∃x (x < y ∧ y < x) is false *)
        let f =
          Formula.conj
            [ Formula.atom (Atom.lt (v "x") (v "y"));
              Formula.atom (Atom.lt (v "y") (v "x")) ]
        in
        Alcotest.(check bool) "false" true
          (Formula.equal (Qe.eliminate_exists [ "x" ] f) Formula.False)) ]

let formula_tests =
  [ t "nnf removes negations" (fun () ->
        let f =
          Formula.Not
            (Formula.conj
               [ Formula.atom (Atom.le (v "a") (v "b"));
                 Formula.atom (Atom.eq (v "a") (v "c")) ])
        in
        let rec no_not = function
          | Formula.Not _ -> false
          | Formula.And gs | Formula.Or gs -> List.for_all no_not gs
          | _ -> true
        in
        Alcotest.(check bool) "no Not" true (no_not (Formula.nnf f)));
    t "nnf preserves semantics" (fun () ->
        let f =
          Formula.Not
            (Formula.disj
               [ Formula.atom (Atom.lt (v "a") (v "b"));
                 Formula.Not (Formula.atom (Atom.eq (v "a") (v "b"))) ])
        in
        let envs = [ (0, 0); (0, 1); (1, 0) ] in
        List.iter
          (fun (a, b) ->
            let env name = if name = "a" then Rat.of_int a else Rat.of_int b in
            Alcotest.(check bool) "same" (Formula.eval env f)
              (Formula.eval env (Formula.nnf f)))
          envs);
    t "dnf covers disjuncts" (fun () ->
        let f =
          Formula.conj
            [ Formula.disj
                [ Formula.atom (Atom.le (v "a") (v "b"));
                  Formula.atom (Atom.le (v "b") (v "a")) ];
              Formula.atom (Atom.lt (v "c") (v "d")) ]
        in
        Alcotest.(check int) "2 disjuncts" 2 (List.length (Formula.dnf (Formula.nnf f))));
    t "simplify folds ground atoms" (fun () ->
        let f = Formula.atom (Atom.le (c 1) (c 2)) in
        Alcotest.(check bool) "true" true (Formula.equal (Formula.simplify f) Formula.True));
    t "simplify drops implied atoms" (fun () ->
        let f =
          Formula.conj
            [ Formula.atom (Atom.le (v "a") (c 5)); Formula.atom (Atom.le (v "a") (c 10)) ]
        in
        match Formula.simplify f with
        | Formula.Atom a ->
          Alcotest.(check bool) "kept tighter" true
            (Atom.equal a (Atom.normalize (Atom.le (v "a") (c 5))))
        | other -> Alcotest.failf "expected single atom, got %s" (Formula.to_string other));
    t "implies: equalities over one linear part imply each other only when equal" (fun () ->
        let x1 = Atom.eq (Linexpr.add (v "x") (c 1)) (c 0)
        and x2 = Atom.eq (Linexpr.add (v "x") (c 2)) (c 0) in
        Alcotest.(check bool) "x+1=0 does not imply x+2=0" false (Atom.implies x1 x2);
        Alcotest.(check bool) "x+2=0 does not imply x+1=0" false (Atom.implies x2 x1);
        Alcotest.(check bool) "x+1=0 implies itself" true (Atom.implies x1 x1);
        Alcotest.(check bool) "x+2=0 implies x+1<=0" true
          (Atom.implies x2 (Atom.le (Linexpr.add (v "x") (c 1)) (c 0))));
    t "simplify keeps contradictory equalities (x+1=0 and x+2=0)" (fun () ->
        let f =
          Formula.conj
            [ Formula.atom (Atom.eq (Linexpr.add (v "x") (c 1)) (c 0));
              Formula.atom (Atom.eq (Linexpr.add (v "x") (c 2)) (c 0)) ]
        in
        let f' = Formula.simplify f in
        List.iter
          (fun xv ->
            let env n = if n = "x" then Rat.of_int xv else Rat.zero in
            Alcotest.(check bool) (Printf.sprintf "x=%d" xv) false (Formula.eval env f'))
          [ -3; -2; -1; 0; 1 ]);
    t "simplify keeps both disjuncts (x+1=0 or x+2=0)" (fun () ->
        let f =
          Formula.disj
            [ Formula.atom (Atom.eq (Linexpr.add (v "x") (c 1)) (c 0));
              Formula.atom (Atom.eq (Linexpr.add (v "x") (c 2)) (c 0)) ]
        in
        let f' = Formula.simplify f in
        List.iter
          (fun xv ->
            let env n = if n = "x" then Rat.of_int xv else Rat.zero in
            Alcotest.(check bool) (Printf.sprintf "x=%d" xv)
              (xv = -1 || xv = -2) (Formula.eval env f'))
          [ -3; -2; -1; 0; 1 ]) ]

(* Random quantifier-free formulas over x, y for semantic-preservation
   properties of the normal forms. *)
let formula_gen =
  let open QCheck.Gen in
  let atom = atom_gen in
  let rec go n =
    if n <= 0 then map Formula.atom atom
    else
      frequency
        [ (3, map Formula.atom atom);
          (2, map2 (fun a b -> Formula.conj [ a; b ]) (go (n - 1)) (go (n - 1)));
          (2, map2 (fun a b -> Formula.disj [ a; b ]) (go (n - 1)) (go (n - 1)));
          (1, map (fun a -> Formula.Not a) (go (n - 1))) ]
  in
  go 3

let env_of (xv, yv) name =
  if name = "x" then Rat.of_int xv else if name = "y" then Rat.of_int yv else Rat.zero

let normal_form_props =
  let arb = QCheck.make ~print:Formula.to_string formula_gen in
  let pt = QCheck.pair (QCheck.int_range (-5) 5) (QCheck.int_range (-5) 5) in
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"nnf preserves semantics (random formulas)" ~count:400
         (QCheck.pair arb pt)
         (fun (f, p) ->
           Formula.eval (env_of p) f = Formula.eval (env_of p) (Formula.nnf f)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"simplify preserves semantics (random formulas)"
         ~count:400 (QCheck.pair arb pt)
         (fun (f, p) ->
           let f' = Formula.nnf f in
           Formula.eval (env_of p) f' = Formula.eval (env_of p) (Formula.simplify f')));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"dnf preserves semantics (random formulas)" ~count:400
         (QCheck.pair arb pt)
         (fun (f, p) ->
           let f' = Formula.nnf f in
           let dnf = Formula.dnf f' in
           let dnf_eval =
             List.exists (fun conj -> List.for_all (Atom.eval (env_of p)) conj) dnf
           in
           Formula.eval (env_of p) f' = dnf_eval));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"eliminate_exists residue is implied by any witness (random)" ~count:300
         (QCheck.pair arb pt)
         (fun (f, (xv, yv)) ->
           (* if f holds at (x, y), then (∃x f) must hold at y *)
           let residue = Qe.eliminate_exists [ "x" ] f in
           (not (Formula.eval (env_of (xv, yv)) f))
           || Formula.eval (env_of (0, yv)) residue)) ]

(* ---- absorption ---- *)

(* Atoms over a few shared linear parts, so that atoms of a conjunction
   and of its clauses imply one another often enough for absorption to
   fire. *)
let shared_atom_gen =
  let open QCheck.Gen in
  let parts =
    [ v "x"; v "y"; Linexpr.sub (v "x") (v "y"); Linexpr.add (v "x") (v "y") ]
  in
  map3
    (fun e k op -> { Atom.e = Linexpr.add e (c k); op })
    (oneofl parts) (int_range (-2) 2)
    (frequency [ (4, return Atom.Le); (3, return Atom.Lt); (1, return Atom.Eq) ])

(* Conjunctions of atoms and clauses, disjunctions of atoms and cubes,
   nested once. *)
let clause_formula_gen =
  let open QCheck.Gen in
  let atoms lo hi =
    map (List.map Formula.atom) (list_size (int_range lo hi) shared_atom_gen)
  in
  let clause = map Formula.disj (atoms 2 4) and cube = map Formula.conj (atoms 2 4) in
  let mixed a b =
    map2 (fun xs ys -> xs @ ys) (atoms 1 4) (list_size (int_range 1 4) (oneof [ a; b ]))
  in
  let level1 =
    oneof [ map Formula.conj (mixed clause cube); map Formula.disj (mixed cube clause) ]
  in
  oneof
    [ level1; map Formula.conj (mixed level1 clause); map Formula.disj (mixed level1 cube) ]

let rec size = function
  | Formula.True | Formula.False | Formula.Atom _ -> 1
  | Formula.Not g | Formula.Exists (_, g) | Formula.Forall (_, g) -> 1 + size g
  | Formula.And gs | Formula.Or gs -> List.fold_left (fun n g -> n + size g) 1 gs

let x_le k = Formula.atom (Atom.le (v "x") (c k))
let y_le k = Formula.atom (Atom.le (v "y") (c k))
let x_lt k = Formula.atom (Atom.lt (v "x") (c k))

let absorption_tests =
  [ t "simplify absorbs a clause one of whose atoms a conjunct implies" (fun () ->
        (* x ≤ 1 ∧ (x ≤ 2 ∨ y ≤ 0) ∧ (x < 1 ∨ y ≤ 0): the first clause goes,
           the second stays (x ≤ 1 does not imply x < 1) *)
        let f =
          Formula.conj
            [ x_le 1; Formula.disj [ x_le 2; y_le 0 ]; Formula.disj [ x_lt 1; y_le 0 ] ]
        in
        let kept = Formula.conj [ x_le 1; Formula.disj [ x_lt 1; y_le 0 ] ] in
        Alcotest.(check string) "kept"
          (Formula.to_string (Formula.simplify kept))
          (Formula.to_string (Formula.simplify f)));
    t "simplify absorbs a cube one of whose atoms implies a disjunct" (fun () ->
        (* x ≤ 1 ∨ (x < 1 ∧ y ≤ 0) ∨ (x ≤ 2 ∧ y ≤ 0): the first cube goes,
           the second stays (x ≤ 2 does not imply x ≤ 1) *)
        let f =
          Formula.disj
            [ x_le 1; Formula.conj [ x_lt 1; y_le 0 ]; Formula.conj [ x_le 2; y_le 0 ] ]
        in
        let kept = Formula.disj [ x_le 1; Formula.conj [ x_le 2; y_le 0 ] ] in
        Alcotest.(check string) "kept"
          (Formula.to_string (Formula.simplify kept))
          (Formula.to_string (Formula.simplify f)));
    t "absorption fires on clause-bearing formulas" (fun () ->
        (* the property below would say nothing if it never did *)
        let rand = Random.State.make [| 20 |] in
        let shrunk = ref 0 in
        for _ = 1 to 200 do
          let f = clause_formula_gen rand in
          if size (Formula.simplify f) < size f then incr shrunk
        done;
        Alcotest.(check bool) "a quarter of 200 shrink" true (!shrunk >= 50));
    t "pairs Q4's p>= is its four atoms" (fun () ->
        let catalog = Relalg.Catalog.create () in
        ignore (Workload.Baseball.register catalog ~rows:300 ~seed:2017);
        let _, rep =
          Core.Runner.run catalog
            (Sqlfront.Parser.parse (Workload.Queries.pairs ~c:3 ~k:50 ()))
        in
        let p =
          match rep.Core.Runner.nljp_describe with
          | None -> Alcotest.fail "pairs Q4 does not run NLJP"
          | Some d ->
            let prefix = "-- Q_C(b') (pruning): " in
            let n = String.length prefix in
            List.find_map
              (fun l ->
                if String.starts_with ~prefix l then
                  Some (String.sub l n (String.length l - n))
                else None)
              (String.split_on_char '\n' d)
        in
        Alcotest.(check (option string)) "Subsume.to_string"
          (Some
             "p>=(w, w') = (w0 + -wp0 <= 0 & w1 + -wp1 <= 0 & w2 + -wp2 <= 0 & \
              w3 + -wp3 <= 0)  [w0=L.hits1, w1=L.hruns1, w2=L.hits2, w3=L.hruns2]")
          p) ]

let absorption_props =
  let arb = QCheck.make ~print:Formula.to_string clause_formula_gen in
  let coord = QCheck.map (fun k -> float_of_int k /. 2.) (QCheck.int_range (-8) 8) in
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"simplify preserves eval_float (clause-bearing formulas)"
         ~count:500 (QCheck.triple arb coord coord)
         (fun (f, xv, yv) ->
           let env name = if name = "x" then xv else if name = "y" then yv else 0. in
           Formula.eval_float env f = Formula.eval_float env (Formula.simplify f))) ]

let suite =
  rat_tests @ rat_props @ linexpr_tests @ fme_props @ derivations @ formula_tests
  @ normal_form_props @ absorption_tests @ absorption_props
