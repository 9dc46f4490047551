(* Tests for the SMT substrate: rationals, linear forms, simplex, LIA
   branch-and-bound, and the DPLL(T) solver facade.

   The cornerstone property test checks the full solver against a
   brute-force evaluator on a bounded integer domain: a SAT verdict must
   come with a model that satisfies the formula, and an UNSAT verdict
   must survive exhaustive search. *)

open Smt

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Q                                                                  *)
(* ------------------------------------------------------------------ *)

let test_q_basics () =
  let half = Q.make 1 2 in
  let third = Q.make 1 3 in
  check_bool "1/2 + 1/3 = 5/6" true Q.(equal (add half third) (make 5 6));
  check_bool "normalization 2/4 = 1/2" true Q.(equal (make 2 4) half);
  check_bool "negative den" true Q.(equal (make 1 (-2)) (make (-1) 2));
  check_int "floor 5/2" 2 (Q.floor (Q.make 5 2));
  check_int "floor -5/2" (-3) (Q.floor (Q.make (-5) 2));
  check_int "ceil 5/2" 3 (Q.ceil (Q.make 5 2));
  check_int "ceil -5/2" (-2) (Q.ceil (Q.make (-5) 2));
  check_bool "compare" true (Q.lt (Q.make 1 3) (Q.make 1 2));
  check_bool "is_integer 4/2" true (Q.is_integer (Q.make 4 2));
  check_int "to_int_exn" 2 (Q.to_int_exn (Q.make 4 2))

let q_gen =
  QCheck.Gen.(
    map2 (fun n d -> Q.make n d) (int_range (-50) 50) (int_range 1 20))

let arb_q = QCheck.make ~print:Q.to_string q_gen

let prop_q_add_comm =
  QCheck.Test.make ~name:"Q.add commutative" ~count:200
    (QCheck.pair arb_q arb_q)
    (fun (a, b) -> Q.equal (Q.add a b) (Q.add b a))

let prop_q_mul_inv =
  QCheck.Test.make ~name:"Q: a * (1/a) = 1 for a != 0" ~count:200 arb_q
    (fun a ->
      QCheck.assume (not (Q.is_zero a));
      Q.equal (Q.mul a (Q.inv a)) Q.one)

let prop_q_floor_le =
  QCheck.Test.make ~name:"Q: floor a <= a < floor a + 1" ~count:200 arb_q
    (fun a ->
      let f = Q.of_int (Q.floor a) in
      Q.le f a && Q.lt a (Q.add f Q.one))

(* ------------------------------------------------------------------ *)
(* Linear                                                             *)
(* ------------------------------------------------------------------ *)

let x = Term.int_var "x"
let y = Term.int_var "y"
let z = Term.int_var "z"

let test_linear_normalization () =
  (* 2x + 3 - x + y - 3  ==  x + y *)
  let t =
    Term.add
      [ Term.mul_const 2 x; Term.int 3; Term.neg x; y; Term.int (-3) ]
  in
  let lin = Linear.of_term t in
  check_int "coeff x" 1 (Linear.coeff "x" lin);
  check_int "coeff y" 1 (Linear.coeff "y" lin);
  check_int "free" 0 (Linear.coeff_free lin);
  let env = function "x" -> 7 | "y" -> -2 | _ -> 0 in
  check_int "eval" 5 (Linear.eval env lin)

let test_linear_atom () =
  (* x < y  over ints tightens to  x - y + 1 <= 0 *)
  match Linear.atom_of_term (Term.lt x y) with
  | Some (Linear.Le_zero lin) ->
      check_int "tightened const" 1 (Linear.coeff_free lin);
      check_int "x coeff" 1 (Linear.coeff "x" lin);
      check_int "y coeff" (-1) (Linear.coeff "y" lin)
  | _ -> Alcotest.fail "expected Le_zero"

let test_linear_negate () =
  (* ¬(x ≤ 0) = 1 − x ≤ 0, i.e. x ≥ 1 *)
  match Linear.atom_of_term (Term.le x (Term.int 0)) with
  | Some atom -> (
      match Linear.negate_atom atom with
      | Linear.Le_zero lin ->
          check_bool "x=1 satisfies x>=1" true
            (Linear.eval (fun _ -> 1) lin <= 0);
          check_bool "x=0 violates x>=1" false
            (Linear.eval (fun _ -> 0) lin <= 0)
      | _ -> Alcotest.fail "expected Le_zero")
  | None -> Alcotest.fail "expected atom"

(* ------------------------------------------------------------------ *)
(* Simplex                                                            *)
(* ------------------------------------------------------------------ *)

let bound ?lo ?hi () =
  { Simplex.lower = Option.map Q.of_int lo; upper = Option.map Q.of_int hi }

let test_simplex_feasible () =
  (* x + y <= 4, x >= 1, y >= 2: feasible *)
  let s =
    Simplex.create ~nvars:2
      ~rows:[ [ (Q.one, 0); (Q.one, 1) ] ]
      ~bound_of:(fun i ->
        match i with
        | 0 -> bound ~lo:1 ()
        | 1 -> bound ~lo:2 ()
        | _ -> bound ~hi:4 ())
  in
  match Simplex.check s with
  | Simplex.Feasible beta ->
      check_bool "x >= 1" true (Q.ge beta.(0) Q.one);
      check_bool "y >= 2" true (Q.ge beta.(1) (Q.of_int 2));
      check_bool "x + y <= 4" true (Q.le (Q.add beta.(0) beta.(1)) (Q.of_int 4))
  | Simplex.Infeasible _ -> Alcotest.fail "should be feasible"

let test_simplex_infeasible () =
  (* x + y <= 1, x >= 1, y >= 1: infeasible *)
  let s =
    Simplex.create ~nvars:2
      ~rows:[ [ (Q.one, 0); (Q.one, 1) ] ]
      ~bound_of:(fun i ->
        match i with
        | 0 -> bound ~lo:1 ()
        | 1 -> bound ~lo:1 ()
        | _ -> bound ~hi:1 ())
  in
  match Simplex.check s with
  | Simplex.Feasible _ -> Alcotest.fail "should be infeasible"
  | Simplex.Infeasible _ -> ()

let test_simplex_equalities () =
  (* x - y = 0, x + y = 6 → x = y = 3 *)
  let s =
    Simplex.create ~nvars:2
      ~rows:
        [ [ (Q.one, 0); (Q.minus_one, 1) ]; [ (Q.one, 0); (Q.one, 1) ] ]
      ~bound_of:(fun i ->
        match i with
        | 2 -> bound ~lo:0 ~hi:0 ()
        | 3 -> bound ~lo:6 ~hi:6 ()
        | _ -> Simplex.no_bound)
  in
  match Simplex.check s with
  | Simplex.Feasible beta ->
      check_bool "x = 3" true (Q.equal beta.(0) (Q.of_int 3));
      check_bool "y = 3" true (Q.equal beta.(1) (Q.of_int 3))
  | Simplex.Infeasible _ -> Alcotest.fail "should be feasible"

(* ------------------------------------------------------------------ *)
(* LIA                                                                *)
(* ------------------------------------------------------------------ *)

let atom t =
  match Linear.atom_of_term t with
  | Some a -> a
  | None -> Alcotest.fail "not an atom"

let test_lia_integrality () =
  (* 2x = 1 has a rational solution but no integer one. *)
  let a = atom (Term.eq (Term.mul_const 2 x) (Term.int 1)) in
  (match Lia.check [ a ] with
  | Lia.Unsat -> ()
  | _ -> Alcotest.fail "2x=1 must be int-unsat");
  (* 2x = 4 is fine. *)
  let b = atom (Term.eq (Term.mul_const 2 x) (Term.int 4)) in
  match Lia.check [ b ] with
  | Lia.Sat m -> check_int "x" 2 (Lia.String_map.find "x" m)
  | _ -> Alcotest.fail "2x=4 must be sat"

let test_lia_neq () =
  (* 0 <= x <= 1 ∧ x ≠ 0 ∧ x ≠ 1 is unsat over ℤ. *)
  let atoms =
    [
      atom (Term.le (Term.int 0) x);
      atom (Term.le x (Term.int 1));
      Linear.Neq_zero (Linear.var "x");
      Linear.Neq_zero (Linear.add (Linear.var "x") (Linear.const (-1)));
    ]
  in
  (match Lia.check atoms with
  | Lia.Unsat -> ()
  | _ -> Alcotest.fail "should be unsat");
  (* Relaxing to 0 <= x <= 2 gives x = 2. *)
  let atoms' =
    [
      atom (Term.le (Term.int 0) x);
      atom (Term.le x (Term.int 2));
      Linear.Neq_zero (Linear.var "x");
      Linear.Neq_zero (Linear.add (Linear.var "x") (Linear.const (-1)));
    ]
  in
  match Lia.check atoms' with
  | Lia.Sat m -> check_int "x = 2" 2 (Lia.String_map.find "x" m)
  | _ -> Alcotest.fail "should be sat"

let test_lia_system () =
  (* x + y <= 5 ∧ x - y >= 3 ∧ y >= 1 → x >= 4, x <= 4 → x = 4, y = 1 *)
  let atoms =
    [
      atom (Term.le (Term.add [ x; y ]) (Term.int 5));
      atom (Term.le (Term.int 3) (Term.sub x y));
      atom (Term.le (Term.int 1) y);
    ]
  in
  match Lia.check atoms with
  | Lia.Sat m ->
      let xv = Lia.String_map.find "x" m and yv = Lia.String_map.find "y" m in
      check_bool "constraints hold" true
        (xv + yv <= 5 && xv - yv >= 3 && yv >= 1)
  | _ -> Alcotest.fail "should be sat"

(* 2x = −1 ∧ x = y + z: the equality alone refutes it, but branching on
   y or z first never ends (each split leaves a fractional partner). The
   verdict and its proof must not depend on the order of the atoms. *)
let test_lia_branch_order () =
  let two_x = Term.eq (Term.mul_const 2 x) (Term.int (-1)) in
  let sum = Term.eq x (Term.add [ y; z ]) in
  List.iter
    (fun (name, ts) ->
      (match Lia.check_cert (List.map atom ts) with
      | Lia.Cunsat (Some _) -> ()
      | _ -> Alcotest.failf "%s: Lia must answer Unsat with a proof" name);
      match Solver.check_core_cert ts with
      | Solver.Unsat, Some (Proof.Unsat_witness tree) -> (
          match Cert.validate_unsat ts tree with
          | Proof.Valid -> ()
          | Proof.Invalid why -> Alcotest.failf "%s: cert rejected: %s" name why)
      | _ -> Alcotest.failf "%s: expected a certified Unsat" name)
    [ ("2x=-1 first", [ two_x; sum ]); ("x=y+z first", [ sum; two_x ]) ]

(* ------------------------------------------------------------------ *)
(* Solver                                                             *)
(* ------------------------------------------------------------------ *)

let test_solver_conjunction () =
  match Solver.check [ Term.eq x (Term.int 3); Term.lt y x ] with
  | Solver.Sat m ->
      check_int "x" 3 (Model.get_int "x" m);
      check_bool "y < 3" true (Model.get_int "y" m < 3)
  | _ -> Alcotest.fail "sat expected"

let test_solver_unsat_conjunction () =
  check_bool "x<2 & x>2 unsat" true
    (Solver.is_unsat [ Term.lt x (Term.int 2); Term.gt x (Term.int 2) ])

let test_solver_disjunction () =
  (* (x = 1 ∨ x = 2) ∧ x ≠ 1 → x = 2 *)
  let f =
    Term.and_
      [
        Term.or_ [ Term.eq x (Term.int 1); Term.eq x (Term.int 2) ];
        Term.neq x (Term.int 1);
      ]
  in
  match Solver.check [ f ] with
  | Solver.Sat m -> check_int "x" 2 (Model.get_int "x" m)
  | _ -> Alcotest.fail "sat expected"

let test_solver_bool_structure () =
  let a = Term.bool_var "a" and b = Term.bool_var "b" in
  (* (a → b) ∧ a ∧ ¬b is unsat *)
  check_bool "modus ponens" true
    (Solver.is_unsat [ Term.implies a b; a; Term.not_ b ]);
  (* (a ↔ b) ∧ a → b must hold *)
  match Solver.check [ Term.iff a b; a ] with
  | Solver.Sat m -> check_bool "b true" true (Model.get_bool "b" m)
  | _ -> Alcotest.fail "sat expected"

let test_solver_ite () =
  (* ite(x > 0, y, z) = 7 ∧ x = 1 ∧ z = 0 → y = 7 *)
  let f =
    Term.and_
      [
        Term.eq (Term.ite (Term.gt x (Term.int 0)) y z) (Term.int 7);
        Term.eq x (Term.int 1);
        Term.eq z (Term.int 0);
      ]
  in
  match Solver.check [ f ] with
  | Solver.Sat m -> check_int "y" 7 (Model.get_int "y" m)
  | _ -> Alcotest.fail "sat expected"

let test_solver_entails () =
  (* x = 3 ⊢ x <= 5 *)
  (match Solver.entails ~hyps:[ Term.eq x (Term.int 3) ] (Term.le x (Term.int 5)) with
  | Solver.Valid -> ()
  | _ -> Alcotest.fail "entailment expected");
  match Solver.entails ~hyps:[ Term.le x (Term.int 5) ] (Term.eq x (Term.int 3)) with
  | Solver.Counterexample m ->
      check_bool "cex respects hyps" true (Model.get_int "x" m <= 5);
      check_bool "cex violates goal" true (Model.get_int "x" m <> 3)
  | _ -> Alcotest.fail "counterexample expected"

(* ------------------------------------------------------------------ *)
(* Property: solver agrees with brute force on a bounded domain.      *)
(* ------------------------------------------------------------------ *)

let term_gen : Term.t QCheck.Gen.t =
  let open QCheck.Gen in
  let int_leaf =
    oneof
      [
        map Term.int (int_range (-4) 4);
        oneofl [ x; y; z ];
      ]
  in
  let int_term =
    oneof
      [
        int_leaf;
        map2 (fun a b -> Term.add [ a; b ]) int_leaf int_leaf;
        map2 Term.sub int_leaf int_leaf;
        map (fun a -> Term.mul_const 2 a) int_leaf;
      ]
  in
  let cmp =
    oneof
      [
        map2 Term.eq int_term int_term;
        map2 Term.le int_term int_term;
        map2 Term.lt int_term int_term;
      ]
  in
  fix
    (fun self n ->
      if n = 0 then cmp
      else
        frequency
          [
            (3, cmp);
            (2, map2 (fun a b -> Term.and_ [ a; b ]) (self (n / 2)) (self (n / 2)));
            (2, map2 (fun a b -> Term.or_ [ a; b ]) (self (n / 2)) (self (n / 2)));
            (1, map Term.not_ (self (n - 1)));
            (1, map2 Term.implies (self (n / 2)) (self (n / 2)));
          ])
    3

let arb_term = QCheck.make ~print:Term.to_string term_gen

let brute_force_sat (t : Term.t) =
  let dom = [ -3; -2; -1; 0; 1; 2; 3 ] in
  List.exists
    (fun xv ->
      List.exists
        (fun yv ->
          List.exists
            (fun zv ->
              let env = function
                | "x" -> Some (Term.VInt xv)
                | "y" -> Some (Term.VInt yv)
                | "z" -> Some (Term.VInt zv)
                | _ -> None
              in
              Term.eval_bool env t)
            dom)
        dom)
    dom

let prop_solver_vs_brute_force =
  QCheck.Test.make ~name:"solver agrees with brute force" ~count:300 arb_term
    (fun t ->
      match Solver.check [ t ] with
      | Solver.Sat m -> Model.satisfies m t
      | Solver.Unsat -> not (brute_force_sat t)
      | Solver.Unknown -> true)

let prop_solver_model_satisfies =
  QCheck.Test.make ~name:"SAT models satisfy the formula" ~count:300 arb_term
    (fun t ->
      match Solver.check [ t ] with
      | Solver.Sat m -> Model.satisfies m t
      | Solver.Unsat | Solver.Unknown -> true)

let prop_brute_force_sat_implies_not_unsat =
  QCheck.Test.make ~name:"brute-force SAT refutes UNSAT verdicts" ~count:300
    arb_term (fun t ->
      if brute_force_sat t then
        match Solver.check [ t ] with
        | Solver.Unsat -> false
        | _ -> true
      else true)

(* ------------------------------------------------------------------ *)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "smt"
    [
      ( "q",
        [
          Alcotest.test_case "basics" `Quick test_q_basics;
        ]
        @ qcheck [ prop_q_add_comm; prop_q_mul_inv; prop_q_floor_le ] );
      ( "linear",
        [
          Alcotest.test_case "normalization" `Quick test_linear_normalization;
          Alcotest.test_case "strict tightening" `Quick test_linear_atom;
          Alcotest.test_case "negation" `Quick test_linear_negate;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "feasible" `Quick test_simplex_feasible;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "equalities" `Quick test_simplex_equalities;
        ] );
      ( "lia",
        [
          Alcotest.test_case "integrality" `Quick test_lia_integrality;
          Alcotest.test_case "disequality splitting" `Quick test_lia_neq;
          Alcotest.test_case "system" `Quick test_lia_system;
          Alcotest.test_case "branching is atom-order independent" `Quick
            test_lia_branch_order;
        ] );
      ( "solver",
        [
          Alcotest.test_case "conjunction" `Quick test_solver_conjunction;
          Alcotest.test_case "unsat conjunction" `Quick
            test_solver_unsat_conjunction;
          Alcotest.test_case "disjunction" `Quick test_solver_disjunction;
          Alcotest.test_case "boolean structure" `Quick
            test_solver_bool_structure;
          Alcotest.test_case "integer ite" `Quick test_solver_ite;
          Alcotest.test_case "entailment" `Quick test_solver_entails;
        ]
        @ qcheck
            [
              prop_solver_vs_brute_force;
              prop_solver_model_satisfies;
              prop_brute_force_sat_implies_not_unsat;
            ] );
    ]
