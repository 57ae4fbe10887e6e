(* Tests for the pure layer: simplifier, linear arithmetic, multiset /
   set / list solvers and the solver registry. *)

open Rc_pure
open Rc_pure.Term

let check_prove name hyps goal expect =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check bool) name expect (Linarith.prove ~hyps goal))

let a = nat "a"
let b = nat "b"
let n = nat "n"
let i = int_v "i"
let j = int_v "j"

let simp_tests =
  let t name input expected =
    Alcotest.test_case name `Quick (fun () ->
        Alcotest.(check string)
          name
          (term_to_string expected)
          (term_to_string (Simp.simp_term input)))
  in
  let p name input expected =
    Alcotest.test_case name `Quick (fun () ->
        Alcotest.(check string)
          name
          (prop_to_string expected)
          (prop_to_string (Simp.simp_prop input)))
  in
  [
    t "add-const" (Add (Num 2, Num 3)) (Num 5);
    t "add-zero" (Add (a, Num 0)) a;
    t "mul-zero" (Mul (a, Num 0)) (Num 0);
    t "natsub-self" (NatSub (a, a)) (Num 0);
    t "natsub-consts" (NatSub (Num 3, Num 5)) (Num 0);
    t "length-cons" (Length (Cons (a, Nil Sort.Nat))) (Num 1);
    t "length-append"
      (Length (Append (Cons (a, Nil Sort.Nat), Cons (b, Nil Sort.Nat))))
      (Num 2);
    t "replicate-len" (Length (Replicate (n, Num 0))) n;
    t "ite-true" (Ite (PTrue, a, b)) a;
    t "ite-same" (Ite (PEq (a, b), n, n)) n;
    t "locofs-zero" (LocOfs (loc_v "l", Num 0)) (loc_v "l");
    t "locofs-nested"
      (LocOfs (LocOfs (loc_v "l", Num 1), Num 2))
      (LocOfs (loc_v "l", Num 3));
    t "mset-empty-union" (MsUnion (MsEmpty, mset_v "s")) (mset_v "s");
    p "eq-refl" (PEq (a, a)) PTrue;
    p "cons-nil" (PEq (Cons (a, Nil Sort.Nat), Nil Sort.Nat)) PFalse;
    p "in-empty" (PIn (a, MsEmpty)) PFalse;
    p "in-singleton" (PIn (a, MsSingleton b)) (PEq (a, b));
    p "not-not" (PNot (PNot (PEq (a, b)))) (PEq (a, b));
    p "null-ne-ofs" (PEq (NullLoc, LocOfs (loc_v "l", Num 4))) PFalse;
    p "locofs-inj"
      (PEq (LocOfs (loc_v "l", a), LocOfs (loc_v "l", b)))
      (PEq (a, b));
  ]

let destruct_tests =
  let t name input expected =
    Alcotest.test_case name `Quick (fun () ->
        let shown = function
          | None -> "contradiction"
          | Some ps -> String.concat "; " (List.map prop_to_string ps)
        in
        Alcotest.(check string)
          name (shown expected)
          (shown (Simp.destruct_hyp input)))
  in
  [
    t "append-nil"
      (PEq (Append (Var ("xs", Sort.List Sort.Nat), Var ("ys", Sort.List Sort.Nat)), Nil Sort.Nat))
      (Some
         [
           PEq (Var ("xs", Sort.List Sort.Nat), Nil Sort.Nat);
           PEq (Var ("ys", Sort.List Sort.Nat), Nil Sort.Nat);
         ]);
    t "false-hyp" (PEq (Num 1, Num 2)) None;
    t "true-hyp" (PEq (Num 1, Num 1)) (Some []);
    t "conj-split" (PAnd (PLe (a, b), PLe (b, n)))
      (Some [ PLe (a, b); PLe (b, n) ]);
  ]

let linarith_tests =
  [
    check_prove "trivial" [] (PLe (Num 1, Num 2)) true;
    check_prove "refl" [] (PLe (a, a)) true;
    check_prove "from-hyp" [ PLe (a, b) ] (PLe (a, b)) true;
    check_prove "transitive" [ PLe (a, b); PLe (b, n) ] (PLe (a, n)) true;
    check_prove "strict-chain" [ PLt (a, b); PLt (b, n) ]
      (PLt (Add (a, Num 1), n))
      true;
    check_prove "not-provable" [] (PLe (a, b)) false;
    check_prove "unsat-hyp" [ PLt (a, a) ] PFalse true;
    check_prove "nat-nonneg" [] (PLe (Num 0, a)) true;
    check_prove "int-not-nonneg" [] (PLe (Num 0, i)) false;
    check_prove "arith" [ PLe (n, a) ]
      (PLe (Sub (a, n), a))
      true;
    check_prove "natsub-bound" [] (PLe (NatSub (a, b), a)) true;
    check_prove "natsub-exact" [ PLe (b, a) ]
      (PEq (Add (NatSub (a, b), b), a))
      true;
    check_prove "min-le" [] (PLe (Min (i, j), i)) true;
    check_prove "max-ge" [] (PLe (i, Max (i, j))) true;
    check_prove "ite-branch" [ PLe (n, a) ]
      (PEq (Ite (PLe (n, a), Num 1, Num 0), Num 1))
      true;
    check_prove "disequality-split" [ PLe (a, Num 1); PNot (PEq (a, Num 1)) ]
      (PEq (a, Num 0))
      true;
    check_prove "length-nonneg" []
      (PLe (Num 0, Length (Var ("xs", Sort.List Sort.Int))))
      true;
    check_prove "congruence"
      [ PLe (Length (Var ("xs", Sort.List Sort.Int)), Num 3) ]
      (PLe (Length (Var ("xs", Sort.List Sort.Int)), Num 5))
      true;
    check_prove "mod-bound" [] (PLt (Mod (i, Num 8), Num 8)) true;
    check_prove "mod-nonneg" [] (PLe (Num 0, Mod (i, Num 8))) true;
    check_prove "div-mul" [ PEq (i, Mul (Num 8, j)); PLe (Num 0, j) ]
      (PLe (Num 0, i))
      true;
    check_prove "integrality" [ PEq (Mul (Num 2, i), Num 1) ] PFalse true;
    check_prove "impl-goal" []
      (PImp (PLe (a, Num 3), PLe (a, Num 4)))
      true;
    check_prove "or-hyp" [ POr (PLe (a, Num 1), PLe (a, Num 2)) ]
      (PLe (a, Num 2))
      true;
    check_prove "eq-subst-nonnum"
      [ PEq (Var ("xs", Sort.List Sort.Int), Nil Sort.Int) ]
      (PEq (Length (Var ("xs", Sort.List Sort.Int)), Num 0))
      true;
    (* a hypothesis whose own DNF has more than 512 branches (the 10
       nested maxes give 1024) is ignored like any out-of-fragment one,
       not a reason to give up on the whole query *)
    check_prove "over-branching hyp ignored"
      [
        PLe (int_v "x", Num 5);
        PLe
          ( List.fold_left
              (fun acc k -> Max (acc, int_v (Printf.sprintf "z%d" k)))
              (int_v "w") (List.init 10 Fun.id),
            int_v "y" );
      ]
      (PLe (int_v "x", Num 6))
      true;
    Alcotest.test_case "every goal holds under a contradictory prefix" `Quick
      (fun () ->
        (* a = 2 and 5 <= a refute each other by elimination alone, and
           2i = 2j + 1 by the divisibility check: every query on top of
           either prefix is true, in or out of the fragment, and a
           prefix that is only popped to stays as it was *)
        let scope = Linarith.scope () in
        let goals =
          [ PLe (b, n); PEq (i, j); PFalse; PPred ("p", [ i ]); PLt (a, a) ]
        in
        let check what hyps =
          List.iter
            (fun g ->
              Alcotest.(check bool)
                (what ^ " ⊢ " ^ prop_to_string g)
                true
                (Linarith.prove ~scope ~hyps g))
            goals
        in
        let bad = [ PLe (Num 5, a); PEq (a, Num 2) ] in
        let odd = [ PEq (Mul (Num 2, i), Add (Mul (Num 2, j), Num 1)) ] in
        check "elimination" bad;
        check "above it" (PLe (b, Num 1) :: POr (PLe (i, j), PLt (j, i)) :: bad);
        check "popped back" bad;
        check "divisibility" odd;
        check "above it" (PLe (n, b) :: odd);
        Alcotest.(check bool)
          "a consistent prefix still gives false" false
          (Linarith.prove ~scope ~hyps:[ PEq (a, Num 2) ] (PLe (b, n))));
  ]

let default = Registry.default_prove Registry.default

(* The goal forms both collection solvers decompose the same way before
   any case of their own, over one collection variable [coll] of the
   solver's sort.  Each goal is shaped so that [Simp.simp_prop] leaves
   its outer form in place. *)
let shared_form_tests ~t ~coll ~single ~union =
  let k = nat "k" in
  let in_coll x = PIn (x, coll) in
  let comm = PEq (union (single a) coll, union coll (single a)) in
  let eq_ab = PEq (union (single a) coll, union (single b) coll) in
  let bound = PForall ("k", Sort.Nat, PImp (in_coll k, PLe (k, Num 4))) in
  [
    t "or-goal" [] (POr (PEq (coll, union (single n) coll), comm)) true;
    t "imp-goal premise used" [] (PImp (PEq (a, b), eq_ab)) true;
    t "imp-goal premise needed" [] eq_ab false;
    t "forall-or-premise" [ bound ]
      (PForall
         ( "k",
           Sort.Nat,
           PImp (POr (PLe (k, Num 3), in_coll k), PLe (k, Num 5)) ))
      true;
    t "forall-and" [ bound; PLe (a, Num 2) ]
      (PForall
         ( "k",
           Sort.Nat,
           PAnd
             ( PImp (in_coll k, PLe (k, Num 5)),
               PImp (PEq (k, a), PLe (k, Num 5)) ) ))
      true;
    t "forall-eq-var-left" [ PLe (n, a) ]
      (PForall ("k", Sort.Nat, PImp (PEq (k, a), PLe (n, k))))
      true;
    t "forall-eq-var-right" [ PLe (n, a) ]
      (PForall ("k", Sort.Nat, PImp (PEq (a, k), PLe (n, k))))
      true;
    t "hyp-lookup fallback" [ PPred ("P", [ coll ]) ]
      (PPred ("P", [ coll ]))
      true;
  ]

let mset_tests =
  let s = mset_v "s" in
  let tail = mset_v "tail" in
  let prove hyps g = Mset_solver.prove ~prove_pure:default ~hyps g in
  let t name hyps g expect =
    Alcotest.test_case name `Quick (fun () ->
        Alcotest.(check bool) name expect (prove hyps g))
  in
  [
    t "union-comm" []
      (PEq (MsUnion (MsSingleton a, s), MsUnion (s, MsSingleton a)))
      true;
    t "union-assoc" []
      (PEq
         ( MsUnion (MsUnion (s, tail), MsSingleton a),
           MsUnion (s, MsUnion (tail, MsSingleton a)) ))
      true;
    t "cancel-with-eq-elems" [ PEq (a, b) ]
      (PEq (MsUnion (MsSingleton a, s), MsUnion (MsSingleton b, s)))
      true;
    t "not-equal" []
      (PEq (MsUnion (MsSingleton a, s), s))
      false;
    t "subst-hyp" [ PEq (s, MsUnion (MsSingleton n, tail)) ]
      (PEq (MsUnion (MsSingleton a, s),
            MsUnion (MsSingleton n, MsUnion (MsSingleton a, tail))))
      true;
    t "membership" [] (PIn (a, MsUnion (MsSingleton a, s))) true;
    t "membership-hyp" [ PIn (a, tail) ]
      (PIn (a, MsUnion (MsSingleton n, tail)))
      true;
    t "nonempty" []
      (PNot (PEq (MsUnion (MsSingleton a, s), MsEmpty)))
      true;
    t "bounded-forall"
      [
        PForall ("k", Sort.Nat, PImp (PIn (nat "k", tail), PLe (n, nat "k")));
        PLe (n, a);
      ]
      (PForall
         ( "k",
           Sort.Nat,
           PImp
             (PIn (nat "k", MsUnion (MsSingleton a, tail)), PLe (n, nat "k"))
         ))
      true;
  ]
  @ shared_form_tests ~t ~coll:tail ~single:(fun e -> MsSingleton e)
      ~union:(fun x y -> MsUnion (x, y))

let set_tests =
  let s = Var ("s", Sort.Set) in
  let l = Var ("l", Sort.Set) in
  let r = Var ("r", Sort.Set) in
  let prove hyps g = Set_solver.prove ~prove_pure:default ~hyps g in
  let t name hyps g expect =
    Alcotest.test_case name `Quick (fun () ->
        Alcotest.(check bool) name expect (prove hyps g))
  in
  [
    t "union-comm" []
      (PEq (SetUnion (SetSingleton a, s), SetUnion (s, SetSingleton a)))
      true;
    t "idempotent" []
      (PEq (SetUnion (SetSingleton a, SetSingleton a), SetSingleton a))
      true;
    t "member" [] (PIn (a, SetUnion (l, SetSingleton a))) true;
    t "member-hyp" [ PIn (a, l) ]
      (PIn (a, SetUnion (SetSingleton n, SetUnion (l, r))))
      true;
    t "not-member"
      [
        PForall ("k", Sort.Nat, PImp (PIn (nat "k", l), PLt (nat "k", n)));
      ]
      (PNot (PIn (n, l)))
      true;
    t "bst-split"
      [ PEq (s, SetUnion (SetSingleton n, SetUnion (l, r))) ]
      (PIn (n, s))
      true;
    t "forall-over-union"
      [
        PForall ("k", Sort.Nat, PImp (PIn (nat "k", l), PLt (nat "k", n)));
        PLt (a, n);
      ]
      (PForall
         ( "k",
           Sort.Nat,
           PImp
             (PIn (nat "k", SetUnion (SetSingleton a, l)), PLt (nat "k", n))
         ))
      true;
  ]
  @ shared_form_tests ~t ~coll:l ~single:(fun e -> SetSingleton e)
      ~union:(fun x y -> SetUnion (x, y))

let list_tests =
  let xs = Var ("xs", Sort.List Sort.Int) in
  let ys = Var ("ys", Sort.List Sort.Int) in
  let prove hyps g = List_solver.prove ~prove_pure:default ~hyps g in
  let t name hyps g expect =
    Alcotest.test_case name `Quick (fun () ->
        Alcotest.(check bool) name expect (prove hyps g))
  in
  [
    t "append-assoc" []
      (PEq (Append (Append (xs, ys), Cons (i, Nil Sort.Int)),
            Append (xs, Append (ys, Cons (i, Nil Sort.Int)))))
      true;
    t "cancel-front" []
      (PEq (Cons (i, xs), Cons (i, xs)))
      true;
    t "cancel-both-ends" []
      (PEq (Append (Cons (i, xs), Cons (j, Nil Sort.Int)),
            Append (Cons (i, xs), Cons (j, Nil Sort.Int))))
      true;
    t "ne-extra-elem" []
      (PNot (PEq (Cons (i, xs), xs)))
      true;
    t "subst" [ PEq (ys, Cons (i, xs)) ]
      (PEq (ys, Cons (i, xs)))
      true;
    t "repl-eq" [ PEq (n, b) ]
      (PEq (Replicate (n, Num 0), Replicate (b, Num 0)))
      true;
  ]

(* [lia_counters reg f]: [f]'s result on [reg] in a fresh solver scope,
   and the [solver.lia.*] counts that scope flushes, by name *)
let lia_counters reg f =
  let reg = Registry.scoped reg in
  let r = f reg in
  let obs = Rc_util.Obs.create { c_trace = false; c_metrics = true } in
  Registry.flush_scope reg obs;
  let mx = Rc_util.Obs.mx obs in
  (r, fun name -> Rc_util.Metrics.counter mx ("solver.lia." ^ name))

let registry_tests =
  let t name f = Alcotest.test_case name `Quick f in
  [
    t "auto-verdict" (fun () ->
        Alcotest.(check string)
          "auto" "auto"
          (Fmt.str "%a" Registry.pp_verdict
             (Registry.solve Registry.default ~hyps:[ PLe (a, b) ]
                (PLe (a, Add (b, Num 1))))));
    t "tactics-verdict" (fun () ->
        let g =
          PEq
            ( MsUnion (MsSingleton a, mset_v "s"),
              MsUnion (mset_v "s", MsSingleton a) )
        in
        Alcotest.(check string)
          "via multiset solver" "solver:multiset_solver"
          (Fmt.str "%a" Registry.pp_verdict
             (Registry.solve Registry.default ~tactics:[ "multiset_solver" ]
                ~hyps:[] g)));
    t "unsolved-without-tactics" (fun () ->
        let g =
          PEq
            ( MsUnion (MsSingleton a, mset_v "s"),
              MsUnion (mset_v "s", MsSingleton a) )
        in
        Alcotest.(check bool)
          "unsolved" true
          (Registry.solve Registry.default ~hyps:[] g = Registry.Unsolved));
    t "lemma-application" (fun () ->
        (* registries are values: adding a lemma builds a new registry,
           leaving Registry.default untouched *)
        let reg =
          Registry.add_lemma Registry.default
            {
              Registry.lname = "mod_lt_self";
              vars = [ ("x", Sort.Nat); ("m", Sort.Nat) ];
              premises = [ PLt (Num 0, Var ("m", Sort.Nat)) ];
              concl =
                PLt (Mod (Var ("x", Sort.Nat), Var ("m", Sort.Nat)),
                     Var ("m", Sort.Nat));
            }
        in
        let g = PLt (Mod (nat "h", nat "cap"), nat "cap") in
        let v = Registry.solve reg ~hyps:[ PLt (Num 0, nat "cap") ] g in
        Alcotest.(check string)
          "lemma verdict" "lemma:mod_lt_self"
          (Fmt.str "%a" Registry.pp_verdict v);
        Alcotest.(check bool) "default registry unaffected" true
          (Registry.solve Registry.default ~hyps:[ PLt (Num 0, nat "cap") ] g
           = Registry.Unsolved));
    (* the registry scans Γ for the goal once, in the solver's normal
       forms, and only a goal the scan misses costs a solver query *)
    t "scan: non-linear hyp, any hooks" (fun () ->
        let xs = Var ("xs", Sort.List Sort.Int) in
        let ys = Var ("ys", Sort.List Sort.Int) in
        List.iter
          (fun (hooks_name, hooks) ->
            List.iter
              (fun goal ->
                let reg = { Registry.default with Registry.hooks } in
                let proved, count =
                  lia_counters reg (fun reg ->
                      Registry.default_prove reg
                        ~hyps:[ PLe (a, b); goal; PLt (n, a) ]
                        goal)
                in
                let what = hooks_name ^ ": " ^ prop_to_string goal in
                Alcotest.(check bool) what true proved;
                Alcotest.(check int) (what ^ " queries") 0 (count "queries"))
              [ PPred ("sorted", [ xs ]); PEq (xs, Append (ys, xs)) ])
          [ ("no hooks", Simp.no_hooks); ("studies", Rc_studies.Studies.hooks) ]);
    t "scanned goal counts no query" (fun () ->
        let proved, count =
          lia_counters Registry.default (fun reg ->
              Registry.default_prove reg ~hyps:[ PLe (a, b) ] (PLe (a, b)))
        in
        Alcotest.(check bool) "proved" true proved;
        Alcotest.(check int) "solver.lia.queries" 0 (count "queries"));
    t "refuted goal counts one query" (fun () ->
        let proved, count =
          lia_counters Registry.default (fun reg ->
              Registry.default_prove reg ~hyps:[ PLe (a, b) ]
                (PLe (a, Add (b, Num 1))))
        in
        Alcotest.(check bool) "proved" true proved;
        Alcotest.(check int) "solver.lia.queries" 1 (count "queries");
        Alcotest.(check int) "solver.lia.refuted" 1 (count "refuted"));
  ]

(* property-based tests *)

let gen_lin_term =
  let open QCheck.Gen in
  let var = oneofl [ a; b; n ] in
  fix
    (fun self depth ->
      if depth <= 0 then oneof [ var; map (fun k -> Num k) (int_range (-20) 20) ]
      else
        frequency
          [
            (3, var);
            (3, map (fun k -> Num k) (int_range (-20) 20));
            (2, map2 (fun x y -> Add (x, y)) (self (depth - 1)) (self (depth - 1)));
            (2, map2 (fun x y -> Sub (x, y)) (self (depth - 1)) (self (depth - 1)));
            (1, map (fun x -> Mul (Num 3, x)) (self (depth - 1)));
          ])
    3

let eval_term env t =
  let rec go t =
    match t with
    | Var (x, _) -> List.assoc x env
    | Num k -> k
    | Add (x, y) -> go x + go y
    | Sub (x, y) -> go x - go y
    | NatSub (x, y) -> max 0 (go x - go y)
    | Mul (x, y) -> go x * go y
    | Min (x, y) -> min (go x) (go y)
    | Max (x, y) -> max (go x) (go y)
    | _ -> failwith "eval"
  in
  go t

(* Random linear-arithmetic queries over nat and int variables, with
   the constructs that make the solver case-split (truncated
   subtraction, min/max, disequalities) and equalities with non-unit
   coefficients, which exercise the integer divisibility check. *)
let gen_query_term =
  let open QCheck.Gen in
  let var = oneofl [ a; b; n; i; j ] in
  let leaf = oneof [ var; map (fun k -> Num k) (int_range (-6) 6) ] in
  fix
    (fun self depth ->
      if depth <= 0 then leaf
      else
        let sub = self (depth - 1) in
        frequency
          [
            (4, leaf);
            (2, map2 (fun x y -> Add (x, y)) sub sub);
            (1, map2 (fun x y -> Sub (x, y)) sub sub);
            (1, map (fun x -> Mul (Num 2, x)) sub);
            (1, map2 (fun x y -> NatSub (x, y)) sub sub);
            (1, map2 (fun x y -> Min (x, y)) sub sub);
            (1, map2 (fun x y -> Max (x, y)) sub sub);
          ])
    2

(* Arithmetic and location-offset terms, the shapes of an atom's
   subject: nested [LocOfs] chains over arithmetic with every operator
   the simplifier folds. *)
let gen_simp_term =
  let open QCheck.Gen in
  let arith =
    fix
      (fun self depth ->
        let leaf =
          oneof [ oneofl [ a; b; n; i; j ]; map (fun k -> Num k) (int_range (-6) 6) ]
        in
        if depth <= 0 then leaf
        else
          let sub = self (depth - 1) in
          let k = int_range (-4) 4 in
          frequency
            [
              (3, leaf);
              (2, map2 (fun x y -> Add (x, y)) sub sub);
              (2, map2 (fun x y -> Sub (x, y)) sub sub);
              (1, map2 (fun c x -> Mul (Num c, x)) k sub);
              (1, map2 (fun x y -> Mul (x, y)) sub sub);
              (1, map2 (fun x c -> Div (x, Num c)) sub k);
              (1, map2 (fun x c -> Mod (x, Num c)) sub k);
              (1, map2 (fun x y -> NatSub (x, y)) sub sub);
              (1, map2 (fun x y -> Min (x, y)) sub sub);
              (1, map2 (fun x y -> Max (x, y)) sub sub);
            ])
      3
  in
  let loc =
    fix
      (fun self depth ->
        let leaf =
          oneofl [ Var ("l", Sort.Loc); Var ("m", Sort.Loc); NullLoc ]
        in
        if depth <= 0 then leaf
        else
          frequency
            [
              (1, leaf);
              (3, map2 (fun l o -> LocOfs (l, o)) (self (depth - 1)) arith);
            ])
      3
  in
  frequency [ (1, arith); (1, loc) ]

let gen_prop_of t =
  let open QCheck.Gen in
  frequency
    [
      (3, map2 (fun x y -> PLe (x, y)) t t);
      (2, map2 (fun x y -> PLt (x, y)) t t);
      (2, map2 (fun x y -> PEq (x, y)) t t);
      (1, map2 (fun x y -> PNot (PEq (x, y))) t t);
    ]

let gen_query_prop = gen_prop_of gen_query_term

let gen_query =
  QCheck.Gen.(pair (list_size (int_range 0 5) gen_query_prop) gen_query_prop)

let print_query (hyps, goal) =
  String.concat "; " (List.map prop_to_string hyps)
  ^ " |- " ^ prop_to_string goal

(* Hypotheses: the query shapes, disjunctions (several DNF branches)
   and equalities whose integer solutions the coefficients may rule out
   (2x = 4y + 1). *)
let gen_hyp_of gen_prop t =
  let open QCheck.Gen in
  let var = oneofl [ a; b; n; i; j ] in
  frequency
    [
      (4, gen_prop);
      (1, map2 (fun p q -> POr (p, q)) gen_prop gen_prop);
      ( 2,
        map3
          (fun (k, x) (m, y) c ->
            PEq (Mul (Num k, x), Add (Mul (Num m, y), Num c)))
          (pair (oneofl [ 1; 2; 3 ]) var)
          (pair (oneofl [ 2; 4 ]) var)
          (int_range (-3) 3) );
      (1, map2 (fun x y -> PEq (x, y)) t t);
    ]

let gen_hyp = gen_hyp_of gen_query_prop gen_query_term

(* the query terms plus [/] and [%] by literals (positive ones are
   axiomatised, the rest are atoms), and more [min] and [∸] *)
let gen_oracle_term =
  let open QCheck.Gen in
  let t = gen_query_term in
  frequency
    [
      (4, t);
      (1, map2 (fun x m -> Div (x, Num m)) t (int_range (-1) 4));
      (1, map2 (fun x m -> Mod (x, Num m)) t (int_range (-1) 4));
      (1, map2 (fun x y -> Min (x, y)) t t);
      (1, map2 (fun x y -> NatSub (x, y)) t t);
    ]

let gen_oracle_prop = gen_prop_of gen_oracle_term
let gen_oracle_hyp = gen_hyp_of gen_oracle_prop gen_oracle_term

(* A search path as the engine's contexts walk one: a shared tail, two
   heads over it, and goals.  [path_queries] asks every goal under both
   branches, pops back to every shorter suffix and comes back to a
   structurally equal but physically fresh list, so each transition of
   a scope's prefix stack is taken. *)
let gen_path gen_hyp gen_goal =
  QCheck.Gen.(
    pair
      (triple
         (list_size (int_range 0 5) gen_hyp)
         (list_size (int_range 1 2) gen_hyp)
         (list_size (int_range 1 2) gen_hyp))
      (list_size (int_range 1 6) gen_goal))

let print_path ((tail, h1, h2), goals) =
  let hyps l = String.concat "; " (List.map prop_to_string l) in
  Printf.sprintf "tail: %s; heads: [%s] [%s]; goals: %s" (hyps tail) (hyps h1)
    (hyps h2)
    (String.concat ", " (List.map prop_to_string goals))

let path_queries ((tail, h1, h2), goals) =
  let rec tails = function [] -> [ [] ] | _ :: t as l -> l :: tails t in
  let fresh_copy (l : prop list) : prop list =
    Marshal.from_string (Marshal.to_string l []) 0
  in
  let lists =
    [ h1 @ tail; h2 @ tail ] @ tails tail @ [ fresh_copy (h1 @ tail); h2 @ tail ]
  in
  List.concat_map (fun g -> List.map (fun h -> (h, g)) lists) goals

(* [dominated k p] is [p] loosened by [k]: the same coefficients, a
   looser constant *)
let dominated k = function
  | PLe (x, y) -> Some (PLe (x, Add (y, Num k)))
  | PLt (x, y) -> Some (PLt (x, Add (y, Num k)))
  | _ -> None

let prop_tests =
  let redundant_hyps =
    QCheck.Test.make ~count:300
      ~name:"duplicated and dominated hypotheses change no answer"
      QCheck.(pair (make ~print:print_query gen_query) (int_range 1 5))
      (fun ((hyps, goal), k) ->
        Linarith.prove ~hyps goal
        = Linarith.prove
            ~hyps:(hyps @ hyps @ List.filter_map (dominated k) hyps)
            goal)
  in
  let scope_independent =
    QCheck.Test.make ~count:100
      ~name:"answers in one scope equal answers in fresh scopes"
      (QCheck.make ~print:print_path (gen_path gen_hyp gen_query_prop))
      (fun path ->
        let queries = path_queries path in
        let fresh =
          List.map (fun (hyps, g) -> Linarith.prove ~hyps g) queries
        in
        let shared order =
          let scope = Linarith.scope () in
          let reg = Registry.scoped Registry.default in
          List.map
            (fun (hyps, g) ->
              ( Linarith.prove ~scope ~hyps g,
                Registry.default_prove reg ~hyps g ))
            order
        in
        let registry_fresh =
          List.map
            (fun (hyps, g) -> Registry.default_prove Registry.default ~hyps g)
            queries
        in
        let expect = List.combine fresh registry_fresh in
        shared queries = expect
        && List.rev (shared (List.rev queries)) = expect)
  in
  let oracle_agrees =
    (* one scope per side, each query asked as [Linarith.prove] or the
       way the registry asks it: [True] is proved outright, then come the
       scan and the counted decision.  The oracle answers the second the
       old way, with a scan of its own before [prove] *)
    let gen =
      QCheck.Gen.(
        pair
          (gen_path gen_oracle_hyp gen_oracle_prop)
          (list_size (int_range 1 60) bool))
    in
    QCheck.Test.make ~count:200
      ~name:"cell kernel answers as the oracle"
      (QCheck.make ~print:(fun (p, _) -> print_path p) gen)
      (fun (path, modes) ->
        let module O = Linarith_oracle in
        let queries = path_queries path in
        let mode k = List.nth modes (k mod List.length modes) in
        let sc = Linarith.scope () and osc = O.scope () in
        let answers =
          List.mapi
            (fun k (hyps, g) ->
              if mode k then
                let og = O.simp osc Simp.no_hooks g in
                let g = Linarith.simp sc Simp.no_hooks g in
                ( g = PTrue
                  || Linarith.scan sc ~hyps g
                  || Linarith.decide sc ~hyps g,
                  og = PTrue
                  || List.exists (equal_prop og)
                       (O.simp_hyps osc Simp.no_hooks hyps)
                  || O.prove ~scope:osc ~hyps og )
              else (Linarith.prove ~scope:sc ~hyps g, O.prove ~scope:osc ~hyps g))
            queries
        in
        let counters flush =
          let obs = Rc_util.Obs.create { c_trace = false; c_metrics = true } in
          flush obs;
          Rc_util.Metrics.counters_with_prefix (Rc_util.Obs.mx obs)
            ~prefix:"solver.lia."
        in
        List.for_all (fun (x, y) -> x = y) answers
        && counters (Linarith.flush sc) = counters (O.flush osc))
  in
  let lin_sound =
    QCheck.Test.make ~count:300 ~name:"linarith is sound on random goals"
      QCheck.(
        pair
          (make ~print:(fun (x, y) ->
               Printf.sprintf "%s <= %s" (term_to_string x) (term_to_string y))
             QCheck.Gen.(pair gen_lin_term gen_lin_term))
          (triple small_nat small_nat small_nat))
      (fun (((x, y), (va, vb, vn))) ->
        (* if the solver proves x <= y with no hypotheses, the inequality
           must hold for every valuation of the nat variables *)
        if Linarith.prove ~hyps:[] (PLe (x, y)) then
          let env = [ ("a", va); ("b", vb); ("n", vn) ] in
          eval_term env x <= eval_term env y
        else true)
  in
  let simp_sound =
    QCheck.Test.make ~count:300 ~name:"simplifier preserves value"
      QCheck.(
        pair
          (make ~print:term_to_string gen_lin_term)
          (triple small_nat small_nat small_nat))
      (fun (t, (va, vb, vn)) ->
        let env = [ ("a", va); ("b", vb); ("n", vn) ] in
        eval_term env t = eval_term env (Simp.simp_term t))
  in
  let simp_idempotent =
    (* the engine keeps a Δ atom resolved at insertion as its resolved
       form until the next evar instantiation; that is sound only if
       resolving (and so simplifying) twice equals doing it once *)
    QCheck.Test.make ~count:2000 ~name:"simplifier is idempotent"
      (QCheck.make ~print:term_to_string gen_simp_term)
      (fun t ->
        let s = Simp.simp_term t in
        equal_term (Simp.simp_term s) s)
  in
  List.map QCheck_alcotest.to_alcotest
    [
      lin_sound; simp_sound; simp_idempotent; redundant_hyps; scope_independent;
      oracle_agrees;
    ]

(* The traversal contract (DESIGN.md §16): a traversal returns its input
   itself when nothing below it changed, and calls [f] in the order the
   constructor expressions of [ref_map_term] evaluate their arguments —
   OCaml's right to left, argument lists head first. *)

let rec ref_map_term (f : term -> term) (t : term) : term =
  match t with
  | Var _ | Evar _ | Num _ | BoolLit _ | NullLoc | MsEmpty | SetEmpty | Nil _
    ->
      t
  | TProp p -> TProp (ref_map_prop f p)
  | Add (a, b) -> Add (f a, f b)
  | Sub (a, b) -> Sub (f a, f b)
  | NatSub (a, b) -> NatSub (f a, f b)
  | Mul (a, b) -> Mul (f a, f b)
  | Div (a, b) -> Div (f a, f b)
  | Mod (a, b) -> Mod (f a, f b)
  | Min (a, b) -> Min (f a, f b)
  | Max (a, b) -> Max (f a, f b)
  | Ite (c, a, b) -> Ite (ref_map_prop f c, f a, f b)
  | LocOfs (l, n) -> LocOfs (f l, f n)
  | MsSingleton a -> MsSingleton (f a)
  | MsUnion (a, b) -> MsUnion (f a, f b)
  | SetSingleton a -> SetSingleton (f a)
  | SetUnion (a, b) -> SetUnion (f a, f b)
  | SetDiff (a, b) -> SetDiff (f a, f b)
  | Cons (a, b) -> Cons (f a, f b)
  | Append (a, b) -> Append (f a, f b)
  | Length a -> Length (f a)
  | Replicate (a, b) -> Replicate (f a, f b)
  | NthDflt (d, i, l) -> NthDflt (f d, f i, f l)
  | SetListInsert (i, x, l) -> SetListInsert (f i, f x, f l)
  | App (g, args) -> App (g, List.map f args)

and ref_map_prop (f : term -> term) (p : prop) : prop =
  match p with
  | PTrue | PFalse -> p
  | PEq (a, b) -> PEq (f a, f b)
  | PLe (a, b) -> PLe (f a, f b)
  | PLt (a, b) -> PLt (f a, f b)
  | PAnd (a, b) -> PAnd (ref_map_prop f a, ref_map_prop f b)
  | POr (a, b) -> POr (ref_map_prop f a, ref_map_prop f b)
  | PNot a -> PNot (ref_map_prop f a)
  | PImp (a, b) -> PImp (ref_map_prop f a, ref_map_prop f b)
  | PIsTrue t -> PIsTrue (f t)
  | PIn (a, b) -> PIn (f a, f b)
  | PForall (x, s, q) -> PForall (x, s, ref_map_prop f q)
  | PExists (x, s, q) -> PExists (x, s, ref_map_prop f q)
  | PPred (g, args) -> PPred (g, List.map f args)

(* Terms and propositions over every constructor the traversals treat
   apart, grown from the generators above, with evar leaves *)
let gen_any_term, gen_any_prop =
  let open QCheck.Gen in
  let evar = map (fun k -> Evar (k, Sort.Int)) (int_range 0 3) in
  let leaf = frequency [ (3, gen_simp_term); (1, evar) ] in
  let args = list_size (int_range 0 3) in
  let rec term depth =
    if depth <= 0 then leaf
    else
      let sub = term (depth - 1) and p = prop (depth - 1) in
      frequency
        [
          (3, leaf);
          (1, map2 (fun x y -> Add (x, y)) sub sub);
          (1, map3 (fun c x y -> Ite (c, x, y)) p sub sub);
          (1, map (fun q -> TProp q) p);
          (1, map (fun args -> App ("f", args)) (args sub));
          (1, map3 (fun d i l -> NthDflt (d, i, l)) sub sub sub);
          (1, map3 (fun i x l -> SetListInsert (i, x, l)) sub sub sub);
          (1, map2 (fun x l -> Cons (x, l)) sub sub);
          (1, map2 (fun x s -> MsUnion (MsSingleton x, s)) sub sub);
          (1, map (fun l -> Length l) sub);
        ]
  and prop depth =
    if depth <= 0 then gen_query_prop
    else
      let sub = prop (depth - 1) and t = term (depth - 1) in
      frequency
        [
          (3, gen_query_prop);
          (1, map2 (fun x y -> PAnd (x, y)) sub sub);
          (1, map2 (fun x y -> POr (x, y)) sub sub);
          (1, map2 (fun x y -> PImp (x, y)) sub sub);
          (1, map (fun x -> PNot x) sub);
          (1, map (fun q -> PForall ("b", Sort.Nat, q)) sub);
          (1, map (fun q -> PExists ("z", Sort.Int, q)) sub);
          (1, map2 (fun x s -> PIn (x, s)) t t);
          (1, map (fun x -> PIsTrue x) t);
          (1, map (fun args -> PPred ("P", args)) (args t));
          (1, map2 (fun x y -> PEq (x, y)) t t);
        ]
  in
  (term 3, prop 3)

(* [f]'s result and its arguments in call order, over a whole-term
   traversal built on [map]: [f] replaces the variable [a] by a literal
   and recurses *)
let call_log map t =
  let log = ref [] in
  let rec f t =
    log := t :: !log;
    match t with Var ("a", _) -> Num 7 | _ -> map f t
  in
  let r = f t in
  (r, List.rev !log)

let traversal_tests =
  let print (t, p) = term_to_string t ^ " / " ^ prop_to_string p in
  let unchanged =
    QCheck.Test.make ~count:1000 ~name:"unchanged terms come back physically"
      (QCheck.make ~print QCheck.Gen.(pair gen_any_term gen_any_prop))
      (fun (t, p) ->
        let none _ = None in
        map_term Fun.id t == t
        && map_prop Fun.id p == p
        && subst_term [] t == t
        && subst_prop [] p == p
        && subst_term [ ("unused", Num 0) ] t == t
        && subst_evars_term none t == t
        && subst_evars_prop none p == p
        && (let s = Simp.simp_prop p in
            Simp.simp_prop s == s)
        &&
        let s = Simp.simp_term t in
        Simp.simp_term s == s)
  in
  let as_reference =
    QCheck.Test.make ~count:1000
      ~name:"changed terms and call order match the reference map"
      (QCheck.make ~print QCheck.Gen.(pair gen_any_term gen_any_prop))
      (fun (t, p) ->
        let env = [ ("a", Num 7) ] in
        let rec ref_subst t =
          match t with Var ("a", _) -> Num 7 | _ -> ref_map_term ref_subst t
        in
        let same_calls t =
          let r, log = call_log map_term t in
          let r', log' = call_log ref_map_term t in
          equal_term r r' && List.equal equal_term log log'
        in
        equal_term (subst_term env t) (ref_subst t)
        && equal_prop (subst_prop env p) (ref_map_prop ref_subst p)
        && same_calls t
        && same_calls (TProp p))
  in
  List.map QCheck_alcotest.to_alcotest [ unchanged; as_reference ]

let extension_tests =
  let t name f = Alcotest.test_case name `Quick f in
  [
    t "resolve_ites uses branch facts" (fun () ->
        let goal = PEq (Ite (PLe (n, a), Sub (a, n), a), Sub (a, n)) in
        Alcotest.(check bool)
          "provable under n <= a" true
          (Registry.default_prove Registry.default ~hyps:[ PLe (n, a) ] goal);
        Alcotest.(check bool)
          "not provable without" false
          (Registry.default_prove Registry.default ~hyps:[] goal));
    t "lemma premises can match hypotheses" (fun () ->
        (* the layered-BST pattern: the shape premise binds metavars *)
        let xs = Var ("xs", Sort.List Sort.Int) in
        let lxs = Var ("lxs", Sort.List Sort.Int) in
        let rxs = Var ("rxs", Sort.List Sort.Int) in
        let v = Var ("v", Sort.Int) in
        let k = Var ("k", Sort.Int) in
        let reg =
          Registry.add_lemma Registry.default
            {
              Registry.lname = "elem_of_root";
              vars =
                [ ("k", Sort.Int); ("v", Sort.Int);
                  ("xs", Sort.List Sort.Int); ("lxs", Sort.List Sort.Int);
                  ("rxs", Sort.List Sort.Int) ];
              premises =
                [ PEq (xs, Append (lxs, Cons (v, rxs))); PEq (k, v) ];
              concl = PIn (k, xs);
            }
        in
        let zs = Var ("zs", Sort.List Sort.Int) in
        let ls = Var ("ls", Sort.List Sort.Int) in
        let rs = Var ("rs", Sort.List Sort.Int) in
        let w = Var ("w", Sort.Int) in
        let u = Var ("u", Sort.Int) in
        let verdict =
          Registry.solve reg
            ~hyps:[ PEq (zs, Append (ls, Cons (w, rs))); PEq (u, w) ]
            (PIn (u, zs))
        in
        Alcotest.(check string)
          "lemma fires" "lemma:elem_of_root"
          (Fmt.str "%a" Registry.pp_verdict verdict));
    t "set solver saturates bounded facts" (fun () ->
        (* from r ∈ l and ∀j∈l. j < v conclude r < v, then r ≤ v *)
        let l = Var ("l", Sort.Set) in
        let r = int_v "r" in
        let v = int_v "v" in
        Alcotest.(check bool)
          "saturation" true
          (Set_solver.prove
             ~prove_pure:(Registry.default_prove Registry.default)
             ~hyps:
               [
                 PIn (r, l);
                 PForall ("j", Sort.Int, PImp (PIn (int_v "j", l), PLt (int_v "j", v)));
               ]
             (PLe (r, v))));
    t "collection solvers saturate once" (fun () ->
        (* each level of the goal's decomposition used to saturate the
           hypotheses again, so deeper subgoals got one more copy of
           r < v per level *)
        let l = Var ("l", Sort.Set) in
        let r = int_v "r" in
        let v = int_v "v" in
        let hyps =
          [
            PIn (r, l);
            PForall ("j", Sort.Int, PImp (PIn (int_v "j", l), PLt (int_v "j", v)));
          ]
        in
        let le k = PLe (r, Add (v, Num k)) in
        let goal = PAnd (le 0, PAnd (le 1, PAnd (le 2, le 3))) in
        let sizes = ref [] in
        let prove_pure ~hyps g =
          sizes := List.length hyps :: !sizes;
          Registry.default_prove Registry.default ~hyps g
        in
        Alcotest.(check bool) "set solver" true
          (Set_solver.prove ~prove_pure ~hyps goal);
        Alcotest.(check bool) "multiset solver" true
          (Mset_solver.prove ~prove_pure ~hyps goal);
        Alcotest.(check (list int))
          "every call gets r ∈ l, the bounded fact and one r < v"
          (List.init 8 (fun _ -> 3))
          !sizes);
    t "list solver rewrites defined functions" (fun () ->
        (* the rev-unfold hook travels as a value, not via global state *)
        let hooks = Rc_studies.Studies.hooks in
        let xs = Var ("xs", Sort.List Sort.Int) in
        let cs = Var ("cs", Sort.List Sort.Int) in
        let tl = Var ("tl", Sort.List Sort.Int) in
        let ys = Var ("ys", Sort.List Sort.Int) in
        let x = int_v "x" in
        let rev l = App ("rev", [ l ]) in
        Alcotest.(check bool)
          "rev-append reasoning" true
          (List_solver.prove ~hooks
             ~prove_pure:(Registry.default_prove Registry.default)
             ~hyps:
               [ PEq (cs, Cons (x, tl)); PEq (rev xs, Append (rev cs, ys)) ]
             (PEq (rev xs, Append (rev tl, Cons (x, ys))))));
    t "nat-subtraction case split" (fun () ->
        Alcotest.(check bool)
          "a - (a - n) = n under n <= a" true
          (Linarith.prove ~hyps:[ PLe (n, a) ]
             (PEq (Sub (a, Sub (a, n)), n))));
  ]

let () =
  Alcotest.run "pure"
    [
      ("simp", simp_tests);
      ("destruct-hyp", destruct_tests);
      ("linarith", linarith_tests);
      ("multiset-solver", mset_tests);
      ("set-solver", set_tests);
      ("list-solver", list_tests);
      ("registry", registry_tests);
      ("extensions", extension_tests);
      ("properties", prop_tests);
      ("traversal", traversal_tests);
    ]
