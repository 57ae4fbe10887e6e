(* Unit tests for the annotation (specification) language parser:
   terms, propositions, types, binders, pre/post items — in both the
   paper's unicode notation and the ASCII alternates — plus error
   behaviour on malformed input. *)

open Rc_pure
open Rc_pure.Term
module Sp = Rc_frontend.Specparse
module Layout = Rc_caesium.Layout
module Int_type = Rc_caesium.Int_type

let session = Rc_studies.Studies.session ()

let env =
  {
    Sp.vars =
      [
        ("a", Sort.Nat); ("n", Sort.Nat); ("p", Sort.Loc); ("s", Sort.Mset);
        ("t", Sort.Set); ("xs", Sort.List Sort.Int); ("k", Sort.Int);
        ("b", Sort.Bool);
      ];
    structs =
      Hashtbl.of_seq
        (List.to_seq
           [ ("chunk", Layout.mk_struct "chunk"
                [ ("size", Layout.Int Int_type.size_t); ("next", Layout.Ptr) ]) ]);
    fn_specs = Hashtbl.create 1;
    tenv = session.Rc_refinedc.Session.tenv;
  }

let term name input expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string)
        name
        (term_to_string expected)
        (term_to_string (Sp.term ~env input)))

let prop name input expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string)
        name
        (prop_to_string expected)
        (prop_to_string (Sp.prop ~env input)))

let ty name input expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string)
        name expected
        (Rc_refinedc.Rtype.rtype_to_string (Sp.rtype ~env input)))

let fails name input =
  Alcotest.test_case name `Quick (fun () ->
      match Sp.rtype ~env input with
      | _ -> Alcotest.fail "expected a parse error"
      | exception Sp.Spec_error _ -> ())

let a = nat "a"
let n = nat "n"
let k = int_v "k"
let s = mset_v "s"

let term_tests =
  [
    term "number" "42" (Num 42);
    term "variable" "a" a;
    term "addition" "a + n" (Add (a, n));
    term "precedence" "a + n * 2" (Add (a, Mul (n, Num 2)));
    term "parens" "(a + n) * 2" (Mul (Add (a, n), Num 2));
    term "subtraction-assoc" "a - n - 1" (Sub (Sub (a, n), Num 1));
    term "division" "a / 2" (Div (a, Num 2));
    term "modulo" "k % 8" (Mod (k, Num 8));
    term "multiset singleton" "{[n]}" (MsSingleton n);
    term "multiset union unicode" "{[n]} \xe2\x8a\x8e s"
      (MsUnion (MsSingleton n, s));
    term "empty multiset" "\xe2\x88\x85" MsEmpty;
    term "nil" "[]" (Nil Sort.Int);
    term "cons" "k :: xs" (Cons (k, Var ("xs", Sort.List Sort.Int)));
    term "append" "xs ++ xs"
      (Append (Var ("xs", Sort.List Sort.Int), Var ("xs", Sort.List Sort.Int)));
    term "length" "length xs" (Length (Var ("xs", Sort.List Sort.Int)));
    term "nth" "nth 0 k xs"
      (NthDflt (Num 0, k, Var ("xs", Sort.List Sort.Int)));
    term "insert" "insert k 0 xs"
      (SetListInsert (k, Num 0, Var ("xs", Sort.List Sort.Int)));
    term "ternary" "(n <= a ? a - n : a)"
      (Ite (PLe (n, a), Sub (a, n), a));
    term "sizeof" "sizeof(struct chunk)" (Num 16);
    term "min" "min(a, n)" (Min (a, n));
    term "app" "rev(xs)" (App ("rev", [ Var ("xs", Sort.List Sort.Int) ]));
    term "embedded prop" "{a <= n}" (TProp (PLe (a, n)));
  ]

let prop_tests =
  [
    prop "le-unicode" "a \xe2\x89\xa4 n" (PLe (a, n));
    prop "le-ascii" "a <= n" (PLe (a, n));
    prop "ne" "a != n" (p_ne a n);
    prop "eq" "a = n" (PEq (a, n));
    prop "conj-unicode" "a \xe2\x89\xa4 n \xe2\x88\xa7 n \xe2\x89\xa4 a"
      (PAnd (PLe (a, n), PLe (n, a)));
    prop "disj" "a <= n || n <= a" (POr (PLe (a, n), PLe (n, a)));
    prop "implication" "a <= n -> a < n + 1"
      (PImp (PLe (a, n), PLt (a, Add (n, Num 1))));
    prop "negation" "!(a = n)" (PNot (PEq (a, n)));
    prop "membership" "k \xe2\x88\x88 s" (PIn (k, s));
    prop "forall" "\xe2\x88\x80 j, j \xe2\x88\x88 s \xe2\x86\x92 n \xe2\x89\xa4 j"
      (PForall
         ("j", Sort.Int, PImp (PIn (Var ("j", Sort.Int), s), PLe (n, Var ("j", Sort.Int)))));
    prop "braced" "{a <= n}" (PLe (a, n));
    prop "set-coercion" "t = {[k]} \xe2\x88\xaa t"
      (PEq (Var ("t", Sort.Set), SetUnion (SetSingleton k, Var ("t", Sort.Set))));
    prop "paren-prop-conj" "(a < n) && (n < a)"
      (PAnd (PLt (a, n), PLt (n, a)));
  ]

let type_tests =
  [
    ty "refined int" "n @ int<size_t>" "n @ int<size_t>";
    ty "unrefined int" "int<int>" "∃n:int. n @ int<int>";
    ty "null" "null" "null";
    ty "own" "&own<uninit<n>>" "&own<uninit<n>>";
    ty "own refined" "p @ &own<n @ int<int>>" "p @ &own<n @ int<int>>";
    ty "optional" "{n <= a} @ optional<&own<uninit<n>>, null>"
      "{n ≤ a} @ optional<&own<uninit<n>>, null>";
    ty "bool" "{a <= n} @ bool<int>" "{a ≤ n} @ bool";
    ty "array" "array<int<int>, n, xs>" "array<int<int>, n, xs>";
    ty "bare ptr" "p @ ptr" "p @ ptr";
    ty "wand" "wand<{p : n @ int<int>}, a @ int<int>>"
      "wand<{p ◁ₗ n @ int<int>}, a @ int<int>>";
    ty "named with lock" "p @ lock_t" "p @ lock_t";
    Alcotest.test_case "out-of-range literal is a spec error" `Quick
      (fun () ->
        match Sp.rtype ~env "{n + 99999999999999999999} @ int<int>" with
        | _ -> Alcotest.fail "expected a parse error"
        | exception Sp.Spec_error msg ->
            Alcotest.(check bool) msg true
              (Str.string_match (Str.regexp ".*out of range") msg 0));
  ]

let misc_tests =
  [
    Alcotest.test_case "binder" `Quick (fun () ->
        Alcotest.(check (pair string string))
          "binder" ("x", "nat")
          (let x, s = Sp.binder "x: nat" in
           (x, Sort.to_string s)));
    Alcotest.test_case "binder with braces" `Quick (fun () ->
        let _, s = Sp.binder "s: {gmultiset nat}" in
        Alcotest.(check string) "sort" "multiset" (Sort.to_string s));
    Alcotest.test_case "tactics" `Quick (fun () ->
        Alcotest.(check (list string))
          "tactics" [ "multiset_solver" ]
          (Sp.tactics_item "all: multiset_solver."));
    Alcotest.test_case "hres own" `Quick (fun () ->
        match Sp.hres_item ~env "own p : n @ int<int>" with
        | Rc_refinedc.Rtype.HAtom (Rc_refinedc.Rtype.LocTy (l, _)) ->
            Alcotest.(check string) "loc" "p" (term_to_string l)
        | _ -> Alcotest.fail "expected a location atom");
    Alcotest.test_case "hres prop" `Quick (fun () ->
        match Sp.hres_item ~env "{a <= n}" with
        | Rc_refinedc.Rtype.HProp p ->
            Alcotest.(check string) "prop" "a ≤ n" (prop_to_string p)
        | _ -> Alcotest.fail "expected a proposition");
    Alcotest.test_case "inv_var" `Quick (fun () ->
        let x, _ = Sp.inv_var ~env "cur: p @ &own<n @ int<int>>" in
        Alcotest.(check string) "var" "cur" x);
    fails "unknown variable" "q @ int<int>";
    fails "unknown type" "n @ nosuchtype";
    fails "trailing garbage" "n @ int<int> extra";
    fails "unclosed angle" "&own<uninit<n>";
  ]

let () =
  Alcotest.run "specparse"
    [
      ("terms", term_tests);
      ("props", prop_tests);
      ("types", type_tests);
      ("misc", misc_tests);
    ]
