(* The §5 "Extensibility" claim, demonstrated: RefinedC "can be extended
   with user-defined types and typing rules … when new typing rules are
   added, Lithium's proof search automatically uses them".

   This example plays the expert of Figure 2: from *outside* the library
   it registers
     1. a new named type  [v @ even_t]  (an even integer),
     2. a new pure solver ("parity") for the divisibility side conditions
        the type generates, and
     3. a new simplification lemma,
   then builds a *session* carrying all three and verifies a C function
   against a specification using the new type — without touching a line
   of the engine or the standard rule library, and without mutating any
   global state: a second, stock session in the same process would not
   even see even_t.

   Run with:  dune exec examples/extend_refinedc.exe *)

open Rc_pure
open Rc_pure.Term
open Rc_refinedc.Rtype
module Int_type = Rc_caesium.Int_type

(* 1. The new type: an even int<int>, defined by unfolding into the
   existing grammar (a constrained integer).  Recursive or genuinely new
   semantic types would instead come with their own subsumption rules —
   passed to the session through exactly the same [~rules] hook. *)
let even_t : type_def =
  {
    td_name = "even_t";
    td_params = [ ("n", Sort.Int) ];
    td_layout = Some (Rc_caesium.Layout.Int Int_type.i32);
    td_unfold =
      (function
      | [ n ] ->
          TConstr (TInt (Int_type.i32, n), PEq (Mod (n, Num 2), Num 0))
      | _ -> invalid_arg "even_t arity");
  }

(* 2. A tiny decision procedure for the parity facts the type generates:
   (2k) mod 2 = 0, (a+b) mod 2 = 0 when both are even, and so on.  It is
   enabled per-function with rc::tactics("all: parity."). *)
let parity_solver : Registry.solver =
  let rec even (hyps : prop list) (t : term) : bool =
    match Simp.simp_term t with
    | Num k -> k mod 2 = 0
    | Mul (Num k, _) when k mod 2 = 0 -> true
    | Mul (_, Num k) when k mod 2 = 0 -> true
    | Add (x, y) | Sub (x, y) -> even hyps x && even hyps y
    | t ->
        List.exists
          (fun h ->
            match h with
            | PEq (Mod (u, Num 2), Num 0) -> equal_term u t
            | _ -> false)
          hyps
  in
  {
    Registry.name = "parity";
    run =
      (fun _reg ~hyps g ->
        match Simp.simp_prop g with
        | PEq (Mod (t, Num 2), Num 0) -> even hyps t
        | _ -> false);
  }

(* 3. The program: doubling anything is even, and adding two evens stays
   even.  The spec uses the new type exactly like a built-in. *)
let src = {|
[[rc::parameters("n: int")]]
[[rc::args("n @ int<int>")]]
[[rc::requires("{0 <= n}", "{n <= 1000}")]]
[[rc::returns("(2 * n) @ even_t")]]
[[rc::tactics("all: parity.")]]
int twice(int x) {
  return x + x;
}

[[rc::parameters("a: int", "b: int")]]
[[rc::args("a @ even_t", "b @ even_t")]]
[[rc::requires("{0 <= a}", "{a <= 1000}", "{0 <= b}", "{b <= 1000}")]]
[[rc::returns("(a + b) @ even_t")]]
[[rc::tactics("all: parity.")]]
int add_even(int x, int y) {
  return x + y;
}
|}

let () =
  let session =
    Rc_session.Refinedc_api.create_session ~case_studies:true
      ~type_defs:[ even_t ] ~solvers:[ parity_solver ] ()
  in
  Fmt.pr "Session carries: type even_t, solver \"parity\".@.";
  let t = Rc_frontend.Driver.check_source ~session ~file:"even.c" src in
  List.iter
    (fun (r : Rc_frontend.Driver.check_result) ->
      match r.outcome with
      | Ok res ->
          Fmt.pr "✔ %-9s verified (%a)@." r.name Rc_lithium.Stats.pp
            res.Rc_refinedc.Lang.E.stats
      | Error e ->
          Fmt.pr "✘ %s failed:@.%s@." r.name (Rc_lithium.Report.to_string e);
          exit 1)
    t.results;
  Fmt.pr
    "@.The engine, the standard rule library and the frontend were not \
     modified:@.the new type unfolds through the existing subsumption rules \
     and the new@.solver plugs into the session's registry — the \
     extensibility story of paper par.5.@."
