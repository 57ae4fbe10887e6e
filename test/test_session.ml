(* Reentrancy of the session-threaded pipeline (the tentpole property of
   the session refactor): sessions are self-contained values, so

   - construction is pure: building a session — however exotic its
     configuration — observably changes nothing outside it;
   - two sessions with disjoint extra rules, solver registries, and
     ablation flags produce independent verdicts and stats, whether they
     run interleaved on one domain or concurrently on two;
   - a session's behaviour is deterministic and unaffected by what other
     sessions do in between its runs. *)

open Rc_pure.Term
module Api = Rc_session.Refinedc_api
module Driver = Rc_frontend.Driver
module Session = Rc_refinedc.Session
module Registry = Rc_pure.Registry

let case_dir =
  List.find Sys.file_exists
    [
      "case_studies"; "../case_studies"; "../../case_studies";
      "../../../case_studies";
    ]

let path f = Filename.concat case_dir f

(* a small source whose functions verify under any stock configuration *)
let small_src =
  {|
[[rc::parameters("x: int")]]
[[rc::args("x @ int<int>")]]
[[rc::requires("{x <= 100}")]]
[[rc::returns("(x + 1) @ int<int>")]]
int incr(int a) { return a + 1; }
|}

(* a goal only the multiset solver proves, as an inert extra lemma *)
let mset_lemma =
  {
    Registry.lname = "test_session_lemma";
    vars = [ ("n", Rc_pure.Sort.Int) ];
    premises = [];
    concl =
      PEq (Var ("n", Rc_pure.Sort.Int), Var ("n", Rc_pure.Sort.Int));
  }

let never_fires_rule =
  {
    Rc_refinedc.Lang.E.rname = "TEST-SESSION-NEVER-FIRES";
    prio = 1000;
    heads = Some [ "no-such-judgment-head" ];
    apply = (fun _ _ -> None);
  }

let even_def =
  let open Rc_refinedc.Rtype in
  {
    td_name = "test_even";
    td_params = [ ("n", Rc_pure.Sort.Int) ];
    td_layout = Some (Rc_caesium.Layout.Int Rc_caesium.Int_type.i32);
    td_unfold =
      (function
      | [ n ] ->
          TConstr
            (TInt (Rc_caesium.Int_type.i32, n), PEq (Mod (n, Num 2), Num 0))
      | _ -> invalid_arg "test_even arity");
  }

let outcome_signature (t : Driver.t) =
  List.map
    (fun (r : Driver.check_result) ->
      ( r.name,
        match r.outcome with
        | Ok res ->
            let s = res.Rc_refinedc.Lang.E.stats in
            Fmt.str "ok:%d:%d" s.Rc_lithium.Stats.rule_apps
              s.Rc_lithium.Stats.evar_insts
        | Error e ->
            Fmt.str "error:%s" (Rc_lithium.Report.kind_label e.Rc_lithium.Report.kind) ))
    t.Driver.results

let purity_tests =
  [
    Alcotest.test_case "construction has no observable side effects" `Quick
      (fun () ->
        let before_lemmas = List.length Registry.default.Registry.lemmas in
        let before_solvers = List.length Registry.default.Registry.solvers in
        let exotic =
          Api.create_session ~case_studies:true ~rules:[ never_fires_rule ]
            ~lemmas:[ mset_lemma ] ~type_defs:[ even_def ]
            ~default_only:false ~no_goal_simp:true ()
        in
        ignore exotic;
        Alcotest.(check int) "default registry lemmas untouched"
          before_lemmas
          (List.length Registry.default.Registry.lemmas);
        Alcotest.(check int) "default registry solvers untouched"
          before_solvers
          (List.length Registry.default.Registry.solvers);
        (* a stock session built *after* the exotic one sees none of it *)
        let stock = Api.create_session () in
        Alcotest.(check bool) "no leaked type defs" false
          (Hashtbl.mem stock.Session.tenv "test_even");
        Alcotest.(check int) "no leaked extra rules" 0
          (List.length stock.Session.extra_rules);
        Alcotest.(check int) "no leaked lemmas" 0
          (List.length stock.Session.registry.Registry.lemmas));
    Alcotest.test_case "disjoint configurations stay disjoint" `Quick
      (fun () ->
        let sa =
          Api.create_session ~rules:[ never_fires_rule ]
            ~type_defs:[ even_def ] ()
        in
        let sb = Api.create_session ~lemmas:[ mset_lemma ] () in
        Alcotest.(check bool) "A has its rule" true
          (List.mem "TEST-SESSION-NEVER-FIRES"
             (Rc_cert.Checker.rule_table sa));
        Alcotest.(check bool) "B does not" false
          (List.mem "TEST-SESSION-NEVER-FIRES"
             (Rc_cert.Checker.rule_table sb));
        Alcotest.(check bool) "A has its type" true
          (Hashtbl.mem sa.Session.tenv "test_even");
        Alcotest.(check bool) "B does not have A's type" false
          (Hashtbl.mem sb.Session.tenv "test_even");
        Alcotest.(check bool) "B has its lemma" true
          (List.exists
             (fun (l : Registry.lemma) -> l.Registry.lname = "test_session_lemma")
             sb.Session.registry.Registry.lemmas);
        Alcotest.(check bool) "A does not have B's lemma" false
          (List.exists
             (fun (l : Registry.lemma) -> l.Registry.lname = "test_session_lemma")
             sa.Session.registry.Registry.lemmas));
  ]

(* Two sessions with opposite ablation configs checking the same file:
   the full session verifies it, the ablated one must fail — whichever
   order, interleaving, or domain they run on. *)
let independence_tests =
  let file = "hashmap.c" in
  let full () = Api.create_session ~case_studies:true () in
  let ablated () =
    Api.create_session ~case_studies:true ~default_only:true ()
  in
  let run s = Driver.check_file ~session:s (path file) in
  let expect_full t = Alcotest.(check bool) "full verifies" true (Driver.all_ok t) in
  let expect_ablated t =
    Alcotest.(check bool) "ablated fails" false (Driver.all_ok t)
  in
  [
    Alcotest.test_case "interleaved on one domain" `Quick (fun () ->
        (* A, B, A again: B's run must not perturb A's verdicts/stats *)
        let a1 = run (full ()) in
        let b1 = run (ablated ()) in
        let a2 = run (full ()) in
        expect_full a1;
        expect_ablated b1;
        expect_full a2;
        Alcotest.(check (list (pair string string)))
          "A's outcomes are reproducible around B"
          (outcome_signature a1) (outcome_signature a2));
    Alcotest.test_case "concurrently on two domains" `Quick (fun () ->
        let pool = Rc_util.Supervisor.create ~jobs:2 () in
        let results, _ =
          Fun.protect
            ~finally:(fun () -> Rc_util.Supervisor.shutdown pool)
            (fun () ->
              Rc_util.Supervisor.run (Some pool)
                (fun ablate ->
                  if ablate then run (ablated ()) else run (full ()))
                [ false; true ])
        in
        match results with
        | [ Rc_util.Supervisor.Done ta; Rc_util.Supervisor.Done tb ] ->
            expect_full ta;
            expect_ablated tb;
            (* the concurrent full run equals a solo full run exactly *)
            Alcotest.(check (list (pair string string)))
              "concurrent run matches solo run" (outcome_signature (run (full ())))
              (outcome_signature ta)
        | _ -> Alcotest.fail "a concurrent check did not complete");
    Alcotest.test_case "per-session budgets give per-session verdicts"
      `Quick (fun () ->
        let starved =
          Api.create_session
            ~budget:{ Rc_util.Budget.unlimited with fuel = Some 5 } ()
        in
        let roomy = Api.create_session () in
        let run s = Driver.check_source ~session:s ~file:"small.c" small_src in
        let t1 = run starved in
        let t2 = run roomy in
        Alcotest.(check bool) "starved fails" false (Driver.all_ok t1);
        Alcotest.(check bool) "roomy verifies" true (Driver.all_ok t2));
  ]

let () =
  Alcotest.run "session"
    [
      ("purity", purity_tests);
      ("independence", independence_tests);
    ]
