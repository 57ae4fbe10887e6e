(* The engine-speed features must be semantically invisible: goal
   interning, within-run subgoal memoization ([--memo]) and the order of
   equal-priority rules may change wall-clock time and the memo
   counters, but never verdicts, Figure-7 statistics, diagnostics,
   exit codes or the [--json] report.  These tests pin that equivalence
   over the full case-study corpus and a sample of the generated stress
   corpus, plus the interning primitives themselves. *)

module Driver = Rc_frontend.Driver
module Stats = Rc_lithium.Stats
module Goal = Rc_lithium.Goal
module Session = Rc_refinedc.Session
module Corpus = Rc_benchgen.Corpus

let case_dir =
  List.find Sys.file_exists
    [
      "case_studies"; "../case_studies"; "../../case_studies";
      "../../../case_studies";
    ]

let corpus_files =
  [
    "linked_list.c"; "queue.c"; "binary_search.c"; "talloc.c";
    "page_alloc.c"; "bst_layered.c"; "bst_direct.c"; "hashmap.c";
    "mpool.c"; "spinlock.c"; "barrier.c";
  ]

let studies_session ?(memo = false) () =
  Session.with_memo (Rc_studies.Studies.session ()) memo

let plain_session ?(memo = false) () =
  Rc_session.Refinedc_api.create_session ~memo ()

let json t = Rc_util.Jsonout.to_string (Driver.to_json ~timings:false t)

(* ------------------------------------------------------------------ *)
(* Interning primitives                                                *)
(* ------------------------------------------------------------------ *)

let test_intern_roundtrip () =
  let t = Goal.Intern.create ~expected:2 () in
  let keys = List.init 100 (fun i -> Printf.sprintf "goal<%d>" i) in
  let ids = List.map (Goal.Intern.id t) keys in
  (* dense ids, in first-seen order *)
  Alcotest.(check (list int)) "dense ids" (List.init 100 Fun.id) ids;
  (* interning again is stable *)
  Alcotest.(check (list int)) "stable" ids (List.map (Goal.Intern.id t) keys);
  (* names round-trip *)
  List.iter2
    (fun k i ->
      Alcotest.(check string) "name round-trip" k (Goal.Intern.name t i))
    keys ids;
  Alcotest.(check int) "size" 100 (Goal.Intern.size t);
  Alcotest.(check bool) "mem" true (Goal.Intern.mem t "goal<42>");
  Alcotest.(check bool) "not mem" false (Goal.Intern.mem t "goal<100>")

let test_intern_bounds () =
  let t = Goal.Intern.create () in
  ignore (Goal.Intern.id t "only");
  Alcotest.check_raises "out of range" (Invalid_argument "Intern.name")
    (fun () -> ignore (Goal.Intern.name t 1));
  Alcotest.check_raises "negative" (Invalid_argument "Intern.name")
    (fun () -> ignore (Goal.Intern.name t (-1)))

(* Dispatch reads a goal's rule bucket and head name through
   [head_id_of_f]; [head_of_f] is the reference it must agree with.  A
   wildcard spy rule, tried first on every basic goal and never firing,
   records both for every goal the case studies reach.  The case
   studies have no negation, cast or switch, so a small extra program
   supplies those heads. *)
let heads_src =
  {|
[[rc::parameters("x: int")]]
[[rc::args("x @ int<int>")]]
[[rc::requires("{0 <= x}", "{x <= 100}")]]
[[rc::returns("x @ int<int>")]]
int heads(int n) {
  long m = (long)n;
  int k = -n;
  switch (n) {
  case 0:
    return n;
  default:
    return n;
  }
}
|}

let test_head_ids () =
  let module Lang = Rc_refinedc.Lang in
  let seen = Hashtbl.create 16 in
  let spy =
    {
      Lang.E.rname = "TEST-HEAD-SPY";
      prio = min_int;
      heads = None;
      apply =
        (fun _ f ->
          Hashtbl.replace seen (Lang.head_of_f f)
            Lang.head_names.(Lang.head_id_of_f f);
          None);
    }
  in
  let session () = Rc_studies.Studies.session ~rules:[ spy ] () in
  List.iter
    (fun (file, src) ->
      let t = Driver.check_source ~session:(session ()) ~file src in
      Alcotest.(check bool) (file ^ " verifies") true (Driver.errors t = []))
    (("heads.c", heads_src)
    :: List.map
         (fun file ->
           let path = Filename.concat case_dir file in
           (path, In_channel.with_open_bin path In_channel.input_all))
         corpus_files);
  List.iter
    (fun head ->
      Alcotest.(check (option string))
        ("head " ^ head) (Some head) (Hashtbl.find_opt seen head))
    Lang.all_heads

(* ------------------------------------------------------------------ *)
(* Observational equivalence of memo-on and memo-off                   *)
(* ------------------------------------------------------------------ *)

(* Everything the CLI reports except wall-clock time and the memo
   counters themselves (which are the *only* fields allowed to move). *)
let signature (t : Driver.t) : string list =
  List.map
    (fun (r : Driver.check_result) ->
      match r.outcome with
      | Ok res ->
          let s = res.Rc_refinedc.Lang.E.stats in
          Fmt.str "%s:ok:apps=%d:distinct=%d:evars=%d:side=%d/%d" r.name
            s.Stats.rule_apps (Stats.distinct_rules s) s.Stats.evar_insts
            s.Stats.side_auto s.Stats.side_manual
      | Error e -> Fmt.str "%s:error:%s" r.name (Rc_lithium.Report.to_string e))
    t.Driver.results
  @ List.map (fun fn -> fn ^ ":skipped") t.Driver.skipped

let check_equivalent ~mk_off ~mk_on path =
  let off = Driver.check_file ~session:(mk_off ()) path in
  let on = Driver.check_file ~session:(mk_on ()) path in
  Alcotest.(check (list string))
    "per-function outcomes" (signature off) (signature on);
  Alcotest.(check int) "exit code" (Driver.exit_code off)
    (Driver.exit_code on);
  Alcotest.(check string) "JSON report" (json off) (json on);
  Alcotest.(check bool)
    "diagnostics identical" true
    (List.equal
       (fun a b -> Rc_util.Diagnostic.compare a b = 0)
       off.Driver.diagnostics on.Driver.diagnostics)

let corpus_equiv_tests =
  List.map
    (fun file ->
      Alcotest.test_case file `Quick (fun () ->
          check_equivalent
            ~mk_off:(fun () -> studies_session ())
            ~mk_on:(fun () -> studies_session ~memo:true ())
            (Filename.concat case_dir file)))
    corpus_files

(* A sample of each stress-corpus family, checked from in-memory source
   so the test leaves no files behind.  They run under the case-study
   session, as the CLI does: lock_farm needs its [lock_t] type. *)
let stress_sample =
  [
    ("diamonds.c", Corpus.diamond_chain ~k:6);
    ("call_chain.c", Corpus.call_chain ~n:6 ());
    ("struct_nest.c", Corpus.struct_nest ~depth:4);
    ("wide_exprs.c", Corpus.wide_exprs ~stmts:4 ~width:3);
    ("loop_farm.c", Corpus.loop_farm ~functions:3 ());
    ("lock_farm.c", Corpus.lock_farm ~functions:3 ());
  ]

let stress_equiv_tests =
  List.map
    (fun (name, src) ->
      Alcotest.test_case name `Quick (fun () ->
          let off =
            Driver.check_source ~session:(studies_session ()) ~file:name src
          in
          let on =
            Driver.check_source
              ~session:(studies_session ~memo:true ())
              ~file:name src
          in
          Alcotest.(check (list string))
            "per-function outcomes" (signature off) (signature on);
          Alcotest.(check string) "JSON report" (json off) (json on);
          Alcotest.(check bool) "verifies" true (Driver.errors off = [])))
    stress_sample

(* The memo must actually fire where it should: the diamond chain's join
   blocks repeat, so a memo-on run reports hits and subsumed
   applications while still counting the same total work. *)
let test_memo_counters () =
  let src = Corpus.diamond_chain ~k:6 in
  let off =
    Driver.check_source ~session:(plain_session ()) ~file:"d.c" src
  in
  let on =
    Driver.check_source ~session:(plain_session ~memo:true ()) ~file:"d.c" src
  in
  let s_off = Driver.stats off and s_on = Driver.stats on in
  Alcotest.(check int)
    "rule_apps independent of memo" s_off.Stats.rule_apps
    s_on.Stats.rule_apps;
  Alcotest.(check int) "no hits without memo" 0 s_off.Stats.memo_hits;
  Alcotest.(check bool) "hits recorded" true (s_on.Stats.memo_hits > 0);
  Alcotest.(check bool)
    "saved apps recorded" true
    (s_on.Stats.memo_saved_apps > 0);
  Alcotest.(check bool)
    "savings bounded by total" true
    (s_on.Stats.memo_saved_apps < s_on.Stats.rule_apps)

(* ------------------------------------------------------------------ *)
(* Parallel determinism with memoization enabled                       *)
(* ------------------------------------------------------------------ *)

(* The memo table lives in the per-check engine state, so [-j 4] workers
   never share one; the report must stay byte-identical to [-j 1]. *)
let parallel_memo_tests =
  List.map
    (fun file ->
      Alcotest.test_case file `Quick (fun () ->
          let path = Filename.concat case_dir file in
          let check jobs =
            Testutil.with_jobs ~jobs (studies_session ~memo:true ())
              (fun session -> Driver.check_file ~session path)
          in
          let seq = check 1 in
          let par = check 4 in
          Alcotest.(check string) "JSON output" (json seq) (json par);
          Alcotest.(check int) "exit code" (Driver.exit_code seq)
            (Driver.exit_code par)))
    [ "hashmap.c"; "bst_layered.c"; "talloc.c" ]

(* ------------------------------------------------------------------ *)
(* Equal-priority tie order                                            *)
(* ------------------------------------------------------------------ *)

(* Rules inside one priority tie have disjoint guards (lint RC-L022), so
   their order may change speed but never a verdict.  The index sort is
   stable, so compiling the reversed rule list reverses every tie at
   once; verdicts, statistics and reports must not move. *)
let reversed_ties_session () =
  let s = Rc_studies.Studies.session () in
  {
    s with
    Session.index =
      Rc_refinedc.Lang.E.index_rules
        (List.rev (Rc_refinedc.Rules.builtin () @ s.Session.extra_rules));
  }

let tie_order_tests =
  let fingerprint (s : Session.t) = Rc_refinedc.Rules.fingerprint s.index in
  Alcotest.test_case "index reordered" `Quick (fun () ->
      Alcotest.(check bool)
        "index fingerprint moved" true
        (fingerprint (studies_session ())
        <> fingerprint (reversed_ties_session ())))
  :: List.map
       (fun file ->
         Alcotest.test_case file `Quick (fun () ->
             check_equivalent
               ~mk_off:(fun () -> studies_session ())
               ~mk_on:reversed_ties_session
               (Filename.concat case_dir file)))
       ("free_list.c" :: "mem_alloc.c" :: corpus_files)

let () =
  Alcotest.run "memo"
    [
      ( "intern",
        [
          Alcotest.test_case "round-trip" `Quick test_intern_roundtrip;
          Alcotest.test_case "bounds" `Quick test_intern_bounds;
          Alcotest.test_case "head ids round-trip to head names" `Quick
            test_head_ids;
        ] );
      ("corpus memo-on = memo-off", corpus_equiv_tests);
      ("stress memo-on = memo-off", stress_equiv_tests);
      ( "memo counters",
        [ Alcotest.test_case "diamond chain" `Quick test_memo_counters ] );
      ("parallel determinism (memo on)", parallel_memo_tests);
      ("reversed ties", tie_order_tests);
    ]
