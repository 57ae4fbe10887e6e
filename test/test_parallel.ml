(* Determinism of the parallel checking pipeline: for every corpus case
   study, a [-j 4] run must be observably identical to the sequential
   [-j 1] run — same per-function verdicts in the same order, the same
   Figure-7 statistics, the same exit code. *)

module Driver = Rc_frontend.Driver
module Stats = Rc_lithium.Stats

let session () = Rc_studies.Studies.session ()

let case_dir =
  List.find Sys.file_exists
    [
      "case_studies"; "../case_studies"; "../../case_studies";
      "../../../case_studies";
    ]

let corpus =
  [
    "linked_list.c"; "queue.c"; "binary_search.c"; "talloc.c";
    "page_alloc.c"; "bst_layered.c"; "bst_direct.c"; "hashmap.c";
    "mpool.c"; "spinlock.c"; "barrier.c";
  ]

(* The observable outcome of one function's check: everything the CLI
   reports except wall-clock time. *)
let outcome_signature (r : Driver.check_result) : string =
  match r.outcome with
  | Ok res ->
      let s = res.Rc_refinedc.Lang.E.stats in
      Fmt.str "%s:ok:apps=%d:distinct=%d:evars=%d:side=%d/%d" r.name
        s.Stats.rule_apps (Stats.distinct_rules s) s.Stats.evar_insts
        s.Stats.side_auto s.Stats.side_manual
  | Error e -> Fmt.str "%s:error:%s" r.name (Rc_lithium.Report.to_string e)

let run_signature (t : Driver.t) : string list =
  List.map outcome_signature t.Driver.results
  @ List.map (fun fn -> fn ^ ":skipped") t.Driver.skipped

(* generated inputs, beside the case studies: [wide_exprs] puts the
   pure solver's per-function scope under the most side conditions *)
let generated =
  [ ("wide_exprs.c", Rc_benchgen.Corpus.wide_exprs ~stmts:10 ~width:3) ]

let determinism_test name (check : jobs:int -> Driver.t) =
  Alcotest.test_case name `Quick (fun () ->
    let seq = check ~jobs:1 in
    let par = check ~jobs:4 in
    Alcotest.(check (list string))
      "per-function outcomes" (run_signature seq) (run_signature par);
    let agg t =
      let s = Driver.stats t in
      Fmt.str "apps=%d evars=%d side=%d/%d" s.Stats.rule_apps
        s.Stats.evar_insts s.Stats.side_auto s.Stats.side_manual
    in
    Alcotest.(check string)
      "aggregate Figure-7 statistics" (agg seq) (agg par);
    Alcotest.(check int)
      "exit code" (Driver.exit_code seq) (Driver.exit_code par);
    (* --json must be byte-identical between -j1 and -j4 once the
       wall-clock fields (the only nondeterministic part of the
       report) are zeroed; per-session stats merge is
       deterministic, so rules_used ordering is too *)
    let json t =
      Rc_util.Jsonout.to_string (Driver.to_json ~timings:false t)
    in
    Alcotest.(check string) "JSON output" (json seq) (json par);
    (* the lint pre-pass runs on by default; its diagnostics are
       part of the JSON above, so they must be deterministically
       ordered — the driver guarantees (file, loc, code) order *)
    Alcotest.(check bool)
      "diagnostics sorted" true
      (Rc_util.Diagnostic.is_sorted seq.Driver.diagnostics);
    Alcotest.(check bool)
      "diagnostics identical across -j" true
      (List.equal
         (fun a b -> Rc_util.Diagnostic.compare a b = 0)
         seq.Driver.diagnostics par.Driver.diagnostics))

let determinism_tests =
  List.map
    (fun file ->
      determinism_test file (fun ~jobs ->
          Testutil.with_jobs ~jobs (session ()) (fun session ->
              Driver.check_file ~session (Filename.concat case_dir file))))
    corpus
  @ List.map
      (fun (file, src) ->
        determinism_test file (fun ~jobs ->
            Testutil.with_jobs ~jobs (session ()) (fun session ->
                Driver.check_source ~session ~file src)))
      generated

(* Worker domains beyond the core count only add overhead, so the CLI
   clamps [-j] to the hardware before sizing the session's pool; the
   run ledger records the worker count the check used. *)
let clamp_tests =
  [
    Alcotest.test_case "-j beyond the cores is clamped" `Quick (fun () ->
        match Testutil.refinedc_exe with
        | None -> () (* exe not built in this sandbox; covered by CI *)
        | Some exe ->
            let dir = Testutil.scratch_dir "clamp" in
            let cmd =
              String.concat " "
                (List.map Filename.quote
                   [
                     exe; "check"; "-j"; "64"; "--runlog"; dir;
                     Filename.concat case_dir "queue.c";
                   ])
              ^ " > /dev/null"
            in
            Alcotest.(check int) "queue.c verifies" 0 (Sys.command cmd);
            let jobs =
              match fst (Rc_util.Runlog.load (Rc_util.Runlog.create dir)) with
              | [ r ] -> Rc_util.Jsonout.number_member "jobs" r
              | rs -> Alcotest.failf "%d ledger records" (List.length rs)
            in
            Alcotest.(check bool)
              "1 <= jobs used <= recommended" true
              (match jobs with
              | Some j ->
                  1. <= j
                  && j <= float_of_int (Rc_util.Supervisor.recommended_jobs ())
              | None -> false));
  ]

(* Fail-fast has one rule at every [-j]: no function starts after one
   whose verdict is an error, and the report keeps the source-order
   prefix up to it.  So the report is the same with and without a pool,
   also when the error is an injected fault. *)
let fail_fast_test name ?fault ~exit_code ~file src =
  Alcotest.test_case name `Quick (fun () ->
      let run ~jobs =
        (* a fresh campaign per run, as it counts its injections *)
        let s =
          Rc_refinedc.Session.with_fault (session ())
            (Option.map (fun f -> f ()) fault)
        in
        Testutil.with_jobs ~jobs s (fun session ->
            Driver.check_source ~session ~fail_fast:true ~file src)
      in
      let json t =
        Rc_util.Jsonout.to_string (Driver.to_json ~timings:false t)
      in
      let seq = run ~jobs:1 and par = run ~jobs:4 in
      Alcotest.(check int) "exit code without a pool" exit_code
        (Driver.exit_code seq);
      Alcotest.(check string) "JSON output" (json seq) (json par))

let fail_fast_tests =
  [
    (* verified and failing functions interleaved, two kinds of failure *)
    fail_fast_test "several failing functions" ~exit_code:1 ~file:"multi.c"
      (String.concat "\n"
         (List.map
            (fun (name, returns, body) ->
              Printf.sprintf
                {|[[rc::parameters("x: int")]] [[rc::args("x @ int<int>")]]
[[rc::returns("%s @ int<int>")]] int %s(int n) { return %s; }|}
                returns name body)
            [
              ("keep", "x", "n"); ("bump", "(x + 1)", "n + 2");
              ("same", "x", "n"); ("weird", "x", "n ^ 1");
              ("last", "(x + 1)", "n + 1");
            ]));
    (* every solver call faults, so the first function that reaches one
       halts the run; uncapped, so which function that is does not
       depend on the schedule *)
    fail_fast_test "an injected fault halts at every -j" ~exit_code:2
      ~fault:(fun () ->
        Rc_util.Faultsim.create ~rate:1.0 ~sites:[ "solver" ] 1)
      ~file:"binary_search.c"
      (In_channel.with_open_bin
         (Filename.concat case_dir "binary_search.c")
         In_channel.input_all);
  ]

let () =
  Alcotest.run "parallel"
    [
      ("determinism", determinism_tests);
      ("clamp", clamp_tests);
      ("fail-fast", fail_fast_tests);
    ]
