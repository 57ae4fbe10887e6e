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
          Driver.check_file ~session:(session ()) ~jobs
            (Filename.concat case_dir file)))
    corpus
  @ List.map
      (fun (file, src) ->
        determinism_test file (fun ~jobs ->
            Driver.check_source ~session:(session ()) ~jobs ~file src))
      generated

(* Worker domains beyond the core count only add overhead, so the
   driver clamps [-j] to the hardware before sizing its pool. *)
let clamp_tests =
  [
    Alcotest.test_case "-j beyond the cores is clamped" `Quick (fun () ->
        let path = Filename.concat case_dir "queue.c" in
        let t = Driver.check_file ~session:(session ()) ~jobs:64 path in
        Alcotest.(check bool)
          "1 <= jobs used <= recommended" true
          (1 <= t.Driver.jobs
          && t.Driver.jobs <= Rc_util.Supervisor.recommended_jobs ()));
  ]

let () =
  Alcotest.run "parallel"
    [ ("determinism", determinism_tests); ("clamp", clamp_tests) ]
