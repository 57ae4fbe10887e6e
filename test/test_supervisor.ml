(* The supervised persistent worker pool.

   Contract under test:
   - [Supervisor.run] preserves input order and isolates per-task
     crashes ([Stack_overflow] included) as structured [Fault]s;
   - transient faults are retried with backoff and converge; retry
     exhaustion reports the attempt count; deterministic results are
     never retried;
   - whole-run deadlines and cooperative cancellation stop *starting*
     tasks, resolving the rest as [Not_run] — completed results are
     never discarded;
   - a task whose final value satisfies [~halt] stops later tasks from
     starting, with or without a pool, and is no supervision event;
   - a pool's workers live until [shutdown]; a batch on a shut-down
     pool is drained by the calling domain and still completes;
   - at the driver level, a chaos campaign over the corpus at the cache
     sites never changes any non-faulted verdict, [-j 1] and
     [-j 4] agree under injection, and deadline/cancel produce partial
     reports with the documented exit codes. *)

module Supervisor = Rc_util.Supervisor
module Faultsim = Rc_util.Faultsim
module Driver = Rc_frontend.Driver
module Report = Rc_lithium.Report
module Session = Rc_refinedc.Session

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

let path f = Filename.concat case_dir f

let with_pool ?jobs k =
  let p = Supervisor.create ?jobs () in
  Fun.protect ~finally:(fun () -> Supervisor.shutdown p) (fun () -> k p)

let value_exn = function
  | Supervisor.Done v -> v
  | Supervisor.Fault f -> Alcotest.failf "unexpected fault: %s" f.f_exn
  | Supervisor.Not_run _ -> Alcotest.fail "unexpected Not_run"

(* ---------------------------------------------------------------- *)
(* Unit: the supervisor engine                                       *)
(* ---------------------------------------------------------------- *)

let unit_tests =
  [
    Alcotest.test_case "run preserves input order" `Quick (fun () ->
        with_pool ~jobs:4 (fun p ->
            let xs = List.init 100 Fun.id in
            let outs, stats = Supervisor.run (Some p) succ xs in
            Alcotest.(check (list int))
              "order" (List.map succ xs) (List.map value_exn outs);
            Alcotest.(check int) "no retries" 0 stats.Supervisor.rs_retries));
    Alcotest.test_case "a crashing task is confined to its slot" `Quick
      (fun () ->
        with_pool ~jobs:4 (fun p ->
            let outs, stats =
              Supervisor.run (Some p)
                (fun i -> if i = 37 then failwith "boom" else i)
                (List.init 100 Fun.id)
            in
            List.iteri
              (fun i o ->
                match o with
                | Supervisor.Done v -> Alcotest.(check int) "value" i v
                | Supervisor.Fault f ->
                    Alcotest.(check int) "only 37 faults" 37 i;
                    Alcotest.(check int) "one attempt" 1 f.Supervisor.f_attempts
                | Supervisor.Not_run _ -> Alcotest.fail "Not_run")
              outs;
            Alcotest.(check int) "one task fault" 1
              stats.Supervisor.rs_task_faults));
    Alcotest.test_case "Stack_overflow is isolated too" `Quick (fun () ->
        with_pool ~jobs:2 (fun p ->
            let rec blow (n : int) : int = 1 + blow (n + 1) in
            let outs, _ =
              Supervisor.run (Some p)
                (fun i -> if i = 1 then blow 0 else i)
                [ 0; 1; 2 ]
            in
            match outs with
            | [ Supervisor.Done 0; Supervisor.Fault f; Supervisor.Done 2 ] ->
                Alcotest.(check bool) "names the overflow" true
                  (f.Supervisor.f_exn = Printexc.to_string Stack_overflow)
            | _ -> Alcotest.fail "wrong shape"));
    Alcotest.test_case "transient exceptions are retried and converge"
      `Quick (fun () ->
        let attempts = Array.make 5 0 in
        let outs, stats =
          Supervisor.run None ~retries:3
            ~is_transient:(function Failure _ -> true | _ -> false)
            (fun i ->
              attempts.(i) <- attempts.(i) + 1;
              if i = 2 && attempts.(i) <= 2 then failwith "flaky" else i)
            (List.init 5 Fun.id)
        in
        Alcotest.(check (list int))
          "all converge" [ 0; 1; 2; 3; 4 ] (List.map value_exn outs);
        Alcotest.(check int) "two retries" 2 stats.Supervisor.rs_retries;
        Alcotest.(check int) "third attempt won" 3 attempts.(2));
    Alcotest.test_case "retry exhaustion reports the attempt count" `Quick
      (fun () ->
        let outs, stats =
          Supervisor.run None ~retries:2
            ~is_transient:(fun _ -> true)
            (fun () -> failwith "always")
            [ () ]
        in
        (match outs with
        | [ Supervisor.Fault f ] ->
            Alcotest.(check int) "attempts" 3 f.Supervisor.f_attempts
        | _ -> Alcotest.fail "expected one fault");
        Alcotest.(check int) "retries counted" 2 stats.Supervisor.rs_retries);
    Alcotest.test_case "deterministic results are never retried" `Quick
      (fun () ->
        let calls = ref 0 in
        let outs, stats =
          Supervisor.run None ~retries:5
            ~should_retry:(fun _ -> false)
            (fun i ->
              incr calls;
              i * 2)
            [ 1; 2; 3 ]
        in
        Alcotest.(check (list int)) "values" [ 2; 4; 6 ]
          (List.map value_exn outs);
        Alcotest.(check int) "one call each" 3 !calls;
        Alcotest.(check int) "no retries" 0 stats.Supervisor.rs_retries);
    Alcotest.test_case "deadline stops starting tasks" `Quick (fun () ->
        let outs, stats =
          Supervisor.run None ~deadline:0.02
            (fun i ->
              Unix.sleepf 0.03;
              i)
            (List.init 5 Fun.id)
        in
        let done_, not_run =
          List.partition
            (function Supervisor.Done _ -> true | _ -> false)
            outs
        in
        Alcotest.(check bool) "some ran" true (done_ <> []);
        Alcotest.(check bool) "some skipped" true (not_run <> []);
        Alcotest.(check bool) "stopped by deadline" true
          (stats.Supervisor.rs_stop = Some Supervisor.Deadline);
        Alcotest.(check int) "accounted" (List.length not_run)
          stats.Supervisor.rs_not_run);
    Alcotest.test_case "a deadline past the clock's range never expires"
      `Quick (fun () ->
        (* [s *. 1e9] nanoseconds past ~292 years does not fit an [int64] *)
        List.iter
          (fun deadline ->
            let outs, stats =
              Supervisor.run None ~deadline Fun.id (List.init 3 Fun.id)
            in
            Alcotest.(check (list int))
              (Printf.sprintf "all ran under %g" deadline) [ 0; 1; 2 ]
              (List.map value_exn outs);
            Alcotest.(check bool) "no stop" true
              (stats.Supervisor.rs_stop = None))
          [ 1e10; 1e300; Float.infinity ];
        let b =
          Rc_util.Budget.start
            { Rc_util.Budget.unlimited with timeout = Some Float.infinity }
        in
        Alcotest.(check bool) "an infinite timeout has room" true
          (Rc_util.Budget.step b = None));
    Alcotest.test_case "cancel resolves the remainder as Not_run" `Quick
      (fun () ->
        let polls = ref 0 in
        let outs, stats =
          Supervisor.run None
            ~cancel:(fun () ->
              incr polls;
              !polls > 2)
            Fun.id (List.init 6 Fun.id)
        in
        let not_run =
          List.filter
            (function
              | Supervisor.Not_run Supervisor.Cancelled -> true | _ -> false)
            outs
        in
        Alcotest.(check int) "four cancelled" 4 (List.length not_run);
        Alcotest.(check bool) "stop reason" true
          (stats.Supervisor.rs_stop = Some Supervisor.Cancelled));
    Alcotest.test_case "cancellation interrupts a retry storm" `Quick
      (fun () ->
        (* a huge retry budget on a persistently-faulting task must not
           make the run uninterruptible: once cancel flips, the attempt
           loop gives up and keeps the last attempt's outcome *)
        let attempts = ref 0 in
        let outs, stats =
          Supervisor.run None ~retries:1_000_000
            ~cancel:(fun () -> !attempts >= 5)
            ~is_transient:(fun _ -> true)
            (fun () ->
              incr attempts;
              failwith "persistent")
            [ () ]
        in
        (match outs with
        | [ Supervisor.Fault f ] ->
            Alcotest.(check bool) "gave up early" true
              (f.Supervisor.f_attempts < 10)
        | _ -> Alcotest.fail "expected one fault");
        Alcotest.(check bool) "few retries" true
          (stats.Supervisor.rs_retries < 10));
    Alcotest.test_case "the deadline interrupts a retry storm" `Quick
      (fun () ->
        let t0 = Unix.gettimeofday () in
        let outs, _ =
          Supervisor.run None ~retries:1_000_000 ~deadline:0.02
            ~is_transient:(fun _ -> true)
            (fun () -> failwith "persistent")
            [ () ]
        in
        let elapsed = Unix.gettimeofday () -. t0 in
        (match outs with
        | [ Supervisor.Fault _ ] -> ()
        | _ -> Alcotest.fail "expected one fault");
        Alcotest.(check bool) "bounded by the deadline" true (elapsed < 2.));
    Alcotest.test_case "halt starts nothing after the halting task" `Quick
      (fun () ->
        (* task 3's value halts the run: tasks 0-3 reach their values, a
           later one may only resolve [Halted] (without a pool, all do),
           and a halt is no supervision event *)
        let check pool =
          let outs, stats =
            Supervisor.run pool ~halt:(( = ) 3) Fun.id (List.init 10 Fun.id)
          in
          Alcotest.(check bool) "not counted" true
            (stats.Supervisor.rs_not_run = 0
            && stats.Supervisor.rs_stop = None);
          List.mapi (fun i o -> (i, o)) outs
        in
        let halted = Supervisor.Not_run Supervisor.Halted in
        Alcotest.(check bool) "no pool: the rest halted" true
          (List.for_all
             (fun (i, o) -> o = if i <= 3 then Supervisor.Done i else halted)
             (check None));
        with_pool ~jobs:4 (fun p ->
            Alcotest.(check bool) "pool: done, or halted after 3" true
              (List.for_all
                 (fun (i, o) -> o = Supervisor.Done i || (i > 3 && o = halted))
                 (check (Some p)))));
    Alcotest.test_case "a batch on a shut-down pool still completes" `Quick
      (fun () ->
        let p = Supervisor.create ~jobs:2 () in
        Supervisor.shutdown p;
        let outs, _ = Supervisor.run (Some p) succ (List.init 5 Fun.id) in
        Alcotest.(check (list int))
          "the calling domain drains it" [ 1; 2; 3; 4; 5 ]
          (List.map value_exn outs));
    Alcotest.test_case "a pool survives many batches" `Quick (fun () ->
        with_pool ~jobs:4 (fun p ->
            for round = 1 to 20 do
              let outs, _ =
                Supervisor.run (Some p)
                  (fun i -> (i * round) + 1)
                  (List.init 8 Fun.id)
              in
              Alcotest.(check (list int))
                "round values"
                (List.init 8 (fun i -> (i * round) + 1))
                (List.map value_exn outs)
            done));
  ]

(* ---------------------------------------------------------------- *)
(* Corpus chaos campaigns (driver level)                             *)
(* ---------------------------------------------------------------- *)

(* same observable signature as test_parallel: everything the CLI
   reports except wall-clock time *)
let outcome_signature (r : Driver.check_result) : string =
  match r.outcome with
  | Ok res ->
      let s = res.Rc_refinedc.Lang.E.stats in
      Fmt.str "%s:ok:apps=%d:evars=%d:side=%d/%d" r.name
        s.Rc_lithium.Stats.rule_apps s.Rc_lithium.Stats.evar_insts
        s.Rc_lithium.Stats.side_auto s.Rc_lithium.Stats.side_manual
  | Error e -> Fmt.str "%s:error:%s" r.name (Report.kind_label e.Report.kind)

let run_signature (t : Driver.t) : string list =
  List.map outcome_signature t.Driver.results
  @ List.map (fun fn -> fn ^ ":skipped") t.Driver.skipped

let chaos_session ?(retries = 0) ?pool ~sites ~rate ?max_faults seed =
  let campaign = Faultsim.create ~rate ~sites ?max_faults seed in
  let s = Session.with_fault (session ()) (Some campaign) in
  Session.with_exec s
    {
      Session.default_exec with
      Session.x_retries = retries;
      Session.x_pool = pool;
    }

(* an unclamped session pool (unlike {!Testutil.with_jobs}), so the
   pool's dispatch path is exercised even on a single-core host, where
   a pool clamped to the cores would be no pool at all *)
let with_session_pool k =
  let p = Supervisor.create ~jobs:4 () in
  Fun.protect ~finally:(fun () -> Supervisor.shutdown p) (fun () -> k p)

let fresh_cache tag =
  Rc_util.Vercache.create (Testutil.scratch_dir ("supcache_" ^ tag))

(* (a) injected cache corruption never changes a verdict: every
   function of the chaos run on a pool must report exactly the
   fault-free verdict — these sites only cost cache misses and skipped
   stores, never checker faults *)
let verdict_equivalence_tests =
  List.map
    (fun file ->
      Alcotest.test_case file `Quick (fun () ->
          let clean = Driver.check_file ~session:(session ()) (path file) in
          with_session_pool (fun pool ->
              let s =
                chaos_session ~pool ~sites:[ "cache.read"; "cache.write" ]
                  ~rate:0.3 ~max_faults:8 1234
              in
              let cache = fresh_cache ("eq_" ^ file) in
              let chaos = Driver.check_file ~session:s ~cache (path file) in
              Alcotest.(check (list string))
                "verdicts identical under injection" (run_signature clean)
                (run_signature chaos);
              Alcotest.(check int)
                "exit codes agree" (Driver.exit_code clean)
                (Driver.exit_code chaos))))
    corpus

(* (b) transient solver faults converge under the retry policy: the
   campaign's injection cap is exhausted by the first attempts, the
   retries then re-prove cleanly *)
let retry_convergence_tests =
  List.map
    (fun file ->
      Alcotest.test_case file `Quick (fun () ->
          let clean = Driver.check_file ~session:(session ()) (path file) in
          let s =
            chaos_session ~retries:3 ~sites:[ "solver" ] ~rate:1.0
              ~max_faults:2 99
          in
          let chaos = Driver.check_file ~session:s (path file) in
          Alcotest.(check (list string))
            "retried transients converge to the clean verdicts"
            (run_signature clean) (run_signature chaos);
          Alcotest.(check bool)
            "retries actually happened" true
            (chaos.Driver.exec_stats.Supervisor.rs_retries >= 1)))
    (* spinlock/barrier never reach a named solver, so they cannot
       exercise the "solver" site — use studies that do *)
    [ "linked_list.c"; "hashmap.c"; "queue.c" ]

(* (c) -j 1 and -j 4 agree under injection at the cache sites:
   identically-configured (separately-owned) campaigns, same verdict
   signatures *)
let jobs_equivalence_tests =
  List.map
    (fun file ->
      Alcotest.test_case file `Quick (fun () ->
          let run ?pool tag =
            let s =
              chaos_session ?pool ~sites:[ "cache.read"; "cache.write" ]
                ~rate:0.25 ~max_faults:6 555
            in
            let cache = fresh_cache (Fmt.str "j%s_%s" tag file) in
            Driver.check_file ~session:s ~cache (path file)
          in
          let seq = run "1" in
          let par = with_session_pool (fun pool -> run ~pool "4") in
          Alcotest.(check (list string))
            "-j1 = -j4 under injection" (run_signature seq)
            (run_signature par);
          Alcotest.(check int)
            "exit codes agree" (Driver.exit_code seq) (Driver.exit_code par)))
    corpus

(* ---------------------------------------------------------------- *)
(* Partial reports: deadline and cancellation                        *)
(* ---------------------------------------------------------------- *)

let partial_report_tests =
  [
    Alcotest.test_case "hit deadline yields a partial report, exit 2" `Quick
      (fun () ->
        let s =
          Session.with_exec (session ())
            { Session.default_exec with Session.x_deadline = Some 1e-6 }
        in
        let t = Driver.check_file ~session:s (path "hashmap.c") in
        Alcotest.(check bool) "stopped by deadline" true
          (t.Driver.stop = Driver.Deadline);
        Alcotest.(check bool) "skipped listed" true (t.Driver.skipped <> []);
        Alcotest.(check int) "exit 2" 2 (Driver.exit_code t);
        let j = Rc_util.Jsonout.to_string (Driver.to_json t) in
        Alcotest.(check bool) "json says deadline" true
          (let re = Str.regexp_string "\"stop\":\"deadline\"" in
           try
             ignore (Str.search_forward re j 0);
             true
           with Not_found -> false));
    Alcotest.test_case "cancellation keeps completed verdicts, exit 130"
      `Quick (fun () ->
        let polls = ref 0 in
        let s =
          Session.with_exec (session ())
            {
              Session.default_exec with
              Session.x_cancel =
                Some
                  (fun () ->
                    incr polls;
                    !polls > 1);
            }
        in
        let t = Driver.check_file ~session:s (path "hashmap.c") in
        Alcotest.(check bool) "interrupted" true
          (t.Driver.stop = Driver.Interrupted);
        Alcotest.(check int) "one completed verdict" 1
          (List.length t.Driver.results);
        Alcotest.(check bool) "its verdict is intact" true
          (List.for_all
             (fun (r : Driver.check_result) -> Result.is_ok r.outcome)
             t.Driver.results);
        Alcotest.(check int) "exit 130" 130 (Driver.exit_code t);
        let j = Rc_util.Jsonout.to_string (Driver.to_json t) in
        Alcotest.(check bool) "json interrupted flag" true
          (let re = Str.regexp_string "\"interrupted\":true" in
           try
             ignore (Str.search_forward re j 0);
             true
           with Not_found -> false));
    Alcotest.test_case "no deadline, no cancel: exec stats are all zero"
      `Quick (fun () ->
        let t = Driver.check_file ~session:(session ()) (path "queue.c") in
        let e = t.Driver.exec_stats in
        Alcotest.(check int) "retries" 0 e.Supervisor.rs_retries;
        Alcotest.(check int) "not_run" 0 e.Supervisor.rs_not_run;
        Alcotest.(check bool) "completed" true (t.Driver.stop = Driver.Completed));
  ]

let () =
  Alcotest.run "supervisor"
    [
      ("unit", unit_tests);
      ("verdict-equivalence", verdict_equivalence_tests);
      ("retry-convergence", retry_convergence_tests);
      ("jobs-equivalence", jobs_equivalence_tests);
      ("partial-reports", partial_report_tests);
    ]
