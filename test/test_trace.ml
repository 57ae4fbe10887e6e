(* The observability layer: span-tree well-formedness, determinism of
   the exported trace and metrics across [-j N], the zero-cost disabled
   path, and composition with the verification cache and with
   fault-injection campaigns.

   The determinism contract under test (DESIGN.md §7): the *logical*
   event sequence — span names, nesting, categories, arguments, counter
   values — is a pure function of the session configuration and the
   source.  Only timestamps, durations and the [sched] category (task →
   domain placement) may differ between runs, and [~normalize:true]
   erases exactly those. *)

module Driver = Rc_frontend.Driver
module Session = Rc_refinedc.Session
module Trace = Rc_util.Trace
module Metrics = Rc_util.Metrics
module Obs = Rc_util.Obs
module Stats = Rc_lithium.Stats
module Faultsim = Rc_util.Faultsim

let case_dir =
  List.find Sys.file_exists
    [
      "case_studies"; "../case_studies"; "../../case_studies";
      "../../../case_studies";
    ]

let obs_cfg = { Obs.c_trace = true; c_metrics = true }

let session () = Session.with_obs (Rc_studies.Studies.session ()) obs_cfg

let check ?(session = session ()) ?(jobs = 1) ?cache file =
  Testutil.with_jobs ~jobs session (fun session ->
      Driver.check_file ~session ?cache (Filename.concat case_dir file))

(* ------------------------------------------------------------------ *)
(* Stats.merge                                                         *)
(* ------------------------------------------------------------------ *)

let stats_merge_tests =
  [
    Alcotest.test_case "merge is associative" `Quick (fun () ->
        let mk tag =
          let s = Stats.create () in
          Stats.record_side s (Rc_pure.Registry.Via_lemma tag);
          Stats.record_side s Rc_pure.Registry.Auto;
          Stats.add_rule_uses s ("r" ^ tag) 1;
          s
        in
        let left = mk "1" in
        Stats.merge left (mk "2");
        Stats.merge left (mk "3");
        let right23 = mk "2" in
        Stats.merge right23 (mk "3");
        let right = mk "1" in
        Stats.merge right right23;
        Alcotest.check Testutil.stats "(1+2)+3 = 1+(2+3)" left right;
        Alcotest.(check int) "manual count" 3 left.Stats.side_manual);
  ]

(* ------------------------------------------------------------------ *)
(* Trace primitives                                                    *)
(* ------------------------------------------------------------------ *)

let primitive_tests =
  [
    Alcotest.test_case "check_balance accepts a balanced trace" `Quick
      (fun () ->
        let t = Trace.make () in
        Trace.span_begin t ~cat:"x" "outer";
        Trace.span_begin t ~cat:"x" "inner";
        Trace.span_end t ~cat:"x" "inner";
        Trace.instant t ~cat:"x" "tick";
        Trace.span_end t ~cat:"x" "outer";
        Alcotest.(check (list string)) "no issues" [] (Trace.check_balance t));
    Alcotest.test_case "check_balance flags unclosed and mismatched spans"
      `Quick (fun () ->
        let t = Trace.make () in
        Trace.span_begin t ~cat:"x" "a";
        Trace.span_end t ~cat:"x" "b";
        Trace.span_begin t ~cat:"x" "c";
        Alcotest.(check int)
          "two issues" 2
          (List.length (Trace.check_balance t)));
    Alcotest.test_case "normalize strips sched and zeroes time" `Quick
      (fun () ->
        let t = Trace.make () in
        Trace.instant t ~cat:"sched" "task:begin";
        Trace.span_begin t ~cat:"check" "fn:f";
        Trace.span_end t ~cat:"check" "fn:f";
        let s = Trace.to_chrome_string ~normalize:true t in
        Alcotest.(check bool)
          "no sched events" false
          (try
             ignore (Str.search_forward (Str.regexp_string "sched") s 0);
             true
           with Not_found -> false);
        Alcotest.(check bool)
          "fn span survives" true
          (try
             ignore (Str.search_forward (Str.regexp_string "fn:f") s 0);
             true
           with Not_found -> false));
    Alcotest.test_case "timestamps 1 us apart stay distinct and ordered"
      `Quick (fun () ->
        (* an hour into the process: absolute microseconds would need
           more digits than a float's short form keeps *)
        let t = Trace.make () in
        Trace.name_lane t ~tid:0 "main";
        let start = 3_600_000_000_000L in
        Trace.complete t ~cat:"x" ~start_ns:start ~dur_ns:2_500L "a";
        Trace.complete t ~cat:"x" ~start_ns:(Int64.add start 1_000L)
          ~dur_ns:0L "b";
        let open Rc_util.Jsonout in
        let times =
          match Trace.to_chrome_json t with
          | Obj (("traceEvents", List evs) :: _) ->
              List.filter_map
                (function
                  | Obj fs when List.assoc "ph" fs = Str "X" ->
                      Some (List.assoc "ts" fs, List.assoc "dur" fs)
                  | _ -> None)
                evs
          | _ -> Alcotest.fail "trace shape"
        in
        Alcotest.(check bool)
          "ts relative to the first event, whole microseconds" true
          (times = [ (Int 0, Int 2); (Int 1, Int 0) ]));
    Alcotest.test_case "disabled tracer records nothing" `Quick (fun () ->
        let t = Trace.off in
        Trace.span_begin t ~cat:"x" "a";
        Trace.instant t ~cat:"x" "b";
        Trace.span_end t ~cat:"x" "a";
        Alcotest.(check int) "no events" 0 (Trace.event_count t));
    Alcotest.test_case "metrics merge is deterministic and additive" `Quick
      (fun () ->
        let a = Metrics.make () and b = Metrics.make () in
        Metrics.incr a "k";
        Metrics.incr b ~by:2 "k";
        Metrics.observe_ns a "t" 100L;
        Metrics.observe_ns b "t" 200L;
        Metrics.merge a b;
        Alcotest.(check int) "counter" 3 (Metrics.counter a "k");
        Alcotest.(check int) "timer count" 2 (Metrics.timer_count a "t");
        Alcotest.(check int64)
          "timer total" 300L
          (Metrics.timer_total_ns a "t"));
  ]

(* ------------------------------------------------------------------ *)
(* Pipeline traces                                                     *)
(* ------------------------------------------------------------------ *)

let norm_trace (t : Driver.t) =
  Trace.to_chrome_string ~normalize:true (Obs.tr t.Driver.obs)

let norm_metrics (t : Driver.t) =
  Rc_util.Jsonout.to_string
    (Metrics.to_json ~timings:false (Obs.mx t.Driver.obs))

(* The counters the engine credits from each run's [Stats], against the
   report's merged [Stats]; and the rule timers behind [--profile]'s
   per-rule [apps], against the same [Stats]. *)
let check_mirror (t : Driver.t) =
  let m = Obs.mx t.Driver.obs in
  let s = Driver.stats t in
  List.iter
    (fun (name, n) -> Alcotest.(check int) name n (Metrics.counter m name))
    [
      ("evar.insts", s.Stats.evar_insts);
      ("side.auto", s.Stats.side_auto);
      ("side.manual", s.Stats.side_manual);
      ("memo.hit", s.Stats.memo_hits);
    ];
  let rule_apps = Metrics.counters_with_prefix m ~prefix:"rule.apps." in
  let rules_used =
    List.sort compare
      (Hashtbl.fold (fun k n l -> (k, n) :: l) s.Stats.rules_used [])
  in
  Alcotest.(check int)
    "rule.apps.*" s.Stats.rule_apps
    (List.fold_left (fun acc (_, n) -> acc + n) 0 rule_apps);
  Alcotest.(check (list (pair string int)))
    "rule.apps.<rule> = rules_used" rules_used rule_apps;
  (* the rule timers count the applications actually run: all of
     [rules_used] without memo, less what replays credited with it *)
  let timed =
    List.map
      (fun (name, count, _) -> (name, count))
      (Metrics.timers_with_prefix m ~prefix:"rule.self_ns.")
  in
  if s.Stats.memo_hits = 0 then
    Alcotest.(check (list (pair string int)))
      "rule.self_ns.<rule> counts = rules_used" rules_used timed
  else begin
    Alcotest.(check bool) "rules are timed" true (timed <> []);
    List.iter
      (fun (name, count) ->
        Alcotest.(check bool)
          ("timed apps of " ^ name ^ " within rules_used")
          true
          (count <= Option.value ~default:0 (List.assoc_opt name rules_used)))
      timed
  end

let pipeline_tests =
  [
    Alcotest.test_case "trace is balanced and non-empty" `Quick (fun () ->
        let t = check "binary_search.c" in
        let tr = Obs.tr t.Driver.obs in
        Alcotest.(check bool) "has events" true (Trace.event_count tr > 0);
        Alcotest.(check (list string)) "balanced" [] (Trace.check_balance tr);
        (* the span tree covers all layers of the pipeline *)
        let s = Trace.to_chrome_string tr in
        List.iter
          (fun needle ->
            Alcotest.(check bool) (needle ^ " present") true
              (try
                 ignore (Str.search_forward (Str.regexp_string needle) s 0);
                 true
               with Not_found -> false))
          [ "phase:parse"; "phase:elab"; "phase:check"; "rule:"; "solve" ])
    ;
    Alcotest.test_case "metrics mirror the Figure-7 statistics" `Quick
      (fun () ->
        check_mirror (check "binary_search.c");
        (* memo replays merge their subtree's work into [Stats]; the
           counters must carry it too *)
        let memo =
          Driver.check_source
            ~session:
              (Rc_session.Refinedc_api.create_session ~obs:obs_cfg ~memo:true
                 ())
            ~file:"diamonds.c"
            (Rc_benchgen.Corpus.diamond_chain ~k:6)
        in
        Alcotest.(check bool)
          "memo hits" true
          ((Driver.stats memo).Stats.memo_hits > 0);
        check_mirror memo);
    Alcotest.test_case "-j1 and -j4 traces are byte-identical normalized"
      `Quick (fun () ->
        let seq = check ~jobs:1 "hashmap.c" in
        let par = check ~jobs:4 "hashmap.c" in
        Alcotest.(check string)
          "normalized trace" (norm_trace seq) (norm_trace par);
        Alcotest.(check string)
          "count-only metrics" (norm_metrics seq) (norm_metrics par));
    Alcotest.test_case "observability off means no trace, no metrics"
      `Quick (fun () ->
        let t =
          Driver.check_file
            ~session:(Rc_studies.Studies.session ())
            (Filename.concat case_dir "binary_search.c")
        in
        Alcotest.(check bool) "obs off" false (Obs.on t.Driver.obs);
        Alcotest.(check int)
          "no events" 0
          (Trace.event_count (Obs.tr t.Driver.obs));
        Alcotest.(check string)
          "metrics block is null" "null"
          (Rc_util.Jsonout.to_string
             (Metrics.to_json (Obs.mx t.Driver.obs))));
    Alcotest.test_case "verdicts unchanged by observability" `Quick
      (fun () ->
        let on = check "queue.c" in
        let off =
          Driver.check_file
            ~session:(Rc_studies.Studies.session ())
            (Filename.concat case_dir "queue.c")
        in
        Alcotest.(check string)
          "same report"
          (Rc_util.Jsonout.to_string (Driver.to_json ~timings:false off))
          (Rc_util.Jsonout.to_string
             (Driver.to_json ~timings:false
                { on with Driver.obs = Obs.off })))
    ;
  ]

(* ------------------------------------------------------------------ *)
(* Composition: cache and fault injection                              *)
(* ------------------------------------------------------------------ *)

(* distinct scratch directory per run ({!Rc_util.Vercache.create} makes
   the directory itself) *)
let tmpdir prefix =
  let base = Filename.temp_file prefix "" in
  Sys.remove base;
  base ^ "-d"

let composition_tests =
  [
    Alcotest.test_case "cache hits/misses recorded in metrics" `Quick
      (fun () ->
        let dir = tmpdir "rc-trace-cache" in
        let cache = Rc_util.Vercache.create dir in
        let cold = check ~cache "linked_list.c" in
        let warm = check ~cache "linked_list.c" in
        let n = List.length cold.Driver.results in
        let counter t k = Metrics.counter (Obs.mx t.Driver.obs) k in
        Alcotest.(check int) "cold misses" n (counter cold "cache.miss");
        Alcotest.(check int) "cold hits" 0 (counter cold "cache.hit");
        Alcotest.(check int) "warm hits" n (counter warm "cache.hit");
        Alcotest.(check int) "warm misses" 0 (counter warm "cache.miss");
        (match warm.Driver.cache_stats with
        | Some (hits, misses) ->
            Alcotest.(check int) "metrics agree with cache_stats (hits)"
              hits (counter warm "cache.hit");
            Alcotest.(check int) "metrics agree with cache_stats (misses)"
              misses (counter warm "cache.miss")
        | None -> Alcotest.fail "expected cache stats");
        Alcotest.(check (list string))
          "warm trace still balanced" []
          (Trace.check_balance (Obs.tr warm.Driver.obs)));
    Alcotest.test_case "trace stays balanced under injected faults" `Quick
      (fun () ->
        (* a campaign that kills the first solver call: the rule spans
           open at the crash must be closed during unwinding, so the
           exported trace still balances *)
        let campaign =
          Faultsim.create ~rate:1.0 ~sites:[ "solver" ] ~max_faults:1 42
        in
        let session =
          Session.with_obs
            (Session.with_fault
               (Rc_studies.Studies.session ())
               (Some campaign))
            obs_cfg
        in
        let t = check ~session "binary_search.c" in
        Alcotest.(check bool)
          "campaign fired" true
          (List.length (Driver.faults t) > 0);
        let tr = Obs.tr t.Driver.obs in
        Alcotest.(check bool) "has events" true (Trace.event_count tr > 0);
        Alcotest.(check (list string)) "balanced" [] (Trace.check_balance tr));
    Alcotest.test_case "trace stays balanced under an exhausted budget"
      `Quick (fun () ->
        let session =
          Session.with_obs
            (Session.with_budget
               (Rc_studies.Studies.session ())
               { Rc_util.Budget.fuel = Some 10; timeout = None;
                 max_depth = None })
            obs_cfg
        in
        let t = check ~session "hashmap.c" in
        Alcotest.(check bool)
          "budget fired" true
          (List.length (Driver.faults t) > 0);
        let m = Obs.mx t.Driver.obs in
        Alcotest.(check bool)
          "budget counter recorded" true
          (Metrics.counter m "budget.out_of_fuel" > 0);
        Alcotest.(check (list string))
          "balanced" []
          (Trace.check_balance (Obs.tr t.Driver.obs)));
  ]

let () =
  Alcotest.run "trace"
    [
      ("stats_merge", stats_merge_tests);
      ("primitives", primitive_tests);
      ("pipeline", pipeline_tests);
      ("composition", composition_tests);
    ]
