(* Robustness of the verification pipeline: resource budgets, fault
   isolation, and seeded fault-injection campaigns.

   The contract under test (ISSUE 1):
   - proof search honours per-function budgets (fuel / wall-clock /
     depth) and reports exhaustion as a structured [Resource_exhausted]
     diagnostic instead of hanging;
   - a crash in one function's check (simulated by deterministic fault
     injection at solver calls, rule lookup, and evar resolution) is
     isolated: the driver never lets an exception escape, the failed
     function carries a structured report, and the other functions still
     verify;
   - with injection disarmed and budgets unlimited, behaviour is
     bit-for-bit the seed behaviour: all case studies verify with
     identical Figure 7 statistics. *)

module Driver = Rc_frontend.Driver
module Report = Rc_lithium.Report
module Budget = Rc_util.Budget
module Faultsim = Rc_util.Faultsim
module Session = Rc_refinedc.Session

let session () = Rc_studies.Studies.session ()
let budgeted budget = Session.with_budget (session ()) budget

(* a session with its own fault-injection campaign: campaigns are values
   owned by exactly one session, so two sessions never observe each
   other's injections *)
let faulty ?rate ?sites ?max_faults seed =
  let campaign = Faultsim.create ?rate ?sites ?max_faults seed in
  let s =
    Rc_refinedc.Session.with_fault (session ()) (Some campaign)
  in
  (s, campaign)

let case_dir =
  List.find Sys.file_exists
    [
      "case_studies"; "../case_studies"; "../../case_studies";
      "../../../case_studies";
    ]

(* the 11 case studies of Figure 7 (bench corpus) *)
let corpus =
  [
    "linked_list.c"; "queue.c"; "binary_search.c"; "talloc.c";
    "page_alloc.c"; "bst_layered.c"; "bst_direct.c"; "hashmap.c";
    "mpool.c"; "spinlock.c"; "barrier.c";
  ]

let path f = Filename.concat case_dir f

(* a small two-function source used by the isolation tests *)
let two_fn_src =
  {|
[[rc::parameters("x: int")]]
[[rc::args("x @ int<int>")]]
[[rc::requires("{x <= 100}")]]
[[rc::returns("(x + 1) @ int<int>")]]
int incr(int a) { return a + 1; }

[[rc::parameters("y: int")]]
[[rc::args("y @ int<int>")]]
[[rc::requires("{y <= 100}")]]
[[rc::returns("(y + 2) @ int<int>")]]
int incr2(int b) { return b + 2; }
|}

(* ---------------------------------------------------------------- *)
(* Budgets                                                           *)
(* ---------------------------------------------------------------- *)

let kind_of (t : Driver.t) name =
  match List.assoc_opt name (Driver.errors t) with
  | Some e -> Some e.Report.kind
  | None -> None

let budget_tests =
  [
    Alcotest.test_case "fuel exhaustion is a structured diagnostic" `Quick
      (fun () ->
        let budget = { Budget.unlimited with Budget.fuel = Some 20 } in
        let t =
          Driver.check_file ~session:(budgeted budget)
            (path "binary_search.c")
        in
        Alcotest.(check bool) "all failed" true (Driver.errors t <> []);
        List.iter
          (fun (fn, (e : Report.t)) ->
            match e.Report.kind with
            | Report.Resource_exhausted
                { exh = Budget.Out_of_fuel 20; rule_apps; elapsed; _ } ->
                if rule_apps < 0 || elapsed < 0. then
                  Alcotest.failf "%s: bogus counters" fn
            | k -> Alcotest.failf "%s: wrong kind %s" fn (Report.kind_label k))
          (Driver.errors t);
        Alcotest.(check int) "exit code 2" 2 (Driver.exit_code t));
    Alcotest.test_case "exhaustion reports the goal head" `Quick (fun () ->
        let budget = { Budget.unlimited with Budget.fuel = Some 200 } in
        let t =
          Driver.check_file ~session:(budgeted budget)
            (path "binary_search.c")
        in
        match kind_of t "bsearch_idx" with
        | Some (Report.Resource_exhausted { goal_head; rule_apps; _ }) ->
            Alcotest.(check bool) "has goal head" true (goal_head <> None);
            Alcotest.(check bool) "has rule apps" true (rule_apps > 0)
        | Some k ->
            Alcotest.failf "wrong kind %s" (Report.kind_label k)
        | None -> Alcotest.fail "bsearch_idx verified under 200 fuel?");
    Alcotest.test_case "zero deadline times out immediately" `Quick
      (fun () ->
        let budget = { Budget.unlimited with Budget.timeout = Some 0.0 } in
        let t =
          Driver.check_file ~session:(budgeted budget) (path "spinlock.c")
        in
        List.iter
          (fun (fn, (e : Report.t)) ->
            match e.Report.kind with
            | Report.Resource_exhausted { exh = Budget.Timed_out _; _ } -> ()
            | k -> Alcotest.failf "%s: wrong kind %s" fn (Report.kind_label k))
          (Driver.errors t);
        Alcotest.(check bool) "all failed" true
          (List.length (Driver.errors t) = List.length t.Driver.results));
    Alcotest.test_case "depth limit reports Depth_exceeded" `Quick (fun () ->
        let budget = { Budget.unlimited with Budget.max_depth = Some 5 } in
        let t =
          Driver.check_file ~session:(budgeted budget) (path "spinlock.c")
        in
        List.iter
          (fun (_, (e : Report.t)) ->
            match e.Report.kind with
            | Report.Resource_exhausted
                { exh = Budget.Depth_exceeded 5; _ } ->
                ()
            | k -> Alcotest.failf "wrong kind %s" (Report.kind_label k))
          (Driver.errors t);
        Alcotest.(check bool) "all failed" true (Driver.errors t <> []));
    Alcotest.test_case "generous budget changes nothing" `Quick (fun () ->
        let budget =
          {
            Budget.fuel = Some 10_000_000;
            timeout = Some 600.;
            max_depth = Some 1_000_000;
          }
        in
        let t =
          Driver.check_file ~session:(budgeted budget) (path "spinlock.c")
        in
        Alcotest.(check bool) "verifies" true (Driver.all_ok t);
        Alcotest.(check int) "exit code 0" 0 (Driver.exit_code t));
  ]

(* ---------------------------------------------------------------- *)
(* Fault isolation                                                   *)
(* ---------------------------------------------------------------- *)

let isolation_tests =
  [
    Alcotest.test_case "an injected crash is confined to one function"
      `Quick (fun () ->
        (* rate 1.0 capped at one fault: the first solver call dies,
           everything after must be unaffected *)
        let s, _ = faulty ~rate:1.0 ~sites:[ "solver" ] ~max_faults:1 42 in
        let t =
          try Driver.check_source ~session:s ~file:"two.c" two_fn_src
          with e -> Alcotest.failf "escaped: %s" (Printexc.to_string e)
        in
        let faults = Driver.faults t in
        Alcotest.(check int) "one fault" 1 (List.length faults);
        (match faults with
        | [ (_, e) ] -> (
            (* an injected fault is labelled as such, never blamed on
               the checker *)
            match e.Report.kind with
            | Report.Injected_fault msg ->
                Alcotest.(check bool) "names the site" true
                  (Str.string_match (Str.regexp ".*solver") msg 0)
            | k -> Alcotest.failf "wrong kind %s" (Report.kind_label k))
        | _ -> assert false);
        Alcotest.(check bool) "the other function verified" true
          (List.exists
             (fun (r : Driver.check_result) -> Result.is_ok r.outcome)
             t.Driver.results);
        Alcotest.(check int) "exit code 2" 2 (Driver.exit_code t));
    Alcotest.test_case "fail-fast stops, keep-going continues" `Quick
      (fun () ->
        let s, _ = faulty ~rate:1.0 ~sites:[ "solver" ] ~max_faults:1 42 in
        let t =
          Driver.check_source ~session:s ~fail_fast:true ~file:"two.c"
            two_fn_src
        in
        Alcotest.(check int) "one result" 1 (List.length t.Driver.results);
        Alcotest.(check (list string)) "one skipped" [ "incr2" ]
          t.Driver.skipped;
        Alcotest.(check bool) "not ok" false (Driver.all_ok t);
        (* default keep-going: both functions appear (fresh campaign —
           the previous one already spent its single fault) *)
        let s2, _ = faulty ~rate:1.0 ~sites:[ "solver" ] ~max_faults:1 42 in
        let t2 = Driver.check_source ~session:s2 ~file:"two.c" two_fn_src in
        Alcotest.(check int) "two results" 2 (List.length t2.Driver.results);
        Alcotest.(check (list string)) "none skipped" [] t2.Driver.skipped);
    Alcotest.test_case "json diagnostics are emitted and escaped" `Quick
      (fun () ->
        let budget = { Budget.unlimited with Budget.fuel = Some 10 } in
        let t =
          Driver.check_file ~session:(budgeted budget) (path "spinlock.c")
        in
        let s = Rc_util.Jsonout.to_string (Driver.to_json t) in
        let has what =
          try
            ignore (Str.search_forward (Str.regexp_string what) s 0);
            true
          with Not_found -> false
        in
        Alcotest.(check bool) "has exit code" true (has "\"exit_code\":2");
        Alcotest.(check bool) "has fault status" true (has "\"fault\"");
        Alcotest.(check bool) "has kind" true (has "out_of_fuel");
        (* escaping: no raw newlines inside string literals *)
        String.iter
          (fun c ->
            if c = '\n' then ()
            else if Char.code c < 0x20 then
              Alcotest.failf "unescaped control char %C" c)
          s);
  ]

let jsonout_tests =
  [
    Alcotest.test_case "string escaping" `Quick (fun () ->
        let open Rc_util.Jsonout in
        Alcotest.(check string)
          "quotes, backslash, newline, control"
          {|{"k":"a\"b\\c\nd\u0001"}|}
          (to_string (Obj [ ("k", Str "a\"b\\c\nd\x01") ])));
  ]

(* ---------------------------------------------------------------- *)
(* Seeded fault-injection campaigns over the Figure 7 corpus         *)
(* ---------------------------------------------------------------- *)

(* a stats fingerprint for the behaviour-equivalence check *)
let fingerprint (t : Driver.t) =
  let s = Driver.stats t in
  ( s.Rc_lithium.Stats.rule_apps,
    s.Rc_lithium.Stats.evar_insts,
    s.Rc_lithium.Stats.side_auto,
    s.Rc_lithium.Stats.side_manual,
    List.map
      (fun (r : Driver.check_result) -> (r.name, Result.is_ok r.outcome))
      t.Driver.results )

let baseline : (string * (int * int * int * int * (string * bool) list)) list ref
    =
  ref []

let baseline_tests =
  [
    Alcotest.test_case "all case studies verify (baseline)" `Quick (fun () ->
        baseline :=
          List.map
            (fun file ->
              let t = Driver.check_file ~session:(session ()) (path file) in
              (match Driver.errors t with
              | [] -> ()
              | (fn, e) :: _ ->
                  Alcotest.failf "%s/%s: %s" file fn (Report.to_string e));
              (file, fingerprint t))
            corpus);
  ]

(* one campaign = one seed on one study, injection armed *)
let outcome_signature (t : Driver.t) =
  List.map
    (fun (r : Driver.check_result) ->
      ( r.name,
        match r.outcome with
        | Ok _ -> "ok"
        | Error e -> Report.kind_label e.Report.kind ))
    t.Driver.results

let run_campaign ~seed ~rate file =
  let s, campaign = faulty ~rate (seed * 7919 + Hashtbl.hash file) in
  match Driver.check_file ~session:s (path file) with
  | t ->
      (* every failure must carry a structured, printable report *)
      List.iter
        (fun (_, (e : Report.t)) -> ignore (Report.to_string e))
        (Driver.errors t);
      (outcome_signature t, Faultsim.injected_count campaign)
  | exception Driver.Frontend_error _ ->
      (* structured too (and unreachable: no frontend hooks) *)
      ([], Faultsim.injected_count campaign)
  | exception e ->
      Alcotest.failf "campaign seed=%d file=%s: uncaught exception %s" seed
        file (Printexc.to_string e)

let campaign_tests =
  [
    Alcotest.test_case
      "55 seeded campaigns: no uncaught exceptions, structured failures"
      `Quick (fun () ->
        let seeds = [ 1; 2; 3; 4; 5 ] in
        let injected = ref 0 in
        List.iter
          (fun file ->
            List.iter
              (fun seed ->
                let _, n = run_campaign ~seed ~rate:0.004 file in
                injected := !injected + n)
              seeds)
          corpus;
        (* the campaign must actually have exercised the fault paths *)
        Alcotest.(check bool)
          (Printf.sprintf "faults were injected (%d)" !injected)
          true (!injected > 0));
    Alcotest.test_case "campaigns are deterministic in the seed" `Quick
      (fun () ->
        List.iter
          (fun file ->
            let a = run_campaign ~seed:99 ~rate:0.01 file in
            let b = run_campaign ~seed:99 ~rate:0.01 file in
            if a <> b then
              Alcotest.failf "%s: same seed, different outcomes" file)
          [ "linked_list.c"; "hashmap.c"; "mpool.c" ]);
    Alcotest.test_case "campaign under budget also stays structured" `Quick
      (fun () ->
        let budget =
          { Budget.fuel = Some 2_000; timeout = Some 10.; max_depth = None }
        in
        List.iter
          (fun file ->
            let s, _ = faulty ~rate:0.002 (Hashtbl.hash file) in
            match
              Driver.check_file ~session:(Session.with_budget s budget)
                (path file)
            with
            | t ->
                List.iter
                  (fun (_, (e : Report.t)) ->
                    ignore (Report.to_string e);
                    ignore (Rc_util.Jsonout.to_string (Report.to_json e)))
                  (Driver.errors t)
            | exception e ->
                Alcotest.failf "%s: uncaught %s" file (Printexc.to_string e))
          corpus);
  ]

(* after all campaigns: disarmed + unlimited must equal the baseline *)
let equivalence_tests =
  [
    Alcotest.test_case
      "disarmed rerun matches baseline Figure 7 stats exactly" `Quick
      (fun () ->
        (* a fresh session has no campaign by construction *)
        Alcotest.(check bool) "fresh session unarmed" true
          (Rc_refinedc.Session.fault (session ()) = None);
        List.iter
          (fun file ->
            let t = Driver.check_file ~session:(session ()) (path file) in
            (match Driver.errors t with
            | [] -> ()
            | (fn, e) :: _ ->
                Alcotest.failf "%s/%s no longer verifies: %s" file fn
                  (Report.to_string e));
            let before =
              match List.assoc_opt file !baseline with
              | Some fp -> fp
              | None -> Alcotest.failf "no baseline for %s" file
            in
            if fingerprint t <> before then
              Alcotest.failf "%s: stats differ from baseline" file)
          corpus);
  ]

let () =
  Alcotest.run "robustness"
    [
      ("jsonout", jsonout_tests);
      ("budget", budget_tests);
      ("isolation", isolation_tests);
      ("baseline", baseline_tests);
      ("campaigns", campaign_tests);
      ("equivalence", equivalence_tests);
    ]
