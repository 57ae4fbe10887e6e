(** The RefinedC command-line toolchain (Figure 2, end to end):

    - [refinedc check FILE]   — verify every specified function
    - [refinedc lint FILE]    — run the static-analysis passes only
    - [refinedc run FILE FN]  — execute a function in the Caesium
                                interpreter (integer arguments)
    - [refinedc cfg FILE]     — dump the elaborated control-flow graphs

    [check] honours per-function resource budgets ([--fuel], [--timeout],
    [--max-depth]) and a whole-run deadline ([--deadline]), and never
    aborts the whole file on a single function: checker crashes and
    budget exhaustion become structured per-function diagnostics, and
    worker crashes are absorbed by the supervised pool ([-j N] spawns
    the pool once per invocation).  Exit codes are stable: 0 =
    everything verified, 1 = at least one verification failure, 2 = at
    least one checker fault or exhausted budget (including a hit
    [--deadline]), 130 = interrupted — SIGINT/SIGTERM stop the run
    cooperatively and still flush a valid partial report. *)

open Cmdliner
module Driver = Rc_frontend.Driver
module Api = Rc_session.Refinedc_api

(* Cooperative interruption: the handlers only set a flag (in [bin],
   not [lib] — sessions stay global-free); the driver polls it between
   functions and flushes a partial report, so Ctrl-C loses nothing that
   already completed. *)
let install_interrupt_handlers (flag : bool Atomic.t) : unit =
  let h = Sys.Signal_handle (fun _ -> Atomic.set flag true) in
  List.iter
    (fun s ->
      try Sys.set_signal s h with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(* [base] restricted to the values [ok] accepts: a negative budget, a
   NaN duration or a probability outside [0, 1] is a usage error (exit
   124), as a malformed number is. *)
let checked base ~expected ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Fmt.str "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv ~docv:(Arg.conv_docv base) (parse, Arg.conv_printer base)

let count = checked Arg.int ~expected:"a non-negative integer" (fun n -> n >= 0)
let positive = checked Arg.int ~expected:"a positive integer" (fun n -> n >= 1)

(* the cap in bytes must fit an [int]: a wrapped product prunes the
   whole store *)
let megabytes =
  checked Arg.int ~expected:"a non-negative number of megabytes" (fun n ->
      n >= 0 && n <= max_int / (1024 * 1024))

(* [x >= 0.] is false for NaN *)
let seconds =
  checked Arg.float ~expected:"a non-negative number" (fun x -> x >= 0.)

let probability =
  checked Arg.float ~expected:"a probability in [0, 1]" (fun p ->
      p >= 0. && p <= 1.)

(* an unknown site or an empty list would silently inject nothing *)
let site_list =
  let site =
    checked Arg.string
      ~expected:("one of " ^ String.concat ", " Rc_util.Faultsim.sites)
      (fun s -> List.mem s Rc_util.Faultsim.sites)
  in
  checked (Arg.list site) ~expected:"at least one site" (( <> ) [])

let check_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let deriv =
    Arg.(value & flag & info [ "deriv" ] ~doc:"Print the derivation trees.")
  in
  let cert =
    Arg.(
      value & flag
      & info [ "cert" ]
          ~doc:"Re-check the emitted certificates with the independent checker.")
  in
  let semtest =
    Arg.(
      value & flag
      & info [ "semtest" ]
          ~doc:
            "Run the semantic-soundness harness: execute each verified \
             function on sampled well-typed inputs and require UB-freedom.")
  in
  let fuel =
    Arg.(
      value
      & opt (some count) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:"Per-function step budget for proof search.")
  in
  let timeout =
    Arg.(
      value
      & opt (some seconds) None
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Per-function wall-clock budget in seconds (monotonic clock).")
  in
  let max_depth =
    Arg.(
      value
      & opt (some count) None
      & info [ "max-depth" ] ~docv:"N"
          ~doc:"Per-function goal recursion depth limit.")
  in
  let fail_fast =
    Arg.(
      value
      & vflag false
          [
            ( true,
              info [ "fail-fast" ]
                ~doc:"Stop at the first failing function." );
            ( false,
              info [ "keep-going" ]
                ~doc:
                  "Check every function regardless of failures (default)."
            );
          ])
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit machine-readable JSON diagnostics on stdout instead of \
             the human-readable report.")
  in
  let jobs =
    Arg.(
      value & opt count 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Check up to $(docv) functions in parallel on OCaml domains, \
             at most one per core.  $(b,-j 0) uses the runtime's \
             recommended worker count.  Results, statistics and exit \
             codes are identical to $(b,-j 1).")
  in
  let cache =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Replay verdicts of unchanged functions from the verification \
             cache in $(docv) (created if missing) instead of re-proving \
             them.  Ignored under $(b,--cert), which must re-check real \
             derivations.")
  in
  let explain_cache =
    Arg.(
      value & flag
      & info [ "explain-cache" ]
          ~doc:
            "After checking, report why each function was re-proved or \
             replayed (hit / new / changed:body / changed:spec / \
             changed:callee:f / evicted / collision) and the dispatch \
             order chosen for the dirty set.  Goes to stderr under \
             $(b,--json).  Requires $(b,--cache).")
  in
  let cache_stats =
    Arg.(
      value & flag
      & info [ "cache-stats" ]
          ~doc:
            "After checking, report the cache store's health: entry and \
             manifest counts, total bytes, corrupt entries skipped this \
             run, entries pruned by the size cap.  Goes to stderr under \
             $(b,--json).  Requires $(b,--cache).")
  in
  let cache_max_mb =
    Arg.(
      value
      & opt (some megabytes) None
      & info [ "cache-max-mb" ] ~docv:"MB"
          ~doc:
            "Cap the verification cache at $(docv) megabytes: on open, \
             oldest entries are pruned until the store fits.  Requires \
             $(b,--cache).")
  in
  let memo =
    Arg.(
      value & flag
      & info [ "memo" ]
          ~doc:
            "Memoize repeated subgoals within each function's proof \
             search: revisits of the same control-flow join replay the \
             recorded sub-derivation instead of re-proving it.  Verdicts \
             and statistics are identical to an unmemoized run.  Ignored \
             under $(b,--cert), which must re-check real derivations.")
  in
  let default_only =
    Arg.(
      value & flag
      & info [ "default-only" ]
          ~doc:
            "Ablation: discharge side conditions with the default solver \
             only (no named solvers, no registered lemmas).")
  in
  let no_goal_simp =
    Arg.(
      value & flag
      & info [ "no-goal-simp" ]
          ~doc:"Ablation: disable goal simplification before solving.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"OUT.json"
          ~doc:
            "Write a Chrome trace_event JSON trace of the whole check \
             (phases, per-function checks, rule applications, solver \
             calls, evar instantiations, cache and scheduling events) to \
             $(docv).  Load it in Perfetto (ui.perfetto.dev) or \
             chrome://tracing.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Print a profiling summary after checking: per-phase timings, \
             the hottest typing rules by self-time, the solver time \
             breakdown and the hottest functions.  Goes to stderr under \
             $(b,--json).")
  in
  let no_lint =
    Arg.(
      value & flag
      & info [ "no-lint" ]
          ~doc:"Skip the static-analysis (lint) pre-pass before checking.")
  in
  let lint_werror =
    Arg.(
      value & flag
      & info [ "lint-werror" ]
          ~doc:
            "Treat lint warnings as errors: any error- or warning-severity \
             diagnostic makes the run exit non-zero even if every function \
             verifies.")
  in
  let deadline =
    Arg.(
      value
      & opt (some seconds) None
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:
            "Whole-run wall-clock budget in seconds (monotonic clock).  \
             When it expires no further function is started: completed \
             verdicts are reported, the rest are listed as skipped, and \
             the run exits 2 (budget exhaustion at the run level).")
  in
  let fault_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-seed" ] ~docv:"SEED"
          ~doc:
            "Arm a deterministic fault-injection campaign with $(docv) \
             (chaos testing).  The instrumented sites (see \
             $(b,--fault-sites)) then fail with probability \
             $(b,--fault-rate).")
  in
  let fault_rate =
    Arg.(
      value
      & opt (some ~none:"0.01" probability) None
      & info [ "fault-rate" ] ~docv:"P"
          ~doc:"Injection probability per instrumented site.")
  in
  let fault_sites =
    Arg.(
      value
      & opt (some site_list) None
      & info [ "fault-sites" ] ~docv:"S1,S2"
          ~doc:
            (Fmt.str
               "Restrict injection to the named comma-separated sites, \
                from %s; default: every site."
               (String.concat ", "
                  (List.map (Fmt.str "$(b,%s)") Rc_util.Faultsim.sites))))
  in
  let fault_max =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-max" ] ~docv:"N"
          ~doc:"Stop injecting after $(docv) faults; negative = no cap.")
  in
  let explain_failure =
    Arg.(
      value & flag
      & info [ "explain-failure" ]
          ~doc:
            "Attach proof-failure forensics to every failing function: the \
             goal stack from the function's root goal to the stuck goal, \
             the stuck goal's candidate typing rules with per-rule \
             rejection reasons, the existential-variable state and the \
             trailing rule applications.  Printed after each failure in \
             the human report; under $(b,--json) a structured \
             $(b,forensics) block joins each failure diagnostic.  \
             Deterministic: the forensic carries no wall-clock data and is \
             byte-identical across $(b,-j N).")
  in
  let runlog =
    Arg.(
      value
      & opt ~vopt:(Some "") (some string) None
      & info [ "runlog" ] ~docv:"DIR"
          ~doc:
            "Append one record for this run (wall-clock, rule \
             applications, verdict counts, cache counters, per-function \
             latency percentiles, toolchain fingerprint) to the \
             persistent run ledger $(b,runs.jsonl) in $(docv).  When \
             metrics are collected ($(b,--json), $(b,--profile) or \
             $(b,--trace)), the record also carries the report's \
             $(b,metrics) block, timings included.  With no $(docv), the \
             ledger lives in the $(b,--cache) directory.  Query it with \
             $(b,refinedc stats).")
  in
  let run file deriv cert semtest fuel timeout max_depth fail_fast json
      jobs cache explain_cache cache_stats cache_max_mb memo default_only
      no_goal_simp trace profile no_lint lint_werror deadline fault_seed
      fault_rate fault_sites fault_max explain_failure runlog =
    let budget = { Rc_util.Budget.fuel; timeout; max_depth } in
    (* a --json report has no place for the trees *)
    let deriv =
      if deriv && json then begin
        Fmt.epr
          "warning: --deriv is ignored under --json (the report carries no \
           derivation trees)@.";
        false
      end
      else deriv
    in
    (* --cert and --deriv both need the real derivations, which a cache
       hit replaces by a one-node stub *)
    let rederive =
      if cert then Some "--cert (certificates must be re-derived)"
      else if deriv then Some "--deriv (derivation trees must be re-derived)"
      else None
    in
    (* the cache-family flags share --cache's fate under --cert/--deriv
       (and are inert without --cache): warn once each, with the same
       phrasing --memo uses, so no combination is silently ignored *)
    let cache_flag_on what on =
      match rederive with
      | _ when not on -> false
      | Some why ->
          Fmt.epr "warning: %s is ignored under %s@." what why;
          false
      | None when cache = None ->
          Fmt.epr "warning: %s has no effect without --cache@." what;
          false
      | None -> true
    in
    let explain_cache = cache_flag_on "--explain-cache" explain_cache in
    let cache_stats = cache_flag_on "--cache-stats" cache_stats in
    let cache_max_mb =
      if cache_flag_on "--cache-max-mb" (cache_max_mb <> None) then
        cache_max_mb
      else None
    in
    let memo =
      if memo && cert then begin
        Fmt.epr
          "warning: --memo is ignored under --cert (replayed derivations \
           share side-condition contexts the certificate checker must not \
           trust)@.";
        false
      end
      else memo
    in
    let obs =
      {
        Rc_util.Obs.c_trace = trace <> None;
        (* --json reports always carry the metrics block when any
           observability was requested; --profile needs only metrics *)
        c_metrics = profile || trace <> None || json;
      }
    in
    (* the campaign flags only shape a campaign --fault-seed arms: warn
       once each, as for the cache-family flags, so none is silently
       dropped *)
    let fault_flag what v =
      if v <> None && fault_seed = None then
        Fmt.epr "warning: %s has no effect without --fault-seed@." what
    in
    fault_flag "--fault-rate" fault_rate;
    fault_flag "--fault-sites" fault_sites;
    fault_flag "--fault-max" fault_max;
    let fault =
      Option.map
        (Rc_util.Faultsim.create
           ~rate:(Option.value fault_rate ~default:0.01)
           ?sites:fault_sites ?max_faults:fault_max)
        fault_seed
    in
    let interrupted = Atomic.make false in
    install_interrupt_handlers interrupted;
    let jobs =
      if jobs = 0 then Rc_util.Supervisor.recommended_jobs () else jobs
    in
    (* the persistent supervised pool: spawned once per invocation, owned
       here, threaded to the driver through the session.  [-j] is
       clamped to the core count — oversubscribed worker domains only
       add scheduling and GC-sync overhead, and on a single-core host
       the fastest configuration is plain sequential execution (no pool
       at all). *)
    let jobs = min jobs (Rc_util.Supervisor.recommended_jobs ()) in
    let pool =
      if jobs > 1 then Some (Rc_util.Supervisor.create ~jobs ()) else None
    in
    let session =
      Api.create_session ~case_studies:true ~default_only ~no_goal_simp
        ~budget ~obs
        ~lint:
          {
            Rc_refinedc.Session.l_enabled = not no_lint;
            l_passes = None;
            l_werror = lint_werror;
          }
        ?fault ?deadline ?pool
        ~cancel:(fun () -> Atomic.get interrupted)
        ~memo ~forensics:explain_failure ~judgments:deriv ()
    in
    (* resolve the ledger directory before [cache] is shadowed by the
       store handle: a bare --runlog rides in the --cache directory *)
    let runlog_dir =
      match runlog with
      | None -> None
      | Some "" -> (
          match cache with
          | Some dir -> Some dir
          | None ->
              Fmt.epr
                "warning: --runlog without a directory requires --cache; \
                 no ledger written@.";
              None)
      | Some dir -> Some dir
    in
    let cache =
      match (cache, rederive) with
      | Some _, Some why ->
          Fmt.epr "warning: --cache is ignored under %s@." why;
          None
      | Some dir, None -> (
          (* an uncreatable cache directory degrades to an uncached run,
             never an abort *)
          match
            Rc_util.Vercache.create
              ?max_bytes:(Option.map (fun mb -> mb * 1024 * 1024) cache_max_mb)
              dir
          with
          | vc -> Some vc
          | exception Sys_error msg ->
              Fmt.epr
                "warning: cannot open verification cache %s (%s); running \
                 uncached@."
                dir msg;
              None)
      | None, _ -> None
    in
    Fun.protect ~finally:(fun () ->
        Option.iter Rc_util.Supervisor.shutdown pool)
    @@ fun () ->
    let run_watch = Rc_util.Budget.stopwatch () in
    match Driver.check_file ~session ~fail_fast ?cache file with
    | exception Sys_error msg ->
        if json then
          Fmt.pr "%s@."
            (Rc_util.Jsonout.to_string
               (Rc_util.Jsonout.Obj
                  [
                    ("file", Rc_util.Jsonout.Str file);
                    ("ok", Rc_util.Jsonout.Bool false);
                    ("exit_code", Rc_util.Jsonout.Int 1);
                    ("io_error", Rc_util.Jsonout.Str msg);
                  ]))
        else Fmt.epr "%s@." msg;
        1
    | exception Driver.Frontend_error msg ->
        if json then
          Fmt.pr "%s@."
            (Rc_util.Jsonout.to_string
               (Rc_util.Jsonout.Obj
                  [
                    ("file", Rc_util.Jsonout.Str file);
                    ("ok", Rc_util.Jsonout.Bool false);
                    ("exit_code", Rc_util.Jsonout.Int 1);
                    ("frontend_error", Rc_util.Jsonout.Str msg);
                  ]))
        else Fmt.epr "%s@." msg;
        1
    | t ->
        let failed = ref 0 in
        let say fmt =
          if json then Format.ikfprintf ignore Fmt.stdout fmt else Fmt.pr fmt
        in
        List.iter
          (fun (r : Driver.check_result) ->
            match r.outcome with
            | Ok res ->
                say "%s: verified (%a)@." r.name Rc_lithium.Stats.pp
                  res.Rc_refinedc.Lang.E.stats;
                if deriv then
                  Fmt.pr "%a@." (Rc_lithium.Deriv.pp ~depth:0)
                    res.Rc_refinedc.Lang.E.deriv;
                if cert then begin
                  let rep =
                    Rc_cert.Checker.check ~obs:t.Driver.obs ~session
                      res.Rc_refinedc.Lang.E.deriv
                  in
                  say "  %a@." Rc_cert.Checker.pp_report rep;
                  if not (Rc_cert.Checker.ok rep) then incr failed
                end;
                if semtest then begin
                  let spec =
                    List.find
                      (fun (f : Rc_refinedc.Typecheck.fn_to_check) ->
                        f.spec.Rc_refinedc.Rtype.fs_name = r.name)
                      t.elaborated.Rc_frontend.Elab.to_check
                  in
                  let impls =
                    List.map
                      (fun (f : Rc_refinedc.Typecheck.fn_to_check) ->
                        (f.spec.Rc_refinedc.Rtype.fs_name, f.spec))
                      t.elaborated.Rc_frontend.Elab.to_check
                  in
                  match
                    Rc_sem.Semtest.check_fn ~impls ~session
                      t.elaborated.Rc_frontend.Elab.program spec.spec
                  with
                  | Rc_sem.Semtest.Passed n ->
                      say "  semtest: %d executions, no UB@." n
                  | Rc_sem.Semtest.Skipped why ->
                      say "  semtest: skipped (%s)@." why
                  | Rc_sem.Semtest.Ub_found msg ->
                      say "  semtest: UNDEFINED BEHAVIOUR: %s@." msg;
                      incr failed
                end
            | Error e ->
                let what =
                  if Rc_lithium.Report.is_fault e then "CHECKER FAULT"
                  else "FAILED"
                in
                say "%s: %s@.%s@." r.name what
                  (Rc_lithium.Report.to_string e);
                (if explain_failure then
                   match e.Rc_lithium.Report.forensics with
                   | Some fx ->
                       say "%a@." Rc_lithium.Report.pp_forensics fx
                   | None -> ());
                incr failed)
          t.results;
        let skip_why =
          match t.Driver.stop with
          | Driver.Deadline -> "deadline"
          | Driver.Interrupted -> "interrupted"
          | Driver.Completed -> "fail-fast"
        in
        List.iter
          (fun fn -> say "%s: skipped (%s)@." fn skip_why)
          t.Driver.skipped;
        (match t.Driver.cache_stats with
        | Some (hits, misses) ->
            say "cache: %d hit%s, %d miss%s@." hits
              (if hits = 1 then "" else "s")
              misses
              (if misses = 1 then "" else "es")
        | None -> ());
        (* the --explain-cache / --cache-stats reports ride on stderr
           under --json so stdout stays machine-readable *)
        let side fmt = if json then Fmt.epr fmt else Fmt.pr fmt in
        if explain_cache then begin
          (match t.Driver.schedule with
          | [] -> side "cache plan: nothing dirty@."
          | sched -> side "cache plan: re-proving %s@."
                       (String.concat ", " sched));
          List.iter
            (fun (r : Driver.check_result) ->
              side "  %s: %s@." r.name
                (Option.value ~default:"no cache" r.Driver.why))
            t.Driver.results
        end;
        (if cache_stats then
           match cache with
           | Some vc ->
               let s = Rc_util.Vercache.stats vc in
               side
                 "cache store: %d entries, %d manifests, %d bytes, %d \
                  corrupt skip%s, %d pruned@."
                 s.Rc_util.Vercache.st_entries s.Rc_util.Vercache.st_manifests
                 s.Rc_util.Vercache.st_bytes s.Rc_util.Vercache.st_corrupt_skips
                 (if s.Rc_util.Vercache.st_corrupt_skips = 1 then "" else "s")
                 s.Rc_util.Vercache.st_pruned
           | None -> ());
        (match cache with
        | Some vc when Rc_util.Vercache.disabled vc ->
            Fmt.epr
              "warning: verification cache disabled after repeated write \
               failures; this run continued uncached@."
        | _ -> ());
        if json then
          Fmt.pr "%s@." (Rc_util.Jsonout.to_string (Driver.to_json t));
        (match trace with
        | Some path ->
            Rc_util.Trace.write_chrome (Rc_util.Obs.tr t.Driver.obs) path;
            Fmt.epr "trace written to %s (%d events)@." path
              (Rc_util.Trace.event_count (Rc_util.Obs.tr t.Driver.obs))
        | None -> ());
        if profile then
          (* stderr under --json so stdout stays machine-readable *)
          (if json then Fmt.epr else Fmt.pr)
            "%a" (Rc_util.Profile.pp ?top:None)
            (Rc_util.Obs.mx t.Driver.obs);
        (* the run ledger is out-of-band telemetry: it carries wall-clock
           data, so it goes to the ledger file only — never stdout *)
        (match runlog_dir with
        | None -> ()
        | Some dir ->
            let lg = Rc_util.Runlog.create dir in
            Rc_util.Runlog.append lg
              (Driver.runlog_record ~session ~wall_s:(run_watch ()) t);
            if Rc_util.Runlog.disabled lg then
              Fmt.epr
                "warning: cannot append to run ledger in %s; record dropped@."
                dir);
        List.iter
          (fun d -> Fmt.epr "%a@." Rc_util.Diagnostic.pp d)
          t.Driver.diagnostics;
        (* the exit-code contract: faults trump verification failures;
           cert/semtest regressions count as verification failures *)
        let code = Driver.exit_code t in
        if code = 0 && !failed > 0 then 1 else code
  in
  Cmd.v (Cmd.info "check" ~doc:"Verify the specified functions of FILE.")
    Term.(
      const run $ file $ deriv $ cert $ semtest $ fuel $ timeout
      $ max_depth $ fail_fast $ json $ jobs $ cache $ explain_cache
      $ cache_stats $ cache_max_mb $ memo $ default_only $ no_goal_simp
      $ trace $ profile $ no_lint $ lint_werror $ deadline $ fault_seed
      $ fault_rate $ fault_sites $ fault_max $ explain_failure $ runlog)

let lint_cmd =
  let file = Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE") in
  let list_passes =
    Arg.(
      value & flag
      & info [ "list-passes" ]
          ~doc:
            "Print the registered lint passes (name, diagnostic codes, \
             description) and exit; FILE is not required.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit machine-readable JSON (file, ok, passes, coverage, \
             diagnostics) on stdout.")
  in
  let werror =
    Arg.(
      value & flag
      & info [ "werror" ]
          ~doc:"Exit non-zero on warnings, not only on errors.")
  in
  let pass =
    Arg.(
      value & opt_all string []
      & info [ "pass" ] ~docv:"NAME"
          ~doc:
            "Run only the named pass (repeatable).  See $(b,--list-passes) \
             for the registry.  Default: all.")
  in
  let list_passes_report json =
    if json then
      Fmt.pr "%s@."
        (Rc_util.Jsonout.to_string
           (Rc_util.Jsonout.List
              (List.map
                 (fun (p : Rc_analysis.Lint.pass) ->
                   Rc_util.Jsonout.Obj
                     [
                       ("name", Rc_util.Jsonout.Str p.Rc_analysis.Lint.p_name);
                       ( "codes",
                         Rc_util.Jsonout.List
                           (List.map
                              (fun c -> Rc_util.Jsonout.Str c)
                              p.Rc_analysis.Lint.p_codes) );
                       ( "sound",
                         Rc_util.Jsonout.Bool p.Rc_analysis.Lint.p_sound );
                       ( "descr",
                         Rc_util.Jsonout.Str p.Rc_analysis.Lint.p_descr );
                     ])
                 Rc_analysis.Lint.passes)))
    else
      List.iter
        (fun (p : Rc_analysis.Lint.pass) ->
          Fmt.pr "%-8s %-24s %s%s@." p.Rc_analysis.Lint.p_name
            (String.concat "," p.Rc_analysis.Lint.p_codes)
            p.Rc_analysis.Lint.p_descr
            (if p.Rc_analysis.Lint.p_sound then ""
             else "  (heuristic: may report false positives)"))
        Rc_analysis.Lint.passes;
    0
  in
  let lint_file file json werror pass =
    (* lint has no per-function dispatch loop to poll a flag from, so an
       interrupt raises [Sys.Break] and is caught below — still a valid
       (empty) JSON report and exit 130, never a half-written line *)
    Sys.catch_break true;
    (try
       Sys.set_signal Sys.sigterm
         (Sys.Signal_handle (fun _ -> raise Sys.Break))
     with Invalid_argument _ | Sys_error _ -> ());
    let interrupted_report () =
      if json then
        Fmt.pr "%s@."
          (Rc_util.Jsonout.to_string
             (Rc_util.Jsonout.Obj
                [
                  ("file", Rc_util.Jsonout.Str file);
                  ("ok", Rc_util.Jsonout.Bool false);
                  ("interrupted", Rc_util.Jsonout.Bool true);
                  ("diagnostics", Rc_util.Jsonout.List []);
                ]))
      else Fmt.epr "interrupted@.";
      130
    in
    let session = Api.create_session ~case_studies:true () in
    let passes = if pass = [] then None else Some pass in
    let fail msg key =
      if json then
        Fmt.pr "%s@."
          (Rc_util.Jsonout.to_string
             (Rc_util.Jsonout.Obj
                [
                  ("file", Rc_util.Jsonout.Str file);
                  ("ok", Rc_util.Jsonout.Bool false);
                  (key, Rc_util.Jsonout.Str msg);
                ]))
      else Fmt.epr "%s@." msg;
      1
    in
    match
      Driver.parse_and_elab ~session ~file
        (In_channel.with_open_bin file In_channel.input_all)
    with
    | exception Sys_error msg -> fail msg "io_error"
    | exception Driver.Frontend_error msg -> fail msg "frontend_error"
    | exception Sys.Break -> interrupted_report ()
    | elaborated -> (
        match Driver.lint_elaborated ?passes ~session ~file elaborated with
        | exception Sys.Break -> interrupted_report ()
        | exception Rc_analysis.Lint.Unknown_pass p ->
            fail
              (Fmt.str "unknown lint pass '%s' (available: %s)" p
                 (String.concat ", " Rc_analysis.Lint.pass_names))
              "usage_error"
        | diagnostics ->
            let specified, total =
              Rc_analysis.Lint.coverage
                ~funcs:elaborated.Rc_frontend.Elab.program
                         .Rc_caesium.Syntax.funcs
                ~to_check:elaborated.Rc_frontend.Elab.to_check
            in
            let problems =
              List.filter Rc_util.Diagnostic.is_problem diagnostics
            in
            let errors =
              List.filter
                (fun (d : Rc_util.Diagnostic.t) ->
                  d.severity = Rc_util.Diagnostic.Error)
                diagnostics
            in
            let ok =
              if werror then problems = [] else errors = []
            in
            if json then
              Fmt.pr "%s@."
                (Rc_util.Jsonout.to_string
                   (Rc_util.Jsonout.Obj
                      [
                        ("file", Rc_util.Jsonout.Str file);
                        ("ok", Rc_util.Jsonout.Bool ok);
                        ( "passes",
                          Rc_util.Jsonout.List
                            (List.map
                               (fun p -> Rc_util.Jsonout.Str p)
                               (match passes with
                               | None -> Rc_analysis.Lint.pass_names
                               | Some ps -> ps)) );
                        ( "coverage",
                          Rc_util.Jsonout.Obj
                            [
                              ("specified", Rc_util.Jsonout.Int specified);
                              ("total", Rc_util.Jsonout.Int total);
                            ] );
                        ( "diagnostics",
                          Rc_util.Jsonout.List
                            (List.map Rc_util.Diagnostic.to_json diagnostics)
                        );
                      ]))
            else begin
              List.iter
                (fun d -> Fmt.pr "%a@." Rc_util.Diagnostic.pp d)
                diagnostics;
              Fmt.pr "%s: %d diagnostic%s (%d problem%s), %d/%d functions \
                      specified@."
                file (List.length diagnostics)
                (if List.length diagnostics = 1 then "" else "s")
                (List.length problems)
                (if List.length problems = 1 then "" else "s")
                specified total
            end;
            if ok then 0 else 1)
  in
  let run file json werror pass list_passes =
    if list_passes then list_passes_report json
    else
      match file with
      | None ->
          Fmt.epr "refinedc lint: FILE required (or use --list-passes)@.";
          2
      | Some file -> lint_file file json werror pass
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static-analysis passes on FILE without verifying it: \
          Caesium dataflow lints, concurrency lockset analysis, \
          specification lints and rule-set sanity checks.")
    Term.(const run $ file $ json $ werror $ pass $ list_passes)

let run_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let fn = Arg.(required & pos 1 (some string) None & info [] ~docv:"FN") in
  let args = Arg.(value & pos_right 1 int [] & info [] ~docv:"ARGS") in
  let run file fn args =
    let session = Api.create_session ~case_studies:true () in
    match Driver.check_file ~session file with
    | exception Driver.Frontend_error msg ->
        Fmt.epr "%s@." msg;
        1
    | t -> (
        let vargs =
          List.map (Rc_caesium.Value.of_int Rc_caesium.Int_type.i32) args
        in
        match Driver.run t fn vargs with
        | Rc_caesium.Eval.Finished None ->
            Fmt.pr "%s returned@." fn;
            0
        | Rc_caesium.Eval.Finished (Some v) ->
            Fmt.pr "%s returned %a@." fn Rc_caesium.Value.pp v;
            0
        | Rc_caesium.Eval.Undefined u ->
            Fmt.pr "UNDEFINED BEHAVIOUR: %a@." Rc_caesium.Ub.pp u;
            1
        | Rc_caesium.Eval.Out_of_fuel ->
            Fmt.pr "out of fuel@.";
            1)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run FN of FILE in the Caesium interpreter (int arguments).")
    Term.(const run $ file $ fn $ args)

(* The signature, then each block under its label (the entry block
   first) with one line per statement and terminator, expressions in
   [Lang.pp_expr]'s C-like form. *)
let pp_cfg ppf (f : Rc_caesium.Syntax.func) =
  let module S = Rc_caesium.Syntax in
  let e = Rc_refinedc.Lang.pp_expr and lay = Rc_caesium.Layout.pp in
  let comma = Fmt.any ", " in
  let decls =
    Fmt.list ~sep:comma (Fmt.pair ~sep:(Fmt.any ": ") Fmt.string lay)
  in
  let dest ppf =
    Option.iter (fun (l, x) -> Fmt.pf ppf "%a :={%a} " e x lay l)
  in
  let stmt ppf = function
    | S.Assign { atomic; layout; lhs; rhs } ->
        Fmt.pf ppf "%a :=%s{%a} %a" e lhs
          (if atomic then "atomic" else "")
          lay layout e rhs
    | S.Call { dest = d; fn; args } ->
        Fmt.pf ppf "%acall %a(%a)" dest d e fn (Fmt.list ~sep:comma e)
          (List.map snd args)
    | S.Cas { layout; obj; expected; desired; dest = d } ->
        Fmt.pf ppf "%acas{%a}(%a, %a, %a)" dest d lay layout e obj e
          expected e desired
    | S.Skip -> Fmt.string ppf "skip"
    | S.ExprStmt x -> e ppf x
    | S.Free x -> Fmt.pf ppf "free %a" e x
  in
  let term ppf = function
    | S.Goto l -> Fmt.pf ppf "goto %s" l
    | S.CondGoto { cond; if_true; if_false; _ } ->
        Fmt.pf ppf "if %a goto %s else %s" e cond if_true if_false
    | S.Switch { scrut; cases; default; _ } ->
        Fmt.pf ppf "switch %a {%a default: %s }" e scrut
          (Fmt.list ~sep:Fmt.nop (fun ppf (n, l) ->
               Fmt.pf ppf " %d: %s;" n l))
          cases default
    | S.Return r -> Fmt.pf ppf "return%a" Fmt.(option (any " " ++ e)) r
    | S.Unreachable -> Fmt.string ppf "unreachable"
  in
  Fmt.pf ppf "%s(%a) -> %a@." f.fname decls f.args lay f.ret_layout;
  if f.locals <> [] then Fmt.pf ppf "locals %a@." decls f.locals;
  List.iter
    (fun (label, (b : S.block)) ->
      Fmt.pf ppf "%s:@.%a  %a@." label
        (Fmt.list ~sep:Fmt.nop (fun ppf -> Fmt.pf ppf "  %a@." stmt))
        b.stmts term b.term)
    f.blocks

let cfg_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let run file =
    let session = Api.create_session ~case_studies:true () in
    match
      Driver.parse_and_elab ~session ~file
        (In_channel.with_open_bin file In_channel.input_all)
    with
    | exception Driver.Frontend_error msg ->
        Fmt.epr "%s@." msg;
        1
    | e ->
        List.iter
          (fun (name, f) ->
            Fmt.pr "== %s ==@.%a" name pp_cfg f)
          e.Rc_frontend.Elab.program.Rc_caesium.Syntax.funcs;
        0
  in
  Cmd.v (Cmd.info "cfg" ~doc:"Dump the elaborated Caesium CFGs.")
    Term.(const run $ file)

(* -------------------------------------------------------------------- *)
(* refinedc stats: trends and regression checks over the run ledger      *)
(* -------------------------------------------------------------------- *)

let ratio =
  checked Arg.float ~expected:"a finite positive number" (fun x ->
      x > 0. && Float.is_finite x)

let stats_cmd =
  let module J = Rc_util.Jsonout in
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR"
          ~doc:"Directory holding the run ledger ($(b,runs.jsonl)).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the trend table and regression verdict as JSON on \
             stdout (schema $(b,refinedc-stats/1)) — the form CI gates \
             on.")
  in
  let last =
    Arg.(
      value & opt count 10
      & info [ "last" ] ~docv:"N"
          ~doc:"Show the last $(docv) ledger records (default 10).")
  in
  let window =
    Arg.(
      value & opt positive 4
      & info [ "window" ] ~docv:"N"
          ~doc:
            "Regression baseline: the $(docv) check runs before the \
             latest (default 4).")
  in
  let threshold =
    Arg.(
      value & opt ratio 0.75
      & info [ "threshold" ] ~docv:"R"
          ~doc:
            "Flag a regression when the latest run's apps/sec falls below \
             $(docv) × the trailing-window median (default 0.75).")
  in
  let gate =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:
            "Exit 1 when the regression check flags the latest run \
             (normally reporting never fails the command).")
  in
  (* one flattened row per ledger record, reading only fields the
     record's schema version is known to carry (absent fields → Null) *)
  let row (r : J.t) : (string * J.t) list =
    let str k = match J.member k r with Some (J.Str s) -> J.Str s | _ -> J.Null in
    let num k = match J.number_member k r with Some f -> J.Float f | None -> J.Null in
    let nested k1 k2 =
      match J.member k1 r with
      | Some o -> (
          match J.number_member k2 o with Some f -> J.Float f | None -> J.Null)
      | None -> J.Null
    in
    [
      ("kind", str "kind");
      ("file", str "file");
      ("wall_s", num "wall_s");
      ("rule_apps", num "rule_apps");
      ("apps_per_sec", num "apps_per_sec");
      ("cache_hit_rate", nested "cache" "hit_rate");
      ("fn_p50_s", nested "fn_wall" "p50_s");
      ("fn_p95_s", nested "fn_wall" "p95_s");
    ]
  in
  let run dir json last window threshold gate =
    let lg = Rc_util.Runlog.create dir in
    let records, corrupt = Rc_util.Runlog.load lg in
    (* the regression series: apps/sec of "check" runs, chronological;
       records of any other kind (ledgers written by older builds) never
       enter the gate *)
    let apps_series =
      List.filter_map
        (fun r ->
          match J.member "kind" r with
          | Some (J.Str "check") -> J.number_member "apps_per_sec" r
          | _ -> None)
        records
    in
    let reg = Rc_util.Runlog.regression ~window ~threshold apps_series in
    let regressed =
      match reg with Some g -> g.Rc_util.Runlog.r_regressed | None -> false
    in
    if json then begin
      let reg_json =
        match reg with
        | None -> J.Null
        | Some g ->
            J.Obj
              [
                ("metric", J.Str "apps_per_sec");
                ("latest", J.Float g.Rc_util.Runlog.r_latest);
                ( "baseline",
                  J.List
                    (List.map (fun f -> J.Float f) g.Rc_util.Runlog.r_baseline)
                );
                ("median_ratio", J.Float g.Rc_util.Runlog.r_median_ratio);
                ("window", J.Int g.Rc_util.Runlog.r_window);
                ("threshold", J.Float g.Rc_util.Runlog.r_threshold);
                ("regressed", J.Bool g.Rc_util.Runlog.r_regressed);
              ]
      in
      Fmt.pr "%s@."
        (J.to_string
           (J.Obj
              [
                ("schema", J.Str "refinedc-stats/1");
                ("ledger", J.Str (Rc_util.Runlog.path lg));
                ("records", J.Int (List.length records));
                ("corrupt_lines", J.Int corrupt);
                ( "trend",
                  J.List (List.map (fun r -> J.Obj (row r)) records) );
                ("regression", reg_json);
              ]))
    end
    else begin
      Fmt.pr "run ledger: %s — %d record%s%s@."
        (Rc_util.Runlog.path lg)
        (List.length records)
        (if List.length records = 1 then "" else "s")
        (if corrupt > 0 then
           Fmt.str " (%d corrupt line%s skipped)" corrupt
             (if corrupt = 1 then "" else "s")
         else "");
      if records <> [] then begin
        let n = List.length records in
        let shown = List.filteri (fun i _ -> i >= n - last) records in
        Fmt.pr "  %-9s %-24s %9s %10s %10s %6s %8s %8s@." "kind" "file"
          "wall_s" "rule_apps" "apps/sec" "cache" "p50_s" "p95_s";
        List.iter
          (fun r ->
            let s k =
              match J.member k r with Some (J.Str s) -> s | _ -> "-"
            in
            let f fields =
              match fields with
              | J.Null -> "-"
              | J.Float v -> Fmt.str "%.3g" v
              | J.Int v -> string_of_int v
              | _ -> "-"
            in
            let cells = row r in
            let cell k = f (List.assoc k cells) in
            Fmt.pr "  %-9s %-24s %9s %10s %10s %6s %8s %8s@." (s "kind")
              (Filename.basename (match J.member "file" r with
                                  | Some (J.Str x) -> x
                                  | _ -> "-"))
              (cell "wall_s") (cell "rule_apps") (cell "apps_per_sec")
              (cell "cache_hit_rate") (cell "fn_p50_s") (cell "fn_p95_s"))
          shown;
        match reg with
        | None ->
            Fmt.pr
              "trend: fewer than two check runs with throughput data — no \
               regression check@."
        | Some g ->
            Fmt.pr
              "trend (apps/sec, check runs): latest %.3g vs %d-run \
               baseline, median ratio %.2f (threshold %.2f) → %s@."
              g.Rc_util.Runlog.r_latest g.Rc_util.Runlog.r_window
              g.Rc_util.Runlog.r_median_ratio g.Rc_util.Runlog.r_threshold
              (if g.Rc_util.Runlog.r_regressed then "REGRESSED" else "ok")
      end
    end;
    if gate && regressed then 1 else 0
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Report throughput trends and flag regressions from the \
          persistent run ledger written by $(b,refinedc check \
          --runlog).")
    Term.(const run $ dir $ json $ last $ window $ threshold $ gate)

let () =
  let doc = "RefinedC: automated, certificate-producing verification of C" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "refinedc" ~version:"1.0" ~doc)
          [ check_cmd; lint_cmd; run_cmd; cfg_cmd; stats_cmd ]))
