(** The RefinedC toolchain driver (Figure 2): C source → Caesium +
    specifications → Lithium type checking → per-function results.

    Every function's check runs inside a fault-isolation boundary: an
    exception escaping the checker ([Stack_overflow], a solver bug, an
    injected fault) is converted into a structured per-function
    {!Rc_lithium.Report.t} instead of aborting the file, so the remaining
    functions still verify.  {!faults} distinguishes *the checker broke*
    (crash or budget exhaustion) from {!failures}, *verification found a
    problem* — the CLI maps these to different exit codes.

    Function checks are independent of each other (the frontend fixes
    every spec before checking starts), so the driver can fan
    {!check_fn_isolated} out across the supervised worker pool the
    session carries ([x_pool]) and/or replay verdicts from a
    {!Rc_util.Vercache} ([~cache]); both are
    observationally identical to the sequential, uncached run — same
    verdicts, same aggregate statistics, same exit code.

    The dispatch layer adds the robustness contract: a crash is
    confined to its task's verdict slot, and a whole-run deadline or a
    cooperative cancellation ([x_deadline]/[x_cancel]) stops *starting*
    functions and reports the rest as skipped — a partial report with
    every completed verdict intact, never a lost run. *)

module Syntax = Rc_caesium.Syntax
module Report = Rc_lithium.Report
module Session = Rc_refinedc.Session
module Depgraph = Rc_refinedc.Depgraph
module Obs = Rc_util.Obs
module Supervisor = Rc_util.Supervisor
module Vercache = Rc_util.Vercache

type check_result = {
  name : string;
  outcome : (Rc_refinedc.Lang.E.result, Report.t) result;
  time_s : float;  (** wall-clock seconds spent on this function *)
  cached : bool;  (** verdict replayed from the verification cache *)
  why : string option;
      (** why the cache behaved as it did for this function: ["hit"], a
          {!Rc_util.Vercache.reason_label} miss explanation
          (["new"], ["changed:body+callee:f"], …), or ["corrupt"] for an
          entry whose payload this build cannot read; [None] without a
          cache *)
}

(* Where a freshly proved verdict will be stored: the manifest id and
   cone components of its keyed entry, or [None] without a cache. *)
type store_plan = (string * (string * string) list) option

(** How the run ended: normally, stopped by the whole-run deadline, or
    stopped by cooperative cancellation (SIGINT/SIGTERM).  Either early
    stop yields a *partial* report: completed verdicts are kept and the
    unvisited functions are listed in {!field-skipped}. *)
type stop = Completed | Deadline | Interrupted

type t = {
  file : string;
  elaborated : Elab.elaborated;
  graph : Rc_refinedc.Depgraph.t;
      (** the file's function-level dependency graph (always built — it
          is cheap, and embedders use it for impact queries) *)
  schedule : string list;
      (** the dirty functions in the order they were dispatched:
          {!Rc_refinedc.Depgraph.topo_order} (callees first), source
          order under [~fail_fast] *)
  results : check_result list;
  skipped : string list;
      (** functions not attempted: under [~fail_fast], after the
          whole-run deadline, or after an interrupt *)
  stop : stop;  (** why checking stopped, if before the end *)
  exec_stats : Supervisor.run_stats;
      (** supervision counters (task faults, not-run); all zero on a
          fault-free, deadline-free run *)
  jobs : int;  (** the session pool's worker count, 1 without a pool *)
  cache_stats : (int * int) option;
      (** (hits, misses) when a verification cache was supplied *)
  obs : Obs.t;
      (** the check's observability root: phase/function/rule spans
          (already merged in source order) and the metrics registry.
          {!Obs.off} when the session's config enables neither. *)
  diagnostics : Rc_util.Diagnostic.t list;
      (** frontend warnings and lint findings, sorted with
          {!Rc_util.Diagnostic.sort} — deterministic across [-j N] *)
  werror : bool;
      (** session's [l_werror]: problem diagnostics fail the run *)
}

exception Frontend_error of string

let parse_and_elab ?(obs = Obs.off) ~(session : Session.t) ~file
    (src : string) : Elab.elaborated =
  let ast =
    Obs.timed obs ~cat:"phase" ~key:"phase.parse"
      ~args:[ ("file", file) ] "phase:parse" (fun () ->
        match Cparser.parse_file ~file src with
        | exception Cparser.Parse_error (msg, loc) ->
            raise
              (Frontend_error
                 (Fmt.str "%a: parse error: %s" Rc_util.Srcloc.pp loc msg))
        | exception Clexer.Lex_error (msg, loc) ->
            raise
              (Frontend_error
                 (Fmt.str "%a: lexical error: %s" Rc_util.Srcloc.pp loc msg))
        | ast -> ast)
  in
  Obs.timed obs ~cat:"phase" ~key:"phase.elab" ~args:[ ("file", file) ]
    "phase:elab" (fun () ->
      let extra_warnings = Warn.check_file ast in
      match Elab.elab_file ~tenv:session.Session.tenv ast with
      | exception Elab.Elab_error (msg, loc) ->
          raise
            (Frontend_error
               (Fmt.str "%a: elaboration error: %s" Rc_util.Srcloc.pp loc msg))
      | exception Specparse.Spec_error msg ->
          raise (Frontend_error ("specification error: " ^ msg))
      | e -> { e with Elab.warnings = extra_warnings @ e.Elab.warnings })

(* ------------------------------------------------------------------ *)
(* Fault isolation                                                     *)
(* ------------------------------------------------------------------ *)

(** Run one function's check, converting any escaping exception into a
    structured checker-fault diagnostic — including [Out_of_memory] and
    [Stack_overflow], which abort this function's proof but say nothing
    about its siblings.  [Sys.Break] alone is re-raised: masking Ctrl-C
    would be dishonest (the CLI interrupts cooperatively via the
    session's [x_cancel] instead).  A fault planted by a chaos campaign
    is an {!Report.Injected_fault}: a fault like any other, told apart
    only so a report never blames the checker for it. *)
let check_fn_isolated ?(obs = Obs.off) ~session ~specs
    (f : Rc_refinedc.Typecheck.fn_to_check) :
    (Rc_refinedc.Lang.E.result, Report.t) result =
  match Rc_refinedc.Typecheck.check_fn ~obs ~session ~specs f with
  | outcome -> outcome
  | exception Report.Error e -> Error e
  | exception Sys.Break -> raise Sys.Break
  | exception Rc_util.Faultsim.Injected site ->
      Error (Report.make (Report.Injected_fault ("injected fault at " ^ site)))
  | exception Out_of_memory ->
      Error (Report.make (Report.Checker_fault "Out_of_memory in checker"))
  | exception Stack_overflow ->
      Error (Report.make (Report.Checker_fault "Stack_overflow in checker"))
  | exception e ->
      Error
        (Report.make
           (Report.Checker_fault ("uncaught exception " ^ Printexc.to_string e)))

(* ------------------------------------------------------------------ *)
(* Verification-cache replay                                           *)
(* ------------------------------------------------------------------ *)

(* Only successful verdicts are cached: failures are rare, re-proving
   them costs little and yields fresh diagnostics, and a failure's
   precise report can depend on budget timing.  The payload is the
   marshalled per-function statistics — exactly what the Figure-7
   aggregation and the JSON output consume — so a replayed run is
   indistinguishable from a re-proved one everywhere except the
   derivation tree, which is replaced by a one-node stub. *)

let cache_payload (stats : Rc_lithium.Stats.t) : string =
  Marshal.to_string stats []

let replay_result (data : string) :
    (Rc_refinedc.Lang.E.result, Report.t) result option =
  match (Marshal.from_string data 0 : Rc_lithium.Stats.t) with
  | stats ->
      Some
        (Ok
           {
             Rc_refinedc.Lang.E.deriv =
               Rc_lithium.Deriv.make ~info:"verdict replayed from cache"
                 "cached" [];
             stats;
           })
  | exception _ -> None

(** Verify every specified function of an already-elaborated file.

    Dispatch is one {!Rc_util.Supervisor.run} over the session's
    [x_pool]: its persistent workers if it carries one (its owner, e.g.
    the CLI's [-j N], spawns and sizes it), else the calling domain.  The
    dirty set goes out in {!Rc_refinedc.Depgraph.topo_order} (callees
    first); each function is checked against its callees' specs, so the
    order never changes a verdict.  Results come back in source order
    regardless — the workers share the session read-only, so
    parallelism is race-free by construction.  A fault campaign on the
    session does not force sequential checking: campaigns are
    domain-safe, and a chaos run *wants* the parallel dispatch path
    exercised (sequential replay determinism still holds without a
    pool, where hits draw from the seeded stream in hit order).

    [~cache] replays previously-proved verdicts (see the cache-key
    components in {!Rc_refinedc.Depgraph.components}); the campaign's
    ["cache.read"]/["cache.write"] sites are armed on every cache
    access, and an injection there degrades to a miss or a skipped
    store — never a wrong verdict, never an abort.

    With [~fail_fast] the dirty set goes out in source order and no
    function starts once one's verdict is an error; the functions after
    the first failure are skipped (and listed in {!field-skipped}).  A
    pool may finish functions that were already running beside the
    failing one; their results are cut, so the report is the same with
    and without a pool.

    [~obs] is the observability root (lane 0).  Every function check
    writes trace events and metrics into a private child handle (lane =
    1 + source index, so each function is its own track in Perfetto);
    the children of the *kept* results — always a source-order prefix —
    are merged back into the root in source order, which makes trace and
    metrics output deterministic across [-j N], fail-fast included. *)
let check_elaborated ?(fail_fast = false) ?cache ?(obs = Obs.off)
    ~(session : Session.t) ~file (elaborated : Elab.elaborated) : t =
  (* lint pre-pass: a pure analysis of the elaborated unit, before any
     proof search, so its findings arrive even when checking later
     faults out.  It never changes verdicts — only the diagnostics list
     (and, under [l_werror], the exit code). *)
  let lint_diags =
    if session.Session.lint.Session.l_enabled then
      Obs.timed obs ~cat:"phase" ~key:"phase.lint" ~args:[ ("file", file) ]
        "phase:lint" (fun () ->
          Rc_analysis.Lint.run ~obs ~indexes:elaborated.Elab.indexes ~session
            ~file ~funcs:elaborated.Elab.program.Syntax.funcs
            ~to_check:elaborated.Elab.to_check ())
    else []
  in
  let diagnostics =
    Rc_util.Diagnostic.sort (elaborated.Elab.warnings @ lint_diags)
  in
  let specs =
    List.map
      (fun (f : Rc_refinedc.Typecheck.fn_to_check) ->
        (f.spec.Rc_refinedc.Rtype.fs_name, f.spec))
      elaborated.to_check
  in
  let fn_name (f : Rc_refinedc.Typecheck.fn_to_check) =
    f.spec.Rc_refinedc.Rtype.fs_name
  in
  let campaign = Session.fault session in
  let exec = session.Session.exec in
  (* the function-level dependency graph: direct spec-level references
     extracted from Caesium bodies + spec/invariant types.  Built
     unconditionally because it orders the cold-run schedule (callees
     first); building it only walks the syntax for edges.  The content
     digests that key the incremental cache are computed on first use,
     so an uncached run never pays for them *)
  let graph = Depgraph.build elaborated.to_check in
  (* absolute whole-run deadline, measured from here; the supervisor
     measures its own from dispatch, a few microseconds later *)
  let deadline_watch = Rc_util.Budget.stopwatch () in
  let children =
    Array.of_list
      (List.mapi (fun i _ -> Obs.child obs ~tid:(i + 1)) elaborated.to_check)
  in
  if Obs.on obs then begin
    Rc_util.Trace.name_lane (Obs.tr obs) ~tid:0 "pipeline";
    List.iteri
      (fun i f ->
        Rc_util.Trace.name_lane (Obs.tr obs) ~tid:(i + 1)
          ("fn:" ^ fn_name f))
      elaborated.to_check
  end;
  let indexed = List.mapi (fun i f -> (i, f)) elaborated.to_check in
  (* the cache and its key builder: [Depgraph.components ~session]
     computes the session-wide components (toolchain fingerprint,
     budget) once here, not once per probed function *)
  let keyed_cache =
    Option.map (fun vc -> (vc, Depgraph.components ~session graph)) cache
  in
  (* ---- probe the verification cache up-front (the dirty cone) ----
     Probing is a sequential pass that computes each function's
     digests (the graph's lazy nodes are forced here, on one domain,
     before any dispatch) and looks them up: hits replay
     immediately, misses become the dirty set handed to the scheduler.
     Each function is keyed on its dependency cone
     ({!Depgraph.components}), with a manifest-diff miss explanation. *)
  let probe ((idx, f) : int * Rc_refinedc.Typecheck.fn_to_check) :
      check_result option * (string option * store_plan) =
    let co = children.(idx) in
    let name = fn_name f in
    let watch = Rc_util.Budget.stopwatch () in
    let cache_event kind =
      if Obs.on co then begin
        Obs.counter co ("cache." ^ kind);
        Obs.instant co ~cat:"cache" ~args:[ ("fn", name) ] ("cache:" ^ kind)
      end
    in
    let hit data =
      (* a readable entry whose payload this build cannot unmarshal
         (e.g. written by a different compiler) degrades to a
         corrupt-entry skip: re-prove and overwrite *)
      Option.map
        (fun outcome ->
          cache_event "hit";
          if Obs.on co then begin
            Obs.span_begin co ~cat:"check" ~args:[ ("fn", name) ]
              ("fn:" ^ name);
            Obs.instant co ~cat:"check"
              ~args:[ ("status", "verified") ]
              "verdict";
            Obs.span_end co ~cat:"check" ("fn:" ^ name);
            Obs.observe_ns co ("fn.ns." ^ name)
              (Int64.of_float (watch () *. 1e9))
          end;
          { name; outcome; time_s = watch (); cached = true; why = Some "hit" })
        (replay_result data)
    in
    match keyed_cache with
    | None -> (None, (None, None))
    | Some (vc, components_of) -> (
        let id = Depgraph.cache_id ~file name in
        let components = components_of f in
        match Vercache.find_keyed ?fault:campaign vc ~id ~components with
        | Vercache.KHit data -> (
            match hit data with
            | Some r -> (Some r, (None, None))
            | None ->
                Vercache.unreadable vc;
                cache_event "corrupt";
                (None, (Some "corrupt", Some (id, components))))
        | Vercache.KMiss reason ->
            cache_event
              (match reason with
              | Vercache.Collision -> "corrupt"
              | Vercache.Fresh | Vercache.Changed _ | Vercache.Evicted ->
                  "miss");
            ( None,
              (Some (Vercache.reason_label reason), Some (id, components)) ))
  in
  let hits_rev, dirty_rev =
    List.fold_left
      (fun (hs, ds) (i, f) ->
        match probe (i, f) with
        | Some r, _ -> ((i, r) :: hs, ds)
        | None, (why, plan) -> (hs, (i, f, why, plan) :: ds))
      ([], []) indexed
  in
  let hits = List.rev hits_rev in
  (* ---- schedule the dirty set ----
     Topological order (callees first, so a cold run proves leaves
     while callers wait on workers).  [~fail_fast] keeps source order:
     its contract is "nothing after the first failure", which only
     means anything in a fixed order. *)
  let dirty =
    let dirty = List.rev dirty_rev in
    if fail_fast then dirty
    else begin
      let topo_pos = Hashtbl.create 16 in
      List.iteri
        (fun i n -> Hashtbl.replace topo_pos n i)
        (Depgraph.topo_order graph);
      let pos (_, f, _, _) =
        Option.value ~default:max_int (Hashtbl.find_opt topo_pos (fn_name f))
      in
      List.stable_sort (fun a b -> Int.compare (pos a) (pos b)) dirty
    end
  in
  let schedule = List.map (fun (_, f, _, _) -> fn_name f) dirty in
  let check_one
      ((idx, f, why, plan) :
        int * Rc_refinedc.Typecheck.fn_to_check * string option * store_plan)
      : check_result =
    let co = children.(idx) in
    let watch = Rc_util.Budget.stopwatch () in
    let name = fn_name f in
    if Obs.on co then begin
      Obs.counter co "pool.tasks";
      Obs.instant co ~cat:"sched"
        ~args:
          [ ("fn", name);
            ("domain", string_of_int (Supervisor.worker_id ())) ]
        "task:begin";
      Obs.span_begin co ~cat:"check" ~args:[ ("fn", name) ] ("fn:" ^ name)
    end;
    (* cap this function's budget timeout by the time left on the
       whole-run deadline, so an in-flight check cannot overshoot the
       run by more than the cap.  The cache key was computed from the
       *original* session (at probe time): only [Ok] verdicts are cached
       and verdicts are budget-monotone, so the capped session can only
       turn would-be verdicts into (uncached) exhaustions. *)
    let session =
      match exec.Session.x_deadline with
      | None -> session
      | Some d ->
          let remaining = Float.max 0.01 (d -. deadline_watch ()) in
          let b = session.Session.budget in
          let timeout =
            match b.Rc_util.Budget.timeout with
            | Some t -> Some (Float.min t remaining)
            | None -> Some remaining
          in
          Session.with_budget session { b with Rc_util.Budget.timeout }
    in
    let outcome = check_fn_isolated ~obs:co ~session ~specs f in
    (* [time_s] is proof search: the store below is the driver's time *)
    let r = { name; outcome; time_s = watch (); cached = false; why } in
    (match (cache, plan, outcome) with
    | Some vc, Some (id, components), Ok res ->
        Vercache.store_keyed ?fault:campaign vc ~id ~components
          (cache_payload res.Rc_refinedc.Lang.E.stats)
    | _ -> ());
    if Obs.on co then begin
      Obs.instant co ~cat:"check"
        ~args:
          [ ( "status",
              match r.outcome with
              | Ok _ -> "verified"
              | Error e -> if Report.is_fault e then "fault" else "failed" )
          ]
        "verdict";
      Obs.span_end co ~cat:"check" ("fn:" ^ name);
      Obs.observe_ns co ("fn.ns." ^ name) (Int64.of_float (r.time_s *. 1e9));
      Obs.instant co ~cat:"sched"
        ~args:
          [ ("fn", name);
            ("domain", string_of_int (Supervisor.worker_id ())) ]
        "task:end"
    end;
    r
  in
  (* ---- dispatch through the supervisor ---- *)
  let cancel =
    match exec.Session.x_cancel with Some c -> c | None -> fun () -> false
  in
  let jobs =
    match exec.Session.x_pool with Some p -> Supervisor.jobs p | None -> 1
  in
  (* fail-fast: no function starts after one whose verdict is an error
     (the dirty set is in source order then) *)
  let outcomes, exec_stats =
    Supervisor.run exec.Session.x_pool ?deadline:exec.Session.x_deadline
      ~cancel ~halt:(fun r -> fail_fast && Result.is_error r.outcome)
      check_one dirty
  in
  (* ---- assemble results, faults and skips in source order ----
     Cache hits and dirty verdicts merge by source index: the output
     order never depends on the dispatch schedule.  Under fail-fast
     everything after the first failure is skipped, also what a pool
     finished beside it. *)
  let slots =
    List.sort
      (fun (a, _, _) (b, _, _) -> Int.compare a b)
      (List.map (fun (i, r) -> (i, r.name, Some r)) hits
      @ List.map2
          (fun (i, f, why, _plan) outcome ->
            ( i,
              fn_name f,
              match outcome with
              | Supervisor.Done r -> Some r
              | Supervisor.Fault fl ->
                  (* the task died; the verdict slot survives as a
                     structured checker fault *)
                  Some
                    {
                      name = fn_name f;
                      outcome =
                        Error
                          (Report.make
                             (Report.Checker_fault
                                ("worker fault: " ^ fl.Supervisor.f_exn)));
                      time_s = 0.;
                      cached = false;
                      why;
                    }
              | Supervisor.Not_run _ -> None ))
          dirty outcomes)
  in
  let kept_rev, skipped_rev, _ =
    List.fold_left
      (fun (ks, ss, cut) (i, name, r) ->
        match r with
        | Some r when not cut ->
            ((i, r) :: ks, ss, fail_fast && Result.is_error r.outcome)
        | _ -> (ks, name :: ss, cut))
      ([], [], false) slots
  in
  let kept = List.rev kept_rev and skipped = List.rev skipped_rev in
  let results = List.map snd kept in
  let stop =
    match exec_stats.Supervisor.rs_stop with
    | Some Supervisor.Deadline -> Deadline
    | _ -> if cancel () then Interrupted else Completed
  in
  (* merge the kept results' observability by source index — skips and
     fail-fast discards contribute nothing, exactly as in a sequential
     run that never reached them *)
  if Obs.on obs then List.iter (fun (i, _) -> Obs.absorb obs children.(i)) kept;
  let cache_stats =
    match cache with
    | None -> None
    | Some _ ->
        let hits = List.length (List.filter (fun r -> r.cached) results) in
        Some (hits, List.length results - hits)
  in
  {
    file;
    elaborated;
    graph;
    schedule;
    results;
    skipped;
    stop;
    exec_stats;
    jobs;
    cache_stats;
    obs;
    diagnostics;
    werror = session.Session.lint.Session.l_werror;
  }

(** Lint (only) an already-elaborated file: frontend warnings plus every
    registered pass, regardless of the session's [l_enabled] /
    [l_passes] pre-pass selection — the [refinedc lint] verb's engine.
    Pass [~passes] to restrict to named passes
    (raises {!Rc_analysis.Lint.Unknown_pass} on a bad name). *)
let lint_elaborated ?(obs = Obs.off) ?passes ~(session : Session.t) ~file
    (elaborated : Elab.elaborated) : Rc_util.Diagnostic.t list =
  let session =
    Session.with_lint session
      { Session.l_enabled = true; l_passes = passes; l_werror = false }
  in
  let lint_diags =
    Obs.timed obs ~cat:"phase" ~key:"phase.lint" ~args:[ ("file", file) ]
      "phase:lint" (fun () ->
        Rc_analysis.Lint.run ~obs ~indexes:elaborated.Elab.indexes ~session
          ~file ~funcs:elaborated.Elab.program.Syntax.funcs
          ~to_check:elaborated.Elab.to_check ())
  in
  Rc_util.Diagnostic.sort (elaborated.Elab.warnings @ lint_diags)

(** Verify every specified function of a source string.  The session's
    observability configuration (see {!Session.with_obs}) decides
    whether a trace/metrics root is minted for this check; the root
    rides on the returned {!field-obs}. *)
let check_source ?(session = Session.create ()) ?fail_fast ?cache ~file
    (src : string) : t =
  let obs = Obs.create ~tid:0 session.Session.obs in
  let elaborated = parse_and_elab ~obs ~session ~file src in
  Obs.timed obs ~cat:"phase" ~key:"phase.check" ~args:[ ("file", file) ]
    "phase:check" (fun () ->
      check_elaborated ?fail_fast ?cache ~obs ~session ~file elaborated)

let check_file ?(session = Session.create ()) ?fail_fast ?cache
    (path : string) : t =
  (* the file-I/O boundary: both a real read failure and an injected
     ["io.read"] fault become a structured frontend error — the one
     failure that is necessarily file-fatal, but still a clean report
     rather than an escaped exception *)
  let src =
    match
      Rc_util.Faultsim.point (Session.fault session) "io.read";
      In_channel.with_open_bin path In_channel.input_all
    with
    | src -> src
    | exception Rc_util.Faultsim.Injected _ ->
        raise (Frontend_error (Fmt.str "injected I/O fault reading %s" path))
    | exception Sys_error msg ->
        raise (Frontend_error ("cannot read " ^ path ^ ": " ^ msg))
  in
  check_source ~session ?fail_fast ?cache ~file:path src

(* ------------------------------------------------------------------ *)
(* Outcome queries                                                     *)
(* ------------------------------------------------------------------ *)

let all_ok (t : t) =
  t.skipped = [] && List.for_all (fun r -> Result.is_ok r.outcome) t.results

let errors (t : t) =
  List.filter_map
    (fun r ->
      match r.outcome with Ok _ -> None | Error e -> Some (r.name, e))
    t.results

(** Verification failures: the program (or its spec) could not be
    verified.  The complement of {!faults} within {!errors}. *)
let failures (t : t) =
  List.filter (fun (_, e) -> not (Report.is_fault e)) (errors t)

(** Checker faults: the *checker* crashed or ran out of budget on these
    functions; nothing was established about the program. *)
let faults (t : t) =
  List.filter (fun (_, e) -> Report.is_fault e) (errors t)

(** The CLI exit-code contract: 0 = all functions verified,
    1 = at least one verification failure (or, under [--lint-werror], a
    problem diagnostic), 2 = at least one checker fault or budget
    exhaustion — including the whole-run [--deadline], which is budget
    exhaustion at the run level — and 130 = interrupted (the
    conventional 128+SIGINT), whatever the partial report holds. *)
let exit_code (t : t) =
  if t.stop = Interrupted then 130
  else if faults t <> [] then 2
  else if t.stop = Deadline then 2
  else if not (all_ok t) then 1
  else if t.werror && List.exists Rc_util.Diagnostic.is_problem t.diagnostics
  then 1
  else 0

(** Aggregate statistics over all verified functions (Figure 7 inputs). *)
let stats (t : t) : Rc_lithium.Stats.t =
  let acc = Rc_lithium.Stats.create () in
  List.iter
    (fun r ->
      match r.outcome with
      | Ok { Rc_refinedc.Lang.E.stats; _ } -> Rc_lithium.Stats.merge acc stats
      | Error _ -> ())
    t.results;
  acc

(* ------------------------------------------------------------------ *)
(* JSON diagnostics (--json)                                           *)
(* ------------------------------------------------------------------ *)

let result_to_json ?(timings = true) (r : check_result) : Rc_util.Jsonout.t =
  let open Rc_util.Jsonout in
  let base =
    [
      ("name", Str r.name);
      ("time_s", Float (if timings then r.time_s else 0.));
      ("cached", Bool r.cached);
      (* why the cache behaved as it did ("hit", "new", "changed:body",
         "changed:spec+callee:f", …); deterministic given the cache
         directory's state, so -j1/-j4 byte-identity is preserved *)
      ("cache_why", match r.why with None -> Null | Some w -> Str w);
    ]
  in
  match r.outcome with
  | Ok res ->
      let s = res.Rc_refinedc.Lang.E.stats in
      Obj
        (base
        @ [
            ("status", Str "verified");
            ( "stats",
              Obj
                [
                  ("rule_apps", Int s.Rc_lithium.Stats.rule_apps);
                  ("evar_insts", Int s.Rc_lithium.Stats.evar_insts);
                  ("side_auto", Int s.Rc_lithium.Stats.side_auto);
                  ("side_manual", Int s.Rc_lithium.Stats.side_manual);
                ] );
          ])
  | Error e ->
      Obj
        (base
        @ [
            ("status", Str (if Report.is_fault e then "fault" else "failed"));
            ("diagnostic", Report.to_json e);
          ])

(* The blocks the [--json] report and the run ledger share. *)

let cache_json (t : t) : Rc_util.Jsonout.t =
  let open Rc_util.Jsonout in
  match t.cache_stats with
  | None -> Null
  | Some (hits, misses) ->
      Obj
        [
          ("hits", Int hits);
          ("misses", Int misses);
          ( "hit_rate",
            Float
              (if hits + misses = 0 then 0.
               else float_of_int hits /. float_of_int (hits + misses)) );
        ]

(* supervision counters: all zero on a fault-free, deadline-free run,
   which keeps -j1/-j4 reports byte-identical *)
let exec_json (t : t) : Rc_util.Jsonout.t =
  let open Rc_util.Jsonout in
  let e = t.exec_stats in
  Obj
    [
      ("task_faults", Int e.Supervisor.rs_task_faults);
      ("not_run", Int e.Supervisor.rs_not_run);
    ]

let stop_json (t : t) : Rc_util.Jsonout.t =
  Rc_util.Jsonout.Str
    (match t.stop with
    | Completed -> "completed"
    | Deadline -> "deadline"
    | Interrupted -> "interrupted")

(** The report is a pure function of the session configuration and the
    source: run-environment inputs (the [-j N] worker count) are not
    echoed, and [~timings:false] zeroes the wall-clock fields — the only
    nondeterministic part — so [-j 1] and [-j 4] runs serialize to
    byte-identical JSON. *)
let to_json ?(timings = true) (t : t) : Rc_util.Jsonout.t =
  let open Rc_util.Jsonout in
  Obj
    [
      ("file", Str t.file);
      ("ok", Bool (all_ok t));
      ("exit_code", Int (exit_code t));
      ("cache", cache_json t);
      ("functions", List (List.map (result_to_json ~timings) t.results));
      ("skipped", List (List.map (fun s -> Str s) t.skipped));
      ("stop", stop_json t);
      ("interrupted", Bool (t.stop = Interrupted));
      ("exec", exec_json t);
      ( "diagnostics",
        List (List.map Rc_util.Diagnostic.to_json t.diagnostics) );
      ( "coverage",
        let specified, total =
          Rc_analysis.Lint.coverage
            ~funcs:t.elaborated.Elab.program.Syntax.funcs
            ~to_check:t.elaborated.Elab.to_check
        in
        Obj [ ("specified", Int specified); ("total", Int total) ] );
      (* Null unless the session enabled metrics; with [~timings:false]
         only observation counts survive, which are deterministic *)
      ("metrics", Rc_util.Metrics.to_json ~timings (Obs.mx t.obs));
    ]

(* ------------------------------------------------------------------ *)
(* Run-ledger records (--runlog)                                        *)
(* ------------------------------------------------------------------ *)

(** One {!Rc_util.Runlog} record for this check run.  Unlike
    {!to_json}, ledger records carry wall-clock data by design — they
    exist to track throughput across runs — but they are out-of-band:
    written to the ledger file beside the cache, never to stdout, so the
    [-j 1] ≡ [-j 4] byte-identity of the [--json] report is untouched.
    Per-function percentiles are precomputed at write time so
    [refinedc stats] never needs the raw function list.  When the
    session collected metrics, the record's [metrics] field is the
    report's [metrics] block with its timings ({!Rc_util.Metrics.to_json});
    otherwise the record has no [metrics] key. *)
let runlog_record ~(session : Session.t) ~(wall_s : float) (t : t) :
    Rc_util.Jsonout.t =
  let open Rc_util.Jsonout in
  let s = stats t in
  let rule_apps = s.Rc_lithium.Stats.rule_apps in
  let verified, failed, faults_n =
    List.fold_left
      (fun (v, f, x) r ->
        match r.outcome with
        | Ok _ -> (v + 1, f, x)
        | Error e -> if Report.is_fault e then (v, f, x + 1) else (v, f + 1, x))
      (0, 0, 0) t.results
  in
  let fn_walls =
    List.filter_map
      (fun r -> if r.cached then None else Some r.time_s)
      t.results
  in
  let pct p =
    match Rc_util.Runlog.percentile p fn_walls with
    | Some v -> Float v
    | None -> Null
  in
  let why_histogram =
    (* "changed:body+callee:f" buckets by its head ("changed:body") so
       the histogram stays low-cardinality across runs *)
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun r ->
        match r.why with
        | None -> ()
        | Some w ->
            let key =
              match String.index_opt w '+' with
              | Some i -> String.sub w 0 i
              | None -> w
            in
            Hashtbl.replace tbl key
              (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
      t.results;
    Hashtbl.fold (fun k v acc -> (k, Int v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let m = Obs.mx t.obs in
  Obj
    ([
       ("schema", Str Rc_util.Runlog.schema_version);
       ("kind", Str "check");
       ("file", Str t.file);
       ( "fingerprint",
         Str (Rc_refinedc.Typecheck.toolchain_fingerprint session) );
       ("ocaml", Str Sys.ocaml_version);
       ("jobs", Int t.jobs);
       ("wall_s", Float wall_s);
       ("rule_apps", Int rule_apps);
       ( "apps_per_sec",
         if wall_s > 0. then Float (float_of_int rule_apps /. wall_s)
         else Null );
       ( "verdicts",
         Obj
           [
             ("verified", Int verified);
             ("failed", Int failed);
             ("faults", Int faults_n);
             ("skipped", Int (List.length t.skipped));
           ] );
       ("cache", cache_json t);
       ("cache_why", Obj why_histogram);
       ( "fn_wall",
         Obj
           [
             ("checked", Int (List.length fn_walls));
             ("p50_s", pct 0.5);
             ("p95_s", pct 0.95);
           ] );
       ("exec", exec_json t);
       ("stop", stop_json t);
     ]
    @
    if Rc_util.Metrics.on m then [ ("metrics", Rc_util.Metrics.to_json m) ]
    else [])

(** Run a function of the elaborated program in the Caesium interpreter
    (used by examples and the semantic-soundness harness). *)
let run (t : t) (fname : string) (args : Rc_caesium.Value.t list) =
  Rc_caesium.Eval.run_fn t.elaborated.Elab.program fname args
