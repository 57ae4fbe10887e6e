(** The stable embedding API for RefinedC-as-a-library.

    A host (IDE server, build tool, test harness) interacts with the
    checker through exactly two notions:

    - a {e session} ({!Rc_refinedc.Session.t}): one immutable,
      self-contained checking configuration — typing rules, solver/lemma
      registry, simplifier hooks, goal-simp and ablation switches, the
      named-type environment, the resource budget and (optionally) a
      fault-injection campaign.  Sessions are values: building one has no
      side effects on any other session, and any number can coexist in
      one process — including concurrently, from multiple domains.
    - the checking entry points {!check_file} / {!check_source} /
      {!check_function}, each of which takes the session explicitly.

    There is deliberately no [init]/[setup]/[register_*] surface: every
    piece of configuration travels inside the session argument, which is
    what makes the pipeline reentrant (see README "Architecture"). *)

module Session = Rc_refinedc.Session
module Driver = Rc_frontend.Driver

type session = Session.t

(** Build a session.

    [~case_studies:true] pre-loads the expert library of
    {!Rc_studies.Studies} (spinlock/barrier/allocator/mpool named types,
    the hashmap and BST lemma sets, the [rev] simplifier hook) — the
    configuration under which the paper's §7 corpus is checked.  The
    remaining parameters layer on top of (or, for [?hooks], replace)
    that base:

    - [rules]: extra typing rules appended to the standard library;
    - [solvers]: extra named side-condition solvers;
    - [lemmas]: extra manual lemmas;
    - [hooks]: simplifier hooks (overrides the case-study hooks);
    - [default_only]: ablation — disable named solvers and lemmas;
    - [no_goal_simp]: ablation — disable goal simplification;
    - [type_defs]: named-type definitions to pre-register;
    - [budget]: per-function resource limits;
    - [fault]: a fault-injection campaign (testing only);
    - [obs]: observability switches — [{c_trace; c_metrics}] enables
      proof-search tracing and/or the metrics registry for every check
      run under the session (see README "Observability");
    - [lint]: static-analysis configuration (enabled passes, werror) —
      see README "Static analysis";
    - [deadline]/[pool]/[cancel]: execution robustness — the whole-run
      deadline, persistent supervised worker pool and
      cooperative-cancellation poll; absent, there is none of each, as
      in {!Rc_refinedc.Session.default_exec} (see README "Robustness &
      degradation");
    - [memo]: enable within-run subgoal memoization ([--memo]) — see
      README "Engine speed";
    - [forensics]: attach a bounded derivation snapshot (goal stack,
      candidate rules with rejection reasons, evar state, recent rule
      applications) to every failure report ([--explain-failure]) — see
      README "Observability";
    - [judgments]: print every derivation node's judgment, atom or
      binder, for a host that shows the trees ([--deriv]).  Off by
      default: the derivations then carry only what the certificate
      checker reads, and proof search allocates much less. *)
let create_session ?(case_studies = false) ?(rules = []) ?(solvers = [])
    ?(lemmas = []) ?hooks ?(default_only = false) ?(no_goal_simp = false)
    ?(type_defs = []) ?budget ?fault ?obs ?lint ?deadline ?pool
    ?cancel ?memo ?forensics ?judgments () : session =
  let hooks =
    match hooks with
    | Some h -> h
    | None ->
        if case_studies then Rc_studies.Studies.hooks
        else Rc_pure.Simp.no_hooks
  in
  let lemmas =
    (if case_studies then Rc_studies.Studies.lemmas else []) @ lemmas
  in
  let registry =
    Rc_pure.Registry.create ~solvers ~lemmas ~default_only ~hooks ?fault ()
  in
  let gs =
    { Rc_lithium.Evar.default_simp_cfg with gs_no_goal_simp = no_goal_simp }
  in
  let tenv = Rc_refinedc.Rtype.create_tenv () in
  if case_studies then Rc_studies.Studies.install_types tenv;
  List.iter (Rc_refinedc.Rtype.register_type_def tenv) type_defs;
  let exec =
    {
      Session.x_deadline = deadline;
      x_pool = pool;
      x_cancel = cancel;
    }
  in
  Session.create ~rules ~registry ~gs ~tenv ?budget ?obs ?lint ~exec ?memo
    ?forensics ?judgments ()

(** Check every specified function of a C file under [session]. *)
let check_file ?session ?fail_fast ?cache (path : string) : Driver.t =
  Driver.check_file ?session ?fail_fast ?cache path

(** The file's function-level dependency graph (always built; see
    {!Rc_refinedc.Depgraph}).  Hosts use it for impact queries — e.g.
    {!Rc_refinedc.Depgraph.cone} [g [f]] is every function a spec edit
    of [f] can dirty. *)
let dependency_graph (t : Driver.t) : Rc_refinedc.Depgraph.t =
  t.Driver.graph

(** The dirty functions of the last check in dispatch order
    (topological, callees first; source order under [~fail_fast]); cache
    hits are not scheduled. *)
let schedule (t : Driver.t) : string list = t.Driver.schedule

(** Check every specified function of an in-memory C source. *)
let check_source ?session ?fail_fast ?cache ~file (src : string) : Driver.t =
  Driver.check_source ?session ?fail_fast ?cache ~file src

exception Unknown_function of string

(** Check a single function of an in-memory C source, by name.  Raises
    {!Unknown_function} if [name] has no specification in [src], and
    {!Driver.Frontend_error} on parse/elaboration errors. *)
let check_function ?session ~file ~(name : string) (src : string) :
    (Rc_refinedc.Lang.E.result, Rc_lithium.Report.t) result =
  let session =
    match session with Some s -> s | None -> Session.create ()
  in
  let elaborated = Driver.parse_and_elab ~session ~file src in
  let specs =
    List.map
      (fun (f : Rc_refinedc.Typecheck.fn_to_check) ->
        (f.spec.Rc_refinedc.Rtype.fs_name, f.spec))
      elaborated.Rc_frontend.Elab.to_check
  in
  match
    List.find_opt
      (fun (f : Rc_refinedc.Typecheck.fn_to_check) ->
        f.spec.Rc_refinedc.Rtype.fs_name = name)
      elaborated.Rc_frontend.Elab.to_check
  with
  | None -> raise (Unknown_function name)
  | Some f -> Driver.check_fn_isolated ~session ~specs f
