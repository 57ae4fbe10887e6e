(** The verification session: one self-contained, immutable checking
    context.

    Everything that used to live in process-global mutable tables — the
    compiled typing-rule index, the solver/lemma registry and its
    simplifier hooks, the goal-simplification rules, the ablation
    switches, the named-type environment, the fault-injection campaign
    and the resource budget — is bundled here, built once per [check]
    invocation and threaded explicitly through driver → typechecker →
    Lithium engine → pure solvers → certificate checker.

    Consequences, by construction rather than by discipline:
    - [-j N] checking is race-free: domains share one session read-only;
    - two sessions with different rule sets, solvers or ablations can
      run concurrently in one process with independent verdicts/stats;
    - a long-lived server can hold many sessions without cross-talk. *)

(** Static-analysis (lint) configuration.  Plain data — pass *names*
    rather than pass closures — so the session layer stays independent
    of the analysis library; names are resolved by the lint registry in
    the driver.  The configuration is part of the session because it is
    part of the verdict surface: [l_werror] changes exit codes, and the
    whole record is fingerprinted into the verification-cache key. *)
type lint_cfg = {
  l_enabled : bool;  (** run the lint pre-pass during [check] *)
  l_passes : string list option;  (** [None] = every registered pass *)
  l_werror : bool;  (** problem diagnostics fail the run *)
}

let default_lint : lint_cfg =
  { l_enabled = true; l_passes = None; l_werror = false }

(** Execution-robustness configuration: how a run is *scheduled*, not
    what it *means*.  Deliberately not fingerprinted into the
    verification-cache key: only [Ok] verdicts are cached, and verdicts
    are monotone in execution generosity (a deadline or cancellation
    can only turn results into [skipped], which are never cached), so
    two runs differing only in [exec] can safely share entries. *)
type exec_cfg = {
  x_deadline : float option;
      (** whole-run wall-clock budget (seconds, monotonic clock); hit it
          and remaining functions are reported [skipped] *)
  x_pool : Rc_util.Supervisor.t option;
      (** the persistent supervised worker pool; [None] makes the driver
          run sequentially on the calling domain.  The handle is owned
          by whoever created the session — the pool outlives individual
          [check] calls, which is the whole point. *)
  x_cancel : (unit -> bool) option;
      (** cooperative cancellation, polled between functions (the CLI
          wires its SIGINT/SIGTERM flag here) *)
}

let default_exec : exec_cfg =
  { x_deadline = None; x_pool = None; x_cancel = None }

type t = {
  index : Lang.E.index;  (** compiled typing rules (head-indexed) *)
  extra_rules : Lang.E.rule list;
      (** the session rules beyond the standard library (kept so the
          certificate checker can enumerate the declared rule set) *)
  registry : Rc_pure.Registry.t;
      (** named solvers, manual lemmas, simplifier hooks, the
          default-only ablation, and the fault campaign *)
  gs : Rc_lithium.Evar.simp_cfg;  (** goal-simplification configuration *)
  tenv : Rtype.tenv;  (** named-type definitions (rc::refined_by …) *)
  budget : Rc_util.Budget.limits;  (** per-function resource budget *)
  obs : Rc_util.Obs.cfg;
      (** observability switches (tracing / metrics).  The session holds
          only the immutable *configuration*; the mutable trace buffers
          and metric registries are minted per check by the driver, one
          per function, so shared-session [-j N] runs stay race-free. *)
  lint : lint_cfg;  (** pre-verification static analysis configuration *)
  exec : exec_cfg;  (** execution robustness: pool, deadline, cancel *)
  memo : bool;
      (** within-run subgoal memoization ([--memo]).  Part of the session
          because it is part of the *proof search* configuration — it
          never changes verdicts (the engine revalidates every Γ
          interaction before accepting a hit), but it does change
          derivation sharing, so the certificate path refuses it (the
          driver disables memoization under [--cert]). *)
  forensics : bool;
      (** proof-failure forensics ([--explain-failure]): the engine
          attaches a derivation snapshot — goal stack, candidate rules
          with rejection reasons, evar state, recent rule applications —
          bounded by {!Rc_lithium.Report.default_fx_limits}, to every
          failure report.  Like {!exec_cfg} it is not fingerprinted into
          the verification-cache key: only [Ok] verdicts are cached,
          failures (the only reports that carry forensics) never are, so
          two runs differing only here can share entries. *)
  judgments : bool;
      (** print each derivation node's judgment ([--deriv]).  Like
          {!exec_cfg} it is not fingerprinted into the verification-cache
          key: it changes no verdict, only the [d_info] text of the
          derivation nodes, which no checker reads and no cache entry
          stores. *)
}

(** Build a session.  Omitted components default to the standard
    library / empty environments, so [create ()] is the stock RefinedC
    configuration.  Construction is pure apart from allocating the
    session's own (initially empty) type environment. *)
let create ?(rules = []) ?(registry = Rc_pure.Registry.default)
    ?(gs = Rc_lithium.Evar.default_simp_cfg) ?tenv
    ?(budget = Rc_util.Budget.unlimited) ?(obs = Rc_util.Obs.cfg_off)
    ?(lint = default_lint) ?(exec = default_exec) ?(memo = false)
    ?(forensics = false) ?(judgments = false) () : t =
  {
    index = Rules.make ~extra:rules ();
    extra_rules = rules;
    registry;
    gs;
    tenv = (match tenv with Some te -> te | None -> Rtype.create_tenv ());
    budget;
    obs;
    lint;
    exec;
    memo;
    forensics;
    judgments;
  }

let fault (s : t) : Rc_util.Faultsim.t option = s.registry.Rc_pure.Registry.fault

(** Replace the fault campaign (campaigns are per-session by design). *)
let with_fault (s : t) f : t =
  { s with registry = Rc_pure.Registry.with_fault s.registry f }

let with_budget (s : t) budget : t = { s with budget }

(** Replace the observability configuration (a CLI convenience, like
    {!with_budget}). *)
let with_obs (s : t) obs : t = { s with obs }

(** Replace the lint configuration (a CLI convenience, like
    {!with_budget}). *)
let with_lint (s : t) lint : t = { s with lint }

(** Replace the execution-robustness configuration (a CLI convenience,
    like {!with_budget}). *)
let with_exec (s : t) exec : t = { s with exec }

(** Switch memoization (a CLI convenience, like {!with_budget}). *)
let with_memo (s : t) memo : t = { s with memo }
