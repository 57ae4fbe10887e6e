(** Solver registry: RefinedC's side-condition discharge pipeline
    (step (C) of Figure 2).

    Side conditions are tried, in order, against: the default solver
    (simplifier + syntactic lookup + {!Linarith} + {!List_solver}), the
    named solvers enabled by [rc::tactics], and the registered manual
    lemmas.  The verdict records which — the basis of Figure 7's
    auto/manual split.

    The registry is an immutable *value* owned by a verification
    session, not a process-global table: two concurrent sessions can
    solve under different solver sets, lemma libraries, simplifier
    hooks and ablation configs without observing each other. *)

type verdict =
  | Auto  (** proved by the default solver *)
  | Via_solver of string  (** proved by a named solver ([rc::tactics]) *)
  | Via_lemma of string  (** proved by a registered manual lemma *)
  | Unsolved

val pp_verdict : Format.formatter -> verdict -> unit

val resolve_ites :
  ?scope:Linarith.scope ->
  ?hooks:Simp.hooks ->
  hyps:Term.prop list ->
  Term.prop ->
  Term.prop
(** resolve conditionals whose condition the hypotheses decide, e.g. the
    refinement [(n ≤ a ? a - n : a)] under the branch fact [n ≤ a];
    [?scope] defaults to a fresh one *)

(** {1 The registry value} *)

type t = {
  solvers : solver list;  (** named solvers, in registration order *)
  lemmas : lemma list;  (** manual lemmas, in registration order *)
  default_only : bool;
      (** ablation: ignore named solvers and lemmas — the paper's "one
          default solver" baseline *)
  hooks : Simp.hooks;  (** expert simplifier extensions *)
  fault : Rc_util.Faultsim.t option;
      (** this session's fault-injection campaign, if any *)
  lia : Linarith.scope option;
      (** the solver scope of the function check in progress ({!scoped});
          [None] in a session's registry, where every {!solve} and
          {!default_prove} call opens a scope of its own *)
}

and solver = {
  name : string;
  run : t -> hyps:Term.prop list -> Term.prop -> bool;
      (** a named solver receives the registry so it can call back into
          {!default_prove} for its pure subgoals *)
}

(** {1 Manual lemmas (the stand-in for manual Coq proofs)} *)

and lemma = {
  lname : string;
  vars : (string * Sort.t) list;  (** universally quantified metavars *)
  premises : Term.prop list;
      (** discharged left to right; a premise may bind further metavars
          by matching a hypothesis *)
  concl : Term.prop;
}

val builtin_solvers : solver list
(** multiset_solver, set_solver, list_solver, lia *)

val default : t
(** builtin solvers, no lemmas, no hooks, no ablation, no faults *)

val create :
  ?solvers:solver list ->
  ?lemmas:lemma list ->
  ?default_only:bool ->
  ?hooks:Simp.hooks ->
  ?fault:Rc_util.Faultsim.t ->
  unit ->
  t
(** [create ()] = {!default}; [?solvers] are appended after the builtin
    ones *)

val scoped : t -> t
(** [scoped reg] is [reg] with a fresh solver scope: the per-function
    copy that the Lithium engine and the certificate checker make for
    each function they check, so the hypotheses shared by the
    function's side conditions are simplified and linearised once *)

val flush_scope : t -> Rc_util.Obs.t -> unit
(** add the scope's [solver.lia.*] counters to [obs]
    ({!Linarith.flush}); nothing without a scope *)

val add_lemma : t -> lemma -> t
val with_fault : t -> Rc_util.Faultsim.t option -> t
val find_solver : t -> string -> solver option

val default_prove : t -> hyps:Term.prop list -> Term.prop -> bool
(** the default solver (under the registry's simplifier hooks) *)

val fingerprint : t -> string
(** digest of the registry's solvers, lemmas, hooks and ablation state —
    a component of the verification-cache key.  The fault-injection
    campaign is deliberately excluded: faults perturb control flow, not
    the meaning of a verdict (and faulted runs are never cached). *)

val solve :
  t ->
  ?obs:Rc_util.Obs.t ->
  ?tactics:string list ->
  hyps:Term.prop list ->
  Term.prop ->
  verdict
(** [?obs] records per-prover call counters and latency timers
    ([solver.calls.*] / [solver.ns.*]) and one [solve] trace event with
    the goal and verdict; the default disabled handle costs nothing *)
