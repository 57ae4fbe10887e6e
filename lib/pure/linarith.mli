(** Linear integer arithmetic — the core of RefinedC's *default* solver
    (§7: "the one default solver that we wrote … currently only targets
    linear arithmetic and Coq lists").

    [prove ~hyps goal] decides sequents [Γ ⊨ φ] by refutation:
    [Γ ∧ ¬φ] is put in disjunctive normal form, with bounded case
    splitting over [∨], conditionals, truncated subtraction, [min]/[max]
    and disequalities, and every branch is refuted by Fourier–Motzkin
    elimination over the rationals plus an integer divisibility check on
    equalities.  Redundant constraints (satisfied constants, and all but
    the tightest of those sharing a coefficient vector) are pruned as
    constraints are added and after every elimination step.  Non-linear subterms are atomized with
    congruence (equal subterms share an atom) and sort axioms ([Nat]
    variables and lengths are non-negative, [mod] by a positive literal
    is bounded).

    Soundness: a [true] answer is always valid over the integers.  The
    procedure is deliberately incomplete; goals it misses surface as
    unsolved side conditions — the paper's "manual" column. *)

type scope
(** The solver state of one function check.  A scope holds the atom
    table, each proposition's simplified form (one memo per simplifier
    hooks value) and DNF, and a stack of the last query's hypotheses,
    oldest first.  Each stack entry keeps its prefix's DNF combinations
    with the equalities eliminated and the inequalities pruned, so a
    query re-prepares only the hypotheses in front of the prefix it
    shares with the stack, and then adds its negated goal.  It also
    counts the work done (see {!flush}).

    Answers never depend on what a scope has seen: a query answered in
    a long-lived scope gets the same answer as in a fresh one.  Atom
    numbering depends only on the queries asked in the scope, so a
    scope per function keeps output identical at any [-j].  A scope is
    single-writer; it must not be shared between domains. *)

val scope : unit -> scope
(** a fresh, empty scope *)

val prove : ?scope:scope -> hyps:Term.prop list -> Term.prop -> bool
(** [?scope] defaults to a fresh scope for this one query.  [hyps] is
    newest first, as contexts grow; lists that share their tail with
    the previous query's share its prepared prefix.  Quantified or
    otherwise out-of-fragment hypotheses, and hypotheses whose own DNF
    has more than 512 branches, are ignored (which is sound); so are
    those that would take the product of the hypotheses' branch counts
    past 512, choosing newest first. *)

val scan : scope -> hyps:Term.prop list -> Term.prop -> bool
(** [scan sc ~hyps goal]: [goal]'s normal form under no simplifier hooks
    is [True] or one of the hypotheses' normal forms.  Those forms are
    memoised in [sc]; the scan is not counted as a query. *)

val decide : scope -> hyps:Term.prop list -> Term.prop -> bool
(** [decide sc ~hyps goal] decides the sequent without the scan: it
    substitutes non-numeric equalities away and refutes [Γ ∧ ¬φ].  It
    counts one query.  [prove ~scope:sc] is [scan sc || decide sc],
    counted once. *)

val simp : scope -> Simp.hooks -> Term.prop -> Term.prop
(** [simp sc hooks p] is [Simp.simp_prop ~hooks p], memoised in [sc]
    per hooks value (by physical identity) *)


val flush : scope -> Rc_util.Obs.t -> unit
(** Add the scope's counters to [obs], when it is on; call it once, when
    the scope's function check is done.  The counters:
    [solver.lia.queries]; [.pushed] (hypotheses prepared and pushed on
    the stack) and [.reused] (hypotheses whose prepared prefix a query
    took from the stack), which sum to the hypotheses of the
    queries that reach the stack;
    [.dropped] (DNF combinations a pushed hypothesis refuted);
    [.refuted] (goal branches refuted); [.fm_generated] / [.fm_kept]
    (combined Fourier–Motzkin constraints, and how many of them pruning
    kept); [.memo_hits] (DNFs found in the scope's table rather than
    computed); [.exhausted] (branches given up at the combined-constraint
    cap or the step bound — the only incompleteness that pruning or the
    elimination order could ever move). *)
