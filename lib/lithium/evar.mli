(** The evar store and unification (§5, "Handling of evars").

    Evars created by Lithium's goal case (4) are *sealed*: ordinary
    reasoning may not instantiate them.  They are unsealed only while
    discharging a pure side condition, where the engine first tries to
    unify the two sides of an equality (heuristic 1) and then applies
    goal-simplification rules such as [?xs ≠ [] ⇝ ?xs := ?y :: ?ys]
    (heuristic 2).  A bad instantiation can make a provable goal
    unprovable but never the converse, so none of this is trusted: the
    certificate checker re-checks side conditions fully resolved. *)

open Rc_pure

type t = {
  entries : (int, entry) Hashtbl.t;
  gen : Rc_util.Gensym.t;
  mutable instantiations : int;  (** Figure 7's ∃ column *)
  mutable min_inst : int;
      (** smallest evar id instantiated so far ([max_int] if none); the
          engine's memo layer compares it against a frame watermark to
          detect instantiations of pre-existing evars *)
  fault : Rc_util.Faultsim.t option;
      (** the owning session's fault campaign, for the evar_resolve site *)
  obs : Rc_util.Obs.t;
      (** the enclosing check's observability handle (an [evar] event
          on every instantiation) *)
}

and entry = {
  e_sort : Sort.t;
  e_hint : string;
  mutable inst : Term.term option;
  mutable sealed : bool;
}

val create : ?fault:Rc_util.Faultsim.t -> ?obs:Rc_util.Obs.t -> unit -> t
val fresh : ?hint:string -> t -> Sort.t -> Term.term

val next_id : t -> int
(** the id the next [fresh] will allocate — the memo layer's frame
    watermark *)

val skip_ids : t -> int -> unit
(** burn ids without creating entries, so a memo replay leaves the id
    counter where the replayed search would have *)

val credit_instantiations : t -> int -> unit
(** account for instantiations a memo replay subsumed *)

val lookup : t -> int -> Term.term option
val resolve : t -> Term.term -> Term.term
val resolve_prop : t -> Term.prop -> Term.prop

val unify : ?unseal:bool -> t -> Term.term -> Term.term -> bool
(** syntactic first-order unification with occurs check; [unseal]
    permits instantiating sealed evars (side-condition discharge only) *)

val unify_prop : ?unseal:bool -> t -> Term.prop -> Term.prop -> bool

(** {1 Goal-simplification rules (heuristic 2)} *)

type simp_outcome = Progress of Term.prop | NoProgress
type goal_simp_rule = t -> Term.prop -> simp_outcome

(** Per-session goal-simplification configuration: the user-extensible
    evar-elimination rules ("user-extensible rewriting rules and
    equivalences", §5) plus the ablation switch disabling heuristic 2. *)
type simp_cfg = {
  gs_rules : (string * goal_simp_rule) list;
  gs_no_goal_simp : bool;
}

val default_simp_cfg : simp_cfg
(** no extra rules, heuristic 2 enabled *)

val simp_cfg_names : simp_cfg -> string list
(** rule names (plus the ablation flag) for configuration fingerprints *)

val apply_goal_simp : ?cfg:simp_cfg -> t -> Term.prop -> simp_outcome
