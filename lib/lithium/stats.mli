(** Verification statistics — the instrumentation behind Figure 7.

    One [t] is collected per verified function and aggregated per case
    study by the benchmark harness. *)

type t = {
  mutable rule_apps : int;  (** total typing-rule applications *)
  mutable rules_used : (string, int) Hashtbl.t;  (** per-rule counts *)
  mutable evar_insts : int;  (** the ∃ column: evars auto-instantiated *)
  mutable side_auto : int;  (** side conditions the default solver proved *)
  mutable side_manual : int;
      (** side conditions needing a named solver or a registered lemma
          (the paper's conservative "manual" counting) *)
  mutable memo_hits : int;
      (** memoized-subgoal replays; the subsumed applications are merged
          into [rule_apps]/[rules_used], keeping Figure-7 columns
          independent of memoization *)
  mutable memo_saved_apps : int;
      (** rule applications the memo hits subsumed (reported saving) *)
}

val create : unit -> t
val add_rule_uses : t -> string -> int -> unit
(** [add_rule_uses t name n] credits [n] applications of rule [name] to
    [rules_used].  [rule_apps] is the caller's to count: the engine bumps
    it at each application and credits [rules_used] in batches. *)

val record_side : t -> Rc_pure.Registry.verdict -> unit
(** counts a side condition under its verdict *)

val distinct_rules : t -> int
val merge : t -> t -> unit
(** [merge acc x] adds [x]'s counters into [acc] *)

val flush : t -> Rc_util.Obs.t -> unit
(** [flush t obs] credits [t] to [obs]'s metrics, nonzero counts only:
    [rules_used] to [rule.apps.*], [side_auto]/[side_manual] to
    [side.auto]/[side.manual], [memo_hits] to [memo.hit] and
    [evar_insts] to [evar.insts].  The engine calls it once per run, on
    every exit path. *)

val pp : Format.formatter -> t -> unit
