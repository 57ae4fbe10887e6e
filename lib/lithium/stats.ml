(** Verification statistics — the instrumentation behind Figure 7.

    One [t] is collected per verified function and aggregated per case
    study by the benchmark harness:
    - [rules_used]/[rule_apps]: the "Rules" column (distinct / applications)
    - [evar_insts]: the "∃" column
    - [side_auto]/[side_manual]: the "⌜φ⌝" column (the paper counts any
      condition needing a named solver or a registered lemma as manual) *)

type t = {
  mutable rule_apps : int;
  mutable rules_used : (string, int) Hashtbl.t;
  mutable evar_insts : int;
  mutable side_auto : int;
  mutable side_manual : int;
  mutable memo_hits : int;
      (** memoized-subgoal replays; the subsumed rule applications are
          already merged into [rule_apps]/[rules_used], so Figure-7
          columns match a memo-off run exactly *)
  mutable memo_saved_apps : int;
      (** rule applications the memo hits subsumed (counted inside
          [rule_apps] as well — this field reports the saving) *)
}

let create () =
  {
    rule_apps = 0;
    rules_used = Hashtbl.create 32;
    evar_insts = 0;
    side_auto = 0;
    side_manual = 0;
    memo_hits = 0;
    memo_saved_apps = 0;
  }

let add_rule_uses t name n =
  Hashtbl.replace t.rules_used name
    (n + Option.value ~default:0 (Hashtbl.find_opt t.rules_used name))

let record_side t (v : Rc_pure.Registry.verdict) =
  match v with
  | Rc_pure.Registry.Auto -> t.side_auto <- t.side_auto + 1
  | Rc_pure.Registry.Via_solver _ | Rc_pure.Registry.Via_lemma _ ->
      t.side_manual <- t.side_manual + 1
  | Rc_pure.Registry.Unsolved -> ()

let distinct_rules t = Hashtbl.length t.rules_used

let merge a b =
  a.rule_apps <- a.rule_apps + b.rule_apps;
  Hashtbl.iter (add_rule_uses a) b.rules_used;
  a.evar_insts <- a.evar_insts + b.evar_insts;
  a.side_auto <- a.side_auto + b.side_auto;
  a.side_manual <- a.side_manual + b.side_manual;
  a.memo_hits <- a.memo_hits + b.memo_hits;
  a.memo_saved_apps <- a.memo_saved_apps + b.memo_saved_apps

(** Credit [t] to the metrics registry behind [obs]: [rules_used] to
    [rule.apps.*], the side conditions to [side.*], [memo_hits] to
    [memo.hit] and [evar_insts] to [evar.insts].  Only nonzero counts are
    written.  The engine counts proof work only in [t] and calls this
    once per run, so the counters equal the Figure-7 columns, memo
    replays included. *)
let flush t obs =
  if Rc_util.Obs.on obs then begin
    let credit name n = if n > 0 then Rc_util.Obs.counter obs ~by:n name in
    Hashtbl.iter (fun rule n -> credit ("rule.apps." ^ rule) n) t.rules_used;
    credit "side.auto" t.side_auto;
    credit "side.manual" t.side_manual;
    credit "memo.hit" t.memo_hits;
    credit "evar.insts" t.evar_insts
  end

let pp ppf t =
  Fmt.pf ppf "rules %d/%d, ∃ %d, ⌜φ⌝ %d/%d" (distinct_rules t) t.rule_apps
    t.evar_insts t.side_auto t.side_manual;
  (* only under --memo, so memo-off output is untouched *)
  if t.memo_hits > 0 then
    Fmt.pf ppf ", memo %d hits (%d apps replayed)" t.memo_hits
      t.memo_saved_apps
