(** Independent certificate checking — the reproduction's stand-in for
    Coq's proof checking of the paper's generated typing derivations.

    The Lithium search engine (evar heuristics, context management, rule
    selection) is *not* trusted: every run emits a derivation tree
    ({!Rc_lithium.Deriv}) and this module re-validates it:

    - every rule application must name a rule that exists in the
      registered rule library (the paper's analogue: typing rules are
      proven sound once, ahead of time, in Iris; applying an unknown or
      misspelled rule is a certificate error);
    - every pure side condition is re-discharged from scratch, with all
      evars resolved, under the recorded hypotheses, by the solver
      registry — verdicts are recomputed, not believed;
    - structural sanity: branch/intro nodes have the right arity.

    This narrows the TCB to: the Caesium semantics, the frontend, the
    declarative statements of the typing rules, and this checker (plus
    the pure solvers it invokes) — mirroring §3's TCB discussion. *)

open Rc_pure
module Deriv = Rc_lithium.Deriv

type issue =
  | Unknown_rule of string
  | Side_condition_failed of Term.prop
  | Evars_remain of Term.prop
  | Malformed_node of string

let pp_issue ppf = function
  | Unknown_rule r -> Fmt.pf ppf "unknown typing rule %s" r
  | Side_condition_failed p ->
      Fmt.pf ppf "side condition does not re-check: %a" Term.pp_prop p
  | Evars_remain p ->
      Fmt.pf ppf "side condition still contains evars: %a" Term.pp_prop p
  | Malformed_node s -> Fmt.pf ppf "malformed derivation node: %s" s

type report = {
  nodes : int;
  rule_applications : int;
  side_conditions : int;
  issues : issue list;
}

let ok r = r.issues = []

let pp_report ppf r =
  Fmt.pf ppf "certificate: %d nodes, %d rule applications, %d side conditions — %s"
    r.nodes r.rule_applications r.side_conditions
    (if ok r then "OK" else Fmt.str "%d ISSUES" (List.length r.issues));
  List.iter (fun i -> Fmt.pf ppf "@.  - %a" pp_issue i) r.issues

(** The declarative rule table the checker validates against: the names
    of the session's rule library (computed independently of any
    particular search run — the session's *declared* rules, not the
    search engine's trace). *)
let rule_table (session : Rc_refinedc.Session.t) : string list =
  List.map
    (fun r -> r.Rc_refinedc.Lang.E.rname)
    (Rc_refinedc.Rules.builtin () @ session.Rc_refinedc.Session.extra_rules)

(** Re-validate a derivation against [session]'s rule library and solver
    registry.  The session must be the one (or be configured identically
    to the one) that produced the derivation: certificates are only
    meaningful relative to a rule library and registry, exactly as the
    paper's derivations are only meaningful relative to the Iris-proven
    rule statements. *)
let check ?(obs = Rc_util.Obs.off) ~(session : Rc_refinedc.Session.t)
    (d : Deriv.node) : report =
  (* the rule names as the nodes spell them, so a node's case is looked
     up as it is, without cutting off its prefix *)
  let known = Hashtbl.create 128 in
  List.iter (fun r -> Hashtbl.replace known ("rule:" ^ r) ()) (rule_table session);
  (* one solver scope for the whole derivation, as in the engine; it
     caches simplification and linearisation, never a verdict *)
  let registry = Registry.scoped session.Rc_refinedc.Session.registry in
  let nodes = ref 0 in
  let apps = ref 0 in
  let sides = ref 0 in
  let issues = ref [] in
  let flag i = issues := i :: !issues in
  let rec go (n : Deriv.node) =
    incr nodes;
    (* rule applications *)
    (let case = n.Deriv.d_case in
     if String.length case > 5 && String.starts_with ~prefix:"rule:" case
     then begin
       incr apps;
       if not (Hashtbl.mem known case) then
         flag (Unknown_rule (String.sub case 5 (String.length case - 5)))
     end);
    (* side conditions: re-discharge from scratch *)
    List.iter
      (fun (p, _claimed) ->
        incr sides;
        if Term.has_evars_prop p then flag (Evars_remain p)
        else
          match
            Registry.solve registry ~tactics:n.Deriv.d_tactics
              ~hyps:n.Deriv.d_hyps p
          with
          | Registry.Unsolved -> flag (Side_condition_failed p)
          | _ -> ())
      n.Deriv.d_side;
    (* structural sanity *)
    (match n.Deriv.d_case with
    | "vacuous" | "done" ->
        if n.Deriv.d_children <> [] then
          flag (Malformed_node "leaf with children")
    | _ -> ());
    List.iter go n.Deriv.d_children
  in
  Rc_util.Obs.timed obs ~cat:"cert" ~key:"phase.cert" "phase:cert" (fun () ->
      go d);
  let report =
    {
      nodes = !nodes;
      rule_applications = !apps;
      side_conditions = !sides;
      issues = List.rev !issues;
    }
  in
  Registry.flush_scope registry obs;
  if Rc_util.Obs.on obs then begin
    Rc_util.Obs.counter obs ~by:report.nodes "cert.nodes";
    Rc_util.Obs.counter obs ~by:report.side_conditions "cert.sides";
    if not (ok report) then
      Rc_util.Obs.counter obs ~by:(List.length report.issues) "cert.issues";
    Rc_util.Obs.instant obs ~cat:"cert"
      ~args:
        [
          ("nodes", string_of_int report.nodes);
          ("verdict", if ok report then "ok" else "issues");
        ]
      "cert:verdict"
  end;
  report
