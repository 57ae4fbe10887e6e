(** Structured verification errors (§2.1, "Error messages").

    Lithium's syntax-directed search affords precise error messages: the
    failure is located (the C source location of the judgment being
    typed), the branch trail identifies which control-flow branches were
    taken, and the failure kind says what could not be proved. *)

type kind =
  | Unsolved_side_condition of Rc_pure.Term.prop
  | Evar_stuck of Rc_pure.Term.prop
      (** a side condition still contains evars after the heuristics *)
  | No_rule_applies of string  (** printed judgment *)
  | No_ownership of string  (** printed atom not found in the context *)
  | Frontend of string  (** parse/elaboration failure *)
  | Resource_exhausted of {
      exh : Rc_util.Budget.exhaustion;
      goal_head : string option;  (** judgment head being attempted *)
      rule_apps : int;  (** rule applications before exhaustion *)
      elapsed : float;  (** seconds on the monotonic clock *)
    }  (** the per-function budget ran out (fuel, deadline, or depth) *)
  | Checker_fault of string
      (** an exception escaped the checker itself — a checker bug, not a
          verification failure *)
  | Injected_fault of string
      (** a fault planted by a chaos-testing campaign
          ({!Rc_util.Faultsim}), not a property of the program *)

(** {2 Proof-failure forensics}

    A bounded snapshot of the derivation at the moment of failure,
    captured by the engine when forensics are enabled
    ([--explain-failure]).  Everything here is printed, count-bounded
    and free of wall-clock data, so a forensic is deterministic and
    byte-identical across [-j N] (per-function capture, merged in source
    order, like every other diagnostic). *)

(** Depth/width caps on the capture (DESIGN.md §13): the forensic must
    stay small even when the stuck goal sits under a thousand-frame
    search on the diamond corpus.  Elision counts record what was
    dropped, so a bounded forensic is never mistaken for a complete
    one. *)
type fx_limits = {
  fxl_depth : int;  (** goal-stack entries kept (head + tail of the path) *)
  fxl_width : int;  (** candidate rules listed for the stuck goal *)
  fxl_recent : int;  (** trailing rule applications kept *)
  fxl_evars : int;  (** evar entries printed (most recent kept) *)
}

let default_fx_limits =
  { fxl_depth = 24; fxl_width = 16; fxl_recent = 16; fxl_evars = 24 }

type forensics = {
  fx_goal_stack : string list;
      (** printed basic goals, root first, stuck goal last; middle
          entries elided beyond [fxl_depth] *)
  fx_goal_stack_elided : int;
  fx_stuck_head : string option;  (** judgment head of the stuck goal *)
  fx_candidates : (string * string) list;
      (** the stuck goal's head-bucket candidates in trial order, each
          with its rejection reason ("guard failed", "side condition
          unsolved: …", …); rules after the committed one are absent —
          first-match-commits never tried them *)
  fx_candidates_elided : int;
  fx_evars : string list;  (** printed evar entries, most recent last *)
  fx_evars_elided : int;
  fx_recent_rules : string list;
      (** the last N rule applications before the failure, oldest
          first *)
}

type t = {
  loc : Rc_util.Srcloc.t option;
  trail : string list;  (** innermost branch label last *)
  kind : kind;
  context : string list;  (** printed Δ atoms at the failure point *)
  forensics : forensics option;
      (** present only when the engine ran with forensics enabled *)
}

exception Error of t

(** Faults are failures *of the checker* (crash or budget exhaustion),
    as opposed to failures of verification; the CLI maps them to a
    distinct exit code. *)
let is_fault_kind = function
  | Resource_exhausted _ | Checker_fault _ | Injected_fault _ -> true
  | Unsolved_side_condition _ | Evar_stuck _ | No_rule_applies _
  | No_ownership _ | Frontend _ ->
      false

let is_fault (e : t) = is_fault_kind e.kind

let make ?loc ?(trail = []) ?(context = []) ?forensics kind : t =
  { loc; trail; kind; context; forensics }

let fail ?loc ?(trail = []) ?(context = []) ?forensics kind =
  raise (Error (make ?loc ~trail ~context ?forensics kind))

let pp_kind ppf = function
  | Unsolved_side_condition p ->
      Fmt.pf ppf "Cannot solve side condition in function@,  %a"
        Rc_pure.Term.pp_prop p
  | Evar_stuck p ->
      Fmt.pf ppf
        "Cannot instantiate existential variable in side condition@,  %a"
        Rc_pure.Term.pp_prop p
  | No_rule_applies j -> Fmt.pf ppf "No typing rule applies to@,  %a" Fmt.string j
  | No_ownership a ->
      Fmt.pf ppf "Cannot find ownership in the context for@,  %a" Fmt.string a
  | Frontend msg -> Fmt.string ppf msg
  | Resource_exhausted { exh; goal_head; rule_apps; elapsed } ->
      Fmt.pf ppf "Proof search aborted: %a@,  after %d rule applications in %.3fs%a"
        Rc_util.Budget.pp_exhaustion exh rule_apps elapsed
        (fun ppf -> function
          | Some h -> Fmt.pf ppf "@,  while attempting judgment %s" h
          | None -> ())
        goal_head
  | Checker_fault msg ->
      Fmt.pf ppf "Checker fault (this is a bug in the checker, not a@,\
                  property of the program):@,  %a" Fmt.string msg
  | Injected_fault msg ->
      Fmt.pf ppf
        "Injected fault (planted by chaos testing, not a property of the \
         program):@,  %a"
        Fmt.string msg

let pp ppf (e : t) =
  Fmt.pf ppf "@[<v>";
  let verb = if is_fault e then "Check aborted" else "Verification failed" in
  (match e.loc with
  | Some l -> Fmt.pf ppf "%s at %a@," verb Rc_util.Srcloc.pp l
  | None -> Fmt.pf ppf "%s@," verb);
  List.iter (fun b -> Fmt.pf ppf "  in %s@," b) (List.rev e.trail);
  Fmt.pf ppf "%a" pp_kind e.kind;
  if e.context <> [] then begin
    Fmt.pf ppf "@,Context:";
    List.iter (fun a -> Fmt.pf ppf "@,  %s" a) e.context
  end;
  Fmt.pf ppf "@]"

let to_string e = Fmt.str "%a" pp e

let kind_label = function
  | Unsolved_side_condition _ -> "unsolved_side_condition"
  | Evar_stuck _ -> "evar_stuck"
  | No_rule_applies _ -> "no_rule_applies"
  | No_ownership _ -> "no_ownership"
  | Frontend _ -> "frontend_error"
  | Resource_exhausted { exh; _ } -> Rc_util.Budget.exhaustion_label exh
  | Checker_fault _ -> "checker_fault"
  | Injected_fault _ -> "injected_fault"

(** The human-readable forensic block ([--explain-failure]): the goal
    stack root→stuck, the stuck goal's candidate rules with rejection
    reasons, the evar state and the trailing rule applications. *)
let pp_forensics ppf (fx : forensics) =
  Fmt.pf ppf "@[<v>Failure forensics:";
  (match fx.fx_goal_stack with
  | [] -> ()
  | stack ->
      Fmt.pf ppf "@,  goal stack (root first%s):"
        (if fx.fx_goal_stack_elided > 0 then
           Fmt.str ", %d middle entries elided" fx.fx_goal_stack_elided
         else "");
      List.iter (fun g -> Fmt.pf ppf "@,    %s" g) stack);
  (match fx.fx_stuck_head with
  | Some h -> Fmt.pf ppf "@,  stuck judgment head: %s" h
  | None -> ());
  (match fx.fx_candidates with
  | [] -> ()
  | cands ->
      Fmt.pf ppf "@,  candidate rules for the stuck goal%s:"
        (if fx.fx_candidates_elided > 0 then
           Fmt.str " (%d more elided)" fx.fx_candidates_elided
         else "");
      List.iter
        (fun (rule, reason) -> Fmt.pf ppf "@,    %s: %s" rule reason)
        cands);
  (match fx.fx_evars with
  | [] -> ()
  | evars ->
      Fmt.pf ppf "@,  evars at failure%s:"
        (if fx.fx_evars_elided > 0 then
           Fmt.str " (%d older elided)" fx.fx_evars_elided
         else "");
      List.iter (fun e -> Fmt.pf ppf "@,    %s" e) evars);
  (match fx.fx_recent_rules with
  | [] -> ()
  | rules ->
      Fmt.pf ppf "@,  last %d rule applications (oldest first):"
        (List.length rules);
      List.iter (fun r -> Fmt.pf ppf "@,    %s" r) rules);
  Fmt.pf ppf "@]"

let forensics_to_json (fx : forensics) : Rc_util.Jsonout.t =
  let open Rc_util.Jsonout in
  Obj
    [
      ("goal_stack", List (List.map (fun s -> Str s) fx.fx_goal_stack));
      ("goal_stack_elided", Int fx.fx_goal_stack_elided);
      ( "stuck_head",
        match fx.fx_stuck_head with Some h -> Str h | None -> Null );
      ( "candidates",
        List
          (List.map
             (fun (rule, reason) ->
               Obj [ ("rule", Str rule); ("reason", Str reason) ])
             fx.fx_candidates) );
      ("candidates_elided", Int fx.fx_candidates_elided);
      ("evars", List (List.map (fun s -> Str s) fx.fx_evars));
      ("evars_elided", Int fx.fx_evars_elided);
      ( "recent_rules",
        List (List.map (fun s -> Str s) fx.fx_recent_rules) );
    ]

(** Machine-readable form for the CLI's [--json] mode.  The [forensics]
    field appears only when the engine captured one — with forensics
    disabled (the default) the object is byte-identical to a
    forensics-free build. *)
let to_json (e : t) : Rc_util.Jsonout.t =
  let open Rc_util.Jsonout in
  let loc =
    match e.loc with
    | Some l -> Str (Rc_util.Srcloc.to_string l)
    | None -> Null
  in
  let extra =
    match e.kind with
    | Resource_exhausted { exh = _; goal_head; rule_apps; elapsed } ->
        [
          ( "goal_head",
            match goal_head with Some h -> Str h | None -> Null );
          ("rule_apps", Int rule_apps);
          ("elapsed_s", Float elapsed);
        ]
    | _ -> []
  in
  let forensics =
    match e.forensics with
    | None -> []
    | Some fx -> [ ("forensics", forensics_to_json fx) ]
  in
  Obj
    ([
       ("kind", Str (kind_label e.kind));
       ("fault", Bool (is_fault e));
       ("message", Str (Fmt.str "%a" pp_kind e.kind));
       ("loc", loc);
       ("trail", List (List.map (fun s -> Str s) (List.rev e.trail)));
       ("context", List (List.map (fun s -> Str s) e.context));
     ]
    @ extra @ forensics)
