(** The lint pass registry and entry point.

    A pass is a named, documented analysis from the elaborated view of a
    translation unit (Caesium functions plus their specs, under a
    {!Rc_refinedc.Session.t}) to a list of {!Rc_util.Diagnostic.t}.  The
    registry below is the single source of truth consumed by the
    [refinedc lint] verb, the pre-[check] lint phase, the README code
    table and the cache key; there is no global mutable pass table —
    pass {e selection} lives in {!Rc_refinedc.Session.lint_cfg} as plain
    data, and is resolved to passes here by name. *)

module Syntax = Rc_caesium.Syntax
module Diagnostic = Rc_util.Diagnostic
module Obs = Rc_util.Obs

(** Everything a pass may look at. *)
type ctx = {
  cx_file : string;
  cx_session : Rc_refinedc.Session.t;
  cx_funcs : (string * Syntax.func) list;  (** every function with a body *)
  cx_to_check : Rc_refinedc.Typecheck.fn_to_check list;
      (** the specified subset, with metadata *)
  cx_indexes : (string * Rc_refinedc.Lang.fn_index) list;
      (** block and source-metadata index of every body, specified or
          not *)
  cx_cfg : Syntax.func -> Cfg.t;
      (** the CFG of a body, built once per {!run} and shared by the
          passes *)
  cx_locksum : Locksum.func_report list Lazy.t;
      (** the unit's lockset summary, computed once per {!run} by the
          first concurrency pass that reads it *)
}

type pass = {
  p_name : string;  (** the [--pass] / [lint_cfg.l_passes] handle *)
  p_descr : string;
  p_codes : string list;  (** the diagnostic codes this pass can emit *)
  p_sound : bool;
      (** true: every report is a real property of the artifact (maybe
          modulo CFG over-approximation); false: heuristic, may have
          false positives *)
  p_run : ctx -> Diagnostic.t list;
}

(** The registry, in reporting-priority order.  Immutable by
    construction (a plain list, not a table) — adding a pass is a code
    change, which is what keeps pass semantics in lock-step with the
    cache key's lint signature. *)
let passes : pass list =
  [
    {
      p_name = "init";
      p_descr = "definite initialization of locals";
      p_codes = [ "RC-L001" ];
      p_sound = true;
      p_run = (fun cx -> Pass_init.run ~cfg_of:cx.cx_cfg cx.cx_to_check);
    };
    {
      p_name = "deref";
      p_descr = "NULL and ownership-less dereferences";
      p_codes = [ "RC-L002" ];
      p_sound = false;
      p_run = (fun cx -> Pass_deref.run cx.cx_to_check);
    };
    {
      p_name = "reach";
      p_descr = "unreachable code and missing returns";
      p_codes = [ "RC-L003"; "RC-L004" ];
      p_sound = true;
      p_run = (fun cx -> Pass_reach.run ~cfg_of:cx.cx_cfg cx.cx_to_check);
    };
    {
      p_name = "spec";
      p_descr =
        "spec hygiene: unused parameters, duplicates, unsatisfiable \
         preconditions, arity";
      p_codes = [ "RC-L010"; "RC-L011"; "RC-L012"; "RC-L013" ];
      p_sound = true;
      p_run = (fun cx -> Pass_spec.run cx.cx_session cx.cx_to_check);
    };
    {
      p_name = "rules";
      p_descr =
        "rule-set sanity: duplicate names, dead rules, ambiguous \
         priorities";
      p_codes = [ "RC-L020"; "RC-L021"; "RC-L022" ];
      p_sound = true;
      p_run = (fun cx -> Pass_rules.run cx.cx_session);
    };
    {
      p_name = "race";
      p_descr =
        "Eraser-style lockset analysis: shared non-atomic access with an \
         empty must-lockset (may-race)";
      p_codes = [ "RC-L030" ];
      p_sound = false;
      p_run = (fun cx -> Pass_race.run_race (Lazy.force cx.cx_locksum));
    };
    {
      p_name = "lockrel";
      p_descr = "lock acquired but not released on some path to return";
      p_codes = [ "RC-L031" ];
      p_sound = false;
      p_run = (fun cx -> Pass_race.run_release (Lazy.force cx.cx_locksum));
    };
    {
      p_name = "lockord";
      p_descr =
        "inconsistent lock-acquisition order across the unit (potential \
         deadlock)";
      p_codes = [ "RC-L032" ];
      p_sound = false;
      p_run = (fun cx -> Pass_race.run_order (Lazy.force cx.cx_locksum));
    };
  ]

let pass_names : string list = List.map (fun p -> p.p_name) passes

exception Unknown_pass of string

(** Resolve a [lint_cfg.l_passes] selection ([None] = all) to passes,
    preserving registry order.  Raises {!Unknown_pass} on a name not in
    {!pass_names}. *)
let select (sel : string list option) : pass list =
  match sel with
  | None -> passes
  | Some names ->
      List.iter
        (fun n ->
          if not (List.mem n pass_names) then raise (Unknown_pass n))
        names;
      List.filter (fun p -> List.mem p.p_name names) passes

(** Spec coverage of the unit: (functions with a spec, functions with a
    body). *)
let coverage ~(funcs : (string * Syntax.func) list)
    ~(to_check : Rc_refinedc.Typecheck.fn_to_check list) : int * int =
  Pass_spec.coverage ~funcs ~to_check

(** Run the session's selected passes over one elaborated unit.  Each
    pass is individually timed and counted into [obs] (span category
    "lint", metrics [lint.<pass>] / [lint.diags.<pass>]); a CFG or the
    lockset summary the passes share is timed under the pass that builds
    it first.  The result is sorted with {!Rc_util.Diagnostic.sort}, so
    it is deterministic and deduplicated regardless of pass order or
    parallelism. *)
let run ?(obs = Obs.off) ?(indexes = []) ~(session : Rc_refinedc.Session.t)
    ~(file : string) ~(funcs : (string * Syntax.func) list)
    ~(to_check : Rc_refinedc.Typecheck.fn_to_check list) () :
    Diagnostic.t list =
  (* keyed by name; a second body under the same name (a file may define
     a function twice) gets its own graph, unshared *)
  let cfgs : (string, Syntax.func * Cfg.t) Hashtbl.t = Hashtbl.create 16 in
  let cfg_of (f : Syntax.func) =
    match Hashtbl.find_opt cfgs f.Syntax.fname with
    | Some (f', cfg) when f' == f -> cfg
    | Some _ -> Cfg.build f
    | None ->
        let cfg = Cfg.build f in
        Hashtbl.add cfgs f.Syntax.fname (f, cfg);
        cfg
  in
  let cx =
    { cx_file = file; cx_session = session; cx_funcs = funcs;
      cx_to_check = to_check; cx_indexes = indexes; cx_cfg = cfg_of;
      cx_locksum = lazy (Pass_race.reports ~cfg_of ~indexes ~funcs ~to_check) }
  in
  let selected = select session.Rc_refinedc.Session.lint.l_passes in
  let all =
    List.concat_map
      (fun p ->
        let ds =
          Obs.timed obs ~cat:"lint" ~key:("lint." ^ p.p_name)
            ~args:[ ("pass", p.p_name) ]
            ("lint:" ^ p.p_name)
            (fun () -> p.p_run cx)
        in
        Obs.counter obs ~by:(List.length ds) ("lint.diags." ^ p.p_name);
        ds)
      selected
  in
  Diagnostic.sort all
