(** The per-function typechecker: builds the Lithium goal for a function
    against its specification and runs the interpreter (step (B) of
    Figure 2).

    The goal has one branch for the function entry (arguments and
    preconditions assumed, body checked from the entry block) and one
    branch per loop-invariant block (the invariant assumed for fresh
    universals, the loop body checked once).  Jumping *to* an invariant
    block proves the invariant (rule T-GOTO). *)

open Rc_pure
open Rc_pure.Term
module G = Rc_lithium.Goal
module Syntax = Rc_caesium.Syntax
module Layout = Rc_caesium.Layout
open Rtype
open Lang
open Convert

type fn_to_check = {
  func : Syntax.func;
  spec : fn_spec;
  invs : (string * loop_inv) list;
  index : fn_index;  (** {!Lang.index_fn} of [func] and its metadata *)
}

(** Location term of a C variable's stack slot. *)
let slot_term (x : string) : term = Var (x ^ "#loc", Sort.Loc)

(** Pure facts implied by an argument type, available even in loop
    branches (argument refinements are persistent knowledge). *)
let rec pure_facts_of_arg (ty : rtype) : prop list =
  match ty with
  | TInt (it, n) -> Convert.int_bounds_props it n
  | TOwn (Some p, t) -> p_ne p NullLoc :: pure_facts_of_arg t
  | TOwn (None, t) -> pure_facts_of_arg t
  | TConstr (t, phi) -> phi :: pure_facts_of_arg t
  | TArrayInt (_, len, xs) -> [ PEq (Length xs, len); PLe (Num 0, len) ]
  | _ -> []

let check_fn ?(globals = []) ?(obs = Rc_util.Obs.off) ~(session : Session.t)
    ~(specs : (string * fn_spec) list) (ftc : fn_to_check) :
    (E.result, Rc_lithium.Report.t) result =
  let te = session.Session.tenv in
  let func = ftc.func and spec = ftc.spec in
  let env =
    List.map (fun (x, _) -> (x, slot_term x)) (func.Syntax.args @ func.Syntax.locals)
    @ globals
  in
  let sigma =
    {
      fc_func = func;
      fc_spec = spec;
      fc_specs = specs;
      fc_invs = ftc.invs;
      fc_env = env;
      fc_penv = [];
      fc_index = ftc.index;
      fc_depth = 0;
    }
  in
  let locals_intro g =
    List.fold_right
      (fun (x, layout) g ->
        G.Wand
          ( G.LAtom (LocTy (slot_term x, TUninit (Num (Layout.size layout)))),
            g ))
      func.Syntax.locals g
  in
  (* open the universally quantified parameters, substituting them through
     the spec *)
  let with_params (body : (string * term) list -> goal) : goal =
    let rec go acc = function
      | [] -> body (List.rev acc)
      | (x, s) :: rest -> G.All (x, s, fun t -> go ((x, t) :: acc) rest)
    in
    go [] spec.fs_params
  in
  let entry_branch =
    with_params (fun penv ->
        let arg_tys = List.map (subst_rtype penv) spec.fs_args in
        if List.length arg_tys <> List.length func.Syntax.args then
          (* arity mismatch between spec and code: unprovable *)
          G.Star (G.LProp PFalse, G.True_)
        else
          let spec' =
            subst_spec penv { spec with fs_params = [] }
          in
          let sigma = { sigma with fc_spec = spec'; fc_penv = penv } in
          let args_intro g =
            List.fold_right2
              (fun (x, _) ty g -> G.Wand (intro_loc te (slot_term x) ty, g))
              func.Syntax.args arg_tys g
          in
          args_intro
            (locals_intro
               (G.Wand
                  ( intro_hres_list te (List.map (subst_hres penv) spec.fs_pre),
                    G.Basic
                      (FBlock { sigma; label = func.Syntax.entry; idx = 0 })
                  ))))
  in
  let inv_branch (label, inv) =
    with_params (fun penv ->
        let spec' = subst_spec penv { spec with fs_params = [] } in
        let sigma = { sigma with fc_spec = spec'; fc_penv = penv } in
        (* persistent pure knowledge: pure preconditions and argument
           refinement facts *)
        let pure_pre =
          List.filter_map
            (function HProp p -> Some (subst_prop penv p) | HAtom _ -> None)
            spec.fs_pre
          @ List.concat_map
              (fun ty -> pure_facts_of_arg (subst_rtype penv ty))
              spec.fs_args
        in
        let frame =
          Convert.unlisted_frame sigma (List.map fst inv.li_vars)
        in
        let rec open_exists acc = function
          | [] ->
              let env' = acc @ penv in
              let vars_intro g =
                List.fold_right
                  (fun (x, ty) g ->
                    match List.assoc_opt x sigma.fc_env with
                    | Some l ->
                        G.Wand (intro_loc te l (subst_rtype env' ty), g)
                    | None -> g)
                  inv.li_vars
                  (List.fold_right
                     (fun (l, ty) g -> G.Wand (intro_loc te l ty, g))
                     frame g)
              in
              G.Wand
                ( G.lstars (List.map (fun p -> G.LProp (subst_prop env' p))
                     inv.li_constraints),
                  vars_intro (G.Basic (FBlock { sigma; label; idx = 0 })) )
              |> fun g ->
              G.Wand (G.lstars (List.map (fun p -> G.LProp p) pure_pre), g)
          | (x, s) :: rest ->
              G.All (x, s, fun t -> open_exists ((x, t) :: acc) rest)
        in
        open_exists [] inv.li_exists)
  in
  let goal =
    G.AndG
      ((None, entry_branch)
      :: List.map
           (fun (label, inv) ->
             ( Some (Printf.sprintf "loop invariant block %s" label),
               inv_branch (label, inv) ))
           ftc.invs)
  in
  let opts =
    {
      E.o_memo = session.Session.memo;
      o_fx = session.Session.forensics;
      o_judgments = session.Session.judgments;
    }
  in
  E.run_indexed session.Session.index ~registry:session.Session.registry
    ~gs:session.Session.gs ~env:te ~tactics:spec.fs_tactics
    ~budget:session.Session.budget ~obs ~opts goal

(* ------------------------------------------------------------------ *)
(* Verification-cache keys                                             *)
(* ------------------------------------------------------------------ *)

(* A check's outcome is a pure function of the function body, its spec,
   the loop invariants, the specs it may call, the rule set + solver
   registry + type definitions + ablation switches, and the resource
   budget.  Everything below writes those down deterministically;
   {!Depgraph.components} turns them into a function's cache-key
   components. *)

let type_defs_signature (te : Rtype.tenv) : string =
  (* definition *content* via a one-step unfold at canonical arguments,
     so editing a registered type invalidates entries that may use it *)
  let def w (name, (td : Rtype.type_def)) =
    Enc.enc_str w name;
    let args =
      List.map (fun (x, s) -> Term.Var (x, s)) td.Rtype.td_params
    in
    match Enc.encode Rtype.enc_rtype (td.Rtype.td_unfold args) with
    | ty ->
        Enc.tag w 'u';
        Enc.enc_str w ty
    | exception _ -> Enc.tag w 'x'
  in
  let w = Enc.create 256 in
  Hashtbl.fold (fun name td acc -> (name, td) :: acc) te []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> Enc.enc_list def w;
  Enc.digest w

(** Everything in the session's configuration that can change verdicts:
    the compiled rule set, the solver/lemma registry (with its hooks and
    the default-only ablation), the type definitions, and the goal-simp
    configuration.  Keying the cache on the *session* — not on any
    global state — is what lets two concurrently-live sessions with
    different configs share one cache directory without ever sharing a
    verdict. *)
(* The lint configuration's contribution to the cache key.  Linting
   never changes a verdict, but [l_werror] changes exit codes and the
   enabled-pass set changes the diagnostics a cached run would have to
   replay, so a cache hit must not cross lint configurations. *)
let lint_signature (l : Session.lint_cfg) : string =
  Fmt.str "lint:%b|passes:%s|werror:%b" l.Session.l_enabled
    (match l.Session.l_passes with
    | None -> "*"
    | Some ps -> String.concat "," ps)
    l.Session.l_werror

(* The version tag must be bumped whenever the Marshal'd payload layout
   changes (it serializes [Stats.t]); "v3" added the memo counters.  The
   memo configuration itself is deliberately *not* part of the key: a
   hit never changes verdicts or Figure-7 counts, so memo-on and
   memo-off runs may share entries. *)
let toolchain_fingerprint (session : Session.t) : string =
  Rc_util.Vercache.fingerprint
    [
      (* v4: cone-keyed incremental entries joined the store; bumping the
         tag orphans every v3 whole-file entry so the two key families
         can never alias.  v5: the lint registry gained the concurrency
         passes (race/lockrel/lockord) — cached diagnostics from the
         five-pass registry would silently miss RC-L03x reports.  v6:
         the body digest became a structural encoding that keys every
         layout in full (it was printed text).  v7: [Stats.t], which a
         cached verdict stores Marshal'd, lost [manual_detail].  v8: the
         spec, invariant and type-definition components became the
         structural encoding of {!Rc_util.Enc}; the printed text they
         were dropped [bool]'s and [atomicbool]'s integer types, both
         atomicbool resource lists, all but the last argument of a named
         type and [[]]'s sort, so a spec or type-definition edit to one
         of those replayed the old verdict *)
      "refinedc-check-v8";
      Sys.ocaml_version;
      Rules.fingerprint session.Session.index;
      Registry.fingerprint session.Session.registry;
      type_defs_signature session.Session.tenv;
      "goal_simp:"
      ^ String.concat ","
          (Rc_lithium.Evar.simp_cfg_names session.Session.gs);
      lint_signature session.Session.lint;
    ]

let budget_signature (b : Rc_util.Budget.limits) : string =
  let num pp = Fmt.(option ~none:(any "none") pp) in
  Fmt.str "fuel:%a|timeout:%a|depth:%a" (num Fmt.int) b.Rc_util.Budget.fuel
    (num Fmt.float) b.Rc_util.Budget.timeout (num Fmt.int)
    b.Rc_util.Budget.max_depth

(** The loop invariants of one function, a component of its body
    digest: their number, then each one's label, existentials, variable
    types and constraints.  A function without invariants writes
    ["0;"]. *)
let enc_invs w (invs : (string * loop_inv) list) =
  let var w (x, ty) =
    Enc.enc_str w x;
    Rtype.enc_rtype w ty
  in
  Enc.enc_list
    (fun w (label, (i : loop_inv)) ->
      Enc.enc_str w label;
      Enc.enc_list Rtype.enc_binder w i.li_exists;
      Enc.enc_list var w i.li_vars;
      Enc.enc_list enc_prop w i.li_constraints)
    w invs
