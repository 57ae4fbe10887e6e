(** Solver registry: the reproduction of RefinedC's side-condition
    discharge pipeline (steps (C) of Figure 2).

    Verification conditions emitted by Lithium are *pure* propositions.
    They are discharged in this order:

    1. the **default solver** (simplifier + syntactic hypothesis lookup +
       {!Linarith} + {!List_solver}) — successes are counted as *auto*,
       the paper's "⌜φ⌝ automatically proved" column;
    2. **named solvers** requested by [rc::tactics] annotations
       ({!Mset_solver}, {!Set_solver}, …) — successes count as *manual*,
       matching the paper's conservative counting ("any side condition
       that cannot be discharged by the one default solver … is counted
       as manual");
    3. **registered lemmas** — the stand-in for manual Coq proofs: a
       case study may register pure lemmas (with premises) in an OCaml
       companion; a goal matching a lemma instance whose premises the
       default solver discharges counts as *manual* too.  The certificate
       checker re-checks lemma applications against the same registry. *)

open Term

type verdict =
  | Auto  (** proved by the default solver *)
  | Via_solver of string  (** proved by a named solver ([rc::tactics]) *)
  | Via_lemma of string  (** proved by a registered manual lemma *)
  | Unsolved

let pp_verdict ppf = function
  | Auto -> Fmt.string ppf "auto"
  | Via_solver s -> Fmt.pf ppf "solver:%s" s
  | Via_lemma s -> Fmt.pf ppf "lemma:%s" s
  | Unsolved -> Fmt.string ppf "UNSOLVED"

(* ------------------------------------------------------------------ *)
(* Context-aware conditional resolution                                *)
(* ------------------------------------------------------------------ *)

(** Resolve [Ite] terms whose condition the hypotheses decide (e.g. the
    refinement [(n ≤ a ? a - n : a)] under the branch fact [n ≤ a]). *)
let resolve_ites ?(scope = Linarith.scope ()) ?(hooks = Simp.no_hooks) ~hyps
    (p : prop) : prop =
  let rec rt (t : term) : term =
    let t = map_term rt t in
    match t with
    | Ite (c, a, b) ->
        if Linarith.prove ~scope ~hyps c then a
        else if Linarith.prove ~scope ~hyps (PNot c) then b
        else t
    | t -> t
  in
  Linarith.simp scope hooks (map_prop rt p)

(* ------------------------------------------------------------------ *)
(* Default solver                                                      *)
(* ------------------------------------------------------------------ *)

(** The registry value: everything a session configures about
    side-condition discharge.  Immutable — "registration" builds a new
    value, so sessions never share mutable tables. *)
type t = {
  solvers : solver list;
  lemmas : lemma list;
  default_only : bool;
  hooks : Simp.hooks;
  fault : Rc_util.Faultsim.t option;
  lia : Linarith.scope option;
}

and solver = { name : string; run : t -> hyps:prop list -> prop -> bool }

and lemma = {
  lname : string;
  vars : (string * Sort.t) list;  (** universally quantified metavars *)
  premises : prop list;
  concl : prop;
}

let scoped reg = { reg with lia = Some (Linarith.scope ()) }

(* the registry's scope, opening one for this call when it has none *)
let in_scope reg =
  match reg.lia with
  | Some sc -> (reg, sc)
  | None ->
      let sc = Linarith.scope () in
      ({ reg with lia = Some sc }, sc)

let flush_scope reg obs = Option.iter (fun sc -> Linarith.flush sc obs) reg.lia

let rec default_prove (reg : t) ~hyps goal =
  let reg, scope = in_scope reg in
  let simp = Linarith.simp scope reg.hooks in
  let goal = resolve_ites ~scope ~hooks:reg.hooks ~hyps (simp goal) in
  match goal with
  | PTrue -> true
  | PAnd (a, b) -> default_prove reg ~hyps a && default_prove reg ~hyps b
  | PForall (x, s, q) ->
      (* fresh universal: safe because parser makes names unique *)
      default_prove reg ~hyps (subst_prop [ (x, Var (x ^ "!", s)) ] q)
  | PImp (a, b) -> (
      match Simp.destruct_hyp ~hooks:reg.hooks a with
      | None -> true
      | Some hs -> default_prove reg ~hyps:(hs @ hyps) b)
  | _ ->
      (* Γ is in the hooks' normal form (the engine simplifies every
         hypothesis it adds under them), and so is [goal]: the scan under
         no hooks finds what a scan under the hooks would *)
      Linarith.scan scope ~hyps goal
      || Linarith.decide scope ~hyps goal
      || List_solver.prove ~hooks:reg.hooks
           ~prove_pure:(Linarith.prove ~scope)
           ~hyps goal

(* ------------------------------------------------------------------ *)
(* Named solvers                                                        *)
(* ------------------------------------------------------------------ *)

(* a structural solver (multisets, sets, lists): its pure subgoals go
   to the default solver under the registry's hooks *)
let structural name
    (prove : ?hooks:Simp.hooks -> prove_pure:_ -> hyps:_ -> prop -> bool) =
  {
    name;
    run =
      (fun reg ~hyps g ->
        prove ~hooks:reg.hooks ~prove_pure:(default_prove reg) ~hyps g);
  }

let builtin_solvers : solver list =
  [
    structural "multiset_solver" Mset_solver.prove;
    structural "set_solver" Set_solver.prove;
    structural "list_solver" List_solver.prove;
    {
      name = "lia";
      run = (fun reg ~hyps g -> Linarith.prove ?scope:reg.lia ~hyps g);
    };
  ]

let default : t =
  {
    solvers = builtin_solvers;
    lemmas = [];
    default_only = false;
    hooks = Simp.no_hooks;
    fault = None;
    lia = None;
  }

let create ?(solvers = []) ?(lemmas = []) ?(default_only = false)
    ?(hooks = Simp.no_hooks) ?fault () : t =
  {
    solvers = builtin_solvers @ solvers;
    lemmas;
    default_only;
    hooks;
    fault;
    lia = None;
  }

let add_lemma reg l = { reg with lemmas = reg.lemmas @ [ l ] }
let with_fault reg fault = { reg with fault }

let find_solver reg name =
  List.find_opt (fun s -> s.name = name) reg.solvers

(* one-way syntactic matching: instantiate lemma vars against the goal *)
exception No_match

let rec match_term binds pat t =
  match (pat, t) with
  | Var (x, _), _ when List.mem_assoc x binds ->
      if equal_term (List.assoc x binds) t then binds else raise No_match
  | Var (x, s), _ -> (
      (* only lemma metavars are bindable; others must match exactly *)
      match t with
      | Var (y, _) when y = x -> binds
      | _ -> (x, s, t) |> fun (x, _, t) -> (x, t) :: binds)
  | Num a, Num b when a = b -> binds
  | BoolLit a, BoolLit b when a = b -> binds
  | NullLoc, NullLoc -> binds
  | MsEmpty, MsEmpty | SetEmpty, SetEmpty -> binds
  | Nil _, Nil _ -> binds
  | TProp p, TProp q -> match_prop binds p q
  | Add (a, b), Add (c, d)
  | Sub (a, b), Sub (c, d)
  | NatSub (a, b), NatSub (c, d)
  | Mul (a, b), Mul (c, d)
  | Div (a, b), Div (c, d)
  | Mod (a, b), Mod (c, d)
  | Min (a, b), Min (c, d)
  | Max (a, b), Max (c, d)
  | LocOfs (a, b), LocOfs (c, d)
  | MsUnion (a, b), MsUnion (c, d)
  | SetUnion (a, b), SetUnion (c, d)
  | SetDiff (a, b), SetDiff (c, d)
  | Cons (a, b), Cons (c, d)
  | Append (a, b), Append (c, d)
  | Replicate (a, b), Replicate (c, d) ->
      match_term (match_term binds a c) b d
  | MsSingleton a, MsSingleton b
  | SetSingleton a, SetSingleton b
  | Length a, Length b ->
      match_term binds a b
  | Ite (c, a, b), Ite (c', a', b') ->
      match_term (match_term (match_prop binds c c') a a') b b'
  | NthDflt (a, b, c), NthDflt (a', b', c')
  | SetListInsert (a, b, c), SetListInsert (a', b', c') ->
      match_term (match_term (match_term binds a a') b b') c c'
  | App (f, xs), App (g, ys) when f = g && List.length xs = List.length ys ->
      List.fold_left2 match_term binds xs ys
  | _ -> raise No_match

and match_prop binds pat p =
  match (pat, p) with
  | PTrue, PTrue | PFalse, PFalse -> binds
  | PEq (a, b), PEq (c, d)
  | PLe (a, b), PLe (c, d)
  | PLt (a, b), PLt (c, d)
  | PIn (a, b), PIn (c, d) ->
      match_term (match_term binds a c) b d
  | PAnd (a, b), PAnd (c, d)
  | POr (a, b), POr (c, d)
  | PImp (a, b), PImp (c, d) ->
      match_prop (match_prop binds a c) b d
  | PNot a, PNot b -> match_prop binds a b
  | PIsTrue a, PIsTrue b -> match_term binds a b
  | PForall (x, _, a), PForall (y, _, b)
  | PExists (x, _, a), PExists (y, _, b) ->
      (* rename the concrete binder to the pattern binder *)
      match_prop binds a (subst_prop [ (y, Var (x, Sort.Unknown)) ] b)
  | PPred (f, xs), PPred (g, ys)
    when f = g && List.length xs = List.length ys ->
      List.fold_left2 match_term binds xs ys
  | _ -> raise No_match

let binds_ok l binds =
  (* only allow binding of declared metavars; a non-metavar variable in
     the pattern must have matched itself *)
  List.for_all
    (fun (x, t) ->
      List.mem_assoc x l.vars
      || match t with Var (y, _) -> y = x | _ -> false)
    binds

let try_lemma (reg : t) ~hyps goal (l : lemma) =
  let reg, scope = in_scope reg in
  let simp = Linarith.simp scope reg.hooks in
  try
    let binds = match_prop [] l.concl goal in
    if not (binds_ok l binds) then false
    else
      (* discharge premises left to right.  A premise may bind further
         metavars by matching a hypothesis (e.g. the shape fact
         [xs = lxs ++ v :: rxs]); otherwise it is proved by the default
         solver under the current instantiation. *)
      let rec prems binds = function
        | [] -> true
        | prem :: rest -> (
            let inst = subst_prop binds prem in
            let unbound =
              SS.exists
                (fun x ->
                  List.mem_assoc x l.vars && not (List.mem_assoc x binds))
                (free_vars_prop prem)
            in
            if (not unbound) && default_prove reg ~hyps inst then
              prems binds rest
            else
              (* find a hypothesis the premise pattern matches *)
              let rec try_hyps = function
                | [] -> false
                | h :: hs -> (
                    match match_prop binds prem (simp h) with
                    | binds' when binds_ok l binds' -> prems binds' rest
                    | _ -> try_hyps hs
                    | exception No_match -> try_hyps hs)
              in
              try_hyps hyps)
      in
      prems binds l.premises
  with No_match -> false

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

(** A digest of everything that can change the registry's verdicts: the
    registered solvers, lemmas and simplifier hooks (in registration
    order) and the ablation switch.  A component of the
    verification-cache key — two sessions with different registries must
    not share cached verdicts.  The fault campaign is excluded: it
    perturbs control flow, never the meaning of a verdict, and faulted
    runs are not cached. *)
let fingerprint (reg : t) : string =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map (fun s -> "solver:" ^ s.name) reg.solvers
          @ List.map (fun l -> "lemma:" ^ l.lname) reg.lemmas
          @ List.map (fun h -> "hook:" ^ h) (Simp.hook_names reg.hooks)
          @ [ "default_only:" ^ string_of_bool reg.default_only ])))

(** [solve reg ~tactics ~hyps goal] discharges a side condition,
    returning how.  [tactics] is the list of named solvers enabled by
    the current function's [rc::tactics] annotations.

    [?obs] records, per attempted prover, a call counter and a latency
    timer ([solver.calls.*] / [solver.ns.*] — the [--profile] solver
    breakdown), plus, when [obs] traces, one [solve] event carrying the
    goal and the verdict.  With the default disabled handle the function
    body is unchanged: the guards cost one pattern match each.

    Outside a scoped registry the call opens its own solver scope and
    flushes that scope's counters into [obs] on return. *)
let solve (reg : t) ?(obs = Rc_util.Obs.off) ?(tactics = []) ~hyps goal :
    verdict =
  Rc_util.Faultsim.point reg.fault "solver";
  let own_scope = reg.lia = None in
  let reg, scope = in_scope reg in
  let live = Rc_util.Obs.on obs in
  (* the [solve] event prints the goal: build it only for a trace *)
  let traced = Rc_util.Trace.on (Rc_util.Obs.tr obs) in
  let t_solve = if traced then Rc_util.Trace.now_ns () else 0L in
  let attempt name f =
    if not live then f ()
    else begin
      Rc_util.Obs.counter obs ("solver.calls." ^ name);
      let t0 = Rc_util.Trace.now_ns () in
      let r = f () in
      Rc_util.Obs.observe_ns obs ("solver.ns." ^ name)
        (Int64.sub (Rc_util.Trace.now_ns ()) t0);
      r
    end
  in
  let tactics = if reg.default_only then [] else tactics in
  let verdict =
    if attempt "default" (fun () -> default_prove reg ~hyps goal) then Auto
    else
      let goal = resolve_ites ~scope ~hooks:reg.hooks ~hyps goal in
      let named =
        List.find_opt
          (fun name ->
            match find_solver reg name with
            | Some s -> attempt name (fun () -> s.run reg ~hyps goal)
            | None -> false)
          tactics
      in
      match named with
      | Some name -> Via_solver name
      | None -> (
          match
            if reg.default_only then None
            else
              attempt "lemmas" (fun () ->
                  List.find_opt (try_lemma reg ~hyps goal) reg.lemmas)
          with
          | Some l -> Via_lemma l.lname
          | None -> Unsolved)
  in
  if traced then
    Rc_util.Obs.complete obs ~cat:"solver" ~start_ns:t_solve
      ~dur_ns:(Int64.sub (Rc_util.Trace.now_ns ()) t_solve)
      ~args:
        [
          ("goal", Fmt.str "%a" Term.pp_prop goal);
          ("verdict", Fmt.str "%a" pp_verdict verdict);
        ]
      "solve";
  if own_scope then Linarith.flush scope obs;
  verdict
