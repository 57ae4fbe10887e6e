(** The evar store and unification (§5, "Handling of evars").

    Evars created by goal case (4) are *sealed*: ordinary reasoning steps
    may not instantiate them.  They are unsealed only while discharging a
    pure side condition (case (6c)), where Lithium first tries to unify
    the two sides of an equality and then falls back to goal-simplification
    rules such as [?xs ≠ [] ⇝ ?xs := ?y :: ?ys].  A bad instantiation can
    turn a provable goal unprovable but never an unprovable one provable,
    so instantiation is not part of the trusted computing base — the
    certificate checker re-checks side conditions with all evars
    resolved. *)

open Rc_pure
open Rc_pure.Term

type entry = {
  e_sort : Sort.t;
  e_hint : string;
  mutable inst : term option;
  mutable sealed : bool;
}

type t = {
  entries : (int, entry) Hashtbl.t;
  gen : Rc_util.Gensym.t;
  mutable instantiations : int;  (** Figure 7's ∃ column *)
  mutable min_inst : int;
      (** smallest evar id instantiated so far ([max_int] if none) — the
          engine's memo layer compares it against a frame's id watermark
          to detect instantiations of pre-existing evars *)
  fault : Rc_util.Faultsim.t option;
      (** the owning session's fault campaign, for the evar_resolve site *)
  obs : Rc_util.Obs.t;
      (** the enclosing check's observability handle: every successful
          instantiation emits an [evar] trace event (the [evar.insts]
          counter is credited from [instantiations] at the end of the
          run) *)
}

let create ?fault ?(obs = Rc_util.Obs.off) () =
  {
    entries = Hashtbl.create 64;
    gen = Rc_util.Gensym.create ();
    instantiations = 0;
    min_inst = max_int;
    fault;
    obs;
  }

(** [next_id st] is the id the next [fresh] will allocate — the memo
    layer's frame watermark. *)
let next_id (st : t) = Rc_util.Gensym.count st.gen

(** [skip_ids st n] burns [n] evar ids without creating entries, so a
    memo replay leaves the id counter exactly where the replayed search
    would have. *)
let skip_ids (st : t) (n : int) = Rc_util.Gensym.skip st.gen n

(** [credit_instantiations st n] accounts for [n] instantiations that a
    memo replay subsumed (Figure 7's ∃ column must not depend on
    memoization). *)
let credit_instantiations (st : t) (n : int) =
  if n > 0 then st.instantiations <- st.instantiations + n

let fresh ?(hint = "x") (st : t) (sort : Sort.t) : term =
  let id = Rc_util.Gensym.fresh_int st.gen in
  Hashtbl.replace st.entries id
    { e_sort = sort; e_hint = hint; inst = None; sealed = true };
  Evar (id, sort)

let lookup (st : t) (id : int) : term option =
  match Hashtbl.find_opt st.entries id with
  | Some { inst = Some t; _ } -> Some t
  | _ -> None

(** Resolve all instantiated evars inside a term / proposition. *)
let resolve (st : t) (t : term) : term =
  Rc_util.Faultsim.point st.fault "evar_resolve";
  subst_evars_term (lookup st) t

let resolve_prop (st : t) (p : prop) : prop =
  Rc_util.Faultsim.point st.fault "evar_resolve";
  subst_evars_prop (lookup st) p

let set (st : t) (id : int) (t : term) : unit =
  match Hashtbl.find_opt st.entries id with
  | Some e when e.inst = None ->
      e.inst <- Some t;
      st.instantiations <- st.instantiations + 1;
      if id < st.min_inst then st.min_inst <- id;
      if Rc_util.Trace.on (Rc_util.Obs.tr st.obs) then
        Rc_util.Obs.instant st.obs ~cat:"evar"
          ~args:
            [ ("evar", Printf.sprintf "?%s/%d" e.e_hint id);
              ("term", term_to_string t) ]
          "evar:inst"
  | Some _ -> invalid_arg "Evar.set: already instantiated"
  | None -> invalid_arg "Evar.set: unknown evar"

let occurs (st : t) (id : int) (t : term) : bool =
  List.mem id (evars_term (resolve st t))

(* ------------------------------------------------------------------ *)
(* Unification                                                          *)
(* ------------------------------------------------------------------ *)

(** Syntactic first-order unification.  [unseal] controls whether sealed
    evars may be instantiated — true only inside side-condition
    discharge, as the paper prescribes. *)
let rec unify ?(unseal = false) (st : t) (a : term) (b : term) : bool =
  let a = resolve st a and b = resolve st b in
  let bindable id =
    match Hashtbl.find_opt st.entries id with
    | Some e -> e.inst = None && ((not e.sealed) || unseal)
    | None -> false
  in
  match (a, b) with
  | Evar (i, _), Evar (j, _) when i = j -> true
  | Evar (i, _), t when bindable i && not (occurs st i t) ->
      set st i t;
      true
  | t, Evar (i, _) when bindable i && not (occurs st i t) ->
      set st i t;
      true
  | Var (x, _), Var (y, _) -> x = y
  | Num a, Num b -> a = b
  | BoolLit a, BoolLit b -> a = b
  | NullLoc, NullLoc | MsEmpty, MsEmpty | SetEmpty, SetEmpty -> true
  | Nil _, Nil _ -> true
  | TProp p, TProp q -> unify_prop ~unseal st p q
  | Add (a1, a2), Add (b1, b2)
  | Sub (a1, a2), Sub (b1, b2)
  | NatSub (a1, a2), NatSub (b1, b2)
  | Mul (a1, a2), Mul (b1, b2)
  | Div (a1, a2), Div (b1, b2)
  | Mod (a1, a2), Mod (b1, b2)
  | Min (a1, a2), Min (b1, b2)
  | Max (a1, a2), Max (b1, b2)
  | LocOfs (a1, a2), LocOfs (b1, b2)
  | MsUnion (a1, a2), MsUnion (b1, b2)
  | SetUnion (a1, a2), SetUnion (b1, b2)
  | SetDiff (a1, a2), SetDiff (b1, b2)
  | Cons (a1, a2), Cons (b1, b2)
  | Append (a1, a2), Append (b1, b2)
  | Replicate (a1, a2), Replicate (b1, b2) ->
      unify ~unseal st a1 b1 && unify ~unseal st a2 b2
  | MsSingleton a, MsSingleton b
  | SetSingleton a, SetSingleton b
  | Length a, Length b ->
      unify ~unseal st a b
  | Ite (p, a1, a2), Ite (q, b1, b2) ->
      unify_prop ~unseal st p q && unify ~unseal st a1 b1
      && unify ~unseal st a2 b2
  | NthDflt (a1, a2, a3), NthDflt (b1, b2, b3)
  | SetListInsert (a1, a2, a3), SetListInsert (b1, b2, b3) ->
      unify ~unseal st a1 b1 && unify ~unseal st a2 b2 && unify ~unseal st a3 b3
  | App (f, xs), App (g, ys) when f = g && List.length xs = List.length ys ->
      List.for_all2 (unify ~unseal st) xs ys
  | _ -> false

and unify_prop ?(unseal = false) (st : t) (p : prop) (q : prop) : bool =
  let p = resolve_prop st p and q = resolve_prop st q in
  match (p, q) with
  | PTrue, PTrue | PFalse, PFalse -> true
  | PEq (a1, a2), PEq (b1, b2)
  | PLe (a1, a2), PLe (b1, b2)
  | PLt (a1, a2), PLt (b1, b2)
  | PIn (a1, a2), PIn (b1, b2) ->
      unify ~unseal st a1 b1 && unify ~unseal st a2 b2
  | PAnd (p1, p2), PAnd (q1, q2)
  | POr (p1, p2), POr (q1, q2)
  | PImp (p1, p2), PImp (q1, q2) ->
      unify_prop ~unseal st p1 q1 && unify_prop ~unseal st p2 q2
  | PNot p1, PNot q1 -> unify_prop ~unseal st p1 q1
  | PIsTrue a, PIsTrue b -> unify ~unseal st a b
  | PPred (f, xs), PPred (g, ys)
    when f = g && List.length xs = List.length ys ->
      List.for_all2 (unify ~unseal st) xs ys
  | _ -> equal_prop p q

(* ------------------------------------------------------------------ *)
(* Goal simplification rules for evar-laden side conditions             *)
(* ------------------------------------------------------------------ *)

type simp_outcome =
  | Progress of prop  (** may have instantiated evars *)
  | NoProgress

type goal_simp_rule = t -> prop -> simp_outcome

(** Per-session goal-simplification configuration: the user-extensible
    rule list ("user-extensible rewriting rules and equivalences", §5)
    plus the ablation switch disabling heuristic 2 altogether.  A value,
    not a registry: concurrent sessions carry their own. *)
type simp_cfg = {
  gs_rules : (string * goal_simp_rule) list;
  gs_no_goal_simp : bool;
}

let default_simp_cfg = { gs_rules = []; gs_no_goal_simp = false }

(** Rule names in registration order, for configuration fingerprints. *)
let simp_cfg_names cfg =
  (if cfg.gs_no_goal_simp then [ "no_goal_simp" ] else [])
  @ List.map fst cfg.gs_rules

let builtin_simp (st : t) (p : prop) : simp_outcome =
  match p with
  (* ?xs ≠ [] ⇝ ∃ y ys, ?xs = y :: ys — introduce evars and instantiate *)
  | PNot (PEq (Evar (i, (Sort.List s as ls)), Nil _))
  | PNot (PEq (Nil _, Evar (i, (Sort.List s as ls)))) ->
      let y = fresh ~hint:"y" st s in
      let ys = fresh ~hint:"ys" st ls in
      if unify ~unseal:true st (Evar (i, ls)) (Cons (y, ys)) then Progress PTrue
      else NoProgress
  (* ?s ≠ ∅ ⇝ ?s := {[?n]} ⊎ ?t *)
  | PNot (PEq (Evar (i, Sort.Mset), MsEmpty))
  | PNot (PEq (MsEmpty, Evar (i, Sort.Mset))) ->
      let n = fresh ~hint:"n" st Sort.Int in
      let t' = fresh ~hint:"t" st Sort.Mset in
      if unify ~unseal:true st (Evar (i, Sort.Mset)) (MsUnion (MsSingleton n, t'))
      then Progress PTrue
      else NoProgress
  (* ?n ≠ 0 over the naturals: instantiate ?n := ?m + 1 *)
  | PNot (PEq (Evar (i, (Sort.Nat | Sort.Int as so)), Num 0))
  | PNot (PEq (Num 0, Evar (i, (Sort.Nat | Sort.Int as so)))) ->
      let m = fresh ~hint:"m" st Sort.Nat in
      if unify ~unseal:true st (Evar (i, so)) (Add (m, Num 1)) then
        Progress PTrue
      else NoProgress
  (* abstract boolean states (lock refinements): an evar reflected as a
     proposition is pinned by what it must imply / be implied by *)
  | PIsTrue (Evar (i, Sort.Bool)) ->
      if unify ~unseal:true st (Evar (i, Sort.Bool)) (BoolLit true) then
        Progress PTrue
      else NoProgress
  | PNot (PIsTrue (Evar (i, Sort.Bool)))
  | PImp (PIsTrue (Evar (i, Sort.Bool)), PFalse) ->
      if unify ~unseal:true st (Evar (i, Sort.Bool)) (BoolLit false) then
        Progress PTrue
      else NoProgress
  | PImp (a, PIsTrue (Evar (i, Sort.Bool))) when not (has_evars_prop a) ->
      if unify ~unseal:true st (Evar (i, Sort.Bool)) (TProp a) then
        Progress PTrue
      else NoProgress
  | PImp (PIsTrue (Evar (i, Sort.Bool)), a) when not (has_evars_prop a) ->
      if unify ~unseal:true st (Evar (i, Sort.Bool)) (TProp a) then
        Progress PTrue
      else NoProgress
  (* decompose equalities of injective constructors to expose evars *)
  | PEq (Cons (a, b), Cons (c, d)) ->
      Progress (PAnd (PEq (a, c), PEq (b, d)))
  | PEq (MsSingleton a, MsSingleton b) | PEq (SetSingleton a, SetSingleton b)
    ->
      Progress (PEq (a, b))
  | _ -> NoProgress

let apply_goal_simp ?(cfg = default_simp_cfg) (st : t) (p : prop) :
    simp_outcome =
  if cfg.gs_no_goal_simp then NoProgress
  else
    match builtin_simp st p with
    | Progress p' -> Progress p'
    | NoProgress ->
        let rec go = function
          | [] -> NoProgress
          | (_, r) :: rest -> (
              match r st p with
              | Progress p' -> Progress p'
              | NoProgress -> go rest)
        in
        go cfg.gs_rules
