(** The core shared by the collection solvers {!Set_solver} and
    {!Mset_solver}.

    Both reproduce std++ tactics that first do the same bookkeeping:
    rewrite collection variables by their equality hypotheses, saturate
    bounded facts [∀x∈S. φ] with known memberships [k ∈ S], and split a
    goal propositionally before any case of their own.  That part lives
    here once; a solver passes {!prove} its sort and its own cases, which
    build its normal form and facts from the {!ctx} they receive. *)

open Term

(** What a solver's own cases see. *)
type ctx = {
  hooks : Simp.hooks;
  prove_pure : hyps:prop list -> prop -> bool;
      (** the default solver, for element-level subgoals *)
  hyps : prop list;  (** saturated hypotheses *)
  substs : (term * term) list;
      (** the equality hypotheses [v = t] on variables of the solver's
          sort, read as rewrites [v ↦ t] *)
}

let substs sort hyps =
  List.filter_map
    (function
      | PEq ((Var (_, s) as v), t)
        when Sort.equal s sort && not (equal_term v t) ->
          Some (v, t)
      | PEq (t, (Var (_, s) as v))
        when Sort.equal s sort && not (equal_term v t) ->
          Some (v, t)
      | _ -> None)
    hyps

let rec apply_substs n substs t =
  if n = 0 then t
  else
    let t' =
      List.fold_left
        (fun t (v, rhs) ->
          match v with
          | Var (x, _) when not (SS.mem x (free_vars_term rhs)) ->
              subst_term [ (x, rhs) ] t
          | _ -> t)
        t substs
    in
    if equal_term t t' then t else apply_substs (n - 1) substs t'

(** [t] under the context's rewrites, at most 8 rounds deep. *)
let rewrite (c : ctx) t = apply_substs 8 c.substs t

(* saturation: every known membership k ∈ S instantiates every bounded
   fact ∀x∈S. φ(x), enriching the pure context (one round suffices for
   the case studies) *)
let members hyps =
  List.filter_map (function PIn (k, s) -> Some (k, s) | _ -> None) hyps

let bounded hyps =
  List.filter_map
    (function
      | PForall (x, _, PImp (PIn (Var (x', _), s), phi)) when x = x' ->
          Some (x, s, phi)
      | _ -> None)
    hyps

let instances facts members =
  List.concat_map
    (fun (x, s, phi) ->
      List.filter_map
        (fun (k, s') ->
          if equal_term s s' then Some (subst_prop [ (x, k) ] phi) else None)
        members)
    facts

(* [saturate hs hyps]: [hs] added to the saturated [hyps], with only
   the instances [hs] creates: its memberships under every bounded fact,
   and its bounded facts over the memberships already known *)
let saturate hs hyps =
  let ms = members hs and facts = bounded hs in
  instances (facts @ bounded hyps) ms
  @ instances facts (members hyps)
  @ hs @ hyps

(** The last resort of every goal no case decides: a syntactic
    hypothesis, else the default solver. *)
let lookup (c : ctx) g =
  List.exists (fun h -> equal_prop h g) c.hyps || c.prove_pure ~hyps:c.hyps g

(** The bounded-universal goal [∀x. x ∈ s → φ], over the normal form of
    [s]: [φ] holds of every element in [elems], and every opaque part
    [v] has a bounded fact [∀y∈v. ψ] in [bounded] with
    [Γ, ψ[y:=x'] ⊨ φ[x:=x']] for a fresh [x']. *)
let forall_in (c : ctx) ~bounded ~x ~sx ~phi ~elems ~opaque =
  let prove_elem e = c.prove_pure ~hyps:c.hyps (subst_prop [ (x, e) ] phi) in
  let prove_opaque v =
    List.exists
      (fun (s', y, psi) ->
        (equal_term (rewrite c s') v || equal_term s' v)
        &&
        let fresh = Var (x ^ "'", sx) in
        let psi' = subst_prop [ (y, fresh) ] psi in
        let phi' = subst_prop [ (x, fresh) ] phi in
        c.prove_pure ~hyps:(psi' :: c.hyps) phi')
      bounded
  in
  List.for_all prove_elem elems && List.for_all prove_opaque opaque

(** [prove ~sort ~cases] saturates the hypotheses once, simplifies the
    goal and splits ⊤, ∧, ∨, ⇒ (saturating with what the premise adds)
    and the universals whose body the simplifier left as a disjunctive
    premise, a conjunction or an equation on the bound variable; every
    other goal goes to the solver's [cases]. *)
let prove ~sort ~(cases : ctx -> prop -> bool) ?(hooks = Simp.no_hooks)
    ~prove_pure ~hyps goal =
  let rec go ~hyps goal =
    let goal = Simp.simp_prop ~hooks goal in
    match goal with
    | PTrue -> true
    | PAnd (a, b) -> go ~hyps a && go ~hyps b
    | POr (a, b) -> go ~hyps a || go ~hyps b
    | PImp (a, b) -> (
        match Simp.destruct_hyp ~hooks a with
        | None -> true
        | Some hs -> go ~hyps:(saturate hs hyps) b)
    | PForall (x, s, PImp (POr (p, q), phi)) ->
        go ~hyps (PForall (x, s, PImp (p, phi)))
        && go ~hyps (PForall (x, s, PImp (q, phi)))
    | PForall (x, s, PAnd (p, q)) ->
        go ~hyps (PForall (x, s, p)) && go ~hyps (PForall (x, s, q))
    | PForall (x, _, PImp (PEq (Var (x', _), e), phi))
      when x = x' && not (SS.mem x (free_vars_term e)) ->
        go ~hyps (subst_prop [ (x, e) ] phi)
    | PForall (x, _, PImp (PEq (e, Var (x', _)), phi))
      when x = x' && not (SS.mem x (free_vars_term e)) ->
        go ~hyps (subst_prop [ (x, e) ] phi)
    | goal ->
        cases { hooks; prove_pure; hyps; substs = substs sort hyps } goal
  in
  go ~hyps:(saturate hyps []) goal
