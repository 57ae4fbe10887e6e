(** Normalizing simplifier for pure terms and propositions.

    This is the reproduction of the [autorewrite]-based simplification
    mechanism of §5: a set of *equivalences* applied to a fixpoint, plus a
    user-extensible hook table.  It is used (a) before any solver runs,
    (b) by Lithium to normalize assumptions added to Γ (goal case (7c)),
    and (c) by the evar heuristics. *)

open Term

(* -------------------------------------------------------------------- *)
(* Extensible rewrite hooks                                              *)
(* -------------------------------------------------------------------- *)

type term_rule = term -> term option
type prop_rule = prop -> prop option

(** Expert-registered rewriting equivalences (RefinedC lets experts
    extend the simplifier; we expose the same hook).  Hooks are an
    immutable *value* carried by the verification session's solver
    registry — not a process-global table — so two concurrent sessions
    can simplify under different equational theories. *)
type hooks = {
  h_term : (string * term_rule) list;
  h_prop : (string * prop_rule) list;
}

let no_hooks = { h_term = []; h_prop = [] }

let hooks ?(term_rules = []) ?(prop_rules = []) () =
  { h_term = term_rules; h_prop = prop_rules }


(** Registration-order hook names, for configuration fingerprints. *)
let hook_names h = List.map fst h.h_term @ List.map fst h.h_prop

(* -------------------------------------------------------------------- *)
(* Built-in term simplification                                          *)
(* -------------------------------------------------------------------- *)

let rec step_term (hooks : hooks) (t : term) : term option =
  match t with
  | Add (Num a, Num b) -> Some (Num (a + b))
  | Add (Num 0, x) | Add (x, Num 0) -> Some x
  | Sub (Num a, Num b) -> Some (Num (a - b))
  | Sub (x, Num 0) -> Some x
  | Sub (a, b) when equal_term a b -> Some (Num 0)
  | NatSub (Num a, Num b) -> Some (Num (max 0 (a - b)))
  | NatSub (x, Num 0) -> Some x
  | NatSub (a, b) when equal_term a b -> Some (Num 0)
  | Mul (Num a, Num b) -> Some (Num (a * b))
  | Mul (Num 0, _) | Mul (_, Num 0) -> Some (Num 0)
  | Mul (Num 1, x) | Mul (x, Num 1) -> Some x
  | Div (x, Num 1) -> Some x
  | Div (Num a, Num b) when b <> 0 ->
      (* Euclidean: round toward -infinity for positive divisors, which is
         all the case studies use. *)
      Some (Num (if a >= 0 then a / b else -(((-a) + b - 1) / b)))
  | Mod (Num a, Num b) when b > 0 -> Some (Num (((a mod b) + b) mod b))
  | Mod (_, Num 1) -> Some (Num 0)
  | Min (Num a, Num b) -> Some (Num (min a b))
  | Max (Num a, Num b) -> Some (Num (max a b))
  | Min (a, b) when equal_term a b -> Some a
  | Max (a, b) when equal_term a b -> Some a
  | Ite (PTrue, a, _) -> Some a
  | Ite (PFalse, _, b) -> Some b
  | Ite (_, a, b) when equal_term a b -> Some a
  | TProp PTrue -> Some (BoolLit true)
  | TProp PFalse -> Some (BoolLit false)
  | LocOfs (l, Num 0) -> Some l
  | LocOfs (LocOfs (l, a), b) -> Some (LocOfs (l, Add (a, b)))
  (* multisets *)
  | MsUnion (MsEmpty, s) | MsUnion (s, MsEmpty) -> Some s
  (* sets *)
  | SetUnion (SetEmpty, s) | SetUnion (s, SetEmpty) -> Some s
  | SetDiff (s, SetEmpty) -> Some s
  | SetDiff (SetEmpty, _) -> Some SetEmpty
  | SetUnion (a, b) when equal_term a b -> Some a
  (* lists *)
  | Append (Nil _, l) | Append (l, Nil _) -> Some l
  | Length (Nil _) -> Some (Num 0)
  | Length (Cons (_, l)) -> Some (Add (Num 1, Length l))
  | Length (Append (a, b)) -> Some (Add (Length a, Length b))
  | Length (Replicate (n, _)) -> Some n
  | Length (SetListInsert (_, _, l)) -> Some (Length l)
  | Replicate (Num 0, _) -> Some (Nil Sort.Unknown)
  | Replicate (Num n, x) when n > 0 && n <= 64 ->
      Some (Cons (x, Replicate (Num (n - 1), x)))
  | NthDflt (_, Num 0, Cons (x, _)) -> Some x
  | NthDflt (d, Num i, Cons (_, l)) when i > 0 ->
      Some (NthDflt (d, Num (i - 1), l))
  | NthDflt (d, i, Replicate (n, x)) ->
      Some (Ite (PAnd (PLe (Num 0, i), PLt (i, n)), x, d))
  | NthDflt (d, i, SetListInsert (j, x, l)) ->
      Some
        (Ite
           ( PAnd (PEq (i, j), PLt (j, Length l)),
             x,
             NthDflt (d, i, l) ))
  | SetListInsert (Num 0, x, Cons (_, l)) -> Some (Cons (x, l))
  | SetListInsert (Num i, x, Cons (y, l)) when i > 0 ->
      Some (Cons (y, SetListInsert (Num (i - 1), x, l)))
  | _ -> first_rule hooks.h_term t

and first_rule rules t =
  match rules with
  | [] -> None
  | (_, r) :: rest -> ( match r t with Some t' -> Some t' | None -> first_rule rest t)

(* -------------------------------------------------------------------- *)
(* Built-in proposition simplification                                   *)
(* -------------------------------------------------------------------- *)

let rec step_prop (hooks : hooks) (p : prop) : prop option =
  match p with
  | PEq (a, b) when equal_term a b -> Some PTrue
  | PEq (Num a, Num b) -> Some (if a = b then PTrue else PFalse)
  | PEq (BoolLit a, BoolLit b) -> Some (if a = b then PTrue else PFalse)
  | PEq (TProp q, BoolLit true) | PEq (BoolLit true, TProp q) -> Some q
  | PEq (TProp q, BoolLit false) | PEq (BoolLit false, TProp q) ->
      Some (PNot q)
  | PEq (NullLoc, LocOfs _) | PEq (LocOfs _, NullLoc) -> Some PFalse
  | PEq (Cons (x, xs), Cons (y, ys)) -> Some (PAnd (PEq (x, y), PEq (xs, ys)))
  | PEq (Cons _, Nil _) | PEq (Nil _, Cons _) -> Some PFalse
  | PEq (MsSingleton _, MsEmpty) | PEq (MsEmpty, MsSingleton _) -> Some PFalse
  | PEq (MsUnion (MsSingleton _, _), MsEmpty)
  | PEq (MsEmpty, MsUnion (MsSingleton _, _)) ->
      Some PFalse
  | PEq (LocOfs (l1, a), LocOfs (l2, b)) when equal_term l1 l2 ->
      Some (PEq (a, b))
  | PEq (l1, LocOfs (l2, b)) when equal_term l1 l2 -> Some (PEq (Num 0, b))
  | PEq (LocOfs (l1, a), l2) when equal_term l1 l2 -> Some (PEq (a, Num 0))
  | PLe (Num a, Num b) -> Some (if a <= b then PTrue else PFalse)
  | PLt (Num a, Num b) -> Some (if a < b then PTrue else PFalse)
  | PLe (a, b) when equal_term a b -> Some PTrue
  | PLt (a, b) when equal_term a b -> Some PFalse
  | PAnd (PTrue, q) | PAnd (q, PTrue) -> Some q
  | PAnd (PFalse, _) | PAnd (_, PFalse) -> Some PFalse
  | POr (PTrue, _) | POr (_, PTrue) -> Some PTrue
  | POr (PFalse, q) | POr (q, PFalse) -> Some q
  | PNot PTrue -> Some PFalse
  | PNot PFalse -> Some PTrue
  | PNot (PNot q) -> Some q
  | PImp (a, b) when equal_prop a b -> Some PTrue
  | PImp (PTrue, q) -> Some q
  | PImp (PFalse, _) -> Some PTrue
  | PImp (_, PTrue) -> Some PTrue
  | PIsTrue (BoolLit b) -> Some (if b then PTrue else PFalse)
  | PIsTrue (TProp q) -> Some q
  | PIn (_, MsEmpty) | PIn (_, SetEmpty) | PIn (_, Nil _) -> Some PFalse
  | PIn (x, MsSingleton y) | PIn (x, SetSingleton y) -> Some (PEq (x, y))
  | PIn (x, MsUnion (a, b)) -> Some (POr (PIn (x, a), PIn (x, b)))
  | PIn (x, SetUnion (a, b)) -> Some (POr (PIn (x, a), PIn (x, b)))
  | PIn (x, Cons (y, l)) -> Some (POr (PEq (x, y), PIn (x, l)))
  | PIn (x, Append (a, b)) -> Some (POr (PIn (x, a), PIn (x, b)))
  | PForall (_, _, PTrue) -> Some PTrue
  | PExists (_, _, PFalse) -> Some PFalse
  | _ -> first_prop_rule hooks.h_prop p

and first_prop_rule rules p =
  match rules with
  | [] -> None
  | (_, r) :: rest -> (
      match r p with Some p' -> Some p' | None -> first_prop_rule rest p)

(* -------------------------------------------------------------------- *)
(* Fixpoint driver                                                       *)
(* -------------------------------------------------------------------- *)

let fuel = 10_000

let rec simp_term_h (h : hooks) (t : term) : term =
  let t = map_term (simp_term_h h) (map_prop_in_term h t) in
  match step_term h t with
  | Some t' -> simp_term_fuel h (fuel - 1) t'
  | None -> t

and simp_term_fuel h n t =
  if n <= 0 then t
  else
    let t = map_term (simp_term_h h) (map_prop_in_term h t) in
    match step_term h t with
    | Some t' -> simp_term_fuel h (n - 1) t'
    | None -> t

(* [map_prop_in_term] and [map_children] share unchanged terms and keep
   the right-to-left order of {!Term.map_term} *)
and map_prop_in_term h t =
  match t with
  | Ite (c, a, b) ->
      let c' = simp_prop_h h c in
      if c' == c then t else Ite (c', a, b)
  | TProp p ->
      let p' = simp_prop_h h p in
      if p' == p then t else TProp p'
  | _ -> t

and simp_prop_h (h : hooks) (p : prop) : prop =
  let p = map_children h p in
  match step_prop h p with
  | Some p' -> simp_prop_fuel h (fuel - 1) p'
  | None -> p

and simp_prop_fuel h n p =
  if n <= 0 then p
  else
    let p = map_children h p in
    match step_prop h p with
    | Some p' -> simp_prop_fuel h (n - 1) p'
    | None -> p

and map_children h p =
  match p with
  | PAnd (a, b) | POr (a, b) | PImp (a, b) ->
      let b' = simp_prop_h h b in
      let a' = simp_prop_h h a in
      if a' == a && b' == b then p else conn2 p a' b'
  | PNot a ->
      let a' = simp_prop_h h a in
      if a' == a then p else PNot a'
  | PForall (_, _, q) | PExists (_, _, q) ->
      let q' = simp_prop_h h q in
      if q' == q then p else quant p q'
  | _ -> map_prop (simp_term_h h) p

let simp_term ?(hooks = no_hooks) t = simp_term_h hooks t
let simp_prop ?(hooks = no_hooks) p = simp_prop_h hooks p

(* -------------------------------------------------------------------- *)
(* Hypothesis normalization (Lithium goal case (7c))                     *)
(* -------------------------------------------------------------------- *)

(** [destruct_hyp p] splits a hypothesis into a list of simpler
    hypotheses, mirroring Lithium's normalization of assumptions: e.g.
    [xs ++ ys = [] ↦ xs = []; ys = []], conjunctions split, trivial
    hypotheses dropped.  Returns [None] if the hypothesis is
    contradictory (so the goal holds vacuously). *)
let rec destruct_hyp ?(hooks = no_hooks) (p : prop) : prop list option =
  let destruct_hyp p = destruct_hyp ~hooks p in
  match simp_prop_h hooks p with
  | PTrue -> Some []
  | PFalse -> None
  | PAnd (a, b) -> (
      match destruct_hyp a with
      | None -> None
      | Some xs -> (
          match destruct_hyp b with
          | None -> None
          | Some ys -> Some (xs @ ys)))
  | PEq (Append (a, b), Nil s) | PEq (Nil s, Append (a, b)) -> (
      match destruct_hyp (PEq (a, Nil s)) with
      | None -> None
      | Some xs -> (
          match destruct_hyp (PEq (b, Nil s)) with
          | None -> None
          | Some ys -> Some (xs @ ys)))
  | PEq (MsUnion (a, b), MsEmpty) | PEq (MsEmpty, MsUnion (a, b)) -> (
      match destruct_hyp (PEq (a, MsEmpty)) with
      | None -> None
      | Some xs -> (
          match destruct_hyp (PEq (b, MsEmpty)) with
          | None -> None
          | Some ys -> Some (xs @ ys)))
  | p -> Some [ p ]
