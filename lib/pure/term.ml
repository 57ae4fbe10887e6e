(** Terms and propositions of the pure layer.

    This is the language in which RefinedC refinements, side conditions and
    loop invariants are expressed — the role played by Coq propositions in
    the paper.  Terms are sorted ({!Sort.t}); propositions are a separate
    syntactic class, mirroring the paper's distinction between refinements
    (terms) and side conditions [⌜φ⌝] (propositions).

    Evars ({!constructor:Evar}) are the existential unification variables
    introduced by Lithium's goal case (4); they are *sealed* by default and
    only instantiated through the controlled mechanisms of §5 ("Handling of
    evars").  The evar store itself lives in [rc_lithium]; here evars are
    just syntax. *)

type term =
  | Var of string * Sort.t
  | Evar of int * Sort.t
  | Num of int  (** integer literal (nats are non-negative ints) *)
  | BoolLit of bool
  | TProp of prop  (** a proposition reflected as a boolean term *)
  | Add of term * term
  | Sub of term * term  (** integer subtraction *)
  | NatSub of term * term  (** truncated subtraction: [max 0 (a - b)] *)
  | Mul of term * term
  | Div of term * term  (** Euclidean division (used with literal divisors) *)
  | Mod of term * term
  | Min of term * term
  | Max of term * term
  | Ite of prop * term * term
  | NullLoc
  | LocOfs of term * term  (** pointer offset [l +ₗ n] *)
  (* multisets of integers *)
  | MsEmpty
  | MsSingleton of term
  | MsUnion of term * term
  (* finite sets of integers *)
  | SetEmpty
  | SetSingleton of term
  | SetUnion of term * term
  | SetDiff of term * term
  (* lists *)
  | Nil of Sort.t
  | Cons of term * term
  | Append of term * term
  | Length of term
  | Replicate of term * term  (** [Replicate (n, x)]: [n] copies of [x] *)
  | NthDflt of term * term * term  (** [NthDflt (d, i, l)]: i-th elt or [d] *)
  | SetListInsert of term * term * term  (** [<[i := x]> l] list update *)
  | App of string * term list  (** defined / uninterpreted function symbol *)

and prop =
  | PTrue
  | PFalse
  | PEq of term * term
  | PLe of term * term
  | PLt of term * term
  | PAnd of prop * prop
  | POr of prop * prop
  | PNot of prop
  | PImp of prop * prop
  | PIsTrue of term  (** lift a boolean term to a proposition *)
  | PIn of term * term  (** membership in a multiset, set or list *)
  | PForall of string * Sort.t * prop
  | PExists of string * Sort.t * prop
  | PPred of string * term list  (** defined / uninterpreted predicate *)
[@@deriving eq, ord, show { with_path = false }]

let p_ne a b = PNot (PEq (a, b))
let p_ge a b = PLe (b, a)
let p_gt a b = PLt (b, a)
let nat x = Var (x, Sort.Nat)
let int_v x = Var (x, Sort.Int)
let loc_v x = Var (x, Sort.Loc)
let mset_v x = Var (x, Sort.Mset)

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)
(* ------------------------------------------------------------------ *)

(** [map_term f t] applies [f] to every direct term child of [t]/[p];
    building block for substitution and simplification. *)
let rec map_term (f : term -> term) (t : term) : term =
  match t with
  | Var _ | Evar _ | Num _ | BoolLit _ | NullLoc | MsEmpty | SetEmpty | Nil _
    ->
      t
  | TProp p -> TProp (map_prop f p)
  | Add (a, b) -> Add (f a, f b)
  | Sub (a, b) -> Sub (f a, f b)
  | NatSub (a, b) -> NatSub (f a, f b)
  | Mul (a, b) -> Mul (f a, f b)
  | Div (a, b) -> Div (f a, f b)
  | Mod (a, b) -> Mod (f a, f b)
  | Min (a, b) -> Min (f a, f b)
  | Max (a, b) -> Max (f a, f b)
  | Ite (c, a, b) -> Ite (map_prop f c, f a, f b)
  | LocOfs (l, n) -> LocOfs (f l, f n)
  | MsSingleton a -> MsSingleton (f a)
  | MsUnion (a, b) -> MsUnion (f a, f b)
  | SetSingleton a -> SetSingleton (f a)
  | SetUnion (a, b) -> SetUnion (f a, f b)
  | SetDiff (a, b) -> SetDiff (f a, f b)
  | Cons (a, b) -> Cons (f a, f b)
  | Append (a, b) -> Append (f a, f b)
  | Length a -> Length (f a)
  | Replicate (a, b) -> Replicate (f a, f b)
  | NthDflt (d, i, l) -> NthDflt (f d, f i, f l)
  | SetListInsert (i, x, l) -> SetListInsert (f i, f x, f l)
  | App (g, args) -> App (g, List.map f args)

and map_prop (f : term -> term) (p : prop) : prop =
  match p with
  | PTrue | PFalse -> p
  | PEq (a, b) -> PEq (f a, f b)
  | PLe (a, b) -> PLe (f a, f b)
  | PLt (a, b) -> PLt (f a, f b)
  | PAnd (a, b) -> PAnd (map_prop f a, map_prop f b)
  | POr (a, b) -> POr (map_prop f a, map_prop f b)
  | PNot a -> PNot (map_prop f a)
  | PImp (a, b) -> PImp (map_prop f a, map_prop f b)
  | PIsTrue t -> PIsTrue (f t)
  | PIn (a, b) -> PIn (f a, f b)
  | PForall (x, s, q) -> PForall (x, s, map_prop f q)
  | PExists (x, s, q) -> PExists (x, s, map_prop f q)
  | PPred (g, args) -> PPred (g, List.map f args)

let rec fold_term : 'a. ('a -> term -> 'a) -> 'a -> term -> 'a =
 fun f acc t ->
  let acc = f acc t in
  let g acc t = fold_term f acc t in
  match t with
  | Var _ | Evar _ | Num _ | BoolLit _ | NullLoc | MsEmpty | SetEmpty | Nil _
    ->
      acc
  | TProp p -> fold_prop f acc p
  | Add (a, b)
  | Sub (a, b)
  | NatSub (a, b)
  | Mul (a, b)
  | Div (a, b)
  | Mod (a, b)
  | Min (a, b)
  | Max (a, b)
  | LocOfs (a, b)
  | MsUnion (a, b)
  | SetUnion (a, b)
  | SetDiff (a, b)
  | Cons (a, b)
  | Append (a, b)
  | Replicate (a, b) ->
      g (g acc a) b
  | Ite (c, a, b) -> g (g (fold_prop f acc c) a) b
  | MsSingleton a | SetSingleton a | Length a -> g acc a
  | NthDflt (a, b, c) | SetListInsert (a, b, c) -> g (g (g acc a) b) c
  | App (_, args) -> List.fold_left g acc args

and fold_prop : 'a. ('a -> term -> 'a) -> 'a -> prop -> 'a =
 fun f acc p ->
  let g acc t = fold_term f acc t in
  match p with
  | PTrue | PFalse -> acc
  | PEq (a, b) | PLe (a, b) | PLt (a, b) | PIn (a, b) -> g (g acc a) b
  | PAnd (a, b) | POr (a, b) | PImp (a, b) ->
      fold_prop f (fold_prop f acc a) b
  | PNot a -> fold_prop f acc a
  | PIsTrue t -> g acc t
  | PForall (_, _, q) | PExists (_, _, q) -> fold_prop f acc q
  | PPred (_, args) -> List.fold_left g acc args

(* ------------------------------------------------------------------ *)
(* Free variables, evars                                               *)
(* ------------------------------------------------------------------ *)

module SS = Set.Make (String)

let free_vars_term t =
  (* Bound variables only occur under PForall/PExists, which we handle by
     collecting then removing; quantified names are made globally unique by
     the parser, so plain collection is accurate in practice.  We still
     remove binder names for robustness. *)
  let rec go_t bound acc t =
    match t with
    | Var (x, _) -> if SS.mem x bound then acc else SS.add x acc
    | TProp p -> go_p bound acc p
    | Ite (c, a, b) -> go_t bound (go_t bound (go_p bound acc c) a) b
    | _ ->
        fold_term
          (fun acc t ->
            match t with
            | Var (x, _) -> if SS.mem x bound then acc else SS.add x acc
            | _ -> acc)
          acc t
  and go_p bound acc p =
    match p with
    | PForall (x, _, q) | PExists (x, _, q) -> go_p (SS.add x bound) acc q
    | PAnd (a, b) | POr (a, b) | PImp (a, b) ->
        go_p bound (go_p bound acc a) b
    | PNot a -> go_p bound acc a
    | _ -> fold_prop (fun acc t -> go_t bound acc t) acc p
  in
  go_t SS.empty SS.empty t

let free_vars_prop p =
  let rec go bound acc p =
    match p with
    | PForall (x, _, q) | PExists (x, _, q) -> go (SS.add x bound) acc q
    | PAnd (a, b) | POr (a, b) | PImp (a, b) -> go bound (go bound acc a) b
    | PNot a -> go bound acc a
    | _ ->
        fold_prop
          (fun acc t ->
            SS.union acc
              (SS.filter (fun x -> not (SS.mem x bound)) (free_vars_term t)))
          acc p
  in
  go SS.empty SS.empty p

let evars_term t =
  fold_term
    (fun acc t -> match t with Evar (i, _) -> i :: acc | _ -> acc)
    [] t
  |> List.sort_uniq Int.compare

let evars_prop p =
  fold_prop
    (fun acc t -> match t with Evar (i, _) -> i :: acc | _ -> acc)
    [] p
  |> List.sort_uniq Int.compare

let has_evars_prop p = evars_prop p <> []

(* ------------------------------------------------------------------ *)
(* Substitution                                                        *)
(* ------------------------------------------------------------------ *)

(** [subst_term env t] substitutes variables by name.  The frontend makes
    binder names globally unique, so capture cannot occur. *)
let rec subst_term (env : (string * term) list) (t : term) : term =
  match t with
  | Var (x, _) -> ( match List.assoc_opt x env with Some u -> u | None -> t)
  | _ -> map_term (subst_term env) t

and subst_prop env p =
  match p with
  | PForall (x, s, q) ->
      let env = List.filter (fun (y, _) -> y <> x) env in
      PForall (x, s, subst_prop env q)
  | PExists (x, s, q) ->
      let env = List.filter (fun (y, _) -> y <> x) env in
      PExists (x, s, subst_prop env q)
  | PAnd (a, b) -> PAnd (subst_prop env a, subst_prop env b)
  | POr (a, b) -> POr (subst_prop env a, subst_prop env b)
  | PImp (a, b) -> PImp (subst_prop env a, subst_prop env b)
  | PNot a -> PNot (subst_prop env a)
  | _ -> map_prop (subst_term env) p

(** Substitute evars by id (used when the evar store resolves). *)
let rec subst_evars_term (lookup : int -> term option) (t : term) : term =
  match t with
  | Evar (i, _) -> (
      match lookup i with
      | Some u -> subst_evars_term lookup u
      | None -> t)
  | _ -> map_term (subst_evars_term lookup) t

let subst_evars_prop lookup p = map_prop (subst_evars_term lookup) p

(* ------------------------------------------------------------------ *)
(* Sort inference (shallow)                                            *)
(* ------------------------------------------------------------------ *)

let rec sort_of (t : term) : Sort.t =
  match t with
  | Var (_, s) | Evar (_, s) -> s
  | Num n -> if n >= 0 then Sort.Nat else Sort.Int
  | BoolLit _ | TProp _ -> Sort.Bool
  | Add (a, b) | Mul (a, b) | Min (a, b) | Max (a, b) -> (
      match Sort.lub (sort_of a) (sort_of b) with
      | Some s -> s
      | None -> Sort.Int)
  | Sub _ -> Sort.Int
  | NatSub _ -> Sort.Nat
  | Div (a, _) | Mod (a, _) -> sort_of a
  | Ite (_, a, _) -> sort_of a
  | NullLoc | LocOfs _ -> Sort.Loc
  | MsEmpty | MsSingleton _ | MsUnion _ -> Sort.Mset
  | SetEmpty | SetSingleton _ | SetUnion _ | SetDiff _ -> Sort.Set
  | Nil s -> Sort.List s
  | Cons (a, _) -> Sort.List (sort_of a)
  | Append (a, _) -> sort_of a
  | Length _ -> Sort.Nat
  | Replicate (_, x) -> Sort.List (sort_of x)
  | NthDflt (d, _, _) -> sort_of d
  | SetListInsert (_, _, l) -> sort_of l
  | App _ -> Sort.Unknown

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

let rec pp_term ppf (t : term) =
  let p fmt = Fmt.pf ppf fmt in
  match t with
  | Var (x, _) -> Fmt.string ppf (Rc_util.Gensym.base x)
  | Evar (i, _) -> p "?e%d" i
  | Num n -> p "%d" n
  | BoolLit b -> p "%b" b
  | TProp q -> p "{%a}" pp_prop q
  | Add (a, b) -> p "(%a + %a)" pp_term a pp_term b
  | Sub (a, b) -> p "(%a - %a)" pp_term a pp_term b
  | NatSub (a, b) -> p "(%a ∸ %a)" pp_term a pp_term b
  | Mul (a, b) -> p "(%a * %a)" pp_term a pp_term b
  | Div (a, b) -> p "(%a / %a)" pp_term a pp_term b
  | Mod (a, b) -> p "(%a %% %a)" pp_term a pp_term b
  | Min (a, b) -> p "min(%a, %a)" pp_term a pp_term b
  | Max (a, b) -> p "max(%a, %a)" pp_term a pp_term b
  | Ite (c, a, b) -> p "(%a ? %a : %a)" pp_prop c pp_term a pp_term b
  | NullLoc -> p "NULL"
  | LocOfs (l, n) -> p "(%a +ₗ %a)" pp_term l pp_term n
  | MsEmpty -> p "∅"
  | MsSingleton a -> p "{[%a]}" pp_term a
  | MsUnion (a, b) -> p "(%a ⊎ %a)" pp_term a pp_term b
  | SetEmpty -> p "∅"
  | SetSingleton a -> p "{[%a]}" pp_term a
  | SetUnion (a, b) -> p "(%a ∪ %a)" pp_term a pp_term b
  | SetDiff (a, b) -> p "(%a ∖ %a)" pp_term a pp_term b
  | Nil _ -> p "[]"
  | Cons (a, b) -> p "(%a :: %a)" pp_term a pp_term b
  | Append (a, b) -> p "(%a ++ %a)" pp_term a pp_term b
  | Length a -> p "length %a" pp_term a
  | Replicate (n, x) -> p "replicate %a %a" pp_term n pp_term x
  | NthDflt (d, i, l) ->
      p "nth %a %a %a" pp_term d pp_term i pp_term l
  | SetListInsert (i, x, l) ->
      p "<[%a := %a]> %a" pp_term i pp_term x pp_term l
  | App (f, []) -> p "%s" f
  | App (f, args) -> p "%s(%a)" f Fmt.(list ~sep:comma pp_term) args

and pp_prop ppf (q : prop) =
  let p fmt = Fmt.pf ppf fmt in
  match q with
  | PTrue -> p "True"
  | PFalse -> p "False"
  | PEq (a, b) -> p "%a = %a" pp_term a pp_term b
  | PNot (PEq (a, b)) -> p "%a ≠ %a" pp_term a pp_term b
  | PLe (a, b) -> p "%a ≤ %a" pp_term a pp_term b
  | PLt (a, b) -> p "%a < %a" pp_term a pp_term b
  | PAnd (a, b) -> p "(%a ∧ %a)" pp_prop a pp_prop b
  | POr (a, b) -> p "(%a ∨ %a)" pp_prop a pp_prop b
  | PNot a -> p "¬%a" pp_prop a
  | PImp (a, b) -> p "(%a → %a)" pp_prop a pp_prop b
  | PIsTrue t -> p "is_true %a" pp_term t
  | PIn (a, b) -> p "%a ∈ %a" pp_term a pp_term b
  | PForall (x, s, q) ->
      p "∀ %s : %a, %a" (Rc_util.Gensym.base x) Sort.pp s pp_prop q
  | PExists (x, s, q) ->
      p "∃ %s : %a, %a" (Rc_util.Gensym.base x) Sort.pp s pp_prop q
  | PPred (f, args) -> p "%s(%a)" f Fmt.(list ~sep:comma pp_term) args

let term_to_string t = Fmt.str "%a" pp_term t
let prop_to_string p = Fmt.str "%a" pp_prop p

(** Conjunction of a list, right-nested, dropping [PTrue]. *)
let conj ps =
  let ps = List.filter (fun p -> p <> PTrue) ps in
  match ps with
  | [] -> PTrue
  | p :: rest -> List.fold_left (fun acc q -> PAnd (acc, q)) p rest

(** Flatten nested conjunctions into a list. *)
let rec conjuncts = function
  | PTrue -> []
  | PAnd (a, b) -> conjuncts a @ conjuncts b
  | p -> [ p ]
