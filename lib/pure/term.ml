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
[@@deriving eq, ord]

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

(* Traversals share unchanged terms: a node none of whose children
   changed is returned itself ([==]), so mapping allocates only along
   the paths to the changed leaves.  Children are mapped in the order
   OCaml evaluates a constructor expression's arguments — right to
   left, so an [Ite]'s condition last — and argument lists head first,
   as [List.map] does.  The order is part of the contract: [f] may have
   effects ([Registry.resolve_ites] proves goals inside it, and the
   solver hands out atom ids in query order). *)

(* [t]'s binary constructor over [a], [b] *)
let term2 t a b =
  match t with
  | Add _ -> Add (a, b)
  | Sub _ -> Sub (a, b)
  | NatSub _ -> NatSub (a, b)
  | Mul _ -> Mul (a, b)
  | Div _ -> Div (a, b)
  | Mod _ -> Mod (a, b)
  | Min _ -> Min (a, b)
  | Max _ -> Max (a, b)
  | LocOfs _ -> LocOfs (a, b)
  | MsUnion _ -> MsUnion (a, b)
  | SetUnion _ -> SetUnion (a, b)
  | SetDiff _ -> SetDiff (a, b)
  | Cons _ -> Cons (a, b)
  | Append _ -> Append (a, b)
  | Replicate _ -> Replicate (a, b)
  | _ -> invalid_arg "Term.term2"

(* [p]'s binary constructor over the terms [a], [b] *)
let atom2 p a b =
  match p with
  | PEq _ -> PEq (a, b)
  | PLe _ -> PLe (a, b)
  | PLt _ -> PLt (a, b)
  | PIn _ -> PIn (a, b)
  | _ -> invalid_arg "Term.atom2"

(* [p]'s binary connective over [a], [b] *)
let conn2 p a b =
  match p with
  | PAnd _ -> PAnd (a, b)
  | POr _ -> POr (a, b)
  | PImp _ -> PImp (a, b)
  | _ -> invalid_arg "Term.conn2"

(* [p]'s quantifier over the body [q] *)
let quant p q =
  match p with
  | PForall (x, s, _) -> PForall (x, s, q)
  | PExists (x, s, _) -> PExists (x, s, q)
  | _ -> invalid_arg "Term.quant"

(** [map_args f l] is [List.map f l], head first, returning [l] itself
    when [f] changes no element. *)
let rec map_args (f : term -> term) (l : term list) : term list =
  match l with
  | [] -> l
  | x :: rest ->
      let x' = f x in
      let rest' = map_args f rest in
      if x' == x && rest' == rest then l else x' :: rest'

(** [map_term f t] applies [f] to every direct term child of [t]/[p];
    building block for substitution and simplification.  When [f]
    returns every child itself, so does [map_term]. *)
let rec map_term (f : term -> term) (t : term) : term =
  match t with
  | Var _ | Evar _ | Num _ | BoolLit _ | NullLoc | MsEmpty | SetEmpty | Nil _
    ->
      t
  | TProp p ->
      let p' = map_prop f p in
      if p' == p then t else TProp p'
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
      let b' = f b in
      let a' = f a in
      if a' == a && b' == b then t else term2 t a' b'
  | Ite (c, a, b) ->
      let b' = f b in
      let a' = f a in
      let c' = map_prop f c in
      if c' == c && a' == a && b' == b then t else Ite (c', a', b')
  | MsSingleton a ->
      let a' = f a in
      if a' == a then t else MsSingleton a'
  | SetSingleton a ->
      let a' = f a in
      if a' == a then t else SetSingleton a'
  | Length a ->
      let a' = f a in
      if a' == a then t else Length a'
  | NthDflt (d, i, l) ->
      let l' = f l in
      let i' = f i in
      let d' = f d in
      if d' == d && i' == i && l' == l then t else NthDflt (d', i', l')
  | SetListInsert (i, x, l) ->
      let l' = f l in
      let x' = f x in
      let i' = f i in
      if i' == i && x' == x && l' == l then t else SetListInsert (i', x', l')
  | App (g, args) ->
      let args' = map_args f args in
      if args' == args then t else App (g, args')

and map_prop (f : term -> term) (p : prop) : prop =
  match p with
  | PTrue | PFalse -> p
  | PEq (a, b) | PLe (a, b) | PLt (a, b) | PIn (a, b) ->
      let b' = f b in
      let a' = f a in
      if a' == a && b' == b then p else atom2 p a' b'
  | PAnd (a, b) | POr (a, b) | PImp (a, b) ->
      let b' = map_prop f b in
      let a' = map_prop f a in
      if a' == a && b' == b then p else conn2 p a' b'
  | PNot a ->
      let a' = map_prop f a in
      if a' == a then p else PNot a'
  | PIsTrue t ->
      let t' = f t in
      if t' == t then p else PIsTrue t'
  | PForall (_, _, q) | PExists (_, _, q) ->
      let q' = map_prop f q in
      if q' == q then p else quant p q'
  | PPred (g, args) ->
      let args' = map_args f args in
      if args' == args then p else PPred (g, args')

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

(** [has_evars_prop p]: some evar occurs in [p]; stops at the first. *)
let has_evars_prop p =
  let stop () t = match t with Evar _ -> raise Exit | _ -> () in
  match fold_prop stop () p with () -> false | exception Exit -> true

(* ------------------------------------------------------------------ *)
(* Substitution                                                        *)
(* ------------------------------------------------------------------ *)

(** [subst_term env t] substitutes variables by name.  The frontend makes
    binder names globally unique, so capture cannot occur. *)
let subst_term (env : (string * term) list) : term -> term =
  let rec go t =
    match t with
    | Var (x, _) -> ( match List.assoc_opt x env with Some u -> u | None -> t)
    | _ -> map_term go t
  in
  go

let rec subst_prop env p =
  match p with
  | PForall (x, _, q) | PExists (x, _, q) ->
      let q' = subst_prop (List.filter (fun (y, _) -> y <> x) env) q in
      if q' == q then p else quant p q'
  | PAnd (a, b) | POr (a, b) | PImp (a, b) ->
      let b' = subst_prop env b in
      let a' = subst_prop env a in
      if a' == a && b' == b then p else conn2 p a' b'
  | PNot a ->
      let a' = subst_prop env a in
      if a' == a then p else PNot a'
  | _ -> map_prop (subst_term env) p

(** Substitute evars by id (used when the evar store resolves). *)
let subst_evars_term (lookup : int -> term option) : term -> term =
  let rec go t =
    match t with
    | Evar (i, _) -> ( match lookup i with Some u -> go u | None -> t)
    | _ -> map_term go t
  in
  go

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

(* ------------------------------------------------------------------ *)
(* Structural encoding                                                 *)
(* ------------------------------------------------------------------ *)

(* The injective encoding ({!Rc_util.Enc}) that cache keys, rule
   equalities and memo keys compare: a tag per constructor, then every
   field, variable names in full and sorts included.  The printers above
   are for display only. *)
module Enc = Rc_util.Enc

let rec enc_term w (t : term) =
  match t with
  | Var (x, s) ->
      Enc.tag w 'v';
      Enc.enc_str w x;
      Sort.enc w s
  | Evar (i, s) ->
      Enc.tag w 'e';
      Enc.enc_int w i;
      Sort.enc w s
  | Num n ->
      Enc.tag w '#';
      Enc.enc_int w n
  | BoolLit v ->
      Enc.tag w 'b';
      Enc.enc_bool w v
  | TProp q ->
      Enc.tag w 'P';
      enc_prop w q
  | Add (x, y) -> enc2 w '+' x y
  | Sub (x, y) -> enc2 w '-' x y
  | NatSub (x, y) -> enc2 w '_' x y
  | Mul (x, y) -> enc2 w '*' x y
  | Div (x, y) -> enc2 w '/' x y
  | Mod (x, y) -> enc2 w '%' x y
  | Min (x, y) -> enc2 w 'm' x y
  | Max (x, y) -> enc2 w 'M' x y
  | Ite (c, x, y) ->
      Enc.tag w '?';
      enc_prop w c;
      enc_term w x;
      enc_term w y
  | NullLoc -> Enc.tag w '0'
  | LocOfs (l, n) -> enc2 w 'o' l n
  | MsEmpty -> Enc.tag w 'E'
  | MsSingleton x ->
      Enc.tag w 's';
      enc_term w x
  | MsUnion (x, y) -> enc2 w 'u' x y
  | SetEmpty -> Enc.tag w 'F'
  | SetSingleton x ->
      Enc.tag w 'S';
      enc_term w x
  | SetUnion (x, y) -> enc2 w 'U' x y
  | SetDiff (x, y) -> enc2 w '\\' x y
  | Nil s ->
      Enc.tag w 'n';
      Sort.enc w s
  | Cons (x, y) -> enc2 w ':' x y
  | Append (x, y) -> enc2 w 'a' x y
  | Length x ->
      Enc.tag w 'l';
      enc_term w x
  | Replicate (n, x) -> enc2 w 'r' n x
  | NthDflt (d, i, l) ->
      Enc.tag w 'N';
      enc_term w d;
      enc_term w i;
      enc_term w l
  | SetListInsert (i, x, l) ->
      Enc.tag w 'I';
      enc_term w i;
      enc_term w x;
      enc_term w l
  | App (f, args) ->
      Enc.tag w 'A';
      Enc.enc_str w f;
      Enc.enc_list enc_term w args

(* a binary constructor: its tag, then both operands *)
and enc2 w c x y =
  Enc.tag w c;
  enc_term w x;
  enc_term w y

and enc_prop w (q : prop) =
  match q with
  | PTrue -> Enc.tag w 'T'
  | PFalse -> Enc.tag w 'F'
  | PEq (x, y) -> enc2 w '=' x y
  | PLe (x, y) -> enc2 w 'L' x y
  | PLt (x, y) -> enc2 w '<' x y
  | PIn (x, y) -> enc2 w 'e' x y
  | PAnd (p, q) -> enc_conn w '&' p q
  | POr (p, q) -> enc_conn w '|' p q
  | PImp (p, q) -> enc_conn w '>' p q
  | PNot p ->
      Enc.tag w '!';
      enc_prop w p
  | PIsTrue t ->
      Enc.tag w 't';
      enc_term w t
  | PForall (x, s, q) -> enc_binder w 'A' x s q
  | PExists (x, s, q) -> enc_binder w 'E' x s q
  | PPred (f, args) ->
      Enc.tag w 'p';
      Enc.enc_str w f;
      Enc.enc_list enc_term w args

and enc_conn w c p q =
  Enc.tag w c;
  enc_prop w p;
  enc_prop w q

and enc_binder w c x s q =
  Enc.tag w c;
  Enc.enc_str w x;
  Sort.enc w s;
  enc_prop w q

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
