(* The default solver's linear-arithmetic kernel as it stood when linear
   forms were [int IMap.t] maps and [prove] ran its own syntactic scan,
   kept verbatim (up to module paths) as the oracle of the differential
   property in test_pure: the cell-list kernel must give the same answers
   and the same [solver.lia.*] counters. *)

open Rc_pure

(** Linear integer arithmetic solver.

    This is the core of RefinedC's *default* pure solver (§7: "the one
    default solver that we wrote — which currently only targets linear
    arithmetic and Coq lists").  It decides sequents [Γ ⊨ φ] where the
    atoms are linear (in)equalities over [Nat]/[Int] terms, by refutation:
    [Γ ∧ ¬φ] is put into disjunctive normal form (with bounded case
    splitting over [∨], [Ite], truncated subtraction, [min]/[max] and
    disequalities) and every branch is refuted with Fourier–Motzkin
    elimination over the rationals plus an integer divisibility check on
    equalities.

    The hypothesis side is kept in the scope as a stack along the search
    path: each hypothesis prefix, oldest first, holds its DNF
    combinations with the equalities eliminated and the inequalities
    pruned, so a query reuses the longest prefix it shares with the
    previous one and adds only its new hypotheses and its negated goal.

    Soundness: every refutation step is valid over the integers, so
    [prove] returning [true] really means the sequent holds.  The
    procedure is deliberately incomplete (so is any Coq tactic); goals it
    misses are reported as unsolved side conditions, exactly the paper's
    "manual" column. *)

open Term

(* ------------------------------------------------------------------ *)
(* Linear forms over atom ids                                          *)
(* ------------------------------------------------------------------ *)

module IMap = Map.Make (Int)
module ISet = Set.Make (Int)

(* Constraints keyed on their coefficient vector, compared by bindings:
   the shape of a balanced tree is not part of its meaning. *)
module VMap = Map.Make (struct
  type t = int IMap.t

  let compare = IMap.compare Int.compare
end)

type lin = { coeffs : int IMap.t; const : int }

let lin_const c = { coeffs = IMap.empty; const = c }
let lin_atom id = { coeffs = IMap.singleton id 1; const = 0 }

let lin_add a b =
  {
    coeffs =
      IMap.union (fun _ x y -> if x + y = 0 then None else Some (x + y))
        a.coeffs b.coeffs;
    const = a.const + b.const;
  }

let lin_scale k a =
  if k = 0 then lin_const 0
  else { coeffs = IMap.map (fun x -> k * x) a.coeffs; const = k * a.const }

let lin_sub a b = lin_add a (lin_scale (-1) b)
let lin_is_const a = IMap.is_empty a.coeffs

(* ------------------------------------------------------------------ *)
(* The solver scope                                                     *)
(* ------------------------------------------------------------------ *)

type literal = Ge of lin  (* lin >= 0 *) | EqZ of lin  (* lin = 0 *)
type branch = literal list

(* Structural hashing that looks deeper than [Hashtbl.hash] (10
   meaningful words), which cannot tell apart two hypotheses that differ
   only below their first few leaves.  Equality tries physical identity
   first: the hypotheses of consecutive queries are mostly the same
   shared values. *)
module TTbl = Hashtbl.Make (struct
  type t = term

  let equal a b = a == b || equal_term a b
  let hash = Hashtbl.hash_param 32 128
end)

module PTbl = Hashtbl.Make (struct
  type t = prop

  let equal a b = a == b || equal_prop a b
  let hash = Hashtbl.hash_param 32 128
end)

(* A proposition's linearisation: its DNF, with the sort axioms of the
   non-negative atoms its literals mention, or [Skip] when it lies
   outside the fragment (non-linear, or more than [max_branches] DNF
   branches). *)
type dnf = Dnf of branch list * branch | Skip

(* [List.map f] over hypothesis lists, remembering the last list mapped.
   Contexts grow by prepending, so consecutive queries of one function
   share most of their hypothesis list physically; only the elements in
   front of the shared suffix are mapped again.  The result shares that
   suffix too, so maps compose. *)
type ('a, 'b) last_map = { mutable src : 'a list; mutable dst : 'b list }

let last_map () = { src = []; dst = [] }

(* [map_last m f l] is [List.map f l], applying [f] head first to the
   elements before the suffix [l] shares with [m.src] *)
let map_last m f l =
  let n = List.length l and k = List.length m.src in
  let rec drop i l =
    if i <= 0 then l else match l with [] -> [] | _ :: t -> drop (i - 1) t
  in
  let rec lead acc i l =
    if i <= 0 then (acc, l)
    else match l with x :: t -> lead (f x :: acc) (i - 1) t | [] -> (acc, l)
  in
  let rec walk acc l src dst =
    if l == src then List.rev_append acc dst
    else
      match (l, src, dst) with
      | x :: l, _ :: src, _ :: dst -> walk (f x :: acc) l src dst
      | _ -> List.rev_append acc (List.map f l)
  in
  let acc, l' = lead [] (n - k) l in
  let r = walk acc l' (drop (k - n) m.src) (drop (k - n) m.dst) in
  m.src <- l;
  m.dst <- r;
  r

(* One combination of a hypothesis prefix's DNF branches, reduced: its
   equalities as pivots, in elimination order, and its inequalities
   with every pivot substituted away and pruned — satisfied constants
   dropped, and of the constraints sharing a coefficient vector only
   the tightest kept, at the vector's first position. *)
type combo = {
  pivots : (int * lin) list;  (** atom eliminated, and its equality *)
  ges : lin list;  (** each [l >= 0]; newest first *)
  tight : lin VMap.t;  (** each coefficient vector's constraint in [ges] *)
}

(* A hypothesis prefix: its live combinations, none when it is
   contradictory; the product of the branch counts of its hypotheses,
   which the width cap bounds; and whether the cap made it leave out a
   hypothesis. *)
type state = { width : int; capped : bool; combos : combo list }

(* A stack entry: the state after pushing one hypothesis, of DNF [key],
   onto the entry below.  [cell] is the suffix of the last hypothesis
   list matched here, headed by that hypothesis: a later list that
   shares this very cell matches the whole entry and all below it
   without a look at their hypotheses. *)
type entry = { mutable cell : prop list; key : dnf; st : state }

(* Non-linear subterms (variables, lengths, applications, opaque ite…) are
   mapped to atom ids; syntactically equal subterms share an id, giving a
   cheap congruence closure sufficient for the case studies.  The atom
   table lives as long as the scope, so a hypothesis linearised once
   keeps its meaning across every later query of the same scope. *)
type scope = {
  atoms : int TTbl.t;
  mutable next : int;
  mutable nonneg : ISet.t;  (** atoms carrying a sort axiom [a >= 0] *)
  mutable simps : (Simp.hooks * prop PTbl.t * (prop, prop) last_map) list;
      (** [Simp.simp_prop] memo, one per hooks value *)
  dnfs : dnf PTbl.t;
  mutable stack : entry array;
      (** the last query's hypotheses, oldest first *)
  mutable depth : int;  (** the live entries of [stack] *)
  (* counters, flushed into an [Obs] handle by [flush] *)
  mutable n_queries : int;
  mutable n_pushed : int;
  mutable n_reused : int;
  mutable n_dropped : int;
  mutable n_refuted : int;
  mutable n_generated : int;
  mutable n_kept : int;
  mutable n_memo_hits : int;
  mutable n_exhausted : int;
}

let scope () =
  {
    atoms = TTbl.create 64;
    next = 0;
    nonneg = ISet.empty;
    simps = [];
    dnfs = PTbl.create 64;
    stack = [||];
    depth = 0;
    n_queries = 0;
    n_pushed = 0;
    n_reused = 0;
    n_dropped = 0;
    n_refuted = 0;
    n_generated = 0;
    n_kept = 0;
    n_memo_hits = 0;
    n_exhausted = 0;
  }

let flush sc obs =
  if Rc_util.Obs.on obs then
    List.iter
      (fun (name, n) ->
        if n > 0 then Rc_util.Obs.counter obs ~by:n ("solver.lia." ^ name))
      [
        ("queries", sc.n_queries);
        ("pushed", sc.n_pushed);
        ("reused", sc.n_reused);
        ("dropped", sc.n_dropped);
        ("refuted", sc.n_refuted);
        ("fm_generated", sc.n_generated);
        ("fm_kept", sc.n_kept);
        ("memo_hits", sc.n_memo_hits);
        ("exhausted", sc.n_exhausted);
      ]

let simp_memo sc hooks =
  match List.find_opt (fun (h, _, _) -> h == hooks) sc.simps with
  | Some (_, tbl, last) -> (tbl, last)
  | None ->
      let tbl = PTbl.create 64 and last = last_map () in
      sc.simps <- (hooks, tbl, last) :: sc.simps;
      (tbl, last)

let simp_in tbl hooks p =
  match PTbl.find_opt tbl p with
  | Some q -> q
  | None ->
      let q = Simp.simp_prop ~hooks p in
      PTbl.add tbl p q;
      q

let simp sc hooks p = simp_in (fst (simp_memo sc hooks)) hooks p

let simp_hyps sc hooks hyps =
  let tbl, last = simp_memo sc hooks in
  map_last last (simp_in tbl hooks) hyps

let atom_id sc t =
  match TTbl.find_opt sc.atoms t with
  | Some id -> id
  | None ->
      let id = sc.next in
      sc.next <- id + 1;
      TTbl.add sc.atoms t id;
      (* sort-based axioms *)
      let nonneg =
        match t with
        | Length _ | NatSub _ -> true
        | Var (_, Sort.Nat) | Evar (_, Sort.Nat) -> true
        | Mod (_, Num m) when m > 0 -> true
        | _ -> false
      in
      if nonneg then sc.nonneg <- ISet.add id sc.nonneg;
      id

exception Too_many_branches
exception Nonlinear

let max_branches = 512

(* [linof sc t] converts a numeric term to a list of (guard-branch, lin)
   pairs: case splits arising inside the term produce several pairs whose
   guards must be conjoined into the enclosing branch. *)
let rec linof sc (t : term) : (branch * lin) list =
  match t with
  | Num n -> [ ([], lin_const n) ]
  | Add (a, b) -> lift2 sc lin_add a b
  | Sub (a, b) -> lift2 sc lin_sub a b
  | Mul (Num k, a) | Mul (a, Num k) ->
      List.map (fun (g, l) -> (g, lin_scale k l)) (linof sc a)
  | Mul (a, b) -> (
      (* try constant folding after recursion *)
      match (linof sc a, linof sc b) with
      | [ ([], la) ], _ when lin_is_const la ->
          List.map (fun (g, l) -> (g, lin_scale la.const l)) (linof sc b)
      | _, [ ([], lb) ] when lin_is_const lb ->
          List.map (fun (g, l) -> (g, lin_scale lb.const l)) (linof sc a)
      | _ -> [ ([], lin_atom (atom_id sc t)) ])
  | NatSub (a, b) ->
      (* d = a ∸ b:  (b ≤ a ∧ d = a - b) ∨ (a ≤ b ∧ d = 0) *)
      let la = linof sc a and lb = linof sc b in
      List.concat_map
        (fun (ga, xa) ->
          List.concat_map
            (fun (gb, xb) ->
              let diff = lin_sub xa xb in
              [
                (Ge diff :: (ga @ gb), diff) (* b <= a: result a-b >= 0 *);
                (Ge (lin_scale (-1) diff) :: (ga @ gb), lin_const 0);
              ])
            lb)
        la
  | Min (a, b) | Max (a, b) ->
      let is_min = match t with Min _ -> true | _ -> false in
      let la = linof sc a and lb = linof sc b in
      List.concat_map
        (fun (ga, xa) ->
          List.concat_map
            (fun (gb, xb) ->
              let d = lin_sub xb xa in
              (* a <= b branch / b <= a branch *)
              if is_min then
                [ (Ge d :: (ga @ gb), xa); (Ge (lin_scale (-1) d) :: (ga @ gb), xb) ]
              else
                [ (Ge d :: (ga @ gb), xb); (Ge (lin_scale (-1) d) :: (ga @ gb), xa) ])
            lb)
        la
  | Ite (c, a, b) -> (
      match lits_of_prop sc c with
      | exception Nonlinear -> [ ([], lin_atom (atom_id sc t)) ]
      | cpos ->
          let cneg = lits_of_prop sc (PNot c) in
          let la = linof sc a and lb = linof sc b in
          List.concat_map
            (fun gc -> List.map (fun (g, l) -> (gc @ g, l)) la)
            cpos
          @ List.concat_map
              (fun gc -> List.map (fun (g, l) -> (gc @ g, l)) lb)
              cneg)
  | Mod (a, Num m) when m > 0 ->
      (* r = a mod m with 0 <= r < m and a - r divisible: introduce
         quotient atom q with a = q*m + r.  We encode via fresh atoms. *)
      let r_id = atom_id sc t in
      let q_id = atom_id sc (App ("__div", [ a; Num m ])) in
      List.map
        (fun (g, la) ->
          let r = lin_atom r_id and q = lin_atom q_id in
          let bound = lin_sub (lin_const (m - 1)) r in
          ( (Ge r :: Ge bound
             :: EqZ (lin_sub la (lin_add (lin_scale m q) r))
             :: g),
            r ))
        (linof sc a)
  | Div (a, Num m) when m > 0 ->
      let q_id = atom_id sc (App ("__div", [ a; Num m ])) in
      let r_id = atom_id sc (Mod (a, Num m)) in
      List.map
        (fun (g, la) ->
          let r = lin_atom r_id and q = lin_atom q_id in
          let bound = lin_sub (lin_const (m - 1)) r in
          ( (Ge r :: Ge bound
             :: EqZ (lin_sub la (lin_add (lin_scale m q) r))
             :: g),
            q ))
        (linof sc a)
  | _ -> [ ([], lin_atom (atom_id sc t)) ]

and lift2 sc f a b =
  let la = linof sc a and lb = linof sc b in
  if List.length la * List.length lb > max_branches then
    raise Too_many_branches;
  List.concat_map
    (fun (ga, xa) -> List.map (fun (gb, xb) -> (ga @ gb, f xa xb)) lb)
    la

(* [lits_of_prop sc p] converts a proposition to DNF over literals:
   the result is a list of branches; [p] holds iff some branch's literals
   all hold.  Raises [Nonlinear] when [p] is outside the fragment. *)
and lits_of_prop sc (p : prop) : branch list =
  match p with
  | PTrue -> [ [] ]
  | PFalse -> []
  | PAnd (a, b) ->
      let ba = lits_of_prop sc a and bb = lits_of_prop sc b in
      if List.length ba * List.length bb > max_branches then
        raise Too_many_branches;
      List.concat_map (fun x -> List.map (fun y -> x @ y) bb) ba
  | POr (a, b) -> lits_of_prop sc a @ lits_of_prop sc b
  | PImp (a, b) -> lits_of_prop sc (POr (PNot a, b))
  | PNot (PAnd (a, b)) -> lits_of_prop sc (POr (PNot a, PNot b))
  | PNot (POr (a, b)) -> lits_of_prop sc (PAnd (PNot a, PNot b))
  | PNot (PNot a) -> lits_of_prop sc a
  | PNot (PImp (a, b)) -> lits_of_prop sc (PAnd (a, PNot b))
  | PNot PTrue -> []
  | PNot PFalse -> [ [] ]
  | PLe (a, b) -> cmp sc a b (fun d -> [ Ge d ])
  | PLt (a, b) -> cmp sc a b (fun d -> [ Ge (lin_add d (lin_const (-1))) ])
  | PNot (PLe (a, b)) -> lits_of_prop sc (PLt (b, a))
  | PNot (PLt (a, b)) -> lits_of_prop sc (PLe (b, a))
  | PEq (a, b) when Sort.is_numeric (sort_of a) || Sort.is_numeric (sort_of b)
    ->
      cmp sc a b (fun d -> [ EqZ d ])
  | PNot (PEq (a, b))
    when Sort.is_numeric (sort_of a) || Sort.is_numeric (sort_of b) ->
      lits_of_prop sc (POr (PLt (a, b), PLt (b, a)))
  | PIsTrue (TProp q) -> lits_of_prop sc q
  | PIsTrue _ -> raise Nonlinear
  | PEq (BoolLit true, TProp q) | PEq (TProp q, BoolLit true) ->
      lits_of_prop sc q
  | PEq (BoolLit false, TProp q) | PEq (TProp q, BoolLit false) ->
      lits_of_prop sc (PNot q)
  | _ -> raise Nonlinear

and cmp sc a b mk =
  (* literal(s) for "b - a within mk" *)
  let la = linof sc a and lb = linof sc b in
  if List.length la * List.length lb > max_branches then
    raise Too_many_branches;
  List.concat_map
    (fun (ga, xa) ->
      List.map (fun (gb, xb) -> ga @ gb @ mk (lin_sub xb xa)) lb)
    la

(* ------------------------------------------------------------------ *)
(* Refutation: Gaussian elimination on equalities + Fourier–Motzkin    *)
(* ------------------------------------------------------------------ *)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

exception Refuted

(* FM constraints keyed on their coefficient vector.  The key is
   [IMap.bindings], not the map: structural equality on a balanced tree
   depends on its shape, not only on its bindings. *)
module VTbl = Hashtbl.Make (struct
  type t = (int * int) list

  let equal = ( = )
  let hash = Hashtbl.hash_param 32 128
end)

(* [prune ges] drops the redundant constraints of a conjunction of
   [l >= 0]: satisfied constant ones, and of the constraints sharing a
   coefficient vector all but the tightest (smallest constant), kept at
   the position of the vector's first occurrence.  Raises [Refuted] on a
   violated constant constraint.  The result has the same rational
   solutions as the input. *)
let prune (ges : lin list) : lin list =
  let best = VTbl.create 16 in
  List.fold_left
    (fun acc l ->
      if lin_is_const l then if l.const < 0 then raise Refuted else acc
      else
        let key = IMap.bindings l.coeffs in
        match VTbl.find_opt best key with
        | Some c ->
            if l.const < !c then c := l.const;
            acc
        | None ->
            let c = ref l.const in
            VTbl.add best key c;
            (l, c) :: acc)
    [] ges
  |> List.rev_map (fun (l, c) -> if !c = l.const then l else { l with const = !c })

(* [subst_in l (x, piv)] eliminates [x] from [l] by the pivot equality
   [piv = 0]: [|a|·l - sign(a)·c·piv], where [a] and [c] are the
   coefficients of [x] in [piv] and [l].  The factor is positive, so an
   inequality keeps its direction and same-vector constraints keep their
   order by tightness. *)
let subst_in l (x, piv) =
  match IMap.find_opt x l.coeffs with
  | None -> l
  | Some c ->
      let a = IMap.find x piv.coeffs in
      let s = if a > 0 then 1 else -1 in
      lin_sub (lin_scale (s * a) l) (lin_scale (s * c) piv)

let reduce c l = List.fold_left subst_in l c.pivots

(* [add_ge c l]: the reduced constraint [l >= 0] pruned into [c] *)
let add_ge c l =
  if lin_is_const l then if l.const < 0 then raise Refuted else c
  else
    match VMap.find_opt l.coeffs c.tight with
    | Some g when g.const <= l.const -> c
    | Some g ->
        {
          c with
          ges = List.map (fun h -> if h == g then l else h) c.ges;
          tight = VMap.add l.coeffs l c.tight;
        }
    | None -> { c with ges = l :: c.ges; tight = VMap.add l.coeffs l c.tight }

(* [add_eq c e]: the reduced equality [e = 0] as [c]'s next pivot, after
   an integer divisibility check; the stored inequalities that mention
   the pivot atom are rewritten and pruned again *)
let add_eq c e =
  if lin_is_const e then if e.const <> 0 then raise Refuted else c
  else
    let g = IMap.fold (fun _ k acc -> gcd acc k) e.coeffs 0 in
    if e.const mod g <> 0 then raise Refuted
    else
      (* the pivot: the atom with the smallest |coefficient| *)
      let x, _ =
        IMap.fold
          (fun k a (bk, ba) -> if abs a < ba then (k, abs a) else (bk, ba))
          e.coeffs (-1, max_int)
      in
      let p = (x, e) in
      let c = { c with pivots = c.pivots @ [ p ] } in
      if List.exists (fun l -> IMap.mem x l.coeffs) c.ges then
        List.fold_left
          (fun c l -> add_ge c (subst_in l p))
          { c with ges = []; tight = VMap.empty }
          (List.rev c.ges)
      else c

(* [add_lits c axioms b]: [c] conjoined with the sort axioms and the
   literals of a branch.  Its equalities become pivots first, then every
   inequality is reduced by all pivots and pruned in.  Raises [Refuted]
   when elimination or pruning refutes the conjunction. *)
let add_lits c (axioms : branch) (b : branch) =
  let eq c = function EqZ e -> add_eq c (reduce c e) | Ge _ -> c in
  let ge c = function Ge l -> add_ge c (reduce c l) | EqZ _ -> c in
  let c = List.fold_left eq c b in
  List.fold_left ge (List.fold_left ge c axioms) b

(* the FM bounds: combined constraints per elimination step, and steps *)
let max_combined = 4096
let max_steps = 64

(* [fm sc ges]: the pruned conjunction [ges] has no rational solution,
   by Fourier–Motzkin elimination (sound for refutation), pruned after
   every step.  Which atom goes first follows the order of [ges]; oldest
   first, as a query passes them, starts with the hypotheses' atoms and
   measured faster than starting with the goal's. *)
let fm sc ges =
  let rec go ges fuel =
    match ges with
    | [] -> false (* every constraint held: satisfiable *)
    | _ when fuel <= 0 ->
        sc.n_exhausted <- sc.n_exhausted + 1;
        false
    | l :: _ ->
        (* pruned constraints are never constant: eliminate the first
           one's smallest atom *)
        let x = fst (IMap.min_binding l.coeffs) in
        let pos, neg, rest =
          List.fold_left
            (fun (p, n, r) l ->
              match IMap.find_opt x l.coeffs with
              | Some c when c > 0 -> (l :: p, n, r)
              | Some _ -> (p, l :: n, r)
              | None -> (p, n, l :: r))
            ([], [], []) ges
        in
        let generated = List.length pos * List.length neg in
        if generated > max_combined then begin
          sc.n_exhausted <- sc.n_exhausted + 1;
          false
        end
        else
          let combined =
            List.concat_map
              (fun lp ->
                let a = IMap.find x lp.coeffs in
                List.map
                  (fun ln ->
                    let b = -IMap.find x ln.coeffs in
                    lin_add (lin_scale b lp) (lin_scale a ln))
                  neg)
              pos
          in
          sc.n_generated <- sc.n_generated + generated;
          let ges = prune (combined @ rest) in
          (* [rest] is already pruned: the excess is what [combined]
             added *)
          sc.n_kept <- sc.n_kept + List.length ges - List.length rest;
          go ges (fuel - 1)
  in
  try go ges max_steps with Refuted -> true

(* ------------------------------------------------------------------ *)
(* Equality propagation on non-numeric hypotheses                       *)
(* ------------------------------------------------------------------ *)

(* Hypotheses like [x = t] for non-numeric [x] are substituted away so
   that syntactic congruence (shared atom ids) kicks in. *)
let propagate_eqs sc hyps goal =
  let rec loop n hyps goal =
    if n = 0 then (hyps, goal)
    else
      let pick =
        List.find_map
          (fun h ->
            match h with
            | PEq (Var (x, s), t) when not (Sort.is_numeric s) ->
                if Term.SS.mem x (free_vars_term t) then None
                else Some (x, t)
            | PEq (t, Var (x, s)) when not (Sort.is_numeric s) ->
                if Term.SS.mem x (free_vars_term t) then None
                else Some (x, t)
            | _ -> None)
          hyps
      in
      match pick with
      | None -> (hyps, goal)
      | Some (x, t) ->
          let sub p = simp sc Simp.no_hooks (subst_prop [ (x, t) ] p) in
          loop (n - 1) (List.map sub hyps) (sub goal)
  in
  loop 8 hyps goal

(* ------------------------------------------------------------------ *)
(* The prefix stack and the entry point                                 *)
(* ------------------------------------------------------------------ *)

(* [dnf sc p]: [p]'s linearisation, computed once per scope *)
let dnf sc p =
  match PTbl.find_opt sc.dnfs p with
  | Some d ->
      sc.n_memo_hits <- sc.n_memo_hits + 1;
      d
  | None ->
      let d =
        match lits_of_prop sc p with
        | exception (Nonlinear | Too_many_branches) -> Skip
        | bs ->
            let atoms =
              List.fold_left
                (List.fold_left (fun acc (Ge l | EqZ l) ->
                     IMap.fold
                       (fun id _ acc ->
                         if ISet.mem id sc.nonneg then ISet.add id acc else acc)
                       l.coeffs acc))
                ISet.empty bs
            in
            let axioms =
              ISet.fold (fun id acc -> Ge (lin_atom id) :: acc) atoms []
            in
            Dnf (bs, axioms)
      in
      PTbl.add sc.dnfs p d;
      d

let empty =
  {
    width = 1;
    capped = false;
    combos = [ { pivots = []; ges = []; tight = VMap.empty } ];
  }

let top sc = if sc.depth = 0 then empty else sc.stack.(sc.depth - 1).st

(* [extend sc st d] conjoins a hypothesis of DNF [d] to [st]: its
   branches multiply the combinations, and a combination its literals
   refute is dropped.  A hypothesis out of the fragment, or one that
   would take the width past [max_branches], leaves the combinations as
   they are (which is sound). *)
let extend sc st = function
  | Skip -> st
  | Dnf (bs, axioms) ->
      let width = st.width * List.length bs in
      if width > max_branches then { st with capped = true }
      else
        let add b c =
          match add_lits c axioms b with
          | c -> Some c
          | exception Refuted ->
              sc.n_dropped <- sc.n_dropped + 1;
              None
        in
        {
          st with
          width;
          combos =
            List.concat_map (fun b -> List.filter_map (add b) st.combos) bs;
        }

(* [push sc cell d] puts the hypothesis heading [cell], of DNF [d], on
   the stack *)
let push sc cell d =
  sc.n_pushed <- sc.n_pushed + 1;
  let e = { cell; key = d; st = extend sc (top sc) d } in
  if sc.depth = Array.length sc.stack then begin
    let grown = Array.make ((2 * sc.depth) + 8) e in
    Array.blit sc.stack 0 grown 0 sc.depth;
    sc.stack <- grown
  end;
  sc.stack.(sc.depth) <- e;
  sc.depth <- sc.depth + 1

(* [enter sc hyps] makes the stack hold [hyps], oldest first.  The
   longest prefix the list shares with the stack is kept.  It is found
   head first, as the longest suffix of [hyps] that is physically an
   entry's cell; above it, an entry still matches a hypothesis of the
   same (memoised, so physically equal) DNF, as in a list that was
   rebuilt.  The rest is pushed. *)
let enter sc hyps =
  let n = List.length hyps in
  (* [front]: the cells above the shared one, oldest first *)
  let rec shared front m l =
    if m = 0 then (0, front)
    else if m <= sc.depth && sc.stack.(m - 1).cell == l then (m, front)
    else match l with _ :: t -> shared (l :: front) (m - 1) t | [] -> (0, front)
  in
  let k, front = shared [] n hyps in
  sc.n_reused <- sc.n_reused + k;
  List.iteri
    (fun i cell ->
      let i = k + i in
      let d = dnf sc (List.hd cell) in
      if i < sc.depth && sc.stack.(i).key == d then begin
        sc.stack.(i).cell <- cell;
        sc.n_reused <- sc.n_reused + 1
      end
      else begin
        sc.depth <- i;
        push sc cell d
      end)
    front;
  sc.depth <- n

(* [refute sc hyps goal]: every branch of [hyps ∧ ¬goal] is unsat.  Per
   live combination of the hypotheses and per branch of the negated
   goal, only the goal's literals and sort axioms are reduced and pruned
   in before Fourier–Motzkin runs. *)
let refute sc hyps goal =
  enter sc hyps;
  let st = top sc in
  let st =
    if not st.capped then st
    else
      (* the cap left a hypothesis out: which ones a query takes must
         not depend on the hypotheses below it, so take them newest
         first while the width allows, outside the stack *)
      let _, taken =
        List.fold_left
          (fun ((width, taken) as keep) h ->
            match dnf sc h with
            | Skip -> keep
            | Dnf (bs, _) as d ->
                let width = width * List.length bs in
                if width > max_branches then keep else (width, d :: taken))
          (1, []) hyps
      in
      List.fold_left (extend sc) empty taken
  in
  match st.combos with
  | [] -> true
  | combos -> (
      match dnf sc (PNot goal) with
      | Skip -> false
      | Dnf ([], _) -> true
      | Dnf (goal_branches, goal_axioms) ->
          let refuted c g =
            let r =
              match add_lits c goal_axioms g with
              | c -> fm sc (List.rev c.ges)
              | exception Refuted -> true
            in
            if r then sc.n_refuted <- sc.n_refuted + 1;
            r
          in
          List.for_all
            (fun c -> List.for_all (refuted c) goal_branches)
            combos)

let prove ?scope:sc ~hyps goal =
  let sc = match sc with Some sc -> sc | None -> scope () in
  sc.n_queries <- sc.n_queries + 1;
  let hyps = simp_hyps sc Simp.no_hooks hyps in
  let goal = simp sc Simp.no_hooks goal in
  (* a hypothesis [False] needs no case of its own: its DNF has no
     branch, so the stack finds the prefix contradictory *)
  let trivial hyps goal =
    (match goal with PTrue -> true | _ -> false)
    || List.exists (fun h -> h == goal || equal_prop h goal) hyps
  in
  trivial hyps goal
  ||
  let hyps', goal' = propagate_eqs sc hyps goal in
  ((hyps' != hyps || goal' != goal) && trivial hyps' goal')
  || refute sc hyps' goal'
