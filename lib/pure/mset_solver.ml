(** Multiset solver.

    Reproduction of std++'s [multiset_solver], which Figure 3 invokes via
    [rc::tactics ("all: multiset_solver.")].  Handles goals over finite
    multisets of integers: equalities (by normalization to a formal sum
    of element terms and opaque multiset subterms, then cancellation),
    non-emptiness, membership, and bounded-universal goals
    [∀ k, k ∈ s → φ k] (decomposed structurally, with hypothesis chaining
    for opaque parts).  Arithmetic subgoals are delegated to the default
    solver through the [prove_pure] callback. *)

open Term

type nf = {
  elems : term list;  (** element terms, with multiplicity, sorted *)
  opaque : term list;  (** opaque multiset subterms (vars etc.), sorted *)
}

let rec flatten (t : term) : nf =
  match t with
  | MsEmpty -> { elems = []; opaque = [] }
  | MsSingleton e -> { elems = [ e ]; opaque = [] }
  | MsUnion (a, b) ->
      let na = flatten a and nb = flatten b in
      { elems = na.elems @ nb.elems; opaque = na.opaque @ nb.opaque }
  | Ite (PTrue, a, _) -> flatten a
  | Ite (PFalse, _, b) -> flatten b
  | t -> { elems = []; opaque = [ t ] }

let sort_nf nf =
  {
    elems = List.sort compare_term nf.elems;
    opaque = List.sort compare_term nf.opaque;
  }

(* Cancel one occurrence of [x] from [xs] using provable equality. *)
let cancel_one ~eq x xs =
  let rec go acc = function
    | [] -> None
    | y :: rest ->
        if eq x y then Some (List.rev_append acc rest) else go (y :: acc) rest
  in
  go [] xs

let cancel_all ~eq xs ys =
  List.fold_left
    (fun (left, ys) x ->
      match cancel_one ~eq x ys with
      | Some ys' -> (left, ys')
      | None -> (x :: left, ys))
    ([], ys) xs

(** Facts about opaque multiset parts extracted from hypotheses. *)
type facts = {
  members : (term * term) list;  (** (k, s): k ∈ s known *)
  bounded : (term * string * prop) list;
      (** (s, x, φ): ∀x, x ∈ s → φ known *)
  nonempty : term list;
}

let gather_facts hyps =
  List.fold_left
    (fun f h ->
      match h with
      | PIn (k, s) when sort_of s = Sort.Mset ->
          { f with members = (k, s) :: f.members }
      | PForall (x, _, PImp (PIn (Var (x', _), s), phi)) when x = x' ->
          { f with bounded = (s, x, phi) :: f.bounded }
      | PNot (PEq (s, MsEmpty)) | PNot (PEq (MsEmpty, s)) ->
          { f with nonempty = s :: f.nonempty }
      | _ -> f)
    { members = []; bounded = []; nonempty = [] }
    hyps

(* the multiset cases, after the shared decomposition of
   {!Coll_core.prove} *)
let cases (c : Coll_core.ctx) goal =
  let hyps = c.hyps in
  let norm t =
    sort_nf (flatten (Coll_core.rewrite c (Simp.simp_term ~hooks:c.hooks t)))
  in
  let eq_elem a b = equal_term a b || c.prove_pure ~hyps (PEq (a, b)) in
  let facts = gather_facts hyps in
  match goal with
  | PEq (s1, s2) when sort_of s1 = Sort.Mset || sort_of s2 = Sort.Mset ->
      let n1 = norm s1 and n2 = norm s2 in
      let left_e, rest_e = cancel_all ~eq:eq_elem n1.elems n2.elems in
      let left_o, rest_o =
        cancel_all ~eq:equal_term n1.opaque n2.opaque
      in
      left_e = [] && rest_e = [] && left_o = [] && rest_o = []
  | PNot (PEq (s, MsEmpty)) | PNot (PEq (MsEmpty, s)) ->
      let n = norm s in
      n.elems <> []
      || List.exists
           (fun v ->
             List.exists (fun s' -> equal_term v s') facts.nonempty
             || List.exists (fun (_, s') -> equal_term v s') facts.members)
           n.opaque
  | PIn (k, s) when sort_of s = Sort.Mset ->
      let n = norm s in
      List.exists (eq_elem k) n.elems
      || List.exists
           (fun v ->
             List.exists
               (fun (k', s') -> equal_term v s' && eq_elem k k')
               facts.members)
           n.opaque
  | PForall (x, sx, PImp (PIn (Var (x', _), s), phi))
    when x = x' && sort_of s = Sort.Mset ->
      let n = norm s in
      Coll_core.forall_in c ~bounded:facts.bounded ~x ~sx ~phi
        ~elems:n.elems ~opaque:n.opaque
  | g -> Coll_core.lookup c g

let prove = Coll_core.prove ~sort:Sort.Mset ~cases
