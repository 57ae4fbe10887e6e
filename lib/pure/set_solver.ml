(** Finite-set solver.

    Reproduction of std++'s [set_solver], used by the BST and linked-list
    case studies (§7 classes #1 and #3).  Sets are idempotent, so
    normalization deduplicates syntactically equal parts; equality is
    decided by mutual inclusion over the normal forms, membership by
    decomposition plus hypothesis chaining, and bounded-universal goals
    like the sortedness constraints of the BST specs structurally. *)

open Term

type nf = { elems : term list; opaque : term list; diffs : (nf * nf) list }

let rec flatten (t : term) : nf =
  match t with
  | SetEmpty -> { elems = []; opaque = []; diffs = [] }
  | SetSingleton e -> { elems = [ e ]; opaque = []; diffs = [] }
  | SetUnion (a, b) ->
      let na = flatten a and nb = flatten b in
      {
        elems = na.elems @ nb.elems;
        opaque = na.opaque @ nb.opaque;
        diffs = na.diffs @ nb.diffs;
      }
  | SetDiff (a, b) ->
      { elems = []; opaque = []; diffs = [ (flatten a, flatten b) ] }
  | t -> { elems = []; opaque = [ t ]; diffs = [] }

let dedup cmp l = List.sort_uniq cmp l

let sort_nf nf =
  {
    elems = dedup compare_term nf.elems;
    opaque = dedup compare_term nf.opaque;
    diffs = nf.diffs;
  }

type facts = {
  members : (term * term) list;
  non_members : (term * term) list;
  bounded : (term * string * prop) list;
}

let gather_facts hyps =
  List.fold_left
    (fun f h ->
      match h with
      | PIn (k, s) when sort_of s = Sort.Set ->
          { f with members = (k, s) :: f.members }
      | PNot (PIn (k, s)) when sort_of s = Sort.Set ->
          { f with non_members = (k, s) :: f.non_members }
      | PForall (x, _, PImp (PIn (Var (x', _), s), phi)) when x = x' ->
          { f with bounded = (s, x, phi) :: f.bounded }
      | _ -> f)
    { members = []; non_members = []; bounded = [] }
    hyps

(* the set cases, after the shared decomposition of {!Coll_core.prove} *)
let cases (c : Coll_core.ctx) goal =
  let hyps = c.hyps and prove_pure = c.prove_pure in
  let rewrite = Coll_core.rewrite c in
  let norm t = sort_nf (flatten (rewrite (Simp.simp_term ~hooks:c.hooks t))) in
  let eq_elem a b = equal_term a b || prove_pure ~hyps (PEq (a, b)) in
  let ne_elem a b = prove_pure ~hyps (PNot (PEq (a, b))) in
  let facts = gather_facts hyps in
  (* [member_of k n]: k provably in normal form n *)
  let rec member_of k (n : nf) =
    List.exists (eq_elem k) n.elems
    || List.exists
         (fun v ->
           List.exists
             (fun (k', s') -> equal_term v (rewrite s') && eq_elem k k')
             facts.members
           ||
           (* disjunction elimination: k ∈ S is known for some S whose
              normal form contains v, and k is excluded from every other
              part of S (the BST-descend pattern: from k ∈ {v}∪l∪r, k≠v
              and the sortedness bound on r, conclude k ∈ l) *)
           List.exists
             (fun (k', s') ->
               eq_elem k k'
               &&
               let ns = sort_nf (flatten (rewrite s')) in
               List.exists (equal_term v) ns.opaque
               && ns.diffs = []
               && List.for_all (ne_elem k) ns.elems
               && List.for_all
                    (fun u ->
                      equal_term u v
                      || not_member_of k
                           { elems = []; opaque = [ u ]; diffs = [] })
                    ns.opaque)
             facts.members)
         n.opaque
    || List.exists
         (fun (a, b) -> member_of k a && not_member_of k b)
         n.diffs
  and not_member_of k (n : nf) =
    List.for_all (ne_elem k) n.elems
    && List.for_all
         (fun v ->
           List.exists
             (fun (k', s') -> equal_term v (rewrite s') && eq_elem k k')
             facts.non_members
           ||
           (* bounded facts can exclude: ∀x∈v. φ(x) with φ(k) refutable *)
           List.exists
             (fun (s', x, phi) ->
               equal_term (rewrite s') v
               && prove_pure ~hyps (PNot (subst_prop [ (x, k) ] phi)))
             facts.bounded)
         n.opaque
    && List.for_all
         (fun ((a : nf), _) ->
           (* k ∉ a ⟹ k ∉ a∖b; k ∈ b also suffices but needs b check *)
           not_member_of k a)
         n.diffs
  in
  match goal with
  | PEq (s1, s2) when sort_of s1 = Sort.Set || sort_of s2 = Sort.Set ->
      let n1 = norm s1 and n2 = norm s2 in
      (* mutual inclusion on syntactic parts: every elem of one side must
         be an elem of the other (provably) or covered by membership
         facts; opaque parts must match syntactically *)
      let incl a b =
        List.for_all (fun e -> member_of e b) a.elems
        && List.for_all
             (fun v -> List.exists (equal_term v) b.opaque)
             a.opaque
        && a.diffs = [] && b.diffs = []
      in
      (* common fast path: identical after dedup *)
      (List.length n1.elems = List.length n2.elems
       && List.for_all2 equal_term n1.elems n2.elems
       && List.length n1.opaque = List.length n2.opaque
       && List.for_all2 equal_term n1.opaque n2.opaque
       && n1.diffs = [] && n2.diffs = [])
      ||
      (* inclusion both ways, requiring same opaque support *)
      (incl n1 n2 && incl n2 n1)
  | PIn (k, s) when sort_of s = Sort.Set -> member_of k (norm s)
  | PNot (PIn (k, s)) when sort_of s = Sort.Set -> not_member_of k (norm s)
  | PNot (PEq (s, SetEmpty)) | PNot (PEq (SetEmpty, s)) ->
      let n = norm s in
      n.elems <> []
      || List.exists
           (fun v ->
             List.exists
               (fun (_, s') -> equal_term v (rewrite s'))
               facts.members)
           n.opaque
  | PForall (x, sx, PImp (PIn (Var (x', _), s), phi))
    when x = x' && sort_of s = Sort.Set ->
      let n = norm s in
      Coll_core.forall_in c ~bounded:facts.bounded ~x ~sx ~phi
        ~elems:n.elems ~opaque:n.opaque
      && n.diffs = []
  | g -> Coll_core.lookup c g

let prove = Coll_core.prove ~sort:Sort.Set ~cases
