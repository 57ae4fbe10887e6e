(** Subsumption rules — the [A₁ <: A₂ {G}] fragment of RefinedC's
    standard library, including the paper's S-NULL and S-OWN (Figure 6),
    the automatically generated fold/unfold rules for user-defined
    (recursive) types, the uninit-splitting that underlies O-ADD-UNINIT
    reasoning, and magic-wand introduction/chaining (§2.2). *)

open Rc_pure
open Rc_pure.Term
module G = Rc_lithium.Goal
module Int_type = Rc_caesium.Int_type
open Rtype
open Lang
open Convert

type rule = E.rule

let mk name prio apply : rule = { E.rname = name; prio; heads = Some [ "subsume" ]; apply }

let ty_equiv_side = Rtype.ty_equiv_side

let sides props g =
  List.fold_right (fun p g -> G.Star (G.LProp p, g)) props g

(* ------------------------------------------------------------------ *)
(* Helper: the subject and types of a subsumption problem               *)
(* ------------------------------------------------------------------ *)

type sub_problem = {
  subj : term;  (** subject of the super atom *)
  sub_subj : term;  (** subject of the sub atom (may differ for splits) *)
  sub_ty : rtype;
  super_ty : rtype;
  is_loc : bool;
  cont : goal;
}

let problem (j : f) : sub_problem option =
  match j with
  | FSubsume { sub = LocTy (l1, t1); super = LocTy (l2, t2); cont } ->
      Some { subj = l2; sub_subj = l1; sub_ty = t1; super_ty = t2; is_loc = true; cont }
  | FSubsume { sub = ValTy (v1, t1); super = ValTy (v2, t2); cont } ->
      Some { subj = v2; sub_subj = v1; sub_ty = t1; super_ty = t2; is_loc = false; cont }
  | _ -> None

let re_atom is_loc subj ty =
  if is_loc then LocTy (subj, ty) else ValTy (subj, ty)

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

(* Structural equivalence covers the bulk of same-shape subsumptions. *)
let s_equiv =
  mk "S-EQUIV" 50 (fun _ri j ->
      match problem j with
      | Some p when equal_term p.sub_subj p.subj -> (
          match ty_equiv_side p.sub_ty p.super_ty with
          | Some props -> Some (sides props p.cont)
          | None -> None)
      | _ -> None)

(* S-NULL (Figure 6): null <: φ @ optional<τ₁, τ₂> requires ¬φ. *)
let s_null =
  mk "S-NULL" 20 (fun _ri j ->
      match problem j with
      | Some ({ sub_ty = TNull; super_ty = TOptional (phi, _, t2); _ } as p) ->
          Some
            (G.Star
               ( G.LProp (PNot phi),
                 G.Basic
                   (FSubsume
                      {
                        sub = re_atom p.is_loc p.subj TNull;
                        super = re_atom p.is_loc p.subj t2;
                        cont = p.cont;
                      }) ))
      | _ -> None)

let packed_at ri l =
  ri.E.ri_peek (function
    | ValTy (w, (TOptional _ | TNamed _ | TFnPtr _)) -> equal_term w l
    | _ -> false)

(* S-OWN (Figure 6): a pointer value [l] <: φ @ optional<&own τ, τ₂>.
   Dispatch, in order: ownership still packed in a value atom for [l]
   (consume it); [l] provably NULL (prove ¬φ, S-NULL-style); otherwise the
   definite-own case (prove φ and the pointee ownership, which lives in
   location atoms). *)
let s_own =
  mk "S-OWN" 21 (fun ri j ->
      match problem j with
      | Some ({ sub_ty = TPtrV l; super_ty = TOptional (phi, t1, t2); _ } as p)
        -> (
          match packed_at ri l with
          | Some _ -> Some (G.Star (G.LAtom (ValTy (l, p.super_ty)), p.cont))
          | None ->
              if ri.E.ri_prove (PEq (l, NullLoc)) then
                match t2 with
                | TNull -> Some (G.Star (G.LProp (PNot phi), p.cont))
                | _ -> None
              else (
                match t1 with
                | TOwn _ ->
                    Some (G.Star (G.LProp phi, require_val ri.E.ri_env l t1 p.cont))
                | _ -> None))
      | _ -> None)

(* Subsume into a plain &own<τ> (argument passing, ensures). *)
let s_ptr_own =
  mk "S-PTR-OWN" 22 (fun ri j ->
      match problem j with
      | Some ({ sub_ty = TPtrV l; super_ty = TOwn (lo, t'); _ } as p) -> (
          match packed_at ri l with
          | Some _ -> Some (G.Star (G.LAtom (ValTy (l, p.super_ty)), p.cont))
          | None ->
              let loc_eq =
                match lo with Some l' -> [ PEq (l, l') ] | None -> []
              in
              Some (sides loc_eq (require_loc ri.E.ri_env l t' p.cont)))
      | _ -> None)

(* A pointer singleton subsuming into a packed conditional/named type
   whose ownership lives in a value atom for that pointer. *)
let s_ptr_lookup =
  mk "S-PTR-LOOKUP" 25 (fun ri j ->
      match problem j with
      | Some
          ({ sub_ty = TPtrV l; super_ty = TOptional _ | TNamed _ | TFnPtr _; _ }
           as p)
        when packed_at ri l <> None ->
          Some (G.Star (G.LAtom (ValTy (l, p.super_ty)), p.cont))
      | _ -> None)

(* null stored at a place <: optional/named. *)
let s_null_opt_named =
  mk "S-NULL-NAMED" 23 (fun ri j ->
      match problem j with
      | Some ({ sub_ty = TNull; super_ty = TNamed (n, args); _ } as p) -> (
          match unfold_named ri.E.ri_env n args with
          | Some body ->
              Some
                (G.Basic
                   (FSubsume
                      {
                        sub = re_atom p.is_loc p.subj TNull;
                        super = re_atom p.is_loc p.subj body;
                        cont = p.cont;
                      }))
          | None -> None)
      | _ -> None)

(* Fold/unfold rules for user-defined types ("automatically generated
   unfolding rules", §7): same name → refinements equal; different shape →
   unfold one side.  Same-name comes first (priority). *)
let s_named_same =
  mk "S-NAMED-SAME" 15 (fun _ri j ->
      match problem j with
      | Some
          ({ sub_ty = TNamed (n, args); super_ty = TNamed (m, args'); _ } as p)
        when n = m && List.length args = List.length args' ->
          Some (sides (List.map2 (fun x y -> PEq (x, y)) args args') p.cont)
      | _ -> None)

let s_unfold_l =
  mk "UNFOLD-L" 30 (fun ri j ->
      match problem j with
      | Some ({ sub_ty = TNamed (n, args); _ } as p) -> (
          match unfold_named ri.E.ri_env n args with
          | Some body ->
              Some
                (G.Basic
                   (FSubsume
                      {
                        sub = re_atom p.is_loc p.sub_subj body;
                        super = re_atom p.is_loc p.subj p.super_ty;
                        cont = p.cont;
                      }))
          | None -> None)
      | _ -> None)

let s_unfold_r =
  mk "UNFOLD-R" 31 (fun ri j ->
      match problem j with
      | Some ({ super_ty = TNamed (n, args); _ } as p) -> (
          match unfold_named ri.E.ri_env n args with
          | Some body ->
              Some
                (G.Basic
                   (FSubsume
                      {
                        sub = re_atom p.is_loc p.sub_subj p.sub_ty;
                        super = re_atom p.is_loc p.subj body;
                        cont = p.cont;
                      }))
          | None -> None)
      | _ -> None)

(* Unpack existentials / constraints on either side. *)
let s_unpack_sub =
  mk "S-UNPACK-SUB" 10 (fun _ri j ->
      match problem j with
      | Some ({ sub_ty = TExists (x, s, f); _ } as p) ->
          Some
            (G.All
               ( x,
                 s,
                 fun t ->
                   G.Basic
                     (FSubsume
                        {
                          sub = re_atom p.is_loc p.sub_subj (f t);
                          super = re_atom p.is_loc p.subj p.super_ty;
                          cont = p.cont;
                        }) ))
      | Some ({ sub_ty = TConstr (t, phi); _ } as p) ->
          Some
            (G.Wand
               ( G.LProp phi,
                 G.Basic
                   (FSubsume
                      {
                        sub = re_atom p.is_loc p.sub_subj t;
                        super = re_atom p.is_loc p.subj p.super_ty;
                        cont = p.cont;
                      }) ))
      | _ -> None)

let s_unpack_super =
  mk "S-UNPACK-SUPER" 11 (fun _ri j ->
      match problem j with
      | Some ({ super_ty = TExists (x, s, f); _ } as p) ->
          Some
            (G.Ex
               ( x,
                 s,
                 fun t ->
                   G.Basic
                     (FSubsume
                        {
                          sub = re_atom p.is_loc p.sub_subj p.sub_ty;
                          super = re_atom p.is_loc p.subj (f t);
                          cont = p.cont;
                        }) ))
      | Some ({ super_ty = TConstr (t, phi); _ } as p) ->
          Some
            (G.Star
               ( G.LProp phi,
                 G.Basic
                   (FSubsume
                      {
                        sub = re_atom p.is_loc p.sub_subj p.sub_ty;
                        super = re_atom p.is_loc p.subj t;
                        cont = p.cont;
                      }) ))
      | _ -> None)

(* Splitting uninitialized memory: the context owns [m] bytes at the base;
   the goal demands [n] bytes at base+k.  The complement is returned to Δ.
   This rule (together with O-ADD on pointers) reproduces O-ADD-UNINIT
   (Figure 6) and covers both allocation directions of §6. *)
let s_uninit_split =
  mk "S-UNINIT-SPLIT" 40 (fun _ri j ->
      match problem j with
      | Some
          ({ sub_ty = TUninit m; super_ty = TUninit n; is_loc = true; _ } as p)
        when not (equal_term p.sub_subj p.subj) -> (
          match Rule_aux.offset_between ~from_:p.sub_subj p.subj with
          | Some k ->
              let open G in
              Some
                (Star
                   ( LProp (PLe (Num 0, k)),
                     Star
                       ( LProp (PLe (Add (k, n), m)),
                         G.wands
                           [
                             Rule_aux.luninit p.sub_subj k;
                             Rule_aux.luninit
                               (Simp.simp_term (LocOfs (p.sub_subj, Add (k, n))))
                               (Simp.simp_term (Sub (Sub (m, k), n)));
                           ]
                           p.cont ) ))
          | None -> None)
      | _ -> None)

(* Wand application: provide the hole, obtain the conclusion (§2.2). *)
let s_wand_apply =
  mk "S-WAND-APPLY" 35 (fun ri j ->
      match problem j with
      | Some ({ sub_ty = TWand (hole, out); super_ty; _ } as p)
        when (match super_ty with TWand _ -> false | _ -> true) ->
          let provide =
            match hole with
            | LocTy (l, t) -> require_loc ri.E.ri_env l t
            | ValTy (v, t) -> require_val ri.E.ri_env v t
          in
          Some
            (provide
               (G.Basic
                  (FSubsume
                     {
                       sub = re_atom p.is_loc p.sub_subj out;
                       super = re_atom p.is_loc p.subj super_ty;
                       cont = p.cont;
                     })))
      | _ -> None)

(* Wand chaining: to prove a new wand from an existing one, assume the new
   hole, reprove the old hole (consuming the resources accumulated while
   traversing the data structure), and match the conclusions. *)
let s_wand_wand =
  mk "S-WAND-WAND" 34 (fun ri j ->
      match problem j with
      | Some
          ({ sub_ty = TWand (h1, o1); super_ty = TWand (h2, o2); _ } as p) -> (
          match ty_equiv_side o1 o2 with
          | Some out_sides ->
              let intro_hole =
                match h2 with
                | LocTy (l, t) -> intro_loc ri.E.ri_env l t
                | ValTy (v, t) -> intro_val ri.E.ri_env v t
              in
              let require_hole g =
                match h1 with
                | LocTy (l, t) -> require_loc ri.E.ri_env l t g
                | ValTy (v, t) -> require_val ri.E.ri_env v t g
              in
              Some (G.Wand (intro_hole, require_hole (sides out_sides p.cont)))
          | None -> None)
      | _ -> None)

(* Atomic booleans: refinements must coincide; the protected resources
   must be syntactically identical (they are invariants). *)
let s_atomic_bool =
  mk "S-ATOMIC-BOOL" 24 (fun _ri j ->
      match problem j with
      | Some
          ({
             sub_ty = TAtomicBool (it1, p1, ht1, hf1);
             super_ty = TAtomicBool (it2, p2, ht2, hf2);
             _;
           } as p)
        when Int_type.equal it1 it2 ->
          let same_hres a b =
            Enc.encode (Enc.enc_list enc_hres) a
            = Enc.encode (Enc.enc_list enc_hres) b
          in
          if same_hres ht1 ht2 && same_hres hf1 hf2 then
            Some (sides [ PAnd (PImp (p1, p2), PImp (p2, p1)) ] p.cont)
          else None
      | _ -> None)

(* Function pointers: compatible specs (same name, or structurally equal
   contracts up to the function's name — used when an implementation is
   passed where a specification prototype is expected). *)
let fn_spec_compatible (s1 : fn_spec) (s2 : fn_spec) : bool =
  let contract w (s : fn_spec) =
    Enc.enc_list enc_rtype w s.fs_args;
    enc_rtype w s.fs_ret;
    Enc.enc_list enc_hres w s.fs_pre;
    Enc.enc_list enc_hres w s.fs_post
  in
  s1.fs_name = s2.fs_name
  || s1.fs_params = s2.fs_params
     && s1.fs_exists = s2.fs_exists
     && Enc.encode contract s1 = Enc.encode contract s2

let s_fnptr =
  mk "S-FNPTR" 26 (fun _ri j ->
      match problem j with
      | Some ({ sub_ty = TFnPtr s1; super_ty = TFnPtr s2; _ } as p)
        when fn_spec_compatible s1 s2 ->
          Some p.cont
      | _ -> None)

(* Integers widen into booleans and vice versa. *)
let s_int_bool =
  mk "S-INT-BOOL" 27 (fun _ri j ->
      match problem j with
      | Some ({ sub_ty = TInt (it1, n); super_ty = TBool (it2, q); _ } as p)
        when Int_type.equal it1 it2 ->
          Some
            (sides
               [ PAnd (PImp (q, p_ne n (Num 0)), PImp (p_ne n (Num 0), q)) ]
               p.cont)
      | Some ({ sub_ty = TBool (it1, q); super_ty = TInt (it2, m); _ } as p)
        when Int_type.equal it1 it2 ->
          Some (sides [ PEq (m, Ite (q, Num 1, Num 0)) ] p.cont)
      | _ -> None)

(* Any initialized scalar can degrade to uninitialized bytes; when the
   goal wants a *larger* uninitialized block (e.g. returning a whole page
   whose first bytes held the free-list link), the remaining bytes are
   consumed from Δ. *)
let s_to_uninit =
  mk "S-TO-UNINIT" 45 (fun ri j ->
      match problem j with
      | Some ({ sub_ty = TUninit _; _ }) -> None (* S-EQUIV / split rules *)
      | Some ({ super_ty = TUninit n; is_loc = true; _ } as p)
        when equal_term p.sub_subj p.subj -> (
          match ty_size ri.E.ri_env p.sub_ty with
          | Some (Num sz)
            when (match p.sub_ty with TWand _ -> false | _ -> true) ->
              let rest = Simp.simp_term (Sub (n, Num sz)) in
              let rest_goal =
                match rest with
                | Num 0 -> p.cont
                | _ ->
                    G.Star
                      ( G.LAtom
                          (LocTy
                             ( Simp.simp_term (LocOfs (p.subj, Num sz)),
                               TUninit rest )),
                        p.cont )
              in
              Some (sides [ PLe (Num sz, n) ] rest_goal)
          | _ -> None)
      | _ -> None)

let all : rule list =
  [
    s_unpack_sub;
    s_unpack_super;
    s_named_same;
    s_null;
    s_own;
    s_ptr_own;
    s_null_opt_named;
    s_atomic_bool;
    s_ptr_lookup;
    s_fnptr;
    s_int_bool;
    s_unfold_l;
    s_unfold_r;
    s_wand_wand;
    s_wand_apply;
    s_uninit_split;
    s_to_uninit;
    s_equiv;
  ]
