(** Binary-operator rules (⊢BINOP), including the paper's O-OPTIONAL-EQ
    and O-ADD-UNINIT (Figure 6). *)

open Rc_pure
open Rc_pure.Term
module G = Rc_lithium.Goal
module Syntax = Rc_caesium.Syntax
module Layout = Rc_caesium.Layout
module Int_type = Rc_caesium.Int_type
open Rtype
open Lang
open Rule_aux

let mk name prio apply : E.rule = { E.rname = name; prio; heads = Some [ "binop" ]; apply }

let in_range it r =
  conj [ PLe (Num (Int_type.min_val it), r); PLe (r, Num (Int_type.max_val it)) ]

(* O-ARITH-INT: +, -, *, /, % on integers of a common type; the result
   must be representable (no signed overflow / unsigned wrap in verified
   code), divisors must be non-zero. *)
let o_arith =
  mk "O-ARITH-INT" 10 (fun _ri j ->
      match j with
      | FBinop
          { op; v1 = _; ty1 = TInt (it, n1); v2 = _; ty2 = TInt (it2, n2);
            cont; _ }
        when Int_type.equal it it2 -> (
          let ret ?(pre = PTrue) r =
            let r = Simp.simp_term r in
            Some
              (G.Star
                 ( G.LProp pre,
                   G.Star (G.LProp (in_range it r), cont r (TInt (it, r))) ))
          in
          match op with
          | Syntax.AddOp -> ret (Add (n1, n2))
          | Syntax.SubOp -> ret (Sub (n1, n2))
          | Syntax.MulOp -> ret (Mul (n1, n2))
          | Syntax.DivOp -> ret ~pre:(p_ne n2 (Num 0)) (Div (n1, n2))
          | Syntax.ModOp -> ret ~pre:(p_ne n2 (Num 0)) (Mod (n1, n2))
          | _ -> None)
      | _ -> None)

(* O-CMP-INT: comparisons yield φ @ bool. *)
let o_cmp =
  mk "O-CMP-INT" 11 (fun _ri j ->
      match j with
      | FBinop
          { op; ty1 = TInt (it, n1); ty2 = TInt (it2, n2); cont; _ }
        when Int_type.equal it it2 -> (
          let ret phi =
            Some (cont (bool_term phi) (TBool (Int_type.i32, phi)))
          in
          match op with
          | Syntax.EqOp -> ret (PEq (n1, n2))
          | Syntax.NeOp -> ret (p_ne n1 n2)
          | Syntax.LtOp -> ret (PLt (n1, n2))
          | Syntax.LeOp -> ret (PLe (n1, n2))
          | Syntax.GtOp -> ret (p_gt n1 n2)
          | Syntax.GeOp -> ret (p_ge n1 n2)
          | _ -> None)
      | _ -> None)

(* Literal shifts (page-allocator style size computations). *)
let o_shift =
  mk "O-SHIFT-INT" 12 (fun _ri j ->
      match j with
      | FBinop
          { op = Syntax.ShlOp; ty1 = TInt (it, n1); ty2 = TInt (_, Num k);
            cont; _ }
        when k >= 0 && k < Int_type.bits it ->
          let r = Simp.simp_term (Mul (n1, Num (1 lsl k))) in
          Some (G.Star (G.LProp (in_range it r), cont r (TInt (it, r))))
      | FBinop
          { op = Syntax.ShrOp; ty1 = TInt (it, n1); ty2 = TInt (_, Num k);
            cont; _ }
        when k >= 0 && k < Int_type.bits it ->
          let r = Simp.simp_term (Div (n1, Num (1 lsl k))) in
          Some (G.Star (G.LProp (PLe (Num 0, n1)), cont r (TInt (it, r))))
      | _ -> None)

(* O-OPTIONAL-EQ (Figure 6): comparing a nullable pointer against NULL
   forks on the refinement φ of the optional type. *)
let o_optional_eq =
  mk "O-OPTIONAL-EQ" 15 (fun ri j ->
      match j with
      | FBinop
          { op = (Syntax.EqOp | Syntax.NeOp) as op; ot1 = Syntax.OPtr;
            v1; ty1; ty2 = TNull; cont; _ }
      | FBinop
          { op = (Syntax.EqOp | Syntax.NeOp) as op; ot2 = Syntax.OPtr;
            v2 = v1; ty2 = ty1; ty1 = TNull; cont; _ } ->
          let res_eq b =
            (* result of [p == NULL] when nullness is [b] *)
            let phi = if b = (op = Syntax.EqOp) then PTrue else PFalse in
            cont (bool_term phi) (TBool (Int_type.i32, phi))
          in
          optional_cases ri v1 ty1
            ~on_own:(fun () -> res_eq false)
            ~on_null:(fun () -> res_eq true)
      | _ -> None)

(* Pointer equality between definite pointers. *)
let o_ptr_eq =
  mk "O-PTR-EQ" 16 (fun _ri j ->
      match j with
      | FBinop
          { op = (Syntax.EqOp | Syntax.NeOp) as op; ty1 = TPtrV l1;
            ty2 = TPtrV l2; cont; _ } ->
          let phi =
            if op = Syntax.EqOp then PEq (l1, l2) else p_ne l1 l2
          in
          Some (cont (bool_term phi) (TBool (Int_type.i32, phi)))
      | _ -> None)

(* O-ADD-UNINIT (Figure 6): adding an integer to a pointer into an
   uninitialized block splits the ownership at the computed boundary;
   both allocation directions of §6 go through this single rule. *)
let o_add_uninit =
  mk "O-ADD-UNINIT" 20 (fun ri j ->
      match j with
      | FBinop
          { op = Syntax.PtrPlusOp elem; v1 = _; ty1 = TPtrV l;
            ty2 = TInt (_, n); cont; _ } -> (
          let covering = function
            | LocTy (l', TUninit _) -> (
                match offset_between ~from_:l' l with
                | Some _ -> equal_term (loc_base l') (loc_base l)
                | None -> false)
            | _ -> false
          in
          match ri.E.ri_peek covering with
          | None -> None
          | Some _ ->
              Some
                (G.Find
                   {
                     descr = (fun () -> Fmt.str "%a ◁ₗ uninit" pp_term l);
                     pred = (fun _resolve a -> covering a);
                     cont =
                       (fun a ->
                         match a with
                         | LocTy (base, TUninit m) ->
                             let j_off =
                               Option.value ~default:(Num 0)
                                 (offset_between ~from_:base l)
                             in
                             let step =
                               Simp.simp_term
                                 (Mul (Num (Layout.size elem), n))
                             in
                             let cut = Simp.simp_term (Add (j_off, step)) in
                             let l' = Simp.simp_term (LocOfs (base, cut)) in
                             let open G in
                             Star
                               ( LProp (PLe (Num 0, cut)),
                                 Star
                                   ( LProp (PLe (cut, m)),
                                     wands
                                       [
                                         Rule_aux.luninit base cut;
                                         Rule_aux.luninit l'
                                           (Simp.simp_term (Sub (m, cut)));
                                       ]
                                       (cont l' (TPtrV l')) ) )
                         | _ -> assert false);
                   }))
      | _ -> None)

(* O-ADD-ARRAY: indexing into an integer array — a bounds check, no
   ownership split (cells are accessed through the array atom). *)
let o_add_array =
  mk "O-ADD-ARRAY" 21 (fun ri j ->
      match j with
      | FBinop
          { op = Syntax.PtrPlusOp elem; ty1 = TPtrV l; ty2 = TInt (_, n);
            cont; _ } -> (
          let covering = function
            | LocTy (l', TArrayInt _) -> (
                match offset_between ~from_:l' l with
                | Some _ -> equal_term (loc_base l') (loc_base l)
                | None -> false)
            | _ -> false
          in
          match ri.E.ri_peek covering with
          | Some (LocTy (base, TArrayInt (it, len, _)))
            when it.Int_type.size = Layout.size elem -> (
              match
                Option.bind (offset_between ~from_:base l)
                  (index_of_offset ~sz:it.Int_type.size)
              with
              | Some i ->
                  let idx = Simp.simp_term (Add (i, n)) in
                  let l' =
                    Simp.simp_term
                      (LocOfs (base, Mul (Num it.Int_type.size, idx)))
                  in
                  Some
                    (G.Star
                       ( G.LProp
                           (PAnd (PLe (Num 0, idx), PLe (idx, len))),
                         cont l' (TPtrV l') ))
              | None -> None)
          | _ -> None)
      | _ -> None)

(* Fallback pointer arithmetic: compute the address; the bounds are
   checked when the resulting ownership is consumed (deferred-split
   subsumption).  Documented deviation from the paper's eager check. *)
let o_add_plain =
  mk "O-ADD-PLAIN" 25 (fun _ri j ->
      match j with
      | FBinop
          { op = Syntax.PtrPlusOp elem; ty1 = TPtrV l; ty2 = TInt (_, n);
            cont; _ } ->
          let l' =
            Simp.simp_term (LocOfs (l, Mul (Num (Layout.size elem), n)))
          in
          Some (cont l' (TPtrV l'))
      | _ -> None)

(* Pointer difference within one object. *)
let o_ptr_diff =
  mk "O-PTR-DIFF" 26 (fun _ri j ->
      match j with
      | FBinop
          { op = Syntax.PtrDiffOp elem; ty1 = TPtrV l1; ty2 = TPtrV l2;
            cont; _ } -> (
          match offset_between ~from_:l2 l1 with
          | Some d ->
              let r = Simp.simp_term (Div (d, Num (Layout.size elem))) in
              Some (cont r (TInt (Int_type.i64, r)))
          | None -> None)
      | _ -> None)

let all : E.rule list =
  [
    o_arith;
    o_cmp;
    o_shift;
    o_optional_eq;
    o_ptr_eq;
    o_add_uninit;
    o_add_array;
    o_add_plain;
    o_ptr_diff;
  ]
