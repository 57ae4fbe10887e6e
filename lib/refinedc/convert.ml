(** Canonicalization of ownership (introduction and elimination of types).

    RefinedC's model keeps the resource context Δ in a canonical form so
    that Lithium's syntactic matching (goal case (6d)) finds atoms
    deterministically:

    - *Introduction* ([intro_loc te]/[intro_val te]) decomposes assumed types
      into canonical atoms: structs split into per-field atoms (plus
      padding as [uninit]), definite [&own] pointers split into a thin
      address singleton plus a separate location atom for the pointee,
      existentials open, constraints move to Γ.  Conditional ownership
      ([optional]) and folded recursive types ([TNamed]) stay packed.

    - *Elimination* ([require_loc te]/[require_val te]) builds the dual goals:
      composite types are required field by field; scalar-ish types
      become goal atoms that case (6d) matches against Δ and discharges
      through the subsumption rules of {!Rules_subsume}. *)

open Rc_pure
open Rc_pure.Term
module G = Rc_lithium.Goal
module Layout = Rc_caesium.Layout
module Int_type = Rc_caesium.Int_type
open Rtype
open Lang

type left = (f, atom) G.left

let ofs l n = Simp.simp_term (LocOfs (l, Num n))

(** Byte ranges of a struct layout not covered by any field: padding. *)
let padding_ranges (sl : Layout.struct_layout) : (int * int) list =
  let covered =
    List.map
      (fun fd -> (fd.Layout.fld_ofs, fd.Layout.fld_ofs + Layout.size fd.Layout.fld_layout))
      sl.Layout.sl_fields
    |> List.sort compare
  in
  let rec gaps pos = function
    | [] -> if pos < sl.Layout.sl_size then [ (pos, sl.Layout.sl_size) ] else []
    | (a, b) :: rest ->
        (if pos < a then [ (pos, a) ] else []) @ gaps (max pos b) rest
  in
  gaps 0 covered

let int_bounds_props (it : Int_type.t) (n : term) : prop list =
  [ PLe (Num (Int_type.min_val it), n); PLe (n, Num (Int_type.max_val it)) ]

(* ------------------------------------------------------------------ *)
(* Introduction                                                        *)
(* ------------------------------------------------------------------ *)

let rec intro_loc te (l : term) (ty : rtype) : left =
  match ty with
  | TManaged _ -> G.LTrue
  | TStruct (sl, tys) ->
      let fields =
        List.map2
          (fun fd fty -> intro_loc te (ofs l fd.Layout.fld_ofs) fty)
          sl.Layout.sl_fields tys
      in
      let pads =
        List.map
          (fun (a, b) -> G.LAtom (LocTy (ofs l a, TUninit (Num (b - a)))))
          (padding_ranges sl)
      in
      G.lstars (fields @ pads)
  | TOwn (Some l', t') ->
      G.LStar (intro_loc_scalar l (TPtrV l'), intro_loc te l' t')
  | TOwn (None, t') ->
      G.LEx
        ( "ℓ",
          Sort.Loc,
          fun l' -> G.LStar (intro_loc_scalar l (TPtrV l'), intro_loc te l' t') )
  | TExists (x, s, f) -> G.LEx (x, s, fun t -> intro_loc te l (f t))
  | TConstr (t, phi) -> G.LStar (G.LProp phi, intro_loc te l t)
  | TPadded (t, n) -> (
      match ty_size te t with
      | Some sz ->
          G.LStar
            ( intro_loc te l t,
              G.LStar
                ( G.LAtom
                    (LocTy
                       ( Simp.simp_term (LocOfs (l, sz)),
                         TUninit (Simp.simp_term (Sub (n, sz))) )),
                  G.LProp (PLe (sz, n)) ) )
      | None -> G.LAtom (LocTy (l, ty)))
  | _ -> intro_loc_scalar l ty

and intro_loc_scalar l ty =
  match ty with
  | TInt (it, n) ->
      G.LStar (G.LAtom (LocTy (l, ty)), G.LProp (conj (int_bounds_props it n)))
  | TBool _ -> G.LAtom (LocTy (l, ty))
  | TPtrV l' -> G.LStar (G.LAtom (LocTy (l, ty)), G.LProp (p_ne l' NullLoc))
  | TUninit n -> G.LStar (G.LAtom (LocTy (l, ty)), G.LProp (PLe (Num 0, n)))
  | TArrayInt (_, len, xs) ->
      G.LStar
        ( G.LAtom (LocTy (l, ty)),
          G.LProp (PAnd (PEq (Length xs, len), PLe (Num 0, len))) )
  | _ -> G.LAtom (LocTy (l, ty))

and intro_val te (v : term) (ty : rtype) : left =
  match ty with
  | TInt (it, n) ->
      G.LStar
        ( G.LAtom (ValTy (v, ty)),
          G.LProp (conj (PEq (v, n) :: int_bounds_props it n)) )
  | TBool _ -> G.LAtom (ValTy (v, ty))
  | TNull -> G.LStar (G.LAtom (ValTy (v, TNull)), G.LProp (PEq (v, NullLoc)))
  | TPtrV l' ->
      G.LStar
        ( G.LAtom (ValTy (v, ty)),
          G.LProp (PAnd (PEq (v, l'), p_ne l' NullLoc)) )
  | TOwn (Some l', t') ->
      G.LStar (intro_val te v (TPtrV l'), intro_loc te l' t')
  | TOwn (None, t') ->
      (* treat the value itself as the pointee location *)
      G.LStar (intro_val te v (TPtrV v), intro_loc te v t')
  | TExists (x, s, f) -> G.LEx (x, s, fun t -> intro_val te v (f t))
  | TConstr (t, phi) -> G.LStar (G.LProp phi, intro_val te v t)
  | _ -> G.LAtom (ValTy (v, ty))

let intro_hres te (h : hres) : left =
  match h with
  | HProp p -> G.LProp p
  | HAtom (LocTy (l, t)) -> intro_loc te l t
  | HAtom (ValTy (v, t)) -> intro_val te v t

let intro_hres_list te hs = G.lstars (List.map (intro_hres te) hs)

(* ------------------------------------------------------------------ *)
(* Elimination (goal construction)                                     *)
(* ------------------------------------------------------------------ *)

(** Is the one-level unfolding of this type a composite that the intro
    side decomposed into several atoms (so the goal must be field-wise)? *)
let rec unfolds_to_composite te (ty : rtype) : rtype option =
  match ty with
  | TNamed (n, args) -> (
      match unfold_named te n args with
      | Some body -> (
          match strip body with
          | TStruct _ | TPadded _ -> Some body
          | _ -> None)
      | None -> None)
  | _ -> None

and strip = function
  | TConstr (t, _) -> strip t
  | TExists (x, s, f) -> strip (f (Var (x, s)))
  | t -> t

let rec require_loc te (l : term) (ty : rtype) (g : goal) : goal =
  match ty with
  | TManaged _ -> g
  | TStruct (sl, tys) ->
      let rec fields fs tys g =
        match (fs, tys) with
        | [], [] -> g
        | fd :: fs', fty :: tys' ->
            require_loc te (ofs l fd.Layout.fld_ofs) fty (fields fs' tys' g)
        | _ -> invalid_arg "require_loc te: struct arity"
      in
      let pads g =
        List.fold_right
          (fun (a, b) g ->
            G.Star (G.LAtom (LocTy (ofs l a, TUninit (Num (b - a)))), g))
          (padding_ranges sl) g
      in
      fields sl.Layout.sl_fields tys (pads g)
  | TOwn (Some l', t') ->
      G.Star (G.LAtom (LocTy (l, TPtrV l')), require_loc te l' t' g)
  | TOwn (None, t') ->
      G.Ex
        ( "ℓ",
          Sort.Loc,
          fun l' ->
            G.Star (G.LAtom (LocTy (l, TPtrV l')), require_loc te l' t' g) )
  | TExists (x, s, f) -> G.Ex (x, s, fun t -> require_loc te l (f t) g)
  | TConstr (t, phi) -> require_loc te l t (G.Star (G.LProp phi, g))
  | TPadded (t, n) -> (
      match ty_size te t with
      | Some sz ->
          require_loc te l t
            (G.Star
               ( G.LAtom
                   (LocTy
                      ( Simp.simp_term (LocOfs (l, sz)),
                        TUninit (Simp.simp_term (Sub (n, sz))) )),
                 g ))
      | None -> G.Star (G.LAtom (LocTy (l, ty)), g))
  | TNamed (n, _) -> (
      match unfolds_to_composite te ty with
      | None -> G.Star (G.LAtom (LocTy (l, ty)), g)
      | Some body ->
          (* dispatch on Δ: if the location still holds the folded named
             type, subsume directly; otherwise require field-wise *)
          G.FindOpt
            {
              descr = (fun () -> Fmt.str "%a ◁ₗ %s (folded)" pp_term l n);
              pred =
                (fun resolve a ->
                  match a with
                  | LocTy (l', TNamed (n', _)) ->
                      equal_term l' (Simp.simp_term (resolve l)) && n' = n
                  | _ -> false);
              cont =
                (function
                | Some a ->
                    G.Basic
                      (FSubsume { sub = a; super = LocTy (l, ty); cont = g })
                | None -> require_loc te l body g);
            })
  | TWand (hole, out) ->
      (* A magic wand is proved either by adapting an existing wand for
         the same location (loop iterations) or, when Δ holds nothing for
         [l], from emp as the identity wand (loop entry, §2.2). *)
      G.FindOpt
        {
          descr = (fun () -> Fmt.str "%a ◁ₗ wand" pp_term l);
          pred =
            (fun resolve a ->
              match a with
              | LocTy (l', _) -> equal_term l' (Simp.simp_term (resolve l))
              | _ -> false);
          cont =
            (function
            | Some a ->
                G.Basic (FSubsume { sub = a; super = LocTy (l, ty); cont = g })
            | None -> (
                match hole with
                | LocTy (hl, hty) -> (
                    match ty_equiv_side hty out with
                    | Some props ->
                        List.fold_right
                          (fun p g -> G.Star (G.LProp p, g))
                          (PEq (hl, l) :: props)
                          g
                    | None -> G.Star (G.LProp PFalse, g))
                | ValTy _ -> G.Star (G.LProp PFalse, g)));
        }
  | _ -> G.Star (G.LAtom (LocTy (l, ty)), g)

let rec require_val te (v : term) (ty : rtype) (g : goal) : goal =
  match ty with
  | TExists (x, s, f) -> G.Ex (x, s, fun t -> require_val te v (f t) g)
  | TConstr (t, phi) -> require_val te v t (G.Star (G.LProp phi, g))
  | TOwn (Some l', t') ->
      G.Star (G.LProp (PEq (v, l')), require_loc te l' t' g)
  | TOwn (None, t') ->
      G.Star (G.LProp (p_ne v NullLoc), require_loc te v t' g)
  | _ -> G.Star (G.LAtom (ValTy (v, ty)), g)

(** Variables not listed in a loop invariant keep the type they had at
    function entry: argument slots their specification types, locals
    [uninit].  They are assumed in the loop-body branch and re-proved at
    every jump to the loop head (real RefinedC behaves the same way). *)
let unlisted_frame (sigma : Lang.fn_ctx) (listed : string list) :
    (term * rtype) list =
  let module S = Rc_caesium.Syntax in
  let args =
    if
      List.length sigma.fc_func.S.args
      = List.length sigma.fc_spec.fs_args
    then
      List.map2
        (fun (x, _) ty -> (x, ty))
        sigma.fc_func.S.args sigma.fc_spec.fs_args
    else []
  in
  let locals =
    List.map
      (fun (x, layout) -> (x, TUninit (Num (Layout.size layout))))
      sigma.fc_func.S.locals
  in
  args @ locals
  |> List.filter (fun (x, _) -> not (List.mem x listed))
  |> List.filter_map (fun (x, ty) ->
         Option.map (fun l -> (l, ty)) (List.assoc_opt x sigma.fc_env))

let require_hres te (h : hres) (g : goal) : goal =
  match h with
  | HProp p -> G.Star (G.LProp p, g)
  | HAtom (LocTy (l, t)) -> require_loc te l t g
  | HAtom (ValTy (v, t)) -> require_val te v t g

let require_hres_list te hs g = List.fold_right (require_hres te) hs g
