(** Typed reads and writes.

    A load/store first locates the atom owning the accessed location
    (goal form [Find] — RefinedC's [find_in_context]) and then dispatches
    on the *type* of that location, which uniquely determines the rule:
    reading an [n @ int] yields [n]; reading an [optional] moves the
    conditional ownership into a value atom and leaves a pointer-value
    snapshot at the place (so re-reads observe the same value); writes
    perform strong updates, splitting [uninit] blocks on demand. *)

open Rc_pure
open Rc_pure.Term
module G = Rc_lithium.Goal
module Layout = Rc_caesium.Layout
module Int_type = Rc_caesium.Int_type
open Rtype
open Lang
open Convert
open Rule_aux

let mk ~heads name prio apply : E.rule = { E.rname = name; prio; heads = Some heads; apply }

(** Find-predicate: does the atom cover the accessed location?  Besides
    exact matches, an access may fall inside an array, an uninitialized
    block, or a (possibly named) struct whose fields have not been split
    off yet. *)
let covers (te : tenv) (loc_term : term) (a : atom) : bool =
  let within l size_lit =
    equal_term l loc_term
    ||
    match offset_between ~from_:l loc_term with
    | Some (Num k) -> (
        match size_lit with Some sz -> 0 <= k && k < sz | None -> false)
    | Some _ -> false
    | None -> false
  in
  match a with
  | LocTy (l, ((TArrayInt _ | TUninit _) as ty)) -> (
      let lit_size =
        match ty with
        | TUninit (Num s) -> Some s
        | TArrayInt (it, Num len, _) -> Some (len * it.Int_type.size)
        | _ -> None
      in
      match offset_between ~from_:l loc_term with
      | Some (Num k) ->
          k >= 0 && (match lit_size with Some s -> k < s | None -> true)
      | Some _ -> lit_size <> Some 0
      | None -> false)
  | LocTy (l, TStruct (sl, _)) -> within l (Some sl.Rc_caesium.Layout.sl_size)
  | LocTy (l, TNamed (n, _)) -> (
      match find_type_def te n with
      | Some { td_layout = Some lay; _ } -> within l (Some (Layout.size lay))
      | _ -> equal_term l loc_term)
  | LocTy (l, _) -> equal_term l loc_term
  | ValTy _ -> false

(* ------------------------------------------------------------------ *)
(* Reads                                                               *)
(* ------------------------------------------------------------------ *)

(** When an access hits a location whose ownership is still *packed* in a
    value atom [v ◁ᵥ φ @ optional<&own τ, null>] (e.g. dereferencing a
    list head whose non-emptiness is known from the specification, with no
    preceding NULL test), unpack it: prove φ and decompose the own
    branch into Δ, then retry. *)
let unpack_packed_at ri (base : term) (retry : goal) : goal option =
  let is_packed = function
    | ValTy (w, (TOptional _ | TNamed _)) -> equal_term w base
    | _ -> false
  in
  match ri.E.ri_peek is_packed with
  | None -> None
  | Some _ ->
      let rec unfold_to_opt t =
        match t with
        | TOptional (phi, t1, t2) -> Some (phi, t1, t2)
        | TNamed (n, args) ->
            Option.bind (unfold_named ri.E.ri_env n args) unfold_to_opt
        | TConstr (t, _) -> unfold_to_opt t
        | _ -> None
      in
      Some
        (G.Find
           {
             descr = (fun () -> Fmt.str "%a ◁ᵥ optional (unpack)" pp_term base);
             pred = (fun _resolve a -> is_packed a);
             cont =
               (fun a ->
                 match a with
                 | ValTy (_, pty) -> (
                     match unfold_to_opt pty with
                     | Some (phi, t1, _) ->
                         G.Star
                           ( G.LProp phi,
                             G.Wand (intro_val ri.E.ri_env base t1, retry) )
                     | None -> G.Wand (G.LAtom a, retry))
                 | LocTy _ -> assert false);
           })

let read_loc =
  mk ~heads:[ "read-loc" ] "READ-LOC" 10 (fun ri j ->
      match j with
      | FReadLoc ({ loc_term; layout; atomic; cont; src } as r) -> (
          let found = ri.E.ri_peek (fun a -> covers ri.E.ri_env loc_term a) in
          match found with
          | Some _ ->
              Some
                (G.Find
                   {
                     descr = (fun () -> Fmt.str "%a ◁ₗ ?" pp_term loc_term);
                     pred =
                       (fun resolve a ->
                         covers ri.E.ri_env (Simp.simp_term (resolve loc_term)) a);
                     cont =
                       (fun a ->
                         match a with
                         | LocTy (sub_l, ty) ->
                             G.Basic
                               (FReadTy
                                  { loc_term; sub_l; ty; layout; atomic; cont;
                                    src })
                         | ValTy _ -> assert false);
                   })
          | None ->
              unpack_packed_at ri (loc_base loc_term)
                (G.Basic (FReadLoc r)))
      | _ -> None)

(* READ-INT: the place keeps its type; the read value is the refinement. *)
let read_int =
  mk ~heads:[ "read" ] "READ-INT" 20 (fun _ri j ->
      match j with
      | FReadTy
          { loc_term; sub_l; ty = TInt (it, n) as ty; layout = Layout.Int it';
            cont; _ }
        when Int_type.equal it it' && equal_term loc_term sub_l ->
          Some (G.Wand (G.LAtom (LocTy (sub_l, ty)), cont n ty))
      | _ -> None)

let read_bool =
  mk ~heads:[ "read" ] "READ-BOOL" 21 (fun _ri j ->
      match j with
      | FReadTy
          { loc_term; sub_l; ty = TBool (it, phi) as ty;
            layout = Layout.Int it'; cont; _ }
        when Int_type.equal it it' && equal_term loc_term sub_l ->
          Some (G.Wand (G.LAtom (LocTy (sub_l, ty)), cont (bool_term phi) ty))
      | _ -> None)

(* READ-PTR: a pointer-value snapshot (or NULL). *)
let read_ptr =
  mk ~heads:[ "read" ] "READ-PTR" 22 (fun _ri j ->
      match j with
      | FReadTy { loc_term; sub_l; ty = TPtrV l' as ty; layout; cont; _ }
        when is_ptr_layout layout && equal_term loc_term sub_l ->
          Some (G.Wand (G.LAtom (LocTy (sub_l, ty)), cont l' ty))
      | FReadTy { loc_term; sub_l; ty = TNull; layout; cont; _ }
        when is_ptr_layout layout && equal_term loc_term sub_l ->
          Some (G.Wand (G.LAtom (LocTy (sub_l, TNull)), cont NullLoc TNull))
      | _ -> None)

(* READ-OPTIONAL / READ-NAMED: move the packed ownership into a value
   atom for a fresh value [v]; the place remembers it stores [v]. *)
let read_packed =
  mk ~heads:[ "read" ] "READ-PACKED" 23 (fun ri j ->
      match j with
      | FReadTy
          { loc_term; sub_l; ty = (TOptional _ | TNamed _ | TFnPtr _) as ty;
            layout; cont; _ }
        when is_ptr_layout layout && equal_term loc_term sub_l ->
          let v = ri.E.ri_fresh ~hint:"v" Sort.Loc in
          Some
            (G.Wand
               ( G.LAtom (ValTy (v, ty)),
                 G.Wand
                   (G.LAtom (LocTy (sub_l, TPtrV v)), cont v (TPtrV v)) ))
      | _ -> None)

(* READ-EXISTS / READ-CONSTR: open, then re-dispatch. *)
let read_unpack =
  mk ~heads:[ "read" ] "READ-UNPACK" 15 (fun _ri j ->
      match j with
      | FReadTy ({ ty = TExists (x, s, f); _ } as r) ->
          Some
            (G.All
               ( x,
                 s,
                 fun t -> G.Basic (FReadTy { r with ty = f t }) ))
      | FReadTy ({ ty = TConstr (t, phi); _ } as r) ->
          Some (G.Wand (G.LProp phi, G.Basic (FReadTy { r with ty = t })))
      | _ -> None)

(* READ-UNFOLD: a folded named type must be unfolded when the access does
   not read it as a whole pointer value (struct-bodied types, or reads at
   an interior offset). *)
let read_unfold =
  mk ~heads:[ "read" ] "READ-UNFOLD" 16 (fun ri j ->
      match j with
      | FReadTy ({ loc_term; sub_l; ty = TNamed (n, args); layout; _ } as r)
        when (not (is_ptr_layout layout)) || not (equal_term loc_term sub_l)
        -> (
          match unfold_named ri.E.ri_env n args with
          | Some body -> Some (G.Basic (FReadTy { r with ty = body }))
          | None -> None)
      | _ -> None)

(* READ-DECOMPOSE: struct/padded blocks split into per-field atoms in Δ;
   the read is then retried and finds the field. *)
let read_decompose =
  mk ~heads:[ "read" ] "READ-DECOMPOSE" 17 (fun ri j ->
      match j with
      | FReadTy
          { loc_term; sub_l; ty = (TStruct _ | TPadded _) as ty; layout;
            atomic; cont; src } ->
          Some
            (G.Wand
               ( intro_loc ri.E.ri_env sub_l ty,
                 G.Basic (FReadLoc { loc_term; layout; atomic; cont; src }) ))
      | _ -> None)

(* READ-ARRAY: reading cell [i] of an integer array. *)
let read_array =
  mk ~heads:[ "read" ] "READ-ARRAY" 24 (fun ri j ->
      match j with
      | FReadTy
          { loc_term; sub_l; ty = TArrayInt (it, len, xs) as ty;
            layout = Layout.Int it'; cont; _ }
        when Int_type.equal it it' -> (
          match offset_between ~from_:sub_l loc_term with
          | Some off -> (
              match index_of_offset ~sz:it.Int_type.size off with
              | Some i ->
                  let n = NthDflt (Num 0, i, xs) in
                  let _ = ri in
                  Some
                    (G.Star
                       ( G.LProp (PAnd (PLe (Num 0, i), PLt (i, len))),
                         G.Wand
                           ( G.LAtom (LocTy (sub_l, ty)),
                             G.Wand
                               ( G.LProp
                                   (conj (int_bounds_props it n)),
                                 cont n (TInt (it, n)) ) ) ))
              | None -> None)
          | None -> None)
      | _ -> None)

(* Atomic load of an atomic boolean (used by the one-time barrier).  On
   observing "true" the H⊤ resource is transferred out once — sound for
   the single-waiter, one-shot protocols we verify (the paper uses a
   ghost token for the same purpose). *)
let read_atomic_bool =
  mk ~heads:[ "read" ] "READ-ATOMIC-BOOL" 25 (fun ri j ->
      match j with
      | FReadTy
          { loc_term; sub_l; ty = TAtomicBool (it, _phi, ht, hf);
            layout = Layout.Int it'; atomic = true; cont; _ }
        when Int_type.equal it it' && equal_term loc_term sub_l ->
          let b = ri.E.ri_fresh ~hint:"b" Sort.Int in
          let observed_true =
            G.Wand
              ( G.LAtom (LocTy (sub_l, TAtomicBool (it, PTrue, [], hf))),
                G.Wand
                  ( intro_hres_list ri.E.ri_env ht,
                    cont (Num 1) (TBool (it, PTrue)) ) )
          in
          let observed_false =
            G.Wand
              ( G.LAtom (LocTy (sub_l, TAtomicBool (it, PFalse, ht, hf))),
                cont (Num 0) (TBool (it, PFalse)) )
          in
          let _ = b in
          Some
            (G.AndG
               [
                 (Some "atomic load observes true", observed_true);
                 (Some "atomic load observes false", observed_false);
               ])
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Writes                                                              *)
(* ------------------------------------------------------------------ *)

let write_loc =
  mk ~heads:[ "write-loc" ] "WRITE-LOC" 10 (fun ri j ->
      match j with
      | FWriteLoc ({ loc_term; layout; atomic; v; vty; cont; src } as r) -> (
          match ri.E.ri_peek (fun a -> covers ri.E.ri_env loc_term a) with
          | Some _ ->
              Some
                (G.Find
                   {
                     descr = (fun () -> Fmt.str "%a ◁ₗ ?" pp_term loc_term);
                     pred =
                       (fun resolve a ->
                         covers ri.E.ri_env (Simp.simp_term (resolve loc_term)) a);
                     cont =
                       (fun a ->
                         match a with
                         | LocTy (sub_l, ty) ->
                             G.Basic
                               (FWriteTy
                                  {
                                    loc_term; sub_l; ty; layout; atomic; v;
                                    vty; cont; src;
                                  })
                         | ValTy _ -> assert false);
                   })
          | None ->
              unpack_packed_at ri (loc_base loc_term)
                (G.Basic (FWriteLoc r)))
      | _ -> None)

let write_unpack =
  mk ~heads:[ "write" ] "WRITE-UNPACK" 15 (fun _ri j ->
      match j with
      | FWriteTy ({ ty = TExists (x, s, f); _ } as r) ->
          Some
            (G.All (x, s, fun t -> G.Basic (FWriteTy { r with ty = f t })))
      | FWriteTy ({ ty = TConstr (t, phi); _ } as r) ->
          Some (G.Wand (G.LProp phi, G.Basic (FWriteTy { r with ty = t })))
      | _ -> None)

(* WRITE-UNFOLD / WRITE-DECOMPOSE: mirror the read side. *)
let write_unfold =
  mk ~heads:[ "write" ] "WRITE-UNFOLD" 16 (fun ri j ->
      match j with
      | FWriteTy ({ loc_term; sub_l; ty = TNamed (n, args); layout; _ } as r)
        when (not (is_ptr_layout layout)) || not (equal_term loc_term sub_l)
        -> (
          match unfold_named ri.E.ri_env n args with
          | Some body -> Some (G.Basic (FWriteTy { r with ty = body }))
          | None -> None)
      | _ -> None)

let write_decompose =
  mk ~heads:[ "write" ] "WRITE-DECOMPOSE" 17 (fun ri j ->
      match j with
      | FWriteTy
          { loc_term; sub_l; ty = (TStruct _ | TPadded _) as ty; layout;
            atomic; v; vty; cont; src } ->
          Some
            (G.Wand
               ( intro_loc ri.E.ri_env sub_l ty,
                 G.Basic
                   (FWriteLoc { loc_term; layout; atomic; v; vty; cont; src })
               ))
      | _ -> None)


(* WRITE-SCALAR: strong update of a scalar place (int, bool, pointer,
   packed optional/named value).  The new place type is the stored
   value's type, with packed ownership left in the value atom. *)
let write_scalar =
  mk ~heads:[ "write" ] "WRITE-SCALAR" 20 (fun _ri j ->
      match j with
      | FWriteTy
          { loc_term; sub_l;
            ty = TInt _ | TBool _ | TPtrV _ | TNull | TAnyInt _
               | TOptional _ | TNamed _ | TFnPtr _;
            layout; atomic = false; v; vty; cont; _ }
        when equal_term loc_term sub_l -> (
          match layout_of_scalar vty with
          | Some lv when Layout.size lv = Layout.size layout ->
              Some
                (G.Wand (G.LAtom (LocTy (sub_l, place_type v vty)), cont))
          | _ -> None)
      | _ -> None)

(* WRITE-UNINIT: initialize a prefix of an uninitialized block; the
   complement (on either side) stays uninitialized.  Together with O-ADD
   this is the write-side of O-ADD-UNINIT (Figure 6). *)
let write_uninit =
  mk ~heads:[ "write" ] "WRITE-UNINIT" 21 (fun _ri j ->
      match j with
      | FWriteTy
          { loc_term; sub_l; ty = TUninit m; layout; atomic = false; v; vty;
            cont; _ } -> (
          match offset_between ~from_:sub_l loc_term with
          | Some k ->
              let sz = Layout.size layout in
              let open G in
              let after_ofs = Simp.simp_term (LocOfs (sub_l, Add (k, Num sz))) in
              let rest = Simp.simp_term (Sub (Sub (m, k), Num sz)) in
              Some
                (Star
                   ( LProp (PLe (Num 0, k)),
                     Star
                       ( LProp (PLe (Add (k, Num sz), m)),
                         wands
                           [
                             luninit sub_l k;
                             LAtom (LocTy (loc_term, place_type v vty));
                             luninit after_ofs rest;
                           ]
                           cont ) ))
          | None -> None)
      | _ -> None)

(* WRITE-ARRAY: strong update of one cell; the list refinement gains a
   list update. *)
let write_array =
  mk ~heads:[ "write" ] "WRITE-ARRAY" 22 (fun _ri j ->
      match j with
      | FWriteTy
          { loc_term; sub_l; ty = TArrayInt (it, len, xs);
            layout = Layout.Int it'; atomic = false; v = _; vty; cont; _ }
        when Int_type.equal it it' -> (
          match offset_between ~from_:sub_l loc_term with
          | Some off -> (
              match index_of_offset ~sz:it.Int_type.size off with
              | Some i -> (
                  match vty with
                  | TInt (itv, m) when Int_type.equal itv it ->
                      let xs' = SetListInsert (i, m, xs) in
                      Some
                        (G.Star
                           ( G.LProp (PAnd (PLe (Num 0, i), PLt (i, len))),
                             G.Wand
                               ( G.LAtom
                                   (LocTy (sub_l, TArrayInt (it, len, xs'))),
                                 cont ) ))
                  | _ -> None)
              | None -> None)
          | None -> None)
      | _ -> None)

(* WRITE-ATOMIC-BOOL: a release store of a constant boolean transfers the
   corresponding resource into the atomic cell (§6: the spinlock release
   stores false, giving H back). *)
let write_atomic_bool =
  mk ~heads:[ "write" ] "WRITE-ATOMIC-BOOL" 23 (fun ri j ->
      match j with
      | FWriteTy
          { loc_term; sub_l; ty = TAtomicBool (it, _phi, ht, hf);
            layout = Layout.Int it'; atomic = true; v = _; vty; cont; _ }
        when Int_type.equal it it' && equal_term loc_term sub_l ->
          let store_branch desired_prop =
            let provide = if desired_prop then ht else hf in
            let newty = TAtomicBool (it, (if desired_prop then PTrue else PFalse), ht, hf) in
            require_hres_list ri.E.ri_env provide
              (G.Wand (G.LAtom (LocTy (sub_l, newty)), cont))
          in
          (match vty with
          | TBool (_, PTrue) | TInt (_, Num 1) -> Some (store_branch true)
          | TBool (_, PFalse) | TInt (_, Num 0) -> Some (store_branch false)
          | TBool (_, psi) ->
              Some
                (G.AndG
                   [
                     ( Some "atomic store of true",
                       G.Wand (G.LProp psi, store_branch true) );
                     ( Some "atomic store of false",
                       G.Wand (G.LProp (PNot psi), store_branch false) );
                   ])
          | _ -> None)
      | _ -> None)

let all : E.rule list =
  [
    read_loc;
    read_unpack;
    read_unfold;
    read_decompose;
    read_int;
    read_bool;
    read_ptr;
    read_packed;
    read_array;
    read_atomic_bool;
    write_loc;
    write_unpack;
    write_unfold;
    write_decompose;
    write_scalar;
    write_uninit;
    write_array;
    write_atomic_bool;
  ]
