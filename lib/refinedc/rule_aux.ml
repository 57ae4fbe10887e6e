(** Shared helpers for the typing-rule library. *)

open Rc_pure
open Rc_pure.Term
module G = Rc_lithium.Goal
module Layout = Rc_caesium.Layout
module Int_type = Rc_caesium.Int_type
open Rtype
open Lang

type ri = Lang.E.rule_input

(** Value sort for a fresh value of this type. *)
let rec value_sort = function
  | TInt _ | TBool _ | TAnyInt _ -> Sort.Int
  | TNull | TPtrV _ | TOwn _ | TOptional _ | TNamed _ -> Sort.Loc
  | TConstr (t, _) -> value_sort t
  | TExists (x, s, f) -> value_sort (f (Var (x, s)))
  | _ -> Sort.Loc

(** Boolean value term: booleans are represented by the integer 1/0
    reflecting the proposition. *)
let bool_term (phi : prop) = Ite (phi, Num 1, Num 0)

(** Normalize a value's type for storage at a scalar place: packed
    ownership stays in Δ as a value atom, the place remembers only which
    value it stores. *)
let place_type (v : term) (vty : rtype) : rtype =
  match vty with
  | TInt _ | TBool _ | TAnyInt _ | TNull | TPtrV _ -> vty
  | TOwn (Some l, _) -> TPtrV l
  | TOwn (None, _) -> TPtrV v
  | TOptional _ | TNamed _ | TFnPtr _ | TWand _ -> TPtrV v
  | _ -> TPtrV v

(** Symbolic offset from [from_] to [l] when both share a base location
    (nested offsets are flattened by the simplifier, so at most one
    [LocOfs] layer occurs). *)
let offset_between ~(from_ : term) (l : term) : term option =
  if equal_term from_ l then Some (Num 0)
  else
    let split = function LocOfs (b, o) -> (b, Some o) | b -> (b, None) in
    let base_f, off_f = split from_ and base_l, off_l = split l in
    if equal_term base_f base_l then
      match (off_f, off_l) with
      | None, Some o -> Some (Simp.simp_term o)
      | Some o1, Some o2 -> Some (Simp.simp_term (Sub (o2, o1)))
      | Some o1, None -> Some (Simp.simp_term (Sub (Num 0, o1)))
      | None, None -> Some (Num 0)
    else None

(** Extract an array index from a byte offset produced by pointer
    arithmetic with element size [sz]: [i * sz] or a literal multiple. *)
let index_of_offset ~(sz : int) (off : term) : term option =
  match Simp.simp_term off with
  | Num k when k mod sz = 0 -> Some (Num (k / sz))
  | Mul (Num k, i) when k = sz -> Some i
  | Mul (i, Num k) when k = sz -> Some i
  | off when sz = 1 -> Some off
  | _ -> None

(** The layout a scalar rtype is stored at, when determined. *)
let layout_of_scalar = function
  | TInt (it, _) | TBool (it, _) | TAnyInt it -> Some (Layout.Int it)
  | TNull | TPtrV _ | TOwn _ | TOptional _ | TNamed _ -> Some Layout.Ptr
  | TFnPtr _ -> Some Layout.FnPtr
  | _ -> None

let is_ptr_layout = function
  | Layout.Ptr | Layout.FnPtr -> true
  | _ -> false

(** [size_matches layout ty]: side condition that [ty] occupies exactly
    the bytes of [layout] (used by read/write rules). *)
let size_matches (te : tenv) (layout : Layout.t) (ty : rtype) : prop =
  match ty_size te ty with
  | Some sz -> PEq (sz, Num (Layout.size layout))
  | None -> PFalse

(** An [uninit<n>] atom, suppressed when [n] is literally zero (zero-size
    atoms would shadow the real atom for the same location). *)
let luninit (l : Rc_pure.Term.term) (n : Rc_pure.Term.term) :
    (Lang.f, Rtype.atom) G.left =
  match Rc_pure.Simp.simp_term n with
  | Num 0 -> G.LTrue
  | n -> G.LAtom (Rtype.LocTy (l, Rtype.TUninit n))

(** Fresh value variable for reads/calls. *)
let fresh_val (ri : ri) ?(hint = "v") (s : Sort.t) : term =
  ri.Lang.E.ri_fresh ~hint s

(* ------------------------------------------------------------------ *)
(* Null-testing a pointer value (the engine of O-OPTIONAL-EQ, §6)      *)
(* ------------------------------------------------------------------ *)

(** [optional_cases ri v ty ~on_own ~on_null] builds the premise of every
    rule that branches on whether pointer value [v] is NULL:

    - if Δ holds packed conditional ownership [v ◁ᵥ φ @ optional<τ₁,τ₂>]
      (directly or behind a named type), consume it and fork: the φ case
      learns [v ◁ᵥ τ₁] (decomposed into Δ), the ¬φ case learns [v = NULL];
    - if the context already proves [v ≠ NULL] (definite own pointer) or
      [v = NULL], pick the corresponding case outright — the choices are
      equivalent, so this does not compromise the no-backtracking
      discipline.

    Returns [None] when nullness cannot be decided (a genuine type
    error). *)
let optional_cases (ri : ri) (v : Rc_pure.Term.term) (ty : Rtype.rtype)
    ~(on_own : unit -> Lang.goal) ~(on_null : unit -> Lang.goal) :
    Lang.goal option =
  let open Rtype in
  let te = ri.Lang.E.ri_env in
  let rec unfold_to_opt t =
    match t with
    | TOptional (phi, t1, t2) -> Some (phi, t1, t2)
    | TNamed (n, args) -> Option.bind (unfold_named te n args) unfold_to_opt
    | TConstr (t, _) -> unfold_to_opt t
    | _ -> None
  in
  let is_packed = function
    | ValTy (w, (TOptional _ | TNamed _)) -> equal_term w v
    | _ -> false
  in
  match ty with
  | TNull -> Some (on_null ())
  | _ when ri.Lang.E.ri_peek is_packed <> None ->
      Some
        (G.Find
           {
             descr = (fun () -> Fmt.str "%a ◁ᵥ optional" Rc_pure.Term.pp_term v);
             pred = (fun _resolve a -> is_packed a);
             cont =
               (fun a ->
                 match a with
                 | ValTy (_, pty) -> (
                     match unfold_to_opt pty with
                     | Some (phi, t1, t2) ->
                         G.AndG
                           [
                             ( Some "case: the pointer is owned (non-NULL)",
                               G.Wand
                                 ( G.LProp phi,
                                   G.Wand (Convert.intro_val te v t1, on_own ())
                                 ) );
                             ( Some "case: the pointer is NULL",
                               G.Wand
                                 ( G.LProp (PNot phi),
                                   G.Wand (Convert.intro_val te v t2, on_null ())
                                 ) );
                           ]
                     | None ->
                         (* packed but not an optional: no case split *)
                         G.Wand (G.LAtom a, on_own ()))
                 | LocTy _ -> assert false);
           })
  | TPtrV l ->
      if ri.Lang.E.ri_prove (p_ne l NullLoc) then Some (on_own ())
      else if ri.Lang.E.ri_prove (PEq (l, NullLoc)) then Some (on_null ())
      else None
  | _ -> None
