(** RefinedC types (§4, Figure 4).

    Every type can carry a *refinement* — a pure term or proposition that
    limits its values.  We normalize aggressively: integers and booleans
    are always refined (an unrefined [int<it>] is parsed as
    [∃n. n @ int<it>]), and ownership follows a canonical discipline
    (see {!Convert}): the ownership of definite [&own] pointers lives in
    location atoms [ℓ ◁ₗ τ], while pointer *values* get the thin
    singleton type {!TPtrV}.  Conditional ownership ([optional]) stays
    packed in the atom until a typing rule (e.g. O-OPTIONAL-EQ) splits
    it. *)

open Rc_pure
open Rc_pure.Term
module Layout = Rc_caesium.Layout
module Int_type = Rc_caesium.Int_type

type rtype =
  | TInt of Int_type.t * term  (** n @ int<it> *)
  | TBool of Int_type.t * prop  (** φ @ bool, stored in an integer type *)
  | TNull  (** singleton type of NULL *)
  | TPtrV of term  (** singleton: "this value is address ℓ" (thin, no
                       ownership; the ownership is a [ℓ ◁ₗ τ] atom) *)
  | TOwn of term option * rtype  (** [ℓ @] &own<τ> — as a *spec* type;
                                     introduced/eliminated by {!Convert} *)
  | TOptional of prop * rtype * rtype  (** φ @ optional<τ₁, τ₂> *)
  | TUninit of term  (** uninit<n>: n uninitialized bytes *)
  | TAnyInt of Int_type.t  (** an initialized integer, value irrelevant *)
  | TStruct of Layout.struct_layout * rtype list
  | TArrayInt of Int_type.t * term * term
      (** [TArrayInt (it, len, xs)]: an array of [len] integers of type
          [it] whose values are the list [xs] (cell i has type
          [(xs !! i) @ int<it>]) *)
  | TWand of atom * rtype  (** wand<H, τ>: τ with hole H (Figure 4) *)
  | TExists of string * Sort.t * (term -> rtype)  (** ∃x. τ(x) *)
  | TConstr of rtype * prop  (** { τ | φ } *)
  | TPadded of rtype * term  (** padded(τ, n): τ padded to n bytes *)
  | TNamed of string * term list
      (** user-defined (possibly recursive) type applied to arguments;
          the last argument is by convention the refinement *)
  | TFnPtr of fn_spec  (** first-class function type *)
  | TAtomicBool of Int_type.t * prop * hres list * hres list
      (** atomicbool(H⊤, H⊥) refined by φ (the current abstract state):
          holds H⊤ if the stored integer is 1, H⊥ if 0 (§6) *)
  | TManaged of int
      (** [n] bytes whose ownership is managed elsewhere (by a lock
          invariant): occupies space but contributes no resources *)

and atom =
  | LocTy of term * rtype  (** ℓ ◁ₗ τ *)
  | ValTy of term * rtype  (** v ◁ᵥ τ *)

and hres = HAtom of atom | HProp of prop
    (** a resource in a precondition/postcondition/lock invariant *)

and fn_spec = {
  fs_name : string;
  fs_params : (string * Sort.t) list;  (** rc::parameters *)
  fs_args : rtype list;  (** rc::args *)
  fs_pre : hres list;  (** rc::requires *)
  fs_exists : (string * Sort.t) list;  (** rc::exists (in the post) *)
  fs_ret : rtype;  (** rc::returns *)
  fs_post : hres list;  (** rc::ensures *)
  fs_tactics : string list;  (** rc::tactics *)
  fs_loc : Rc_util.Srcloc.t option;
}

(* ------------------------------------------------------------------ *)
(* Type definitions (rc::refined_by / rc::ptr_type / …)                *)
(* ------------------------------------------------------------------ *)

type type_def = {
  td_name : string;
  td_params : (string * Sort.t) list;
      (** includes the refinement parameter(s), in application order *)
  td_unfold : term list -> rtype;
  td_layout : Layout.t option;  (** layout of the unfolded type, if fixed *)
}

(** The named-type environment: every [rc::refined_by]-style definition
    visible to one verification session.  Built while elaborating (or by
    a case study's OCaml companion) and read-only during checking, so a
    session can be shared across checker domains; two sessions have two
    environments, never a common global table. *)
type tenv = (string, type_def) Hashtbl.t

let create_tenv () : tenv = Hashtbl.create 16

let register_type_def (te : tenv) td = Hashtbl.replace te td.td_name td
let find_type_def (te : tenv) name = Hashtbl.find_opt te name

let unfold_named (te : tenv) name args =
  match find_type_def te name with
  | Some td -> Some (td.td_unfold args)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Misc helpers                                                        *)
(* ------------------------------------------------------------------ *)

(** Existential integer: [∃n. n @ int<it>] — the unrefined [int<it>]. *)
let t_int_ex it = TExists ("n", Sort.Int, fun n -> TInt (it, n))

(** The "return type" of void functions: zero bytes. *)
let t_void = TUninit (Num 0)

(** Pure facts implied by owning a value of this type, e.g. integer-range
    bounds (these feed the arithmetic side conditions, like the paper's
    int-bounds facts). *)
let rec implied_props (v : term) (ty : rtype) : prop list =
  match ty with
  | TInt (it, n) ->
      [
        PEq (v, n);
        PLe (Num (Int_type.min_val it), n);
        PLe (n, Num (Int_type.max_val it));
      ]
  | TBool (_, _) -> []
  | TNull -> [ PEq (v, NullLoc) ]
  | TPtrV l -> [ PEq (v, l); p_ne l NullLoc ]
  | TConstr (t, phi) -> phi :: implied_props v t
  | _ -> []

(** Size in bytes of the values inhabiting a type, when determined. *)
let rec ty_size (te : tenv) (ty : rtype) : term option =
  match ty with
  | TInt (it, _) | TBool (it, _) | TAnyInt it | TAtomicBool (it, _, _, _) ->
      Some (Num it.Int_type.size)
  | TNull | TPtrV _ | TOwn _ | TOptional _ | TFnPtr _ -> Some (Num 8)
  | TUninit n -> Some n
  | TManaged n -> Some (Num n)
  | TStruct (sl, _) -> Some (Num sl.Layout.sl_size)
  | TArrayInt (it, len, _) -> Some (Mul (Num it.Int_type.size, len))
  | TConstr (t, _) -> ty_size te t
  | TPadded (_, n) -> Some n
  | TWand (_, t) -> ty_size te t
  | TExists _ -> None
  | TNamed (name, _) -> (
      match find_type_def te name with
      | Some { td_layout = Some l; _ } -> Some (Num (Layout.size l))
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Substitution (specs mention parameters that calls instantiate)      *)
(* ------------------------------------------------------------------ *)

let rec subst_rtype (env : (string * term) list) (ty : rtype) : rtype =
  let s = subst_term env in
  let sp = subst_prop env in
  match ty with
  | TInt (it, n) -> TInt (it, s n)
  | TBool (it, p) -> TBool (it, sp p)
  | TNull -> TNull
  | TPtrV l -> TPtrV (s l)
  | TOwn (l, t) -> TOwn (Option.map s l, subst_rtype env t)
  | TOptional (p, t1, t2) ->
      TOptional (sp p, subst_rtype env t1, subst_rtype env t2)
  | TUninit n -> TUninit (s n)
  | TManaged n -> TManaged n
  | TAnyInt it -> TAnyInt it
  | TStruct (sl, ts) -> TStruct (sl, List.map (subst_rtype env) ts)
  | TArrayInt (it, len, xs) -> TArrayInt (it, s len, s xs)
  | TWand (a, t) -> TWand (subst_atom env a, subst_rtype env t)
  | TExists (x, so, f) ->
      let env = List.filter (fun (y, _) -> y <> x) env in
      TExists (x, so, fun t -> subst_rtype env (f t))
  | TConstr (t, p) -> TConstr (subst_rtype env t, sp p)
  | TPadded (t, n) -> TPadded (subst_rtype env t, s n)
  | TNamed (n, args) -> TNamed (n, List.map s args)
  | TFnPtr spec -> TFnPtr (subst_spec env spec)
  | TAtomicBool (it, p, ht, hf) ->
      TAtomicBool (it, sp p, List.map (subst_hres env) ht,
                   List.map (subst_hres env) hf)

and subst_atom env = function
  | LocTy (l, t) -> LocTy (subst_term env l, subst_rtype env t)
  | ValTy (v, t) -> ValTy (subst_term env v, subst_rtype env t)

and subst_hres env = function
  | HAtom a -> HAtom (subst_atom env a)
  | HProp p -> HProp (subst_prop env p)

and subst_spec env (spec : fn_spec) : fn_spec =
  let env =
    List.filter (fun (y, _) -> not (List.mem_assoc y spec.fs_params)) env
  in
  {
    spec with
    fs_args = List.map (subst_rtype env) spec.fs_args;
    fs_pre = List.map (subst_hres env) spec.fs_pre;
    fs_ret =
      (let env' =
         List.filter
           (fun (y, _) -> not (List.mem_assoc y spec.fs_exists))
           env
       in
       subst_rtype env' spec.fs_ret);
    fs_post =
      (let env' =
         List.filter
           (fun (y, _) -> not (List.mem_assoc y spec.fs_exists))
           env
       in
       List.map (subst_hres env') spec.fs_post);
  }

(* ------------------------------------------------------------------ *)
(* Resolution of evars inside types                                    *)
(* ------------------------------------------------------------------ *)

let rec resolve_rtype (r : term -> term) (ty : rtype) : rtype =
  let rp p = map_prop r p in
  match ty with
  | TInt (it, n) -> TInt (it, r n)
  | TBool (it, p) -> TBool (it, rp p)
  | TNull -> TNull
  | TPtrV l -> TPtrV (r l)
  | TOwn (l, t) -> TOwn (Option.map r l, resolve_rtype r t)
  | TOptional (p, t1, t2) -> TOptional (rp p, resolve_rtype r t1, resolve_rtype r t2)
  | TUninit n -> TUninit (r n)
  | TManaged n -> TManaged n
  | TAnyInt it -> TAnyInt it
  | TStruct (sl, ts) -> TStruct (sl, List.map (resolve_rtype r) ts)
  | TArrayInt (it, len, xs) -> TArrayInt (it, r len, r xs)
  | TWand (a, t) -> TWand (resolve_atom r a, resolve_rtype r t)
  | TExists (x, so, f) -> TExists (x, so, fun t -> resolve_rtype r (f t))
  | TConstr (t, p) -> TConstr (resolve_rtype r t, rp p)
  | TPadded (t, n) -> TPadded (resolve_rtype r t, r n)
  | TNamed (n, args) -> TNamed (n, List.map r args)
  | TFnPtr spec -> TFnPtr spec
  | TAtomicBool (it, p, ht, hf) ->
      TAtomicBool (it, rp p, List.map (resolve_hres r) ht,
                   List.map (resolve_hres r) hf)

and resolve_atom r = function
  | LocTy (l, t) -> LocTy (Simp.simp_term (r l), resolve_rtype r t)
  | ValTy (v, t) -> ValTy (Simp.simp_term (r v), resolve_rtype r t)

and resolve_hres r = function
  | HAtom a -> HAtom (resolve_atom r a)
  | HProp p -> HProp (map_prop r p)

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

let rec pp_rtype ppf (ty : rtype) =
  let p fmt = Fmt.pf ppf fmt in
  match ty with
  | TInt (it, n) -> p "%a @@ int<%a>" pp_term n Int_type.pp it
  | TBool (_, q) -> p "{%a} @@ bool" pp_prop q
  | TNull -> p "null"
  | TPtrV l -> p "%a @@ ptr" pp_term l
  | TOwn (Some l, t) -> p "%a @@ &own<%a>" pp_term l pp_rtype t
  | TOwn (None, t) -> p "&own<%a>" pp_rtype t
  | TOptional (q, t1, t2) ->
      p "{%a} @@ optional<%a, %a>" pp_prop q pp_rtype t1 pp_rtype t2
  | TUninit n -> p "uninit<%a>" pp_term n
  | TManaged n -> p "managed<%d>" n
  | TAnyInt it -> p "any_int<%a>" Int_type.pp it
  | TStruct (sl, ts) ->
      p "struct %s<%a>" sl.Layout.sl_name Fmt.(list ~sep:comma pp_rtype) ts
  | TArrayInt (it, len, xs) ->
      p "array<int<%a>, %a, %a>" Int_type.pp it pp_term len pp_term xs
  | TWand (a, t) -> p "wand<{%a}, %a>" pp_atom a pp_rtype t
  | TExists (x, s, f) ->
      p "∃%s:%a. %a" x Sort.pp s pp_rtype (f (Var (x, s)))
  | TConstr (t, q) -> p "{%a | %a}" pp_rtype t pp_prop q
  | TPadded (t, n) -> p "padded<%a, %a>" pp_rtype t pp_term n
  | TNamed (n, args) -> (
      match List.rev args with
      | [] -> p "%s" n
      | r :: _ -> p "%a @@ %s" pp_term r n)
  | TFnPtr spec -> p "fn<%s>" spec.fs_name
  | TAtomicBool (_, q, _, _) -> p "{%a} @@ atomicbool" pp_prop q

and pp_atom ppf = function
  | LocTy (l, t) -> Fmt.pf ppf "%a ◁ₗ %a" pp_term l pp_rtype t
  | ValTy (v, t) -> Fmt.pf ppf "%a ◁ᵥ %a" pp_term v pp_rtype t

let pp_hres ppf = function
  | HAtom a -> pp_atom ppf a
  | HProp p -> Fmt.pf ppf "⌜%a⌝" pp_prop p

let rtype_to_string t = Fmt.str "%a" pp_rtype t

(* [pp_rtype]/[pp_atom]/[pp_hres]'s text, written into a signature
   buffer: the cache keys digest it, so it must stay byte-for-byte what
   the [Fmt] printers above print (see {!Rc_util.Breakbuf}). *)
module B = Rc_util.Breakbuf

let rec add_rtype b (ty : rtype) =
  match ty with
  | TInt (it, n) ->
      add_term b n;
      B.add_string b " @ int<";
      B.add_string b it.Int_type.it_name;
      B.add_char b '>'
  | TBool (_, q) ->
      B.add_char b '{';
      add_prop b q;
      B.add_string b "} @ bool"
  | TNull -> B.add_string b "null"
  | TPtrV l ->
      add_term b l;
      B.add_string b " @ ptr"
  | TOwn (Some l, t) ->
      add_term b l;
      B.add_string b " @ &own<";
      add_rtype b t;
      B.add_char b '>'
  | TOwn (None, t) ->
      B.add_string b "&own<";
      add_rtype b t;
      B.add_char b '>'
  | TOptional (q, t1, t2) ->
      B.add_char b '{';
      add_prop b q;
      B.add_string b "} @ optional<";
      add_rtype b t1;
      B.add_string b ", ";
      add_rtype b t2;
      B.add_char b '>'
  | TUninit n ->
      B.add_string b "uninit<";
      add_term b n;
      B.add_char b '>'
  | TManaged n ->
      B.add_string b "managed<";
      B.add_int b n;
      B.add_char b '>'
  | TAnyInt it ->
      B.add_string b "any_int<";
      B.add_string b it.Int_type.it_name;
      B.add_char b '>'
  | TStruct (sl, ts) ->
      B.add_string b "struct ";
      B.add_string b sl.Layout.sl_name;
      B.add_char b '<';
      B.list b ~sep:"," add_rtype ts;
      B.add_char b '>'
  | TArrayInt (it, len, xs) ->
      B.add_string b "array<int<";
      B.add_string b it.Int_type.it_name;
      B.add_string b ">, ";
      add_term b len;
      B.add_string b ", ";
      add_term b xs;
      B.add_char b '>'
  | TWand (a, t) ->
      B.add_string b "wand<{";
      add_atom b a;
      B.add_string b "}, ";
      add_rtype b t;
      B.add_char b '>'
  | TExists (x, s, f) ->
      B.add_string b "∃";
      B.add_string b x;
      B.add_char b ':';
      Sort.add b s;
      B.add_string b ". ";
      add_rtype b (f (Var (x, s)))
  | TConstr (t, q) ->
      B.add_char b '{';
      add_rtype b t;
      B.add_string b " | ";
      add_prop b q;
      B.add_char b '}'
  | TPadded (t, n) ->
      B.add_string b "padded<";
      add_rtype b t;
      B.add_string b ", ";
      add_term b n;
      B.add_char b '>'
  | TNamed (n, args) -> (
      match List.rev args with
      | [] -> B.add_string b n
      | r :: _ ->
          add_term b r;
          B.add_string b " @ ";
          B.add_string b n)
  | TFnPtr spec ->
      B.add_string b "fn<";
      B.add_string b spec.fs_name;
      B.add_char b '>'
  | TAtomicBool (_, q, _, _) ->
      B.add_char b '{';
      add_prop b q;
      B.add_string b "} @ atomicbool"

and add_atom b = function
  | LocTy (l, t) ->
      add_term b l;
      B.add_string b " ◁ₗ ";
      add_rtype b t
  | ValTy (v, t) ->
      add_term b v;
      B.add_string b " ◁ᵥ ";
      add_rtype b t

let add_hres b = function
  | HAtom a -> add_atom b a
  | HProp p ->
      B.add_string b "⌜";
      add_prop b p;
      B.add_string b "⌝"

(** ["x:sort"], as the signatures print a binder *)
let add_binder b (x, srt) =
  B.add_string b x;
  B.add_char b ':';
  Sort.add b srt

(** A deterministic printed form of a function specification covering
    every field that can influence a check (the source location is
    deliberately excluded — it moves with unrelated edits and affects
    only diagnostics).  Used as a component of the verification-cache
    key, so it must change whenever the spec meaningfully changes.  Its
    bytes are the [Fmt.str] rendering of
    ["%s|params:%a|args:%a|pre:%a|exists:%a|ret:%a|post:%a|tactics:%s"]
    with [Fmt.comma]-separated lists, line breaks included (pinned by
    "golden spec and invariant signatures" in test_refinedc). *)
let spec_signature (s : fn_spec) : string =
  let b = B.create 256 in
  B.add_string b s.fs_name;
  B.add_string b "|params:";
  B.list b ~sep:"," add_binder s.fs_params;
  B.add_string b "|args:";
  B.list b ~sep:"," add_rtype s.fs_args;
  B.add_string b "|pre:";
  B.list b ~sep:"," add_hres s.fs_pre;
  B.add_string b "|exists:";
  B.list b ~sep:"," add_binder s.fs_exists;
  B.add_string b "|ret:";
  add_rtype b s.fs_ret;
  B.add_string b "|post:";
  B.list b ~sep:"," add_hres s.fs_post;
  B.add_string b "|tactics:";
  List.iteri
    (fun i t ->
      if i > 0 then B.add_char b ',';
      B.add_string b t)
    s.fs_tactics;
  B.contents b

(* ------------------------------------------------------------------ *)
(* Atom subjects and relatedness (engine plumbing)                     *)
(* ------------------------------------------------------------------ *)

let subject = function LocTy (l, _) -> l | ValTy (v, _) -> v

(** Base location of a (possibly offset) location term. *)
let rec loc_base (l : term) : term =
  match l with LocOfs (l', _) -> loc_base l' | _ -> l

(* ------------------------------------------------------------------ *)
(* Structural type equivalence, as side conditions                      *)
(* ------------------------------------------------------------------ *)

(** [ty_equiv_side τ τ'] produces the pure side conditions under which the
    two types denote the same predicate (used where subsumption must be
    resource-free, e.g. under an unresolved [optional] or in a magic
    wand's conclusion).  [None] if the shapes differ. *)
let rec ty_equiv_side (a : rtype) (b : rtype) : prop list option =
  let ( let* ) = Option.bind in
  match (a, b) with
  | TInt (it1, n), TInt (it2, m) when Int_type.equal it1 it2 ->
      Some [ PEq (n, m) ]
  | TBool (it1, p), TBool (it2, q) when Int_type.equal it1 it2 ->
      Some [ PAnd (PImp (p, q), PImp (q, p)) ]
  | TNull, TNull -> Some []
  | TPtrV l1, TPtrV l2 -> Some [ PEq (l1, l2) ]
  | TUninit n, TUninit m -> Some [ PEq (n, m) ]
  | TManaged n, TManaged m when n = m -> Some []
  | TAnyInt it1, TAnyInt it2 when Int_type.equal it1 it2 -> Some []
  | TOwn (l1, t1), TOwn (l2, t2) ->
      let* rest = ty_equiv_side t1 t2 in
      let locs =
        match (l1, l2) with Some x, Some y -> [ PEq (x, y) ] | _ -> []
      in
      Some (locs @ rest)
  | TOptional (p, t1, t2), TOptional (q, u1, u2) ->
      let* s1 = ty_equiv_side t1 u1 in
      let* s2 = ty_equiv_side t2 u2 in
      Some (PAnd (PImp (p, q), PImp (q, p)) :: (s1 @ s2))
  | TNamed (n, args), TNamed (m, args')
    when n = m && List.length args = List.length args' ->
      Some (List.map2 (fun x y -> PEq (x, y)) args args')
  | TArrayInt (it1, l1, xs1), TArrayInt (it2, l2, xs2)
    when Int_type.equal it1 it2 ->
      Some [ PEq (l1, l2); PEq (xs1, xs2) ]
  | TStruct (sl1, ts1), TStruct (sl2, ts2)
    when sl1.Layout.sl_name = sl2.Layout.sl_name
         && List.length ts1 = List.length ts2 ->
      List.fold_left2
        (fun acc t1 t2 ->
          let* acc = acc in
          let* s = ty_equiv_side t1 t2 in
          Some (acc @ s))
        (Some []) ts1 ts2
  | TPadded (t1, n), TPadded (t2, m) ->
      let* s = ty_equiv_side t1 t2 in
      Some (PEq (n, m) :: s)
  | TConstr (t1, p), TConstr (t2, q) ->
      let* s = ty_equiv_side t1 t2 in
      Some (PAnd (PImp (p, q), PImp (q, p)) :: s)
  | TConstr (t1, p), t2 ->
      let* s = ty_equiv_side t1 t2 in
      Some (p :: s)
  | t1, TConstr (t2, p) ->
      let* s = ty_equiv_side t1 t2 in
      Some (p :: s)
  | TExists (x, s1, f), TExists (_, s2, g) when Sort.equal s1 s2 ->
      let v = Var (x ^ "!eq", s1) in
      ty_equiv_side (f v) (g v)
  | TWand (h1, o1), TWand (h2, o2) ->
      let* sh = atom_equiv_side h1 h2 in
      let* so = ty_equiv_side o1 o2 in
      Some (sh @ so)
  | TFnPtr s1, TFnPtr s2 when s1.fs_name = s2.fs_name -> Some []
  | _ -> None

and atom_equiv_side a b =
  let ( let* ) = Option.bind in
  match (a, b) with
  | LocTy (l1, t1), LocTy (l2, t2) | ValTy (l1, t1), ValTy (l2, t2) ->
      let* s = ty_equiv_side t1 t2 in
      Some (PEq (l1, l2) :: s)
  | _ -> None

(** Relatedness for Lithium's goal case (6d).  [exact]: same subject
    (syntactically — §9 discusses this design point).  Weak pass: a goal
    atom demanding [uninit] bytes may also match a context atom with the
    same *base* location, which is how the O-ADD-UNINIT-style ownership
    splitting of §6 is triggered. *)
let related ~exact (in_ctx : atom) (goal_a : atom) : bool =
  match (in_ctx, goal_a) with
  | LocTy (l1, t1), LocTy (l2, t2) ->
      if exact then equal_term l1 l2
      else (
        match (t1, t2) with
        | (TUninit _ | TPadded _), TUninit _ ->
            equal_term (loc_base l1) (loc_base l2)
        | _ -> false)
  | ValTy (v1, _), ValTy (v2, _) -> exact && equal_term v1 v2
  | _ -> false
