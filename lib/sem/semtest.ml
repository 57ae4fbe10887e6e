(** Semantic-soundness testing: the executable face of the paper's
    foundational claim.

    The paper proves, in Iris, that well-typed programs have no undefined
    behaviour.  We cannot re-run Coq proofs, but Caesium here is an
    *executable* semantics, so the claim becomes testable: for a function
    that type-checked against its specification, sample concrete
    arguments that inhabit the argument types (interpreting the
    refinement types as value/heap generators), run the function in the
    UB-detecting interpreter, and require that it never reports undefined
    behaviour.  Combined with the certificate checker, this is this
    reproduction's substitute for the Coq adequacy theorem (see
    DESIGN.md). *)

open Rc_pure
open Rc_pure.Term
open Rc_refinedc.Rtype
module Caesium = Rc_caesium
module Heap = Rc_caesium.Heap
module Value = Rc_caesium.Value
module Loc = Rc_caesium.Loc
module Int_type = Rc_caesium.Int_type
module Layout = Rc_caesium.Layout

type conc =
  | CInt of int
  | CLoc of Loc.t
  | CList of int list
  | CSet of int list  (** sorted, distinct *)
  | CMset of int list  (** sorted *)
  | CBool of bool

type valuation = (string * conc) list ref

exception Cannot_generate of string

let cannot fmt = Fmt.kstr (fun s -> raise (Cannot_generate s)) fmt

(* ------------------------------------------------------------------ *)
(* Term evaluation under a valuation                                   *)
(* ------------------------------------------------------------------ *)

let rec eval_term (va : valuation) (t : term) : conc =
  match t with
  | Num n -> CInt n
  | BoolLit b -> CBool b
  | NullLoc -> CLoc Loc.Null
  | Var (x, _) -> (
      match List.assoc_opt x !va with
      | Some c -> c
      | None -> cannot "unbound parameter %s" x)
  | Add (a, b) -> CInt (as_int va a + as_int va b)
  | Sub (a, b) -> CInt (as_int va a - as_int va b)
  | NatSub (a, b) -> CInt (max 0 (as_int va a - as_int va b))
  | Mul (a, b) -> CInt (as_int va a * as_int va b)
  | Div (a, b) ->
      let d = as_int va b in
      if d = 0 then cannot "division by zero in refinement"
      else CInt (as_int va a / d)
  | Mod (a, b) ->
      let d = as_int va b in
      if d <= 0 then cannot "bad modulus"
      else CInt (((as_int va a mod d) + d) mod d)
  | Min (a, b) -> CInt (min (as_int va a) (as_int va b))
  | Max (a, b) -> CInt (max (as_int va a) (as_int va b))
  | Ite (c, a, b) -> if eval_prop va c then eval_term va a else eval_term va b
  | Length l -> CInt (List.length (as_list va l))
  | Nil _ -> CList []
  | Cons (x, l) -> CList (as_int va x :: as_list va l)
  | Append (a, b) -> CList (as_list va a @ as_list va b)
  | Replicate (n, x) -> CList (List.init (as_int va n) (fun _ -> as_int va x))
  | NthDflt (d, i, l) -> (
      match List.nth_opt (as_list va l) (as_int va i) with
      | Some x -> CInt x
      | None -> eval_term va d)
  | SetListInsert (i, x, l) ->
      CList
        (List.mapi
           (fun j y -> if j = as_int va i then as_int va x else y)
           (as_list va l))
  | MsEmpty -> CMset []
  | MsSingleton x -> CMset [ as_int va x ]
  | MsUnion (a, b) ->
      CMset (List.sort compare (as_mset va a @ as_mset va b))
  | SetEmpty -> CSet []
  | SetSingleton x -> CSet [ as_int va x ]
  | SetUnion (a, b) ->
      CSet (List.sort_uniq compare (as_set va a @ as_set va b))
  | SetDiff (a, b) ->
      let bs = as_set va b in
      CSet (List.filter (fun x -> not (List.mem x bs)) (as_set va a))
  | LocOfs (l, n) -> (
      match eval_term va l with
      | CLoc (Loc.Ptr _ as lc) -> CLoc (Loc.shift lc (as_int va n))
      | _ -> cannot "offset of non-pointer")
  | TProp p -> CBool (eval_prop va p)
  | App ("rev", [ l ]) -> CList (List.rev (as_list va l))
  | t -> cannot "cannot evaluate %a" pp_term t

and as_int va t =
  match eval_term va t with CInt n -> n | _ -> cannot "expected integer"

and as_list va t =
  match eval_term va t with CList l -> l | _ -> cannot "expected list"

and as_mset va t =
  match eval_term va t with
  | CMset l -> l
  | CSet l -> l
  | _ -> cannot "expected multiset"

and as_set va t =
  match eval_term va t with
  | CSet l -> l
  | CMset l -> List.sort_uniq compare l
  | _ -> cannot "expected set"

and elems va t =
  match eval_term va t with
  | CMset l | CSet l | CList l -> l
  | _ -> cannot "expected a collection"

and eval_prop (va : valuation) (p : prop) : bool =
  match p with
  | PTrue -> true
  | PFalse -> false
  | PEq (a, b) -> eval_term va a = eval_term va b
  | PLe (a, b) -> as_int va a <= as_int va b
  | PLt (a, b) -> as_int va a < as_int va b
  | PAnd (a, b) -> eval_prop va a && eval_prop va b
  | POr (a, b) -> eval_prop va a || eval_prop va b
  | PNot a -> not (eval_prop va a)
  | PImp (a, b) -> (not (eval_prop va a)) || eval_prop va b
  | PIsTrue t -> eval_term va t = CBool true || eval_term va t = CInt 1
  | PIn (x, l) -> List.mem (as_int va x) (elems va l)
  | PForall (x, _, PImp (PIn (Var (x', _), s), phi)) when x = x' ->
      (* bounded quantification over a finite collection is decidable *)
      List.for_all
        (fun e ->
          va := (x, CInt e) :: !va;
          let r = eval_prop va phi in
          va := List.remove_assoc x !va;
          r)
        (elems va s)
  | p -> cannot "cannot evaluate %a" pp_prop p

(* ------------------------------------------------------------------ *)
(* Constraint-directed existential witnesses                           *)
(* ------------------------------------------------------------------ *)

(** The generation context: everything one [check_fn] invocation needs
    that used to live in module-level mutable state.  One [gctx] per
    check; concurrent checks (different sessions, [-j N] domains) each
    own theirs, so the generator is reentrant by construction. *)
type gctx = {
  g_rng : Random.State.t;
  g_tenv : Rc_refinedc.Rtype.tenv;  (** the session's named types *)
  g_impls : (string * fn_spec) list;
      (** implementations available for function-pointer arguments *)
  g_qc : int ref;  (** fresh-binder counter (unique per check) *)
}

(** Strip an existential/constraint prefix, collecting binders and
    constraints in front of the underlying type.  Binders are renamed
    apart: recursive types reuse binder names at every unfolding level. *)
let rec strip_quant (gx : gctx) (ty : rtype)
    (binders : (string * Sort.t) list) :
    (string * Sort.t) list * prop list * rtype =
  match ty with
  | TExists (x, s, f) ->
      incr gx.g_qc;
      let x' = Printf.sprintf "%s!%d" x !(gx.g_qc) in
      strip_quant gx (f (Var (x', s))) ((x', s) :: binders)
  | TConstr (t, phi) ->
      let bs, ps, t' = strip_quant gx t binders in
      (bs, phi :: ps, t')
  | t -> (List.rev binders, [], t)

let bound va x = List.mem_assoc x !va

(** Solve for unbound binders using determining constraints: list/multiset
    decompositions, arithmetic offsets, direct equalities.  Remaining
    constraints are checked by evaluation. *)
let rec solve_binders (rng : Random.State.t) (va : valuation)
    (binders : (string * Sort.t) list) (constraints : prop list) : unit =
  let try_solve (p : prop) : bool =
    match p with
    (* e = x :: tl *)
    | PEq (e, Cons (Var (x, _), Var (tl, stl)))
      when (not (bound va x)) && not (bound va tl) -> (
        match eval_term va e with
        | CList (h :: t) ->
            va := (x, CInt h) :: (tl, CList t) :: !va;
            ignore stl;
            true
        | CList [] -> cannot "empty list cannot be decomposed"
        | _ -> false
        | exception Cannot_generate _ -> false)
    (* e = {[n]} ⊎ tail: n must be the minimum for sorted chains *)
    | PEq (e, MsUnion (MsSingleton (Var (x, _)), Var (tl, _)))
      when (not (bound va x)) && not (bound va tl) -> (
        match eval_term va e with
        | CMset (h :: t) | CSet (h :: t) ->
            va := (x, CInt h) :: (tl, CMset t) :: !va;
            true
        | CMset [] | CSet [] -> cannot "empty multiset"
        | _ -> false
        | exception Cannot_generate _ -> false)
    (* e = {[v]} ∪ l ∪ r with BST sortedness: split around a pivot *)
    | PEq (e, SetUnion (SetUnion (SetSingleton (Var (x, _)), Var (l, _)), Var (r, _)))
      when (not (bound va x)) && (not (bound va l)) && not (bound va r) -> (
        match eval_term va e with
        | CSet es when es <> [] ->
            let v = List.nth es (Random.State.int rng (List.length es)) in
            va :=
              (x, CInt v)
              :: (l, CSet (List.filter (fun k -> k < v) es))
              :: (r, CSet (List.filter (fun k -> k > v) es))
              :: !va;
            true
        | CSet [] -> cannot "empty set"
        | _ -> false
        | exception Cannot_generate _ -> false)
    (* e = lxs ++ (v :: rxs): split a sorted list around a pivot index *)
    | PEq (e, Append (Var (l, _), Cons (Var (x, _), Var (r, _))))
      when (not (bound va x)) && (not (bound va l)) && not (bound va r) -> (
        match eval_term va e with
        | CList es when es <> [] ->
            let i = Random.State.int rng (List.length es) in
            va :=
              (x, CInt (List.nth es i))
              :: (l, CList (Rc_util.Xlist.take i es))
              :: (r, CList (Rc_util.Xlist.drop (i + 1) es))
              :: !va;
            true
        | CList [] -> cannot "empty list"
        | _ -> false
        | exception Cannot_generate _ -> false)
    (* e = m + k *)
    | PEq (e, Add (Var (x, _), Num k)) when not (bound va x) -> (
        match eval_term va e with
        | CInt n ->
            va := (x, CInt (n - k)) :: !va;
            true
        | _ -> false
        | exception Cannot_generate _ -> false)
    | PEq (Var (x, _), e) when not (bound va x) -> (
        match eval_term va e with
        | c ->
            va := (x, c) :: !va;
            true
        | exception Cannot_generate _ -> false)
    | PEq (e, Var (x, _)) when not (bound va x) -> (
        match eval_term va e with
        | c ->
            va := (x, c) :: !va;
            true
        | exception Cannot_generate _ -> false)
    | _ -> false
  in
  (* a few propagation rounds *)
  for _ = 1 to 4 do
    List.iter (fun p -> ignore (try_solve p)) constraints
  done;
  (* default any still-unbound binders *)
  List.iter
    (fun (x, s) -> if not (bound va x) then va := (x, sample rng s) :: !va)
    binders;
  (* all constraints must hold *)
  List.iter
    (fun p ->
      if not (eval_prop va p) then
        cannot "constraint %a does not hold" pp_prop p)
    constraints

and sample rng (s : Sort.t) : conc =
  match s with
  | Sort.Nat -> CInt (Random.State.int rng 40)
  | Sort.Int -> CInt (Random.State.int rng 80 - 40)
  | Sort.Bool -> CBool (Random.State.bool rng)
  | Sort.List Sort.Int | Sort.List Sort.Nat ->
      (* sorted and distinct: also inhabits the ordered-structure specs *)
      let n = Random.State.int rng 7 in
      let rec go acc last i =
        if i = 0 then List.rev acc
        else
          let x = last + 1 + Random.State.int rng 9 in
          go (x :: acc) x (i - 1)
      in
      CList (go [] (Random.State.int rng 5) n)
  | Sort.Mset ->
      let n = Random.State.int rng 6 in
      CMset
        (List.sort compare
           (List.init n (fun _ -> 16 + Random.State.int rng 64)))
  | Sort.Set ->
      let n = Random.State.int rng 7 in
      CSet (List.sort_uniq compare (List.init n (fun _ -> Random.State.int rng 60)))
  | s -> cannot "cannot sample sort %a" Sort.pp s

(* ------------------------------------------------------------------ *)
(* Generating heap objects from types                                  *)
(* ------------------------------------------------------------------ *)

let impl_for (gx : gctx) (spec : fn_spec) : string =
  match
    List.find_opt
      (fun (_, s) -> Rc_refinedc.Rules_subsume.fn_spec_compatible s spec)
      gx.g_impls
  with
  | Some (name, _) -> name
  | None -> spec.fs_name

(** Size of a type under the valuation (after witnesses are solved). *)
let conc_size (gx : gctx) (va : valuation) (ty : rtype) : int =
  match ty_size gx.g_tenv ty with
  | Some sz -> as_int va sz
  | None -> cannot "cannot size %a" pp_rtype ty

(** Write a value inhabiting [ty] at [l], allocating pointees as needed.
    Unbound [Loc]-sorted parameters are bound by the allocations they
    refine. *)
let rec gen_at (gx : gctx) (h : Heap.t) (va : valuation) (ty : rtype)
    (l : Loc.t) : unit =
  let rng = gx.g_rng in
  match ty with
  | TInt (it, n) -> Heap.store h l (Value.of_int it (as_int va n))
  | TBool (it, phi) ->
      Heap.store h l (Value.of_int it (if eval_prop va phi then 1 else 0))
  | TNull -> Heap.store h l (Value.of_loc Loc.Null)
  | TUninit _ -> () (* already poison *)
  | TManaged _ -> ()
  | TAnyInt it -> Heap.store h l (Value.of_int it (Random.State.int rng 100))
  | TOwn (refn, t') ->
      let ptr = gen_own gx h va refn t' in
      Heap.store h l (Value.of_loc ptr)
  | TOptional (phi, t1, t2) ->
      if eval_prop va phi then gen_at gx h va t1 l else gen_at gx h va t2 l
  | TStruct (sl, tys) ->
      List.iter2
        (fun fd fty -> gen_at gx h va fty (Loc.shift l fd.Layout.fld_ofs))
        sl.Layout.sl_fields tys
  | TPadded (t', _) -> gen_at gx h va t' l
  | TExists _ | TConstr _ ->
      let binders, constraints, base = strip_quant gx ty [] in
      solve_binders rng va binders constraints;
      gen_at gx h va base l
  | TNamed (n, args) -> (
      match unfold_named gx.g_tenv n args with
      | Some body -> gen_at gx h va body l
      | None -> cannot "unknown named type %s" n)
  | TArrayInt (it, len, xs) ->
      let n = as_int va len in
      let vs =
        match xs with
        | Var (x, _) ->
            (* (re)bind the array contents to the required length *)
            let vs = List.init n (fun _ -> Random.State.int rng 100) in
            va := (x, CList vs) :: List.remove_assoc x !va;
            vs
        | _ ->
            let vs = as_list va xs in
            if List.length vs <> n then cannot "array length mismatch";
            vs
      in
      List.iteri
        (fun i x ->
          Heap.store h (Loc.shift l (i * it.Int_type.size)) (Value.of_int it x))
        vs
  | TAtomicBool (it, phi, ht, hf) ->
      let state = try eval_prop va phi with Cannot_generate _ -> false in
      Heap.store h l (Value.of_int it (if state then 1 else 0));
      List.iter (gen_hres gx h va) (if state then ht else hf)
  | TFnPtr spec -> Heap.store h l (Value.of_fn (impl_for gx spec))
  | TWand _ -> cannot "cannot generate a magic wand"
  | TPtrV t -> (
      match eval_term va t with
      | CLoc lc -> Heap.store h l (Value.of_loc lc)
      | _ -> cannot "ptr refinement not a location")

and gen_hres gx h va (hr : hres) : unit =
  match hr with
  | HProp p -> if not (eval_prop va p) then cannot "resource proposition fails"
  | HAtom (LocTy (lt, ty)) -> (
      match lt with
      | Var (x, _) when not (bound va x) ->
          (* an unbound protected cell: allocate it *)
          let binders, constraints, base = strip_quant gx ty [] in
          solve_binders gx.g_rng va binders constraints;
          let ptr = Heap.alloc h (max (conc_size gx va base) 1) in
          va := (x, CLoc ptr) :: !va;
          gen_at gx h va base ptr
      | _ -> (
          match eval_term va lt with
          | CLoc lc -> gen_at gx h va ty lc
          | _ -> cannot "resource location not evaluable"))
  | HAtom (ValTy _) -> cannot "cannot generate value resources"

and gen_own gx h va refn t' : Loc.t =
  let binders, constraints, base = strip_quant gx t' [] in
  solve_binders gx.g_rng va binders constraints;
  let ptr = Heap.alloc h (max (conc_size gx va base) 1) in
  (match refn with
  | Some (Var (x, _)) when not (bound va x) -> va := (x, CLoc ptr) :: !va
  | Some (Var (x, _)) when bound va x -> ()
  | _ -> ());
  gen_at gx h va base ptr;
  ptr

(** Generate a concrete argument value for one argument type. *)
let rec gen_arg gx h va (ty : rtype) : Value.t =
  match ty with
  | TInt (it, n) -> Value.of_int it (as_int va n)
  | TBool (it, phi) -> Value.of_int it (if eval_prop va phi then 1 else 0)
  | TNull -> Value.of_loc Loc.Null
  | TOwn (refn, t') -> Value.of_loc (gen_own gx h va refn t')
  | TOptional (phi, t1, t2) ->
      if eval_prop va phi then gen_arg gx h va t1 else gen_arg gx h va t2
  | TExists _ | TConstr _ ->
      let binders, constraints, base = strip_quant gx ty [] in
      solve_binders gx.g_rng va binders constraints;
      gen_arg gx h va base
  | TFnPtr spec -> Value.of_fn (impl_for gx spec)
  | TNamed (n, args) -> (
      match unfold_named gx.g_tenv n args with
      | Some body -> gen_arg gx h va body
      | None -> cannot "unknown named type %s" n)
  | ty -> cannot "cannot generate argument %a" pp_rtype ty

(* ------------------------------------------------------------------ *)
(* The harness                                                         *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Passed of int  (** number of executions *)
  | Skipped of string  (** spec outside the generator's fragment *)
  | Ub_found of string  (** a counterexample to semantic soundness! *)

(** Run [fname] on [runs] sampled inputs; any UB is a soundness
    counterexample (either in the type system or in the spec).  The
    session supplies the named-type environment the spec was checked
    under; the generator owns all of its remaining state per call. *)
let check_fn ?(runs = 50) ?(seed = 7) ?(impls = [])
    ~(session : Rc_refinedc.Session.t) (prog : Caesium.Syntax.program)
    (spec : fn_spec) : outcome =
  let rng = Random.State.make [| seed |] in
  let gx =
    {
      g_rng = rng;
      g_tenv = session.Rc_refinedc.Session.tenv;
      g_impls =
        List.filter
          (fun (n, _) -> Caesium.Syntax.find_func prog n <> None)
          impls;
      g_qc = ref 0;
    }
  in
  let attempt i =
    (* a fresh machine per run; generation happens directly in its heap *)
    let m = Caesium.Eval.create ~detect_races:false prog in
    let va : valuation = ref [] in
    (* sample non-location parameters first *)
    List.iter
      (fun (x, s) ->
        match s with
        | Sort.Loc -> ()
        | s -> (
            match sample rng s with
            | c -> va := (x, c) :: !va
            | exception Cannot_generate _ -> ()))
      spec.fs_params;
    (* check pure preconditions; resample a few times if violated *)
    let args =
      List.map (fun ty -> gen_arg gx m.Caesium.Eval.heap va ty) spec.fs_args
    in
    let pre_ok =
      List.for_all
        (function
          | HProp p -> ( try eval_prop va p with Cannot_generate _ -> false)
          | HAtom _ -> true)
        spec.fs_pre
    in
    if not pre_ok then `Resample
    else begin
      (* re-generate heap objects is already done; now run *)
      let th =
        {
          Caesium.Eval.tid = 0;
          frames = [];
          finished = false;
          result = None;
          clock = Caesium.Eval.Vc.create 1;
        }
      in
      m.Caesium.Eval.threads <- [ th ];
      match Caesium.Eval.push_call m th spec.fs_name args None with
      | exception Caesium.Ub.Undef u ->
          `Ub (Fmt.str "run %d: %a" i Caesium.Ub.pp u)
      | () ->
          let rec loop fuel =
            if fuel = 0 then `Ok (* partial correctness: timeouts allowed *)
            else
              match Caesium.Eval.step m th with
              | () -> loop (fuel - 1)
              | exception Caesium.Eval.Thread_done -> `Ok
              | exception Caesium.Ub.Undef u ->
                  `Ub (Fmt.str "run %d: %a" i Caesium.Ub.pp u)
          in
          loop 200_000
    end
  in
  let rec go i passed resamples =
    if i >= runs then Passed passed
    else
      match attempt i with
      | `Ok -> go (i + 1) (passed + 1) resamples
      | `Resample ->
          if resamples > 10 * runs then
            Skipped "could not satisfy the precondition by sampling"
          else go i passed (resamples + 1)
      | `Ub msg -> Ub_found msg
      | exception Cannot_generate msg -> Skipped msg
  in
  go 0 0 0
