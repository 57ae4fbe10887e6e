(** Null / unbacked-dereference candidates (code RC-L002).

    A dereference in Caesium is a [Use]/[Assign]/[Cas] whose location
    operand is *computed* — loaded from a slot rather than being a slot
    ([VarLoc]) itself.  Verification will demand ownership of the
    pointed-to memory; if the spec visibly provides none, the proof is
    doomed and the stuck goal it eventually produces is opaque.  Two
    shapes are reported:

    - a dereference whose base is the literal [NULL] — definitely wrong
      (sound warning);
    - a dereference whose base is a pointer {e argument} whose spec type
      carries no ownership evidence (a bare [p @ ptr] singleton with no
      [rc::requires] atom covering [p]) — a heuristic hint: the
      ownership could in principle arrive indirectly, so false
      positives are possible and the severity is {!Diagnostic.Hint}. *)

module Syntax = Rc_caesium.Syntax
module Rtype = Rc_refinedc.Rtype
module Diagnostic = Rc_util.Diagnostic
open Rc_pure.Term

(** Strip address arithmetic down to the base of a location expression. *)
let rec base (e : Syntax.expr) : Syntax.expr =
  match e with
  | Syntax.FieldOfs { arg; _ } -> base arg
  | Syntax.BinOp { op = Syntax.PtrPlusOp _; e1; _ } -> base e1
  | Syntax.CastPtrPtr e -> base e
  | e -> e

(** Does owning a value of this spec type come with ownership of memory
    behind it?  Everything except the thin value types does; a bare
    [TPtrV ℓ] singleton counts only if some precondition atom covers a
    location sharing variables with ℓ. *)
let rec has_ownership (spec : Rtype.fn_spec) (ty : Rtype.rtype) : bool =
  match ty with
  | Rtype.TOwn _ | Rtype.TOptional _ | Rtype.TNamed _ | Rtype.TStruct _
  | Rtype.TArrayInt _ | Rtype.TAtomicBool _ | Rtype.TWand _
  | Rtype.TUninit _ | Rtype.TManaged _ | Rtype.TFnPtr _ ->
      true
  | Rtype.TInt _ | Rtype.TBool _ | Rtype.TNull | Rtype.TAnyInt _ -> false
  | Rtype.TPtrV l ->
      let lv = free_vars_term l in
      List.exists
        (function
          | Rtype.HAtom (Rtype.LocTy (l', _)) ->
              equal_term l' l
              || not (SS.is_empty (SS.inter lv (free_vars_term l')))
          | _ -> false)
        spec.Rtype.fs_pre
  | Rtype.TConstr (t, _) | Rtype.TPadded (t, _) -> has_ownership spec t
  | Rtype.TExists (x, s, f) -> has_ownership spec (f (Var (x, s)))

(** Every location expression dereferenced by [e] (including [e] itself
    when [at_loc]), paired with nothing — the caller owns the context. *)
let rec loc_exprs (e : Syntax.expr) (acc : Syntax.expr list) :
    Syntax.expr list =
  match e with
  | Syntax.Use { arg; _ } -> loc_exprs arg (arg :: acc)
  | Syntax.FieldOfs { arg; _ } | Syntax.UnOp { arg; _ }
  | Syntax.CastIntInt { arg; _ } ->
      loc_exprs arg acc
  | Syntax.CastPtrPtr arg -> loc_exprs arg acc
  | Syntax.BinOp { e1; e2; _ } -> loc_exprs e1 (loc_exprs e2 acc)
  | Syntax.IntConst _ | Syntax.NullConst | Syntax.FnAddr _ | Syntax.VarLoc _
    ->
      acc

(** Location expressions accessed by a statement: the operands of every
    load plus the direct store/CAS targets. *)
let stmt_loc_exprs (s : Syntax.stmt) : Syntax.expr list =
  let sub = List.fold_left (fun acc e -> loc_exprs e acc) [] in
  match s with
  | Syntax.Assign { lhs; rhs; _ } -> (lhs :: sub [ lhs; rhs ])
  | Syntax.Call { dest; fn; args } ->
      let ds = match dest with Some (_, d) -> [ d ] | None -> [] in
      ds @ sub ((fn :: List.map snd args) @ ds)
  | Syntax.Cas { obj; expected; desired; dest; _ } ->
      let ds = match dest with Some (_, d) -> [ d ] | None -> [] in
      (obj :: expected :: ds) @ sub ((obj :: expected :: desired :: ds))
  | Syntax.ExprStmt e | Syntax.Free e -> sub [ e ]
  | Syntax.Skip -> []

let term_loc_exprs (t : Syntax.terminator) : Syntax.expr list =
  let sub = List.fold_left (fun acc e -> loc_exprs e acc) [] in
  match t with
  | Syntax.CondGoto { cond; _ } -> sub [ cond ]
  | Syntax.Switch { scrut; _ } -> sub [ scrut ]
  | Syntax.Return (Some e) -> sub [ e ]
  | Syntax.Goto _ | Syntax.Return None | Syntax.Unreachable -> []

let run_fn (ftc : Rc_refinedc.Typecheck.fn_to_check) : Diagnostic.t list =
  let func = ftc.Rc_refinedc.Typecheck.func in
  let spec = ftc.Rc_refinedc.Typecheck.spec in
  let index = ftc.Rc_refinedc.Typecheck.index in
  (* argument name ↦ its spec type, positionally *)
  let arg_tys =
    if List.length spec.Rtype.fs_args = List.length func.Syntax.args then
      List.map2
        (fun (x, _) ty -> (x, ty))
        func.Syntax.args spec.Rtype.fs_args
    else []
  in
  let stmt_loc label idx =
    Option.value ~default:Rc_util.Srcloc.dummy
      (Rc_refinedc.Lang.stmt_loc index label idx)
  in
  let term_loc label =
    Option.value ~default:Rc_util.Srcloc.dummy
      (Rc_refinedc.Lang.term_loc index label)
  in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let once key mk acc = (* one report per (kind, base) per function *)
    if Hashtbl.mem seen key then acc
    else begin
      Hashtbl.add seen key ();
      mk () :: acc
    end
  in
  let classify loc (le : Syntax.expr) acc =
    match le with
    | Syntax.VarLoc _ -> acc  (* direct slot access, never a deref *)
    | _ -> (
        match base le with
        | Syntax.NullConst ->
            once "null"
              (fun () ->
                Diagnostic.make ~severity:Diagnostic.Warning ~code:"RC-L002"
                  ~loc
                  (Printf.sprintf "in %s: dereference of NULL"
                     func.Syntax.fname))
              acc
        | Syntax.Use { arg = Syntax.VarLoc x; _ }
          when List.mem_assoc x arg_tys
               && not (has_ownership spec (List.assoc x arg_tys)) ->
            once ("arg:" ^ x)
              (fun () ->
                Diagnostic.make ~severity:Diagnostic.Hint ~code:"RC-L002"
                  ~loc
                  ~hint:
                    (Printf.sprintf
                       "give '%s' an ownership-carrying type (e.g. \
                        &own<…>) or add an rc::requires atom covering it"
                       x)
                  (Printf.sprintf
                     "in %s: dereference of pointer argument '%s', whose \
                      specification provides no ownership of the \
                      pointed-to memory"
                     func.Syntax.fname x))
              acc
        | _ -> acc)
  in
  List.fold_left
    (fun acc (label, (b : Syntax.block)) ->
      let acc =
        List.fold_left
          (fun acc (idx, s) ->
            List.fold_left
              (fun acc le -> classify (stmt_loc label idx) le acc)
              acc (stmt_loc_exprs s))
          acc
          (List.mapi (fun i s -> (i, s)) b.Syntax.stmts)
      in
      List.fold_left
        (fun acc le -> classify (term_loc label) le acc)
        acc
        (term_loc_exprs b.Syntax.term))
    [] func.Syntax.blocks

let run (to_check : Rc_refinedc.Typecheck.fn_to_check list) :
    Diagnostic.t list =
  List.concat_map run_fn to_check
