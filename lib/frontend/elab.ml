(** Elaboration of annotated C into Caesium plus RefinedC specifications
    (step (A) of Figure 2): struct declarations become layouts and
    registered RefinedC type definitions; function bodies become
    control-flow graphs (statements almost 1-to-1, expressions with a
    fixed left-to-right order); annotations are parsed into function
    specs and loop invariants with the right logical environment in
    scope. *)

open Cabs
module Syntax = Rc_caesium.Syntax
module Layout = Rc_caesium.Layout
module Int_type = Rc_caesium.Int_type
open Rc_pure
open Rc_refinedc.Rtype
open Rc_refinedc.Lang

exception Elab_error of string * Rc_util.Srcloc.t

let err loc fmt = Fmt.kstr (fun s -> raise (Elab_error (s, loc))) fmt

(** Attach the enclosing declaration's location to errors raised while
    parsing its [rc::] annotations, so spec errors point into the C
    source like every other frontend diagnostic. *)
let with_spec_loc loc f =
  try f ()
  with Specparse.Spec_error msg -> err loc "specification error: %s" msg

(* ------------------------------------------------------------------ *)
(* C types → layouts                                                   *)
(* ------------------------------------------------------------------ *)

(* The file-wide tables, one hash table each, filled in declaration
   order with [Hashtbl.replace]: a name defined twice resolves to its
   latest definition so far, as it would at the head of an association
   list that each definition is pushed onto. *)
type genv = {
  typedefs : (string, ctype) Hashtbl.t;
  structs : (string, Layout.struct_layout) Hashtbl.t;
  mutable struct_list : (string * Layout.struct_layout) list;
      (** every struct layout, latest first: the program's [structs] *)
  fn_sigs : (string, ctype list * ctype) Hashtbl.t;
  fn_specs : (string, fn_spec) Hashtbl.t;
  tenv : Rc_refinedc.Rtype.tenv;
      (** the session's named-type environment; elaboration registers
          [rc::refined_by] definitions here *)
  field_types : (string * string, ctype) Hashtbl.t;
      (** side table: (struct, field) ↦ surface C type of the field *)
}

let new_genv ~tenv () =
  {
    typedefs = Hashtbl.create 16;
    structs = Hashtbl.create 16;
    struct_list = [];
    fn_sigs = Hashtbl.create 64;
    fn_specs = Hashtbl.create 64;
    tenv;
    field_types = Hashtbl.create 64;
  }

let rec resolve_ctype (g : genv) (t : ctype) : ctype =
  match t with
  | CNamed x -> (
      match Hashtbl.find_opt g.typedefs x with
      | Some t' -> resolve_ctype g t'
      | None -> t)
  | t -> t

let layout_of_ctype ?(loc = Rc_util.Srcloc.dummy) (g : genv) (t : ctype) :
    Layout.t =
  match resolve_ctype g t with
  | CInt name -> (
      match Int_type.of_name name with
      | it -> Layout.Int it
      | exception Not_found -> err loc "unknown integer type %s" name)
  | CBool -> Layout.Int Int_type.bool_it
  | CVoid -> Layout.Void
  | CFn _ -> Layout.FnPtr
  | CPtr t' -> (
      match resolve_ctype g t' with CFn _ -> Layout.FnPtr | _ -> Layout.Ptr)
  | CStructRef s -> (
      match Hashtbl.find_opt g.structs s with
      | Some sl -> Layout.Struct sl
      | None -> err loc "unknown struct %s" s)
  | CNamed x -> err loc "unknown type name %s" x

(* [layout_of_ctype]'s integer case, without building the layout: the
   same integer types for the same C types, the same errors for the same
   unknown names, and [None] for every other layout *)
let int_type_of_ctype ?(loc = Rc_util.Srcloc.dummy) (g : genv) (t : ctype) :
    Int_type.t option =
  match resolve_ctype g t with
  | CInt name -> (
      match Int_type.of_name name with
      | it -> Some it
      | exception Not_found -> err loc "unknown integer type %s" name)
  | CBool -> Some Int_type.bool_it
  | CVoid | CFn _ | CPtr _ -> None
  | CStructRef s ->
      if Hashtbl.mem g.structs s then None
      else err loc "unknown struct %s" s
  | CNamed x -> err loc "unknown type name %s" x

(* ------------------------------------------------------------------ *)
(* Struct declarations → layouts and RefinedC type definitions         *)
(* ------------------------------------------------------------------ *)

let attr_args name (atts : attr list) : string list =
  let key = "rc::" ^ name in
  List.concat_map
    (fun a -> if String.equal a.a_name key then a.a_args else [])
    atts

let attr_joined name (atts : attr list) : string list =
  (* one item per attribute occurrence, its string args joined *)
  let key = "rc::" ^ name in
  List.filter_map
    (fun a ->
      if String.equal a.a_name key then Some (String.concat " " a.a_args)
      else None)
    atts

let spec_env (g : genv) vars : Specparse.env =
  { Specparse.vars; structs = g.structs; fn_specs = g.fn_specs;
    tenv = g.tenv }

let elab_struct (g : genv) (sd : struct_decl) : unit =
  with_spec_loc sd.sd_loc @@ fun () ->
  let layout_fields =
    List.map
      (fun fd -> (fd.fd_name, layout_of_ctype ~loc:sd.sd_loc g fd.fd_type))
      sd.sd_fields
  in
  let sl = Layout.mk_struct sd.sd_name layout_fields in
  Hashtbl.replace g.structs sd.sd_name sl;
  g.struct_list <- (sd.sd_name, sl) :: g.struct_list;
  List.iter
    (fun fd -> Hashtbl.replace g.field_types (sd.sd_name, fd.fd_name) fd.fd_type)
    sd.sd_fields;
  (* RefinedC annotations *)
  let refined_by =
    List.map Specparse.binder (attr_args "refined_by" sd.sd_attrs)
  in
  if
    attr_args "field" (List.concat_map (fun f -> f.fd_attrs) sd.sd_fields)
    = []
  then ()
    (* plain C struct, no refined type *)
  else begin
    let exists_binders =
      List.map Specparse.binder (attr_args "exists" sd.sd_attrs)
    in
    let ptr_type =
      match attr_joined "ptr_type" sd.sd_attrs with
      | [] -> None
      | [ s ] -> (
          match String.index_opt s ':' with
          | Some i ->
              Some
                ( String.trim (String.sub s 0 i),
                  String.trim (String.sub s (i + 1) (String.length s - i - 1))
                )
          | None -> err sd.sd_loc "rc::ptr_type expects \"name: type\"")
      | _ -> err sd.sd_loc "multiple rc::ptr_type annotations"
    in
    let td_name =
      match ptr_type with Some (n, _) -> n | None -> sd.sd_name
    in
    let td_layout =
      match ptr_type with
      | Some _ -> Layout.Ptr
      | None -> Layout.Struct sl
    in
    (* register a stub first so recursive references parse *)
    register_type_def g.tenv
      {
        td_name;
        td_params = refined_by;
        td_layout = Some td_layout;
        td_unfold = (fun _ -> TNull);
      };
    let env_vars = refined_by @ exists_binders in
    let env = spec_env g env_vars in
    let field_tys =
      List.map
        (fun fd ->
          match attr_args "field" fd.fd_attrs with
          | [ s ] -> Specparse.rtype ~env s
          | [] ->
              (* unannotated field: unrefined by its C layout *)
              (match layout_of_ctype ~loc:sd.sd_loc g fd.fd_type with
              | Layout.Int it -> t_int_ex it
              | Layout.Ptr ->
                  TExists ("l", Sort.Loc, fun l -> TPtrV l)
              | l -> TUninit (Rc_pure.Term.Num (Layout.size l)))
          | _ -> err sd.sd_loc "multiple rc::field annotations on %s" fd.fd_name)
        sd.sd_fields
    in
    let constraints =
      List.map (Specparse.prop ~env) (attr_args "constraints" sd.sd_attrs)
    in
    let size_annot =
      match attr_args "size" sd.sd_attrs with
      | [] -> None
      | [ s ] -> Some (Specparse.term ~env s)
      | _ -> err sd.sd_loc "multiple rc::size annotations"
    in
    (* the struct "body" type, as a function of the refinement params and
       with existentials/constraints wrapped around *)
    let body_of (args : Term.term list) : rtype =
      let param_env = List.map2 (fun (x, _) v -> (x, v)) refined_by args in
      let base = TStruct (sl, List.map (subst_rtype param_env) field_tys) in
      let base =
        match size_annot with
        | Some n -> TPadded (base, Term.subst_term param_env n)
        | None -> base
      in
      let base =
        List.fold_right
          (fun c t -> TConstr (t, Term.subst_prop param_env c))
          constraints base
      in
      (* wrap existentials, innermost first *)
      List.fold_right
        (fun (x, s) t ->
          TExists
            ( x,
              s,
              fun v -> subst_rtype [ (x, v) ] t ))
        exists_binders base
    in
    let unfold =
      match ptr_type with
      | None -> body_of
      | Some (_, ty_str) ->
          fun args ->
            let param_env =
              List.map2 (fun (x, _) v -> (x, v)) refined_by args
            in
            (* parse the pointer type with __structbody resolving to the
               struct body *)
            let parsed =
              Specparse.rtype ~env:(spec_env g refined_by) ty_str
            in
            let rec replace t =
              match t with
              | TNamed ("__structbody", _) -> body_of args
              | TOwn (l, t') -> TOwn (l, replace t')
              | TOptional (p, a, b) ->
                  TOptional
                    (Term.subst_prop param_env p, replace a, replace b)
              | TConstr (t', p) ->
                  TConstr (replace t', Term.subst_prop param_env p)
              | TExists (x, s, f) -> TExists (x, s, fun v -> replace (f v))
              | t -> subst_rtype param_env t
            in
            replace parsed
    in
    register_type_def g.tenv
      { td_name; td_params = refined_by; td_layout = Some td_layout;
        td_unfold = unfold }
  end

(* ------------------------------------------------------------------ *)
(* C expression typing (mini checker: layouts and conversions)         *)
(* ------------------------------------------------------------------ *)

type fenv = {
  g : genv;
  vars : (string * ctype) list;  (** params + locals *)
  ret : ctype;
}

(* [List.assoc_opt x fe.vars], comparing names with [String.equal] *)
let var_type (fe : fenv) x : ctype option =
  let rec go = function
    | [] -> None
    | (y, t) :: rest -> if String.equal x y then Some t else go rest
  in
  go fe.vars

let is_var fe x = Option.is_some (var_type fe x)

let struct_of (fe : fenv) loc (t : ctype) : Layout.struct_layout =
  match resolve_ctype fe.g t with
  | CStructRef s | CPtr (CStructRef s) -> (
      match Hashtbl.find_opt fe.g.structs s with
      | Some sl -> sl
      | None -> err loc "unknown struct %s" s)
  | CPtr (CNamed _ as t') | (CNamed _ as t') -> (
      match resolve_ctype fe.g t' with
      | CStructRef s | CPtr (CStructRef s) -> (
          match Hashtbl.find_opt fe.g.structs s with
          | Some sl -> sl
          | None -> err loc "unknown struct %s" s)
      | _ -> err loc "expected a struct type")
  | _ -> err loc "expected a struct type"

let field_ctype (fe : fenv) loc (t : ctype) (f : string) : ctype =
  let s =
    match resolve_ctype fe.g t with
    | CStructRef s -> s
    | CPtr t' -> (
        match resolve_ctype fe.g t' with
        | CStructRef s -> s
        | _ -> err loc "expected struct pointer")
    | _ -> err loc "expected struct"
  in
  match Hashtbl.find_opt fe.g.field_types (s, f) with
  | Some t -> t
  | None -> err loc "unknown field %s.%s" s f

let rec ctype_of (fe : fenv) (e : expr) : ctype =
  match e.e with
  | EId x -> (
      match var_type fe x with
      | Some t -> t
      | None -> (
          match Hashtbl.find_opt fe.g.fn_sigs x with
          | Some (ps, r) -> CPtr (CFn (ps, r))
          | None -> err e.eloc "unbound variable %s" x))
  | EConst _ -> CInt "int"
  | EBool _ -> CBool
  | ENull -> CPtr CVoid
  | ESizeof _ -> CInt "unsigned long"
  | EUn (UNeg, a) -> ctype_of fe a
  | EUn (UNot, _) -> CInt "int"
  | EUn (UBitNot, a) -> ctype_of fe a
  | EBin ((BLt | BLe | BGt | BGe | BEq | BNe | BAnd | BOr), _, _) ->
      CInt "int"
  | EBin (_, a, b) -> (
      let ta = resolve_ctype fe.g (ctype_of fe a) in
      let tb = resolve_ctype fe.g (ctype_of fe b) in
      match (ta, tb) with
      | CPtr _, _ -> ta
      | _, CPtr _ -> tb
      | _ -> common_int fe e.eloc ta tb)
  | EAssign (l, _) | EAssignOp (_, l, _) -> ctype_of fe l
  | ECall ("atomic_load", [ p ]) -> (
      match resolve_ctype fe.g (ctype_of fe p) with
      | CPtr t -> t
      | _ -> err e.eloc "atomic_load expects a pointer")
  | ECall ("atomic_compare_exchange_strong", _) -> CInt "int"
  | ECall ("atomic_store", _) -> CVoid
  | ECall (f, _) -> (
      match Hashtbl.find_opt fe.g.fn_sigs f with
      | Some (_, ret) -> ret
      | None -> (
          match var_type fe f with
          | Some t -> (
              match resolve_ctype fe.g t with
              | CPtr (CFn (_, r)) | CFn (_, r) -> r
              | CPtr t' -> (
                  match resolve_ctype fe.g t' with
                  | CFn (_, r) -> r
                  | _ -> err e.eloc "calling non-function %s" f)
              | _ -> err e.eloc "calling non-function %s" f)
          | None -> err e.eloc "call to unknown function %s" f))
  | EMember (a, f) -> field_ctype fe e.eloc (ctype_of fe a) f
  | EArrow (a, f) -> field_ctype fe e.eloc (ctype_of fe a) f
  | EIndex (a, _) -> (
      match resolve_ctype fe.g (ctype_of fe a) with
      | CPtr t -> t
      | _ -> err e.eloc "indexing a non-pointer")
  | EDeref a -> (
      match resolve_ctype fe.g (ctype_of fe a) with
      | CPtr t -> t
      | _ -> err e.eloc "dereferencing a non-pointer")
  | EAddr a -> CPtr (ctype_of fe a)
  | ECast (t, _) -> t
  | ECond (_, a, _) -> ctype_of fe a

and common_int (fe : fenv) loc (ta : ctype) (tb : ctype) : ctype =
  let ita =
    match int_type_of_ctype fe.g ta with
    | Some it -> it
    | None -> err loc "expected integer operand"
  in
  let itb =
    match int_type_of_ctype fe.g tb with
    | Some it -> it
    | None -> err loc "expected integer operand"
  in
  (* usual arithmetic conversions, simplified: larger size wins; on equal
     size unsigned wins; minimum rank int *)
  let pick =
    if ita.Int_type.size > itb.Int_type.size then ita
    else if itb.Int_type.size > ita.Int_type.size then itb
    else if ita.Int_type.signedness = Int_type.Unsigned then ita
    else itb
  in
  let pick =
    if pick.Int_type.size < 4 then Int_type.i32 else pick
  in
  CInt pick.Int_type.it_name

(* ------------------------------------------------------------------ *)
(* CFG builder                                                         *)
(* ------------------------------------------------------------------ *)

type builder = {
  fe : fenv_mut;
  mutable blocks : (string * Syntax.block) list;
  mutable cur_label : string;
  mutable cur_stmts : Syntax.stmt list;  (** reversed *)
  mutable cur_len : int;  (** [List.length cur_stmts] *)
  mutable closed : bool;  (** current block already terminated *)
  mutable locals : (string * Layout.t) list;
  mutable nlab : int;
  mutable stmt_locs : ((string * int) * Rc_util.Srcloc.t) list;
  mutable term_locs : (string * Rc_util.Srcloc.t) list;
  mutable block_descr : (string * Rc_refinedc.Lang.branch) list;
  mutable invs : (string * loop_inv) list;
  mutable break_targets : string list;
  mutable continue_targets : string list;
  spec_params : (string * Sort.t) list;  (** for loop annotations *)
}

and fenv_mut = { mutable fenv : fenv }

(* [hint ^ string_of_int n] for [n >= 0], without a printf format *)
let label hint n =
  let rec digits n = if n < 10 then 1 else 1 + digits (n / 10) in
  let h = String.length hint and d = digits n in
  let b = Bytes.create (h + d) in
  Bytes.blit_string hint 0 b 0 h;
  let rec fill n i =
    Bytes.set b i (Char.chr (48 + (n mod 10)));
    if n >= 10 then fill (n / 10) (i - 1)
  in
  fill n (h + d - 1);
  Bytes.unsafe_to_string b

let fresh_label b hint =
  let n = b.nlab in
  b.nlab <- n + 1;
  label hint n

let emit b ?loc (s : Syntax.stmt) =
  (match loc with
  | Some l ->
      b.stmt_locs <- ((b.cur_label, b.cur_len), l) :: b.stmt_locs
  | None -> ());
  b.cur_stmts <- s :: b.cur_stmts;
  b.cur_len <- b.cur_len + 1

let close_block b ?loc (term : Syntax.terminator) =
  if not b.closed then begin
    (match loc with
    | Some l -> b.term_locs <- (b.cur_label, l) :: b.term_locs
    | None -> ());
    b.blocks <-
      (b.cur_label, { Syntax.stmts = List.rev b.cur_stmts; term }) :: b.blocks;
    b.closed <- true
  end

let start_block b label =
  b.cur_label <- label;
  b.cur_stmts <- [];
  b.cur_len <- 0;
  b.closed <- false

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let it_of fe loc (t : ctype) : Int_type.t =
  match int_type_of_ctype ~loc fe.g t with
  | Some it -> it
  | None -> err loc "expected an integer type"

(** convert an elaborated integer expression between C integer types *)
let conv_to (from_ : Int_type.t) (to_ : Int_type.t) (e : Syntax.expr) :
    Syntax.expr =
  if Int_type.equal from_ to_ then e
  else
    match e with
    | Syntax.IntConst (n, _) when Int_type.in_range to_ n ->
        Syntax.IntConst (n, to_)
    | _ -> Syntax.CastIntInt { from_; to_; arg = e }

let is_fn_name (fe : fenv) x = Hashtbl.mem fe.g.fn_sigs x

let rec rv (fe : fenv) (e : expr) : Syntax.expr =
  match e.e with
  | EId x when (not (is_var fe x)) && is_fn_name fe x ->
      Syntax.FnAddr x
  | EId _ | EMember _ | EArrow _ | EIndex _ | EDeref _ ->
      let layout = layout_of_ctype ~loc:e.eloc fe.g (ctype_of fe e) in
      Syntax.Use { atomic = false; layout; arg = lv fe e }
  | EConst n -> Syntax.IntConst (n, Int_type.i32)
  | EBool bv -> Syntax.IntConst ((if bv then 1 else 0), Int_type.bool_it)
  | ENull -> Syntax.NullConst
  | ESizeof t ->
      Syntax.IntConst (Layout.size (layout_of_ctype ~loc:e.eloc fe.g t),
                       Int_type.size_t)
  | EUn (UNeg, a) ->
      let it = it_of fe e.eloc (ctype_of fe e) in
      Syntax.UnOp
        { op = Syntax.NegOp; ot = Syntax.OInt it; arg = rv_as fe a it }
  | EUn (UNot, a) -> (
      match resolve_ctype fe.g (ctype_of fe a) with
      | CPtr _ ->
          Syntax.UnOp { op = Syntax.LogNotOp; ot = Syntax.OPtr; arg = rv fe a }
      | t ->
          let it = it_of fe e.eloc t in
          Syntax.UnOp
            { op = Syntax.LogNotOp; ot = Syntax.OInt it; arg = rv fe a })
  | EUn (UBitNot, a) ->
      let it = it_of fe e.eloc (ctype_of fe e) in
      Syntax.UnOp
        { op = Syntax.BitNotOp; ot = Syntax.OInt it; arg = rv_as fe a it }
  | EBin ((BAnd | BOr), _, _) ->
      err e.eloc "&&/|| are only supported in conditions in this subset"
  | EBin (op, a, b) -> (
      let ta = resolve_ctype fe.g (ctype_of fe a) in
      let tb = resolve_ctype fe.g (ctype_of fe b) in
      match (ta, tb, op) with
      | CPtr elem, _, BAdd | _, CPtr elem, BAdd when not (is_ptr fe tb && is_ptr fe ta) ->
          let pe, ie, itid =
            if is_ptr fe ta then (a, b, it_of fe e.eloc tb)
            else (b, a, it_of fe e.eloc ta)
          in
          Syntax.BinOp
            {
              op = Syntax.PtrPlusOp (layout_of_ctype ~loc:e.eloc fe.g elem);
              ot1 = Syntax.OPtr;
              ot2 = Syntax.OInt itid;
              e1 = rv fe pe;
              e2 = rv fe ie;
            }
      | CPtr elem, _, BSub when not (is_ptr fe tb) ->
          let itid = it_of fe e.eloc tb in
          Syntax.BinOp
            {
              op = Syntax.PtrPlusOp (layout_of_ctype ~loc:e.eloc fe.g elem);
              ot1 = Syntax.OPtr;
              ot2 = Syntax.OInt itid;
              e1 = rv fe a;
              e2 =
                Syntax.UnOp
                  { op = Syntax.NegOp; ot = Syntax.OInt itid; arg = rv fe b };
            }
      | CPtr elem, CPtr _, BSub ->
          Syntax.BinOp
            {
              op = Syntax.PtrDiffOp (layout_of_ctype ~loc:e.eloc fe.g elem);
              ot1 = Syntax.OPtr;
              ot2 = Syntax.OPtr;
              e1 = rv fe a;
              e2 = rv fe b;
            }
      | CPtr _, _, (BEq | BNe | BLt | BLe | BGt | BGe)
      | _, CPtr _, (BEq | BNe | BLt | BLe | BGt | BGe) ->
          Syntax.BinOp
            {
              op = cbinop op;
              ot1 = Syntax.OPtr;
              ot2 = Syntax.OPtr;
              e1 = rv fe a;
              e2 = rv fe b;
            }
      | _ ->
          let common = it_of fe e.eloc (common_int fe e.eloc ta tb) in
          Syntax.BinOp
            {
              op = cbinop op;
              ot1 = Syntax.OInt common;
              ot2 = Syntax.OInt common;
              e1 = rv_as fe a common;
              e2 = rv_as fe b common;
            })
  | EAddr a -> lv fe a
  | ECast (t, a) -> (
      let ta = resolve_ctype fe.g (ctype_of fe a) in
      match (resolve_ctype fe.g t, ta) with
      | CPtr _, CPtr _ -> Syntax.CastPtrPtr (rv fe a)
      | CPtr _, _ when a.e = ENull -> Syntax.NullConst
      | tt, _ ->
          let to_ = it_of fe e.eloc tt in
          let from_ = it_of fe e.eloc ta in
          conv_to from_ to_ (rv fe a))
  | ECall ("atomic_load", [ p ]) -> (
      match resolve_ctype fe.g (ctype_of fe p) with
      | CPtr t ->
          Syntax.Use
            {
              atomic = true;
              layout = layout_of_ctype ~loc:e.eloc fe.g t;
              arg = rv fe p;
            }
      | _ -> err e.eloc "atomic_load expects a pointer")
  | ECall (f, _) ->
      err e.eloc
        "call to %s must be a statement (x = f(...);) in this subset" f
  | EAssign _ | EAssignOp _ ->
      err e.eloc "assignments must be statements in this subset"
  | ECond _ ->
      err e.eloc "the conditional operator is not supported in this subset"

and is_ptr fe t =
  match resolve_ctype fe.g t with CPtr _ -> true | _ -> false

and rv_as fe (a : expr) (target : Int_type.t) : Syntax.expr =
  let ta = resolve_ctype fe.g (ctype_of fe a) in
  conv_to (it_of fe a.eloc ta) target (rv fe a)

and cbinop = function
  | BAdd -> Syntax.AddOp
  | BSub -> Syntax.SubOp
  | BMul -> Syntax.MulOp
  | BDiv -> Syntax.DivOp
  | BMod -> Syntax.ModOp
  | BLt -> Syntax.LtOp
  | BLe -> Syntax.LeOp
  | BGt -> Syntax.GtOp
  | BGe -> Syntax.GeOp
  | BEq -> Syntax.EqOp
  | BNe -> Syntax.NeOp
  | BShl -> Syntax.ShlOp
  | BShr -> Syntax.ShrOp
  | BBitAnd -> Syntax.AndOp
  | BBitOr -> Syntax.OrOp
  | BBitXor -> Syntax.XorOp
  | BAnd | BOr -> invalid_arg "cbinop"

and lv (fe : fenv) (e : expr) : Syntax.expr =
  match e.e with
  | EId x ->
      if is_var fe x then Syntax.VarLoc x
      else err e.eloc "unbound variable %s" x
  | EDeref a -> rv fe a
  | EArrow (a, f) ->
      let sl = struct_of fe e.eloc (ctype_of fe a) in
      Syntax.FieldOfs { arg = rv fe a; struct_ = sl; field = f }
  | EMember (a, f) ->
      let sl = struct_of fe e.eloc (ctype_of fe a) in
      Syntax.FieldOfs { arg = lv fe a; struct_ = sl; field = f }
  | EIndex (a, i) -> (
      match resolve_ctype fe.g (ctype_of fe a) with
      | CPtr elem ->
          let iti = it_of fe i.eloc (ctype_of fe i) in
          Syntax.BinOp
            {
              op = Syntax.PtrPlusOp (layout_of_ctype ~loc:e.eloc fe.g elem);
              ot1 = Syntax.OPtr;
              ot2 = Syntax.OInt iti;
              e1 = rv fe a;
              e2 = rv fe i;
            }
      | _ -> err e.eloc "indexing a non-pointer")
  | _ -> err e.eloc "expression is not an lvalue"

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let branch br_kind br_loc = { Rc_refinedc.Lang.br_kind; br_loc }

(** short-circuit condition elaboration *)
let rec elab_cond (b : builder) (e : expr) ~(ltrue : string) ~(lfalse : string)
    (loc : Rc_util.Srcloc.t) : unit =
  let fe = b.fe.fenv in
  match e.e with
  | EUn (UNot, a) -> elab_cond b a ~ltrue:lfalse ~lfalse:ltrue loc
  | EBin (BAnd, x, y) ->
      let lmid = fresh_label b "and" in
      elab_cond b x ~ltrue:lmid ~lfalse loc;
      start_block b lmid;
      elab_cond b y ~ltrue ~lfalse loc
  | EBin (BOr, x, y) ->
      let lmid = fresh_label b "or" in
      elab_cond b x ~ltrue ~lfalse:lmid loc;
      start_block b lmid;
      elab_cond b y ~ltrue ~lfalse loc
  | _ ->
      let ot =
        match resolve_ctype fe.g (ctype_of fe e) with
        | CPtr _ -> Syntax.OPtr
        | t -> Syntax.OInt (it_of fe e.eloc t)
      in
      close_block b ~loc
        (Syntax.CondGoto { ot; cond = rv fe e; if_true = ltrue; if_false = lfalse })

let elab_call (b : builder) loc (dest : expr option) (f : string)
    (args : expr list) : unit =
  let fe = b.fe.fenv in
  let dest_parts () =
    match dest with
    | None -> None
    | Some d ->
        let layout = layout_of_ctype ~loc fe.g (ctype_of fe d) in
        Some (layout, lv fe d)
  in
  match (f, args) with
  | "atomic_store", [ p; v ] -> (
      match resolve_ctype fe.g (ctype_of fe p) with
      | CPtr t ->
          let layout = layout_of_ctype ~loc fe.g t in
          let it = it_of fe loc t in
          emit b ~loc
            (Syntax.Assign
               { atomic = true; layout; lhs = rv fe p; rhs = rv_as fe v it })
      | _ -> err loc "atomic_store expects a pointer")
  | "atomic_load", [ _ ] -> (
      match dest with
      | Some d ->
          let layout = layout_of_ctype ~loc fe.g (ctype_of fe d) in
          emit b ~loc
            (Syntax.Assign
               { atomic = false; layout; lhs = lv fe d;
                 rhs = rv fe { e = ECall (f, args); eloc = loc } })
      | None -> ())
  | "atomic_compare_exchange_strong", [ o; ex; d ] -> (
      match resolve_ctype fe.g (ctype_of fe o) with
      | CPtr t ->
          let layout = layout_of_ctype ~loc fe.g t in
          let it = it_of fe loc t in
          emit b ~loc
            (Syntax.Cas
               {
                 layout;
                 obj = rv fe o;
                 expected = rv fe ex;
                 desired = rv_as fe d it;
                 dest = dest_parts ();
               })
      | _ -> err loc "CAS expects a pointer")
  | _ -> (
      (* ordinary or indirect call *)
      let fn_expr, sig_ =
        match var_type fe f with
        | Some ft -> (
            (* call through a function-pointer variable *)
            match resolve_ctype fe.g ft with
            | CPtr fty | (CFn _ as fty) -> (
                match resolve_ctype fe.g fty with
                | CFn (ps, r) ->
                    ( Syntax.Use
                        { atomic = false; layout = Layout.FnPtr;
                          arg = Syntax.VarLoc f },
                      (ps, r) )
                | _ -> err loc "calling a non-function %s" f)
            | _ -> err loc "calling a non-function %s" f)
        | None -> (
            match Hashtbl.find_opt fe.g.fn_sigs f with
            | Some s -> (Syntax.FnAddr f, s)
            | None -> err loc "call to unknown function %s" f)
      in
      let ps, _ = sig_ in
      if List.length ps <> List.length args then
        err loc "wrong number of arguments to %s" f;
      let cargs =
        List.map2
          (fun pt a ->
            let layout = layout_of_ctype ~loc fe.g pt in
            let e =
              match (resolve_ctype fe.g pt, resolve_ctype fe.g (ctype_of fe a)) with
              | CPtr _, _ -> rv fe a
              | t, _ -> rv_as fe a (it_of fe loc t)
            in
            (layout, e))
          ps args
      in
      emit b ~loc (Syntax.Call { dest = dest_parts (); fn = fn_expr; args = cargs }))

let rec elab_stmt (b : builder) (s : stmt) : unit =
  if b.closed then ()
  else
    let fe () = b.fe.fenv in
    let loc = s.sloc in
    match s.s with
    | SBlock ss -> List.iter (elab_stmt b) ss
    | SDecl (t, x, init) -> (
        let layout = layout_of_ctype ~loc (fe ()).g t in
        b.locals <- (x, layout) :: b.locals;
        b.fe.fenv <- { (fe ()) with vars = (x, t) :: (fe ()).vars };
        match init with
        | None -> ()
        | Some { e = ECall (f, args); eloc } ->
            elab_call b eloc (Some { e = EId x; eloc }) f args
        | Some e ->
            let fe = fe () in
            let rhs =
              match resolve_ctype fe.g t with
              | CPtr _ | CFn _ -> rv fe e
              | tt -> rv_as fe e (it_of fe loc tt)
            in
            emit b ~loc
              (Syntax.Assign { atomic = false; layout; lhs = Syntax.VarLoc x; rhs }))
    | SExpr { e = EAssign (d, { e = ECall (f, args); eloc; _ }); _ } ->
        elab_call b eloc (Some d) f args
    | SExpr { e = ECall (f, args); eloc; _ } -> elab_call b eloc None f args
    | SExpr { e = EAssign (d, e); _ } ->
        let fe = fe () in
        let layout = layout_of_ctype ~loc fe.g (ctype_of fe d) in
        let rhs =
          match resolve_ctype fe.g (ctype_of fe d) with
          | CPtr _ -> rv fe e
          | t -> rv_as fe e (it_of fe loc t)
        in
        emit b ~loc (Syntax.Assign { atomic = false; layout; lhs = lv fe d; rhs })
    | SExpr { e = EAssignOp (op, d, e); eloc } ->
        let full =
          { e = EAssign (d, { e = EBin (op, d, e); eloc }); eloc }
        in
        elab_stmt b { s = SExpr full; sloc = loc }
    | SExpr e ->
        let fe = fe () in
        emit b ~loc (Syntax.ExprStmt (rv fe e))
    | SReturn (Some ({ e = ECall (f, args); eloc } as _call))
      when f <> "atomic_load" ->
        (* return f(...): introduce a temporary for the call result *)
        let tmp = label "__ret" b.nlab in
        b.nlab <- b.nlab + 1;
        let fe0 = fe () in
        let rett =
          ctype_of fe0 { e = ECall (f, args); eloc }
        in
        let layout = layout_of_ctype ~loc fe0.g rett in
        b.locals <- (tmp, layout) :: b.locals;
        b.fe.fenv <- { fe0 with vars = (tmp, rett) :: fe0.vars };
        elab_call b eloc (Some { e = EId tmp; eloc }) f args;
        elab_stmt b { s = SReturn (Some { e = EId tmp; eloc }); sloc = loc }
    | SReturn eo -> (
        let fe = fe () in
        match eo with
        | None -> close_block b ~loc (Syntax.Return None)
        | Some e ->
            let rhs =
              match resolve_ctype fe.g fe.ret with
              | CPtr _ -> rv fe e
              | CVoid -> err loc "returning a value from a void function"
              | t -> rv_as fe e (it_of fe loc t)
            in
            close_block b ~loc (Syntax.Return (Some rhs)))
    | SBreak -> (
        match b.break_targets with
        | t :: _ -> close_block b ~loc (Syntax.Goto t)
        | [] -> err loc "break outside a loop")
    | SContinue -> (
        match b.continue_targets with
        | t :: _ -> close_block b ~loc (Syntax.Goto t)
        | [] -> err loc "continue outside a loop")
    | SIf (c, then_, else_) ->
        let lt = fresh_label b "then" in
        let lf = fresh_label b "else" in
        let lj = fresh_label b "join" in
        b.block_descr <-
          (lt, branch Then_branch loc)
          :: (lf, branch Else_branch loc)
          :: b.block_descr;
        elab_cond b c ~ltrue:lt ~lfalse:lf loc;
        let saved_vars = (fe ()).vars in
        start_block b lt;
        List.iter (elab_stmt b) then_;
        close_block b (Syntax.Goto lj);
        b.fe.fenv <- { (fe ()) with vars = saved_vars };
        start_block b lf;
        List.iter (elab_stmt b) else_;
        close_block b (Syntax.Goto lj);
        b.fe.fenv <- { (fe ()) with vars = saved_vars };
        start_block b lj
    | SSwitch (scrut, cases, default) ->
        let fe0 = fe () in
        let it = it_of fe0 loc (ctype_of fe0 scrut) in
        let sv = rv_as fe0 scrut it in
        let lexit = fresh_label b "swexit" in
        let case_lbls = List.map (fun (n, _) -> (n, fresh_label b "case")) cases in
        let ldefault = fresh_label b "default" in
        List.iter
          (fun (n, l) ->
            b.block_descr <-
              (l, branch (Switch_case n) loc)
              :: b.block_descr)
          case_lbls;
        b.block_descr <-
          (ldefault, branch Switch_default loc)
          :: b.block_descr;
        close_block b ~loc
          (Syntax.Switch
             {
               ot = Syntax.OInt it;
               scrut = sv;
               cases = case_lbls;
               default = ldefault;
             });
        b.break_targets <- lexit :: b.break_targets;
        (* C fallthrough: each case falls into the next, then default *)
        let rec emit_cases = function
          | [] -> ()
          | ((_, lbl), body) :: rest ->
              start_block b lbl;
              List.iter (elab_stmt b) body;
              let next =
                match rest with ((_, l), _) :: _ -> l | [] -> ldefault
              in
              close_block b (Syntax.Goto next);
              emit_cases rest
        in
        emit_cases (List.combine case_lbls (List.map snd cases));
        start_block b ldefault;
        List.iter (elab_stmt b) default;
        close_block b (Syntax.Goto lexit);
        b.break_targets <- List.tl b.break_targets;
        start_block b lexit
    | SWhile (atts, c, body) -> elab_loop b loc atts None (Some c) None body
    | SFor (atts, init, cond, step, body) ->
        (match init with Some s -> elab_stmt b s | None -> ());
        elab_loop b loc atts None cond
          (Option.map (fun e -> { s = SExpr e; sloc = loc }) step)
          body

and elab_loop b loc atts _ cond step body =
  let lhead = fresh_label b "loop" in
  let lbody = fresh_label b "body" in
  let lexit = fresh_label b "exit" in
  b.block_descr <-
    (lbody, branch Loop_body loc)
    :: (lexit, branch Loop_exit loc)
    :: b.block_descr;
  (* loop invariant annotations *)
  with_spec_loc loc (fun () ->
   let exists_binders =
     List.map Specparse.binder (attr_args "exists" atts)
   in
   let env_vars = b.spec_params @ exists_binders in
   let env = spec_env b.fe.fenv.g env_vars in
   let inv_vars =
     List.map (Specparse.inv_var ~env) (attr_joined "inv_vars" atts)
   in
   let constraints =
     List.map (Specparse.prop ~env) (attr_args "constraints" atts)
   in
   if inv_vars <> [] || exists_binders <> [] || constraints <> [] then
     b.invs <-
       (lhead, { li_exists = exists_binders; li_vars = inv_vars;
                 li_constraints = constraints })
       :: b.invs);
  close_block b (Syntax.Goto lhead);
  start_block b lhead;
  (match cond with
  | Some c -> elab_cond b c ~ltrue:lbody ~lfalse:lexit loc
  | None -> close_block b (Syntax.Goto lbody));
  start_block b lbody;
  b.break_targets <- lexit :: b.break_targets;
  (* continue re-runs the step, then jumps to the head *)
  let lcont =
    match step with
    | None -> lhead
    | Some _ -> fresh_label b "step"
  in
  b.continue_targets <- lcont :: b.continue_targets;
  List.iter (elab_stmt b) body;
  close_block b (Syntax.Goto lcont);
  b.break_targets <- List.tl b.break_targets;
  b.continue_targets <- List.tl b.continue_targets;
  (match step with
  | None -> ()
  | Some s ->
      start_block b lcont;
      elab_stmt b s;
      close_block b (Syntax.Goto lhead));
  start_block b lexit

(* ------------------------------------------------------------------ *)
(* Functions                                                           *)
(* ------------------------------------------------------------------ *)

let parse_fn_spec (g : genv) (fd : fun_decl) : fn_spec option =
  if attr_args "args" fd.fn_attrs = [] && attr_args "returns" fd.fn_attrs = []
  then None
  else
    with_spec_loc fd.fn_loc @@ fun () ->
    let params = List.map Specparse.binder (attr_args "parameters" fd.fn_attrs) in
    let env = spec_env g params in
    let args = List.map (Specparse.rtype ~env) (attr_args "args" fd.fn_attrs) in
    let pre = List.map (Specparse.hres_item ~env) (attr_args "requires" fd.fn_attrs) in
    let exists = List.map Specparse.binder (attr_args "exists" fd.fn_attrs) in
    let env_post = spec_env g (params @ exists) in
    let ret =
      match attr_joined "returns" fd.fn_attrs with
      | [] -> t_void
      | [ s ] -> Specparse.rtype ~env:env_post s
      | _ -> raise (Specparse.Spec_error "multiple rc::returns")
    in
    let post =
      List.map (Specparse.hres_item ~env:env_post) (attr_args "ensures" fd.fn_attrs)
    in
    let tactics =
      List.concat_map Specparse.tactics_item (attr_args "tactics" fd.fn_attrs)
    in
    Some
      {
        fs_name = fd.fn_name;
        fs_params = params;
        fs_args = args;
        fs_pre = pre;
        fs_exists = exists;
        fs_ret = ret;
        fs_post = post;
        fs_tactics = tactics;
        fs_loc = Some fd.fn_loc;
      }

let elab_fun (g : genv) (fd : fun_decl) (body : Cabs.stmt list) :
    Syntax.func * fn_meta * (string * loop_inv) list =
  let fe =
    {
      g;
      vars = List.map (fun (t, x) -> (x, t)) fd.fn_params;
      ret = fd.fn_ret;
    }
  in
  let spec_params =
    match Hashtbl.find_opt g.fn_specs fd.fn_name with
    | Some sp -> sp.fs_params
    | None -> []
  in
  let b =
    {
      fe = { fenv = fe };
      blocks = [];
      cur_label = "entry";
      cur_stmts = [];
      cur_len = 0;
      closed = false;
      locals = [];
      nlab = 0;
      stmt_locs = [];
      term_locs = [];
      block_descr = [];
      invs = [];
      break_targets = [];
      continue_targets = [];
      spec_params;
    }
  in
  List.iter (elab_stmt b) body;
  (* implicit return at the end of void functions *)
  (match resolve_ctype g fd.fn_ret with
  | CVoid -> close_block b (Syntax.Return None)
  | _ -> close_block b Syntax.Unreachable);
  let func =
    {
      Syntax.fname = fd.fn_name;
      args =
        List.map
          (fun (t, x) -> (x, layout_of_ctype ~loc:fd.fn_loc g t))
          fd.fn_params;
      locals = List.rev b.locals;
      ret_layout = layout_of_ctype ~loc:fd.fn_loc g fd.fn_ret;
      blocks = List.rev b.blocks;
      entry = "entry";
    }
  in
  let meta =
    {
      fm_stmt_locs = b.stmt_locs;
      fm_term_locs = b.term_locs;
      fm_block_descr = b.block_descr;
    }
  in
  (func, meta, b.invs)

(* ------------------------------------------------------------------ *)
(* Whole files                                                         *)
(* ------------------------------------------------------------------ *)

type elaborated = {
  program : Syntax.program;
  to_check : Rc_refinedc.Typecheck.fn_to_check list;
  indexes : (string * Rc_refinedc.Lang.fn_index) list;
      (** the block and source-metadata index of {e every} function with
          a body, specified or not — lint passes that analyze the whole
          unit (the concurrency passes) use this to attach real locations
          to diagnostics in unspecified functions *)
  genv : genv;
  warnings : Rc_util.Diagnostic.t list;
}

let elab_file ~(tenv : Rc_refinedc.Rtype.tenv) (file : Cabs.file) :
    elaborated =
  let g = new_genv ~tenv () in
  let warnings = ref [] in
  (* pass 1: structs, typedefs, function signatures and specs *)
  List.iter
    (fun d ->
      match d with
      | DStruct sd ->
          (match sd.sd_typedef with
          | Some (is_ptr, name) ->
              Hashtbl.replace g.typedefs name
                (if is_ptr then CPtr (CStructRef sd.sd_name)
                 else CStructRef sd.sd_name)
          | None -> ());
          elab_struct g sd
      | DTypedef (x, t) -> Hashtbl.replace g.typedefs x t
      | DFun fd ->
          Hashtbl.replace g.fn_sigs fd.fn_name
            (List.map fst fd.fn_params, fd.fn_ret))
    file.decls;
  List.iter
    (fun d ->
      match d with
      | DFun fd -> (
          match parse_fn_spec g fd with
          | Some sp -> Hashtbl.replace g.fn_specs fd.fn_name sp
          | None ->
              if fd.fn_body <> None then
                warnings :=
                  Rc_util.Diagnostic.make ~severity:Rc_util.Diagnostic.Note
                    ~code:"RC-L014" ~loc:fd.fn_loc
                    ~hint:"add rc:: annotations to bring it under verification"
                    (Fmt.str
                       "function %s has no specification and is not verified"
                       fd.fn_name)
                  :: !warnings)
      | _ -> ())
    file.decls;
  (* pass 2: bodies *)
  let funcs = ref [] in
  let to_check = ref [] in
  let indexes = ref [] in
  List.iter
    (fun d ->
      match d with
      | DFun ({ fn_body = Some body; _ } as fd) -> (
          let func, meta, invs = elab_fun g fd body in
          let index = Rc_refinedc.Lang.index_fn func meta in
          funcs := (fd.fn_name, func) :: !funcs;
          indexes := (fd.fn_name, index) :: !indexes;
          match Hashtbl.find_opt g.fn_specs fd.fn_name with
          | Some spec ->
              to_check :=
                { Rc_refinedc.Typecheck.func; spec; invs; index } :: !to_check
          | None -> ())
      | _ -> ())
    file.decls;
  {
    program =
      {
        Syntax.funcs = List.rev !funcs;
        globals = [];
        structs = g.struct_list;
      };
    to_check = List.rev !to_check;
    indexes = List.rev !indexes;
    genv = g;
    warnings = !warnings;
  }
