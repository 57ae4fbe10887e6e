(** RefinedC's typing judgments — the basic goals [F] of Lithium (§5–§6).

    Each program construct has a specialized judgment (⊢IF, ⊢BINOP, …)
    parameterized by the types of the values it operates on; the types
    uniquely determine the applicable rule, which is what makes the
    search syntax-directed.  Continuations (the [{v, τ. G}] parts) are
    higher-order, exactly as in the paper's continuation-passing
    judgments. *)

open Rc_pure
open Rc_pure.Term
module Syntax = Rc_caesium.Syntax
module Layout = Rc_caesium.Layout
module Int_type = Rc_caesium.Int_type
open Rtype

(** The construct a block label starts, for error trails (the "else
    branch of if on line 11" of §2.1). *)
type branch_kind =
  | Then_branch
  | Else_branch
  | Switch_case of int
  | Switch_default
  | Loop_body
  | Loop_exit

type branch = { br_kind : branch_kind; br_loc : Rc_util.Srcloc.t }

(** The human-readable text of a branch, e.g. ["the else-branch of the
    if at f.c:11:3-20"]. *)
let branch_text (br : branch) : string =
  let kind =
    match br.br_kind with
    | Then_branch -> "then-branch of the if"
    | Else_branch -> "else-branch of the if"
    | Switch_case n -> Printf.sprintf "case %d of the switch" n
    | Switch_default -> "default case of the switch"
    | Loop_body -> "body of the loop"
    | Loop_exit -> "exit of the loop"
  in
  Fmt.str "the %s at %a" kind Rc_util.Srcloc.pp br.br_loc

(** Side tables produced by the frontend: source locations of statements
    and terminators, and the branch each label starts.  Branch texts are
    rendered only when read ({!block_descr}): when the function is
    re-proved, or when RC-L003 reports the label. *)
type fn_meta = {
  fm_stmt_locs : ((string * int) * Rc_util.Srcloc.t) list;
  fm_term_locs : (string * Rc_util.Srcloc.t) list;
  fm_block_descr : (string * branch) list;
}

let empty_meta = { fm_stmt_locs = []; fm_term_locs = []; fm_block_descr = [] }

(** What a {!fn_index} knows about one block label.  The mutable fields
    are filled in by {!index_fn} and never written afterwards. *)
type block_entry = {
  be_block : Syntax.block option;  (** [None]: the label has metadata only *)
  be_stmts : Syntax.stmt array;  (** [be_block]'s statements *)
  mutable be_stmt_locs : Rc_util.Srcloc.t option array;
      (** by statement index; at least as long as [be_stmts] *)
  mutable be_term_loc : Rc_util.Srcloc.t option;
  mutable be_branch : branch option;
  be_descr : string option Atomic.t;
      (** [branch_text] of [be_branch], once read.  Two domains that race
          on the first read both render the same string, so the slot is
          safe to share; a [Lazy.t] would raise when forced from two
          domains at once. *)
}

(** A function's blocks and {!fn_meta} side tables, keyed by label and
    built once per function ({!index_fn}) in one table and one pass over
    each list.  Every lookup answers exactly
    what [List.assoc_opt] over the function's lists answers (the first
    entry of a label wins), in one hash lookup and an array access
    instead of a scan that grows with the function. *)
type fn_index = {
  fi_meta : fn_meta;  (** the side tables the index was built from *)
  fi_labels : (string, block_entry) Hashtbl.t;  (** read-only once built *)
}

let index_fn (func : Syntax.func) (meta : fn_meta) : fn_index =
  let fi_labels = Hashtbl.create (2 * List.length func.Syntax.blocks) in
  let add l block stmts =
    let e =
      {
        be_block = block;
        be_stmts = stmts;
        be_stmt_locs = Array.make (Array.length stmts) None;
        be_term_loc = None;
        be_branch = None;
        be_descr = Atomic.make None;
      }
    in
    Hashtbl.add fi_labels l e;
    e
  in
  let entry l =
    match Hashtbl.find_opt fi_labels l with
    | Some e -> e
    | None -> add l None [||]
  in
  List.iter
    (fun (l, b) ->
      if not (Hashtbl.mem fi_labels l) then
        ignore (add l (Some b) (Array.of_list b.Syntax.stmts)))
    func.Syntax.blocks;
  List.iter
    (fun (l, loc) ->
      let e = entry l in
      if Option.is_none e.be_term_loc then e.be_term_loc <- Some loc)
    meta.fm_term_locs;
  List.iter
    (fun (l, d) ->
      let e = entry l in
      if Option.is_none e.be_branch then e.be_branch <- Some d)
    meta.fm_block_descr;
  List.iter
    (fun ((l, i), loc) ->
      if i >= 0 then begin
        let e = entry l in
        if i >= Array.length e.be_stmt_locs then begin
          let locs = Array.make (i + 1) None in
          Array.blit e.be_stmt_locs 0 locs 0 (Array.length e.be_stmt_locs);
          e.be_stmt_locs <- locs
        end;
        if Option.is_none e.be_stmt_locs.(i) then
          e.be_stmt_locs.(i) <- Some loc
      end)
    meta.fm_stmt_locs;
  { fi_meta = meta; fi_labels }

let block_entry (ix : fn_index) label = Hashtbl.find_opt ix.fi_labels label

let entry_stmt_loc (e : block_entry) idx =
  if idx >= 0 && idx < Array.length e.be_stmt_locs then e.be_stmt_locs.(idx)
  else None

(** [List.assoc_opt (label, idx) fm_stmt_locs] *)
let stmt_loc (ix : fn_index) label idx =
  match block_entry ix label with
  | Some e -> entry_stmt_loc e idx
  | None -> None

(** [List.assoc_opt label fm_term_locs] *)
let term_loc (ix : fn_index) label =
  match block_entry ix label with Some e -> e.be_term_loc | None -> None

(** [branch_text] of [List.assoc_opt label fm_block_descr], rendered on
    the first read of this label *)
let block_descr (ix : fn_index) label =
  match block_entry ix label with
  | Some { be_branch = Some br; be_descr; _ } -> (
      match Atomic.get be_descr with
      | Some _ as text -> text
      | None ->
          let text = Some (branch_text br) in
          Atomic.set be_descr text;
          text)
  | _ -> None

(** Loop invariant (rc::exists / rc::inv_vars / rc::constraints, §2.2). *)
type loop_inv = {
  li_exists : (string * Sort.t) list;
  li_vars : (string * rtype) list;  (** C variable ↦ type of its content *)
  li_constraints : prop list;
}

(** The function state Σ: CFG, specification, loop invariants, the
    variable environment (C variable ↦ location term), specs of callable
    functions, and frontend metadata. *)
type fn_ctx = {
  fc_func : Syntax.func;
  fc_spec : fn_spec;
  fc_specs : (string * fn_spec) list;
  fc_invs : (string * loop_inv) list;
  fc_env : (string * term) list;
  fc_penv : (string * term) list;
      (** instantiation of the spec parameters with this branch's fresh
          universals — applied to loop-invariant annotations *)
  fc_index : fn_index;
  fc_depth : int;  (** goto-inlining depth guard (loops need invariants) *)
}

type f =
  | FSubsume of { sub : atom; super : atom; cont : goal }
      (** A₁ <: A₂ {G} *)
  | FBlock of { sigma : fn_ctx; label : string; idx : int }
      (** ⊢STMT: the suffix of block [label] starting at statement [idx] *)
  | FGoto of { sigma : fn_ctx; target : string }
      (** jump to a block: proves the loop invariant if one is declared *)
  | FExpr of { sigma : fn_ctx; expr : Syntax.expr; cont : term -> rtype -> goal }
      (** ⊢EXPR e {v, τ. G} *)
  | FReadLoc of {
      loc_term : term;
      layout : Layout.t;
      atomic : bool;
      cont : term -> rtype -> goal;
      src : Rc_util.Srcloc.t option;
    }  (** typed read: find the atom owning [loc_term], then ⊢READ *)
  | FReadTy of {
      loc_term : term;
      sub_l : term;  (** subject of the atom found in Δ (base of array
                         or uninit block when they differ) *)
      ty : rtype;
      layout : Layout.t;
      atomic : bool;
      cont : term -> rtype -> goal;
      src : Rc_util.Srcloc.t option;
    }  (** ⊢READ, dispatching on the type of the location *)
  | FWriteLoc of {
      loc_term : term;
      layout : Layout.t;
      atomic : bool;
      v : term;
      vty : rtype;
      cont : goal;
      src : Rc_util.Srcloc.t option;
    }
  | FWriteTy of {
      loc_term : term;
      sub_l : term;
      ty : rtype;
      layout : Layout.t;
      atomic : bool;
      v : term;
      vty : rtype;
      cont : goal;
      src : Rc_util.Srcloc.t option;
    }
  | FBinop of {
      op : Syntax.binop;
      ot1 : Syntax.ot;
      ot2 : Syntax.ot;
      v1 : term;
      ty1 : rtype;
      v2 : term;
      ty2 : rtype;
      cont : term -> rtype -> goal;
      src : Rc_util.Srcloc.t option;
    }  (** ⊢BINOP (v₁:τ₁) ⊙ (v₂:τ₂) {v, τ. G} *)
  | FUnop of {
      op : Syntax.unop;
      ot : Syntax.ot;
      v : term;
      ty : rtype;
      cont : term -> rtype -> goal;
      src : Rc_util.Srcloc.t option;
    }
  | FCast of {
      from_ : Int_type.t;
      to_ : Int_type.t;
      v : term;
      ty : rtype;
      cont : term -> rtype -> goal;
      src : Rc_util.Srcloc.t option;
    }
  | FIf of {
      v : term;
      ty : rtype;
      gthen : goal;
      gelse : goal;
      lbl_then : string option;  (** branch-trail labels for errors *)
      lbl_else : string option;
      src : Rc_util.Srcloc.t option;
    }  (** ⊢IF τ then s₁ else s₂ *)
  | FSwitchJ of {
      v : term;
      ty : rtype;
      cases : (int * goal) list;
      dflt : goal;
      src : Rc_util.Srcloc.t option;
    }
  | FCall of {
      spec : fn_spec;
      args : (term * rtype) list;
      cont : term -> rtype -> goal;
      src : Rc_util.Srcloc.t option;
    }  (** call a function whose (instantiated) spec is known *)
  | FCas of {
      it : Int_type.t;
      vobj : term;
      tobj : rtype;
      vexp : term;
      texp : rtype;
      vdes : term;
      tdes : rtype;
      cont : term -> rtype -> goal;
      src : Rc_util.Srcloc.t option;
    }  (** ⊢CAS (§6, rule CAS-BOOL) *)

and goal = (f, atom) Rc_lithium.Goal.goal

(* ------------------------------------------------------------------ *)
(* LANG instance                                                       *)
(* ------------------------------------------------------------------ *)

let head_of_f = function
  | FSubsume _ -> "subsume"
  | FBlock _ -> "stmt"
  | FGoto _ -> "goto"
  | FExpr _ -> "expr"
  | FReadLoc _ -> "read-loc"
  | FReadTy _ -> "read"
  | FWriteLoc _ -> "write-loc"
  | FWriteTy _ -> "write"
  | FBinop _ -> "binop"
  | FUnop _ -> "unop"
  | FCast _ -> "cast"
  | FIf _ -> "if"
  | FSwitchJ _ -> "switch"
  | FCall _ -> "call"
  | FCas _ -> "cas"

(** Every head {!head_of_f} can produce — the valid vocabulary for a
    rule's [heads] declaration (a declared head outside this list can
    never be dispatched to). *)
let all_heads =
  [
    "subsume"; "stmt"; "goto"; "expr"; "read-loc"; "read"; "write-loc";
    "write"; "binop"; "unop"; "cast"; "if"; "switch"; "call"; "cas";
  ]

(* The interned-head vocabulary: [head_id_of_f] must stay aligned with
   [head_names] (same order as [all_heads] and [head_of_f]). *)
let head_names = Array.of_list all_heads

let head_id_of_f = function
  | FSubsume _ -> 0
  | FBlock _ -> 1
  | FGoto _ -> 2
  | FExpr _ -> 3
  | FReadLoc _ -> 4
  | FReadTy _ -> 5
  | FWriteLoc _ -> 6
  | FWriteTy _ -> 7
  | FBinop _ -> 8
  | FUnop _ -> 9
  | FCast _ -> 10
  | FIf _ -> 11
  | FSwitchJ _ -> 12
  | FCall _ -> 13
  | FCas _ -> 14

(** Memoizable judgments.  ⊢GOTO is the only one: its continuation is
    fully implied by its own data (the target block's code, looked up in
    [sigma]), so its printed identity plus the resolved Δ determines the
    whole subtree.  Every other judgment carries its continuation as a
    closure the printer cannot see.  The key includes the goto-inlining
    depth (it bounds further inlining) and the parameter/variable
    environments, which are the only [sigma] components that vary
    between visits to the same target within one checked function. *)
let memo_key_of_f (resolve : term -> term) = function
  | FGoto { sigma; target } ->
      let b = Buffer.create 128 in
      Buffer.add_string b target;
      Buffer.add_char b '@';
      Buffer.add_string b (string_of_int sigma.fc_depth);
      List.iter
        (fun (x, t) ->
          Buffer.add_char b ';';
          Buffer.add_string b x;
          Buffer.add_char b '=';
          Buffer.add_string b (term_to_string (resolve t)))
        sigma.fc_penv;
      List.iter
        (fun (x, t) ->
          Buffer.add_char b '!';
          Buffer.add_string b x;
          Buffer.add_char b '=';
          Buffer.add_string b (term_to_string (resolve t)))
        sigma.fc_env;
      Some (Buffer.contents b)
  | _ -> None

let loc_of_f = function
  | FSubsume _ -> None
  | FBlock { sigma; label; idx } -> (
      match block_entry sigma.fc_index label with
      | None -> None
      | Some e -> (
          match entry_stmt_loc e idx with
          | Some l -> Some l
          | None -> e.be_term_loc))
  | FGoto _ -> None
  | FExpr _ -> None
  | FReadLoc { src; _ }
  | FReadTy { src; _ }
  | FWriteLoc { src; _ }
  | FWriteTy { src; _ }
  | FBinop { src; _ }
  | FUnop { src; _ }
  | FCast { src; _ }
  | FIf { src; _ }
  | FSwitchJ { src; _ }
  | FCall { src; _ }
  | FCas { src; _ } ->
      src

let binop_symbol : Syntax.binop -> string = function
  | Syntax.AddOp | Syntax.PtrPlusOp _ -> "+"
  | Syntax.SubOp | Syntax.PtrDiffOp _ -> "-"
  | Syntax.MulOp -> "*"
  | Syntax.DivOp -> "/"
  | Syntax.ModOp -> "%"
  | Syntax.AndOp -> "&"
  | Syntax.OrOp -> "|"
  | Syntax.XorOp -> "^"
  | Syntax.ShlOp -> "<<"
  | Syntax.ShrOp -> ">>"
  | Syntax.EqOp -> "=="
  | Syntax.NeOp -> "!="
  | Syntax.LtOp -> "<"
  | Syntax.LeOp -> "<="
  | Syntax.GtOp -> ">"
  | Syntax.GeOp -> ">="

(** ⊢EXPR renders its expression on one line, C-like, with Caesium's
    layout annotations in braces: [&x] is the location of [x] (or the
    address of function [x]), [*{L}e] loads an [L] from [e] ([*atomic{L}e]
    atomically), [&e->s.f] is the address of field [f] of struct [s] at
    [e], and [+{L}]/[-{L}] are pointer arithmetic scaled by [L].  Layouts
    print by name ({!Layout.pp}), so a judgment's text grows with the
    expression only — never with the struct definitions it mentions.
    Compound operands are parenthesized. *)
let rec pp_expr ppf (e : Syntax.expr) =
  match e with
  | Syntax.IntConst (n, _) -> Fmt.int ppf n
  | Syntax.NullConst -> Fmt.string ppf "NULL"
  | Syntax.FnAddr x | Syntax.VarLoc x -> Fmt.pf ppf "&%s" x
  | Syntax.Use { atomic; layout; arg } ->
      Fmt.pf ppf "*%s{%a}%a"
        (if atomic then "atomic" else "")
        Layout.pp layout pp_operand arg
  | Syntax.FieldOfs { arg; struct_; field } ->
      Fmt.pf ppf "&%a->%s.%s" pp_operand arg struct_.Layout.sl_name field
  | Syntax.BinOp { op; e1; e2; _ } -> (
      match op with
      | Syntax.PtrPlusOp l | Syntax.PtrDiffOp l ->
          Fmt.pf ppf "%a %s{%a} %a" pp_operand e1 (binop_symbol op) Layout.pp
            l pp_operand e2
      | _ -> Fmt.pf ppf "%a %s %a" pp_operand e1 (binop_symbol op) pp_operand e2)
  | Syntax.UnOp { op; arg; _ } ->
      Fmt.pf ppf "%s%a"
        (match op with
        | Syntax.NegOp -> "-"
        | Syntax.BitNotOp -> "~"
        | Syntax.LogNotOp -> "!")
        pp_operand arg
  | Syntax.CastIntInt { to_; arg; _ } ->
      Fmt.pf ppf "(%a)%a" Int_type.pp to_ pp_operand arg
  | Syntax.CastPtrPtr arg -> Fmt.pf ppf "(void*)%a" pp_operand arg

and pp_operand ppf (e : Syntax.expr) =
  match e with
  | Syntax.IntConst (n, _) when n < 0 -> Fmt.pf ppf "(%d)" n
  | Syntax.IntConst _ | Syntax.NullConst | Syntax.FnAddr _ | Syntax.VarLoc _ ->
      pp_expr ppf e
  | _ -> Fmt.pf ppf "(%a)" pp_expr e

let pp_f ppf (j : f) =
  let p fmt = Fmt.pf ppf fmt in
  match j with
  | FSubsume { sub; super; _ } ->
      p "%a <: %a" pp_atom sub pp_atom super
  | FBlock { label; idx; _ } -> p "⊢STMT %s[%d]" label idx
  | FGoto { target; _ } -> p "⊢GOTO %s" target
  | FExpr { expr; _ } -> p "⊢EXPR %a" pp_expr expr
  | FReadLoc { loc_term; _ } -> p "⊢READ-LOC %a" pp_term loc_term
  | FReadTy { loc_term; ty; _ } ->
      p "⊢READ %a : %a" pp_term loc_term pp_rtype ty
  | FWriteLoc { loc_term; v; _ } ->
      p "⊢WRITE-LOC %a := %a" pp_term loc_term pp_term v
  | FWriteTy { loc_term; ty; v; vty; _ } ->
      p "⊢WRITE (%a : %a) := (%a : %a)" pp_term loc_term pp_rtype ty pp_term v
        pp_rtype vty
  | FBinop { op; v1; ty1; v2; ty2; _ } ->
      p "⊢BINOP (%a : %a) %s (%a : %a)" pp_term v1 pp_rtype ty1
        (Syntax.show_binop op) pp_term v2 pp_rtype ty2
  | FUnop { op; v; ty; _ } ->
      p "⊢UNOP %s (%a : %a)" (Syntax.show_unop op) pp_term v pp_rtype ty
  | FCast { from_; to_; v; _ } ->
      p "⊢CAST %a : %a → %a" pp_term v Int_type.pp from_ Int_type.pp to_
  | FIf { v; ty; _ } -> p "⊢IF (%a : %a)" pp_term v pp_rtype ty
  | FSwitchJ { v; ty; _ } -> p "⊢SWITCH (%a : %a)" pp_term v pp_rtype ty
  | FCall { spec; _ } -> p "⊢CALL %s" spec.fs_name
  | FCas { vobj; _ } -> p "⊢CAS %a" pp_term vobj

module L = struct
  type nonrec f = f
  type atom = Rtype.atom

  (* the language environment handed to rules is the session's
     named-type definitions *)
  type env = Rtype.tenv

  let pp_f = pp_f
  let pp_atom = Rtype.pp_atom
  let head_of_f = head_of_f
  let head_id_of_f = head_id_of_f
  let head_names = head_names
  let memo_key_of_f = memo_key_of_f
  let loc_of_f = loc_of_f
  let related = Rtype.related
  let resolve_atom = Rtype.resolve_atom

  let mk_subsume sub super cont = FSubsume { sub; super; cont }
end

module E = Rc_lithium.Engine.Make (L)
