(** Definite-initialization pass (code RC-L001, sound warning).

    Caesium gives fresh locals type [uninit<n>] — reading one before its
    first write produces a poison value, which the type system will
    reject only after a full (and doomed) proof search.  This pass finds
    such reads up front with a textbook must-analysis: the domain is the
    set of locals definitely written on every path, the meet is
    intersection, and a read [Use (VarLoc x)] of an untracked local is
    reported at its statement's source location.

    Soundness stance: warnings are sound w.r.t. the CFG
    over-approximation — every reported read really is reachable along
    some CFG path on which the local was never directly written.  To
    avoid false positives from indirect writes, any local whose address
    escapes the direct read/write discipline (passed to a callee,
    offset into a struct field, aliased) is excluded from tracking. *)

module Syntax = Rc_caesium.Syntax
module Diagnostic = Rc_util.Diagnostic
module SSet = Dataflow.StringSet

(* ---- expression collectors ---------------------------------------- *)

(** Locals read by an expression: every [Use] whose location operand is
    directly a [VarLoc]. *)
let rec reads (e : Syntax.expr) (acc : string list) : string list =
  match e with
  | Syntax.Use { arg = Syntax.VarLoc x; _ } -> x :: acc
  | Syntax.Use { arg; _ }
  | Syntax.FieldOfs { arg; _ }
  | Syntax.UnOp { arg; _ }
  | Syntax.CastIntInt { arg; _ } ->
      reads arg acc
  | Syntax.CastPtrPtr arg -> reads arg acc
  | Syntax.BinOp { e1; e2; _ } -> reads e1 (reads e2 acc)
  | Syntax.IntConst _ | Syntax.NullConst | Syntax.FnAddr _ | Syntax.VarLoc _
    ->
      acc

(** Locals whose address leaves the direct read/write discipline: a
    [VarLoc] that is *not* immediately the operand of a [Use] — e.g.
    [&x] passed to a callee, or [x.f] accessed through [FieldOfs]. *)
let rec addr_taken (e : Syntax.expr) (acc : string list) : string list =
  match e with
  | Syntax.VarLoc x -> x :: acc
  | Syntax.Use { arg = Syntax.VarLoc _; _ } -> acc
  | Syntax.Use { arg; _ }
  | Syntax.FieldOfs { arg; _ }
  | Syntax.UnOp { arg; _ }
  | Syntax.CastIntInt { arg; _ } ->
      addr_taken arg acc
  | Syntax.CastPtrPtr arg -> addr_taken arg acc
  | Syntax.BinOp { e1; e2; _ } -> addr_taken e1 (addr_taken e2 acc)
  | Syntax.IntConst _ | Syntax.NullConst | Syntax.FnAddr _ -> acc

(** Per-statement effect: expressions read, locals whose address is
    taken, and the local directly (re)defined, if any. *)
let stmt_effect (s : Syntax.stmt) :
    Syntax.expr list * string list * string option =
  let dest_def = function
    | Some (_, Syntax.VarLoc x) -> ([], Some x)
    | Some (_, e) -> ([ e ], None)  (* destination computed: reads inside *)
    | None -> ([], None)
  in
  match s with
  | Syntax.Assign { lhs = Syntax.VarLoc x; rhs; _ } -> ([ rhs ], [], Some x)
  | Syntax.Assign { lhs; rhs; _ } -> ([ lhs; rhs ], [], None)
  | Syntax.Call { dest; fn; args } ->
      let extra, def = dest_def dest in
      (fn :: List.map snd args @ extra, [], def)
  | Syntax.Cas { obj; expected; desired; dest; _ } ->
      let extra, def = dest_def dest in
      ((obj :: expected :: desired :: extra), [], def)
  | Syntax.ExprStmt e | Syntax.Free e -> ([ e ], [], None)
  | Syntax.Skip -> ([], [], None)

let term_exprs (t : Syntax.terminator) : Syntax.expr list =
  match t with
  | Syntax.CondGoto { cond; _ } -> [ cond ]
  | Syntax.Switch { scrut; _ } -> [ scrut ]
  | Syntax.Return (Some e) -> [ e ]
  | Syntax.Goto _ | Syntax.Return None | Syntax.Unreachable -> []

let stmt_exprs (s : Syntax.stmt) : Syntax.expr list =
  let exprs, _, _ = stmt_effect s in
  exprs

(* ---- the pass ----------------------------------------------------- *)

let run_fn ~cfg_of (ftc : Rc_refinedc.Typecheck.fn_to_check) :
    Diagnostic.t list =
  let func = ftc.Rc_refinedc.Typecheck.func in
  let index = ftc.Rc_refinedc.Typecheck.index in
  let locals = SSet.of_list (List.map fst func.Syntax.locals) in
  (* flow-insensitive escape set: excluded from tracking entirely *)
  let escaped =
    List.fold_left
      (fun acc (_, (b : Syntax.block)) ->
        let acc =
          List.fold_left
            (fun acc s ->
              List.fold_left
                (fun acc e -> SSet.union acc (SSet.of_list (addr_taken e [])))
                acc (stmt_exprs s))
            acc b.Syntax.stmts
        in
        List.fold_left
          (fun acc e -> SSet.union acc (SSet.of_list (addr_taken e [])))
          acc
          (term_exprs b.Syntax.term))
      SSet.empty func.Syntax.blocks
  in
  let tracked = SSet.diff locals escaped in
  if SSet.is_empty tracked then []
  else begin
    let cfg = cfg_of func in
    let transfer _label (b : Syntax.block) (st : SSet.t) : SSet.t =
      List.fold_left
        (fun st s ->
          let _, _, def = stmt_effect s in
          match def with Some x -> SSet.add x st | None -> st)
        st b.Syntax.stmts
    in
    let inputs = Dataflow.Must_vars.run cfg ~entry:SSet.empty ~transfer in
    let stmt_loc label idx =
      Option.value ~default:Rc_util.Srcloc.dummy
        (Rc_refinedc.Lang.stmt_loc index label idx)
    in
    let term_loc label =
      Option.value ~default:Rc_util.Srcloc.dummy
        (Rc_refinedc.Lang.term_loc index label)
    in
    (* reporting sweep: earliest faulty read per variable *)
    let found : (string, Rc_util.Srcloc.t) Hashtbl.t = Hashtbl.create 4 in
    let note loc x =
      if SSet.mem x tracked then
        match Hashtbl.find_opt found x with
        | Some l when Rc_util.Srcloc.compare l loc <= 0 -> ()
        | _ -> Hashtbl.replace found x loc
    in
    List.iter
      (fun (label, input) ->
        match Cfg.block cfg label with
        | None -> ()
        | Some b ->
            let st = ref input in
            List.iteri
              (fun idx s ->
                let exprs, _, def = stmt_effect s in
                List.iter
                  (fun e ->
                    List.iter
                      (fun x ->
                        if not (SSet.mem x !st) then
                          note (stmt_loc label idx) x)
                      (reads e []))
                  exprs;
                match def with
                | Some x -> st := SSet.add x !st
                | None -> ())
              b.Syntax.stmts;
            List.iter
              (fun e ->
                List.iter
                  (fun x ->
                    if not (SSet.mem x !st) then note (term_loc label) x)
                  (reads e []))
              (term_exprs b.Syntax.term))
      inputs;
    Hashtbl.fold
      (fun x loc acc ->
        Diagnostic.make ~severity:Diagnostic.Warning ~code:"RC-L001" ~loc
          ~hint:
            (Printf.sprintf
               "initialize '%s' at its declaration or on every path \
                reaching this read"
               x)
          (Printf.sprintf
             "in %s: local variable '%s' may be read before it is \
              initialized"
             func.Syntax.fname x)
        :: acc)
      found []
  end

let run ~(cfg_of : Syntax.func -> Cfg.t)
    (cx_to_check : Rc_refinedc.Typecheck.fn_to_check list) : Diagnostic.t list
    =
  List.concat_map (run_fn ~cfg_of) cx_to_check
