(* The string-keyed CFG, worklist dataflow and definite-initialization
   pass that lib/analysis replaced with dense, integer-indexed ones, kept
   verbatim (up to module paths) as the oracle of the differential
   property in test_analysis.  The reach pass is the library's, written
   against this CFG. *)

module Syntax = Rc_caesium.Syntax
module Layout = Rc_caesium.Layout
module Diagnostic = Rc_util.Diagnostic

module Cfg = struct
  type t = {
    func : Syntax.func;
    succs : (string, string list) Hashtbl.t;
    preds : (string, string list) Hashtbl.t;  (** in block order *)
    blocks : (string, Syntax.block) Hashtbl.t;
    reach : (string, unit) Hashtbl.t;
    reachable : string list;
        (** blocks reachable from the entry, in reverse postorder — the
            canonical iteration order for forward dataflow *)
  }

  (** Order-preserving dedup, linear via a seen-table (successor lists are
      tiny, but [Switch] fan-out on generated code is not). *)
  let dedup (xs : string list) : string list =
    let seen = Hashtbl.create (List.length xs) in
    List.filter
      (fun x ->
        if Hashtbl.mem seen x then false
        else begin
          Hashtbl.add seen x ();
          true
        end)
      xs

  (** Successor labels of a terminator, constant edges folded. *)
  let term_succs (term : Syntax.terminator) : string list =
    match term with
    | Syntax.Goto l -> [ l ]
    | Syntax.CondGoto { cond = Syntax.IntConst (n, _); if_true; if_false; _ } ->
        [ (if n <> 0 then if_true else if_false) ]
    | Syntax.CondGoto { if_true; if_false; _ } -> dedup [ if_true; if_false ]
    | Syntax.Switch { scrut = Syntax.IntConst (n, _); cases; default; _ } -> (
        match List.assoc_opt n cases with Some l -> [ l ] | None -> [ default ])
    | Syntax.Switch { cases; default; _ } ->
        dedup (List.map snd cases @ [ default ])
    | Syntax.Return _ | Syntax.Unreachable -> []

  let build (func : Syntax.func) : t =
    let n = List.length func.Syntax.blocks in
    let succs = Hashtbl.create n in
    let preds = Hashtbl.create n in
    let blocks = Hashtbl.create n in
    (* seed every block with an empty predecessor list so lookup order
       cannot observe construction order *)
    List.iter
      (fun (l, b) ->
        Hashtbl.replace blocks l b;
        Hashtbl.replace preds l [])
      func.Syntax.blocks;
    (* one pass over the edges; predecessor lists are accumulated reversed
       and flipped below, giving the same block-order lists as the old
       all-pairs scan *)
    List.iter
      (fun (l, b) ->
        let ss = term_succs b.Syntax.term in
        Hashtbl.replace succs l ss;
        List.iter
          (fun s ->
            match Hashtbl.find_opt preds s with
            | Some ps -> Hashtbl.replace preds s (l :: ps)
            | None -> ())
          ss)
      func.Syntax.blocks;
    Hashtbl.iter
      (fun l ps -> Hashtbl.replace preds l (List.rev ps))
      (Hashtbl.copy preds);
    (* depth-first walk from the entry; postorder reversed gives RPO *)
    let reach = Hashtbl.create n in
    let order = ref [] in
    let rec dfs l =
      if not (Hashtbl.mem reach l) then begin
        Hashtbl.add reach l ();
        (match Hashtbl.find_opt succs l with
        | Some ss -> List.iter dfs ss
        | None -> ());
        order := l :: !order
      end
    in
    dfs func.Syntax.entry;
    { func; succs; preds; blocks; reach; reachable = !order }

  let succs_of (t : t) (label : string) : string list =
    Option.value ~default:[] (Hashtbl.find_opt t.succs label)

  let preds_of (t : t) (label : string) : string list =
    Option.value ~default:[] (Hashtbl.find_opt t.preds label)

  let block (t : t) (label : string) : Syntax.block option =
    Hashtbl.find_opt t.blocks label

  let is_reachable (t : t) (label : string) : bool = Hashtbl.mem t.reach label

  (** Blocks never reached from the entry, in declaration order. *)
  let unreachable_blocks (t : t) : (string * Syntax.block) list =
    List.filter (fun (l, _) -> not (is_reachable t l)) t.func.Syntax.blocks
end

module Dataflow = struct
  module type DOMAIN = sig
    type state

    val equal : state -> state -> bool
    val meet : state -> state -> state
  end

  module Forward (D : DOMAIN) = struct
    (** [run_edges cfg ~entry ~transfer] is the general engine:
        [transfer label block st] returns a {e per-successor-edge}
        out-state function, so a block whose terminator branches on a fact
        established inside the block (the CAS-acquire idiom: out-state
        holds the lock only on the success edge) can propagate different
        states along its two edges.  Returns the fixpoint input state of
        every reachable block. *)
    let run_edges (cfg : Cfg.t) ~(entry : D.state)
        ~(transfer : string -> Syntax.block -> D.state -> string -> D.state) :
        (string * D.state) list =
      let inputs : (string, D.state) Hashtbl.t = Hashtbl.create 16 in
      Hashtbl.replace inputs cfg.Cfg.func.Syntax.entry entry;
      let queued = Hashtbl.create 16 in
      let q = Queue.create () in
      let push l =
        if not (Hashtbl.mem queued l) then begin
          Hashtbl.add queued l ();
          Queue.add l q
        end
      in
      push cfg.Cfg.func.Syntax.entry;
      while not (Queue.is_empty q) do
        let l = Queue.pop q in
        Hashtbl.remove queued l;
        match (Cfg.block cfg l, Hashtbl.find_opt inputs l) with
        | Some b, Some input ->
            let out_on = transfer l b input in
            List.iter
              (fun s ->
                let out = out_on s in
                let changed =
                  match Hashtbl.find_opt inputs s with
                  | None ->
                      Hashtbl.replace inputs s out;
                      true
                  | Some old ->
                      let m = D.meet old out in
                      if D.equal m old then false
                      else begin
                        Hashtbl.replace inputs s m;
                        true
                      end
                in
                if changed then push s)
              (Cfg.succs_of cfg l)
        | _ -> ()
      done;
      (* report in reverse postorder for deterministic consumption *)
      List.filter_map
        (fun l ->
          match Hashtbl.find_opt inputs l with
          | Some st -> Some (l, st)
          | None -> None)
        cfg.Cfg.reachable

    (** [run cfg ~entry ~transfer] returns the fixpoint input state of
        every reachable block.  [transfer label block st] is the state at
        the end of [block] given state [st] at its start; it is re-run as
        inputs shrink, so it must be a pure function of its arguments. *)
    let run (cfg : Cfg.t) ~(entry : D.state)
        ~(transfer : string -> Syntax.block -> D.state -> D.state) :
        (string * D.state) list =
      run_edges cfg ~entry ~transfer:(fun label block st ->
          let out = transfer label block st in
          fun _succ -> out)
  end

  module StringSet = Set.Make (String)

  module Must_vars = Forward (struct
    type state = StringSet.t

    let equal = StringSet.equal
    let meet = StringSet.inter
  end)
end

module Pass_init = struct
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
end

module Pass_reach = struct
  (* A bare [Return None] does not count as content: elaboration
     synthesizes it to close the exit block of a [while (1)] loop in a
     void function, and for dead code it would anyway be a harmless lone
     [return;]. *)
  let has_source_content (b : Syntax.block) : bool =
    List.exists (function Syntax.Skip -> false | _ -> true) b.Syntax.stmts
    || (match b.Syntax.term with Syntax.Return (Some _) -> true | _ -> false)

  let run_fn ~cfg_of (ftc : Rc_refinedc.Typecheck.fn_to_check) :
      Diagnostic.t list =
    let func = ftc.Rc_refinedc.Typecheck.func in
    let index = ftc.Rc_refinedc.Typecheck.index in
    let spec = ftc.Rc_refinedc.Typecheck.spec in
    let cfg = cfg_of func in
    let stmt_loc = Rc_refinedc.Lang.stmt_loc index in
    let term_loc = Rc_refinedc.Lang.term_loc index in
    let fallback_loc label =
      match term_loc label with
      | Some l -> l
      | None ->
          Option.value ~default:Rc_util.Srcloc.dummy spec.Rc_refinedc.Rtype.fs_loc
    in
    let block_descr label =
      match Rc_refinedc.Lang.block_descr index label with
      | Some d -> Printf.sprintf " (%s)" d
      | None -> ""
    in
    let unreachable =
      List.filter_map
        (fun (label, b) ->
          if has_source_content b then
            let loc =
              match stmt_loc label 0 with
              | Some l -> Some l
              | None -> term_loc label
            in
            Some
              (Diagnostic.make ~severity:Diagnostic.Warning ~code:"RC-L003"
                 ~loc:(Option.value ~default:(fallback_loc label) loc)
                 ~hint:"delete the dead code, or fix the control flow above it"
                 (Printf.sprintf "in %s: unreachable code%s" func.Syntax.fname
                    (block_descr label)))
          else None)
        (Cfg.unreachable_blocks cfg)
    in
    let missing_return =
      if func.Syntax.ret_layout = Layout.Void then []
      else
        List.filter_map
          (fun label ->
            match Cfg.block cfg label with
            | Some { Syntax.term = Syntax.Unreachable; _ } ->
                Some
                  (Diagnostic.make ~severity:Diagnostic.Warning ~code:"RC-L004"
                     ~loc:(fallback_loc label)
                     ~hint:"add a return statement on every path"
                     (Printf.sprintf
                        "in %s: control can reach the end of this non-void \
                         function without returning a value"
                        func.Syntax.fname))
            | _ -> None)
          cfg.Cfg.reachable
    in
    unreachable @ missing_return
end
