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
    offset into a struct field, aliased) is excluded from tracking.

    Representation: the tracked locals are numbered, and a state is a
    bitset of [w] words, 62 locals to a word, one code path for every
    width.  Each statement's effect (the tracked locals it reads, the one
    it defines) is computed once per reachable block, into flat arrays;
    the fixpoint iterates the reverse postorder in place over one flat
    array of input states until nothing shrinks. *)

module Syntax = Rc_caesium.Syntax
module Diagnostic = Rc_util.Diagnostic

let bits_per_word = 62

(* ---- expression walks --------------------------------------------- *)

(** [iter_stmt_exprs f s] applies [f] to every expression [s] evaluates:
    a directly assigned [VarLoc] destination is a definition, not an
    expression; a computed destination is an expression. *)
let iter_stmt_exprs (f : Syntax.expr -> unit) (s : Syntax.stmt) : unit =
  let dest = function
    | Some (_, Syntax.VarLoc _) | None -> ()
    | Some (_, e) -> f e
  in
  match s with
  | Syntax.Assign { lhs = Syntax.VarLoc _; rhs; _ } -> f rhs
  | Syntax.Assign { lhs; rhs; _ } ->
      f lhs;
      f rhs
  | Syntax.Call { dest = d; fn; args } ->
      f fn;
      List.iter (fun (_, e) -> f e) args;
      dest d
  | Syntax.Cas { obj; expected; desired; dest = d; _ } ->
      f obj;
      f expected;
      f desired;
      dest d
  | Syntax.ExprStmt e | Syntax.Free e -> f e
  | Syntax.Skip -> ()

let iter_term_exprs (f : Syntax.expr -> unit) (t : Syntax.terminator) : unit
    =
  match t with
  | Syntax.CondGoto { cond = e; _ }
  | Syntax.Switch { scrut = e; _ }
  | Syntax.Return (Some e) ->
      f e
  | Syntax.Goto _ | Syntax.Return None | Syntax.Unreachable -> ()

(** The local a statement directly (re)defines, if any. *)
let stmt_def (s : Syntax.stmt) : string option =
  match s with
  | Syntax.Assign { lhs = Syntax.VarLoc x; _ }
  | Syntax.Call { dest = Some (_, Syntax.VarLoc x); _ }
  | Syntax.Cas { dest = Some (_, Syntax.VarLoc x); _ } ->
      Some x
  | Syntax.Assign _ | Syntax.Call _ | Syntax.Cas _ | Syntax.ExprStmt _
  | Syntax.Free _ | Syntax.Skip ->
      None

(* ---- the pass ----------------------------------------------------- *)

let run_fn ~cfg_of (ftc : Rc_refinedc.Typecheck.fn_to_check) :
    Diagnostic.t list =
  let func = ftc.Rc_refinedc.Typecheck.func in
  let index = ftc.Rc_refinedc.Typecheck.index in
  (* number the locals, a duplicate name once *)
  let locals = Names.create (List.length func.Syntax.locals) in
  List.iter (fun (x, _) -> ignore (Names.intern locals x)) func.Syntax.locals;
  let nlocals = Names.count locals in
  (* flow-insensitive escape set: a [VarLoc] that is not immediately the
     operand of a [Use], anywhere in the body *)
  let escaped = Array.make nlocals false in
  let rec escape (e : Syntax.expr) =
    match e with
    | Syntax.VarLoc x ->
        let i = Names.find locals x in
        if i >= 0 then escaped.(i) <- true
    | Syntax.Use { arg = Syntax.VarLoc _; _ } -> ()
    | Syntax.Use { arg; _ }
    | Syntax.FieldOfs { arg; _ }
    | Syntax.UnOp { arg; _ }
    | Syntax.CastIntInt { arg; _ }
    | Syntax.CastPtrPtr arg ->
        escape arg
    | Syntax.BinOp { e1; e2; _ } ->
        escape e1;
        escape e2
    | Syntax.IntConst _ | Syntax.NullConst | Syntax.FnAddr _ -> ()
  in
  if nlocals > 0 then
    List.iter
      (fun (_, (b : Syntax.block)) ->
        List.iter (iter_stmt_exprs escape) b.Syntax.stmts;
        iter_term_exprs escape b.Syntax.term)
      func.Syntax.blocks;
  (* the tracked locals, numbered in declaration order *)
  let tix = Array.make nlocals (-1) in
  let k = ref 0 in
  for i = 0 to nlocals - 1 do
    if not escaped.(i) then begin
      tix.(i) <- !k;
      incr k
    end
  done;
  let k = !k in
  if k = 0 then []
  else begin
    let tracked x = match Names.find locals x with -1 -> -1 | i -> tix.(i) in
    let cfg = cfg_of func in
    let rpo = cfg.Cfg.rpo in
    let w = (k + bits_per_word - 1) / bits_per_word in
    let mem (a : int array) base r =
      a.(base + (r / bits_per_word)) land (1 lsl (r mod bits_per_word)) <> 0
    in
    let set (a : int array) base r =
      let j = base + (r / bits_per_word) in
      a.(j) <- a.(j) lor (1 lsl (r mod bits_per_word))
    in
    (* each reachable block's effects, once.  Its statements, then its
       terminator, are numbered consecutively from [first.(p)] (for the
       block at RPO position [p]): [def.(j)] is the tracked local
       statement [j] defines, or -1, and [rd.(rd_lo.(j) .. rd_lo.(j+1)-1)]
       the tracked locals it reads *)
    let nrpo = Array.length rpo in
    let first = Array.make (nrpo + 1) 0 in
    for p = 0 to nrpo - 1 do
      let v = rpo.(p) in
      first.(p + 1) <-
        (first.(p)
        +
        if v < cfg.Cfg.n_blocks then
          1 + List.length cfg.Cfg.blocks.(v).Syntax.stmts
        else 0)
    done;
    let total = first.(nrpo) in
    let def = Array.make (max total 1) (-1) in
    let rd_lo = Array.make (total + 1) 0 in
    let rd = ref (Array.make (max total 4) 0) in
    let nrd = ref 0 in
    let rec reads (e : Syntax.expr) =
      match e with
      | Syntax.Use { arg = Syntax.VarLoc x; _ } ->
          let r = tracked x in
          if r >= 0 then begin
            if !nrd = Array.length !rd then begin
              let grown = Array.make (2 * !nrd) 0 in
              Array.blit !rd 0 grown 0 !nrd;
              rd := grown
            end;
            !rd.(!nrd) <- r;
            incr nrd
          end
      | Syntax.Use { arg; _ }
      | Syntax.FieldOfs { arg; _ }
      | Syntax.UnOp { arg; _ }
      | Syntax.CastIntInt { arg; _ }
      | Syntax.CastPtrPtr arg ->
          reads arg
      | Syntax.BinOp { e1; e2; _ } ->
          reads e1;
          reads e2
      | Syntax.IntConst _ | Syntax.NullConst | Syntax.FnAddr _
      | Syntax.VarLoc _ ->
          ()
    in
    let gen = Array.make (cfg.Cfg.n_blocks * w) 0 in
    for p = 0 to nrpo - 1 do
      let v = rpo.(p) in
      if v < cfg.Cfg.n_blocks then begin
        let b = cfg.Cfg.blocks.(v) in
        let j = ref first.(p) in
        List.iter
          (fun s ->
            iter_stmt_exprs reads s;
            rd_lo.(!j + 1) <- !nrd;
            (match stmt_def s with
            | Some x ->
                let r = tracked x in
                def.(!j) <- r;
                if r >= 0 then set gen (v * w) r
            | None -> ());
            incr j)
          b.Syntax.stmts;
        iter_term_exprs reads b.Syntax.term;
        rd_lo.(!j + 1) <- !nrd
      end
    done;
    let rd = !rd in
    (* the fixpoint: every input starts at ⊤ (all ones) but the entry's,
       which starts empty; a pass over the reverse postorder meets each
       block's output into its successors' inputs, until no input
       shrinks *)
    let input = Array.make (Cfg.nodes cfg * w) (-1) in
    Array.fill input (cfg.Cfg.entry * w) w 0;
    let out = Array.make w 0 in
    let changed = ref true in
    while !changed do
      changed := false;
      for p = 0 to nrpo - 1 do
        let v = rpo.(p) in
        if v < cfg.Cfg.n_blocks then begin
          for j = 0 to w - 1 do
            out.(j) <- input.((v * w) + j) lor gen.((v * w) + j)
          done;
          for e = cfg.Cfg.succ_lo.(v) to cfg.Cfg.succ_hi.(v) - 1 do
            let s = cfg.Cfg.succ.(e) in
            for j = 0 to w - 1 do
              let old = input.((s * w) + j) in
              let m = old land out.(j) in
              if m <> old then begin
                input.((s * w) + j) <- m;
                changed := true
              end
            done
          done
        end
      done
    done;
    (* reporting sweep, in reverse postorder: the earliest faulty read
       per local *)
    let found = Array.make k None in
    let note loc r =
      match found.(r) with
      | Some l when Rc_util.Srcloc.compare l loc <= 0 -> ()
      | _ -> found.(r) <- Some loc
    in
    let st = Array.make w 0 in
    for p = 0 to nrpo - 1 do
      let v = rpo.(p) in
      if v < cfg.Cfg.n_blocks then begin
        let label = Cfg.label cfg v in
        Array.blit input (v * w) st 0 w;
        let term = first.(p + 1) - 1 in
        for j = first.(p) to term do
          for i = rd_lo.(j) to rd_lo.(j + 1) - 1 do
            let r = rd.(i) in
            if not (mem st 0 r) then
              note
                (Option.value ~default:Rc_util.Srcloc.dummy
                   (if j = term then Rc_refinedc.Lang.term_loc index label
                    else Rc_refinedc.Lang.stmt_loc index label (j - first.(p))))
                r
          done;
          if def.(j) >= 0 then set st 0 def.(j)
        done
      end
    done;
    (* the tracked locals' names, in their numbering *)
    let names = Array.make k "" in
    for i = 0 to nlocals - 1 do
      if tix.(i) >= 0 then names.(tix.(i)) <- Names.name locals i
    done;
    let diags = ref [] in
    Array.iteri
      (fun r loc ->
        match loc with
        | None -> ()
        | Some loc ->
            let x = names.(r) in
            diags :=
              Diagnostic.make ~severity:Diagnostic.Warning ~code:"RC-L001"
                ~loc
                ~hint:
                  (Printf.sprintf
                     "initialize '%s' at its declaration or on every path \
                      reaching this read"
                     x)
                (Printf.sprintf
                   "in %s: local variable '%s' may be read before it is \
                    initialized"
                   func.Syntax.fname x)
              :: !diags)
      found;
    !diags
  end

let run ~(cfg_of : Syntax.func -> Cfg.t)
    (cx_to_check : Rc_refinedc.Typecheck.fn_to_check list) : Diagnostic.t list
    =
  List.concat_map (run_fn ~cfg_of) cx_to_check
