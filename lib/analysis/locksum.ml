(** Eraser-style lockset analysis with interprocedural lock summaries.

    The intraprocedural core is a forward must-analysis over
    {!Dataflow.Forward}: the state is the set of locks {e definitely}
    held, the meet is intersection, and the acquire point is the
    CAS-success {e edge} — a [Cas] with nonzero desired constant
    ({!Rc_caesium.Concur.classify_stmt}) records its boolean
    destination, and the block's terminator branch on that boolean adds
    the lock only along the success edge (this is why the framework
    grew {!Dataflow.Forward.run_edges}).  Releases are atomic stores of
    0; a parallel may-analysis (union meet) over the same transfer
    feeds the release-balance check.

    Interprocedurally, functions are summarized bottom-up in
    {!Rc_refinedc.Depgraph.topo_order} (callees before callers; bodies
    not in the specified set are appended in a callee-first extension
    of the same order, so unannotated helpers still summarize).  A
    summary records the locks a call acquires and releases in
    caller-substitutable terms — paths rooted at an argument
    dereference are rewritten through the actual argument expression at
    each call site, so [locked_reset] calling [spin_lock(l)] knows it
    holds [l->locked] afterwards.  Functions in dependency cycles fall
    back to a no-op summary (conservative: fewer locks believed held
    means more may-race reports, never fewer).

    Everything reported here is an over-approximation of the dynamic
    vector-clock monitor: any access the monitor can flag as a race in
    some schedule is an access with an empty static lockset (the
    differential harness in [test/test_race.ml] pins this). *)

module Syntax = Rc_caesium.Syntax
module Concur = Rc_caesium.Concur
module SSet = Dataflow.StringSet
module Srcloc = Rc_util.Srcloc

(* ---- reported facts ----------------------------------------------- *)

(** One shared, non-atomic memory access and the locks protecting it. *)
type access = {
  a_fname : string;
  a_path : Escape.path;
  a_write : bool;
  a_loc : Srcloc.t;
  a_locks : SSet.t;  (** rendered lock paths definitely held *)
}

(** One observed acquisition order: [o_after] acquired while [o_before]
    was held. *)
type order_edge = {
  o_fname : string;
  o_before : string;
  o_after : string;
  o_loc : Srcloc.t;
}

(** Caller-visible effect of calling a function. *)
type summary = {
  s_acquires : Escape.path list;  (** held on every return, not on entry *)
  s_releases : Escape.path list;  (** released without having acquired *)
  s_order : (Escape.path * Escape.path) list;
      (** internal acquisition order among substitutable locks *)
}

let no_summary = { s_acquires = []; s_releases = []; s_order = [] }

type func_report = {
  f_name : string;
  f_accesses : access list;
  f_unreleased : (string * Srcloc.t) list;
      (** lock held on some but not all paths to return, at its
          acquisition site *)
  f_order : order_edge list;
}

(* ---- helpers ------------------------------------------------------ *)

let render = Escape.to_string

(** Only paths a caller can re-express survive substitution: an
    argument's pointee, or a global. *)
let substitutable (p : Escape.path) : bool =
  match (p.Escape.root, p.Escape.steps) with
  | Escape.Rglobal _, _ -> true
  | Escape.Rarg _, Escape.Deref :: _ -> true
  | _ -> false

(** Rewrite a callee path into the caller's frame through the actual
    argument expressions ([formal name -> actual expr]). *)
let subst_path (caller : Escape.t) (actuals : (string * Syntax.expr) list)
    (p : Escape.path) : Escape.path option =
  match p.Escape.root with
  | Escape.Rglobal _ -> Some p
  | Escape.Rlocal _ -> None
  | Escape.Rarg a -> (
      match (List.assoc_opt a actuals, p.Escape.steps) with
      | Some e, Escape.Deref :: rest ->
          Option.map
            (fun (q : Escape.path) ->
              { q with Escape.steps = q.Escape.steps @ rest })
            (Escape.lpath caller.Escape.fr e)
      | _ -> None)

let callee_name ~(slots : SSet.t) (fn : Syntax.expr) : string option =
  match fn with
  | Syntax.FnAddr f -> Some f
  | Syntax.VarLoc x when not (SSet.mem x slots) -> Some x
  | _ -> None

(* Every load performed while evaluating an expression: the address
   operand of each [Use], with its atomicity. *)
let rec expr_loads (e : Syntax.expr) (acc : (Syntax.expr * bool) list) :
    (Syntax.expr * bool) list =
  match e with
  | Syntax.Use { atomic; arg; _ } -> expr_loads arg ((arg, atomic) :: acc)
  | Syntax.FieldOfs { arg; _ }
  | Syntax.UnOp { arg; _ }
  | Syntax.CastIntInt { arg; _ } ->
      expr_loads arg acc
  | Syntax.CastPtrPtr arg -> expr_loads arg acc
  | Syntax.BinOp { e1; e2; _ } -> expr_loads e1 (expr_loads e2 acc)
  | Syntax.IntConst _ | Syntax.NullConst | Syntax.FnAddr _ | Syntax.VarLoc _
    ->
      acc

(** Memory accesses of one statement as (address expr, write?, atomic?),
    evaluation order: operand loads first, then the statement's own
    store.  [Cas] is an atomic read-modify-write of its object and a
    plain read/write of the expected cell. *)
let stmt_accesses (s : Syntax.stmt) : (Syntax.expr * bool * bool) list =
  let loads es =
    List.concat_map
      (fun e ->
        List.rev_map (fun (a, at) -> (a, false, at)) (expr_loads e []))
      es
  in
  match s with
  | Syntax.Assign { atomic; lhs; rhs; _ } ->
      loads [ lhs; rhs ] @ [ (lhs, true, atomic) ]
  | Syntax.Cas { obj; expected; desired; dest; _ } ->
      let dest_e = match dest with Some (_, d) -> [ d ] | None -> [] in
      loads ((obj :: expected :: desired :: dest_e))
      @ [ (obj, true, true); (expected, true, false) ]
      @ List.map (fun d -> (d, true, false)) dest_e
  | Syntax.Call { dest; fn; args } ->
      let dest_e = match dest with Some (_, d) -> [ d ] | None -> [] in
      loads ((fn :: List.map snd args) @ dest_e)
      @ List.map (fun d -> (d, true, false)) dest_e
  | Syntax.ExprStmt e -> loads [ e ]
  | Syntax.Free e -> loads [ e ] @ [ (e, true, false) ]
  | Syntax.Skip -> []

let term_exprs (t : Syntax.terminator) : Syntax.expr list =
  match t with
  | Syntax.CondGoto { cond; _ } -> [ cond ]
  | Syntax.Switch { scrut; _ } -> [ scrut ]
  | Syntax.Return (Some e) -> [ e ]
  | Syntax.Goto _ | Syntax.Return None | Syntax.Unreachable -> []

(** Does this terminator condition observe a pending CAS result?
    Returns the lock and whether the success case is the false edge. *)
let cas_branch (pending : (string * Escape.path) list) (cond : Syntax.expr) :
    (Escape.path * bool) option =
  let of_var e =
    match e with
    | Syntax.Use { atomic = false; arg = Syntax.VarLoc x; _ } ->
        List.assoc_opt x pending
    | _ -> None
  in
  match cond with
  | Syntax.UnOp { op = Syntax.LogNotOp; arg; _ } ->
      Option.map (fun l -> (l, true)) (of_var arg)
  | Syntax.BinOp { op = Syntax.NeOp; e1; e2 = Syntax.IntConst (0, _); _ } ->
      Option.map (fun l -> (l, false)) (of_var e1)
  | Syntax.BinOp { op = Syntax.EqOp; e1; e2 = Syntax.IntConst (0, _); _ } ->
      Option.map (fun l -> (l, true)) (of_var e1)
  | _ -> Option.map (fun l -> (l, false)) (of_var cond)

(* ---- the per-function walk ---------------------------------------- *)

(** Events surfaced to the reporting sweep; the dataflow transfer runs
    the same walk with [emit = ignore]. *)
type event =
  | Ev_access of int * Escape.path * bool * SSet.t  (** idx, path, write *)
  | Ev_acquire of int * Escape.path * SSet.t  (** CAS attempt under locks *)
  | Ev_call_order of int * (Escape.path * Escape.path) list * SSet.t
      (** substituted callee acquires/order at a call site *)
  | Ev_ext_release of Escape.path  (** released a lock not held here *)

type fn_env = {
  e_esc : Escape.t;
  e_slots : SSet.t;
  e_paths : (string, Escape.path) Hashtbl.t;  (** rendering -> path *)
  e_funcs : (string * Syntax.func) list;
  e_summaries : (string, summary) Hashtbl.t;
}

let note_path (env : fn_env) (p : Escape.path) : string =
  let r = render p in
  if not (Hashtbl.mem env.e_paths r) then Hashtbl.add env.e_paths r p;
  r

(** Execute a block's statements from lockset [st]; returns the
    out-state before the terminator and the pending CAS results.  The
    walk is shared verbatim between the fixpoint transfer and the
    reporting sweep so the reported locksets are exactly the fixpoint's
    — [emit] is the only difference. *)
let walk_stmts (env : fn_env) ~(emit : event -> unit) (st : SSet.t)
    (stmts : Syntax.stmt list) : SSet.t * (string * Escape.path) list =
  let st = ref st in
  let pending = ref [] in
  List.iteri
    (fun idx s ->
      (* plain shared accesses, under the current lockset *)
      List.iter
        (fun (addr, write, atomic) ->
          if not atomic then
            match Escape.lpath env.e_esc.Escape.fr addr with
            | Some p when Escape.shared_path env.e_esc p ->
                emit (Ev_access (idx, p, write, !st))
            | _ -> ())
        (stmt_accesses s);
      (* lock-discipline effects *)
      match Concur.classify_stmt s with
      | Some (Concur.Acquire { lock; dest }) -> (
          match Escape.lpath env.e_esc.Escape.fr lock with
          | Some p ->
              emit (Ev_acquire (idx, p, !st));
              ignore (note_path env p);
              (match dest with
              | Some x -> pending := (x, p) :: List.remove_assoc x !pending
              | None -> ())
          | None -> ())
      | Some (Concur.Release lhs) -> (
          match Escape.lpath env.e_esc.Escape.fr lhs with
          | Some p ->
              let r = note_path env p in
              if SSet.mem r !st then st := SSet.remove r !st
              else emit (Ev_ext_release p)
          | None -> ())
      | Some (Concur.Atomic_signal _) -> ()
      | None -> (
          match s with
          | Syntax.Call { fn; args; _ } -> (
              match callee_name ~slots:env.e_slots fn with
              | Some f when Hashtbl.mem env.e_summaries f -> (
                  match List.assoc_opt f env.e_funcs with
                  | Some callee
                    when List.length callee.Syntax.args = List.length args ->
                      let sum = Hashtbl.find env.e_summaries f in
                      let actuals =
                        List.map2
                          (fun (a, _) (_, e) -> (a, e))
                          callee.Syntax.args args
                      in
                      let sub = subst_path env.e_esc actuals in
                      List.iter
                        (fun p ->
                          match sub p with
                          | Some q -> st := SSet.remove (note_path env q) !st
                          | None -> ())
                        sum.s_releases;
                      let acquired =
                        List.filter_map sub sum.s_acquires
                      in
                      let internal_order =
                        List.filter_map
                          (fun (a, b) ->
                            match (sub a, sub b) with
                            | Some a', Some b' -> Some (a', b')
                            | _ -> None)
                          sum.s_order
                      in
                      emit (Ev_call_order (idx, internal_order, !st));
                      List.iter
                        (fun q ->
                          emit (Ev_acquire (idx, q, !st));
                          st := SSet.add (note_path env q) !st)
                        acquired
                  | _ -> ())
              | _ -> ())
          | _ -> ()))
    stmts;
  (!st, !pending)

(** Terminator-side accesses (condition/scrutinee/return reads). *)
let walk_term (env : fn_env) ~(emit : int -> Escape.path -> unit)
    (term : Syntax.terminator) : unit =
  List.iter
    (fun e ->
      List.iter
        (fun (addr, atomic) ->
          if not atomic then
            match Escape.lpath env.e_esc.Escape.fr addr with
            | Some p when Escape.shared_path env.e_esc p -> emit 0 p
            | _ -> ())
        (expr_loads e []))
    (term_exprs term)

(** The per-edge transfer shared by the must- and may-fixpoints. *)
let transfer (env : fn_env) (_label : string) (b : Syntax.block)
    (st : SSet.t) : string -> SSet.t =
  let out, pending = walk_stmts env ~emit:ignore st b.Syntax.stmts in
  match b.Syntax.term with
  | Syntax.CondGoto { cond; if_true; if_false; _ } when if_true <> if_false
    -> (
      match cas_branch pending cond with
      | Some (lock, success_on_false) ->
          let taken = SSet.add (render lock) out in
          fun succ ->
            if succ = if_true then if success_on_false then out else taken
            else if succ = if_false then
              if success_on_false then taken else out
            else out
      | None -> fun _ -> out)
  | _ -> fun _ -> out

(* ---- analysis order ----------------------------------------------- *)

(* Direct callees of a body, restricted to functions defined in the
   unit (same reference discipline as Depgraph: [FnAddr f] anywhere and
   non-slot [VarLoc]s). *)
let direct_callees (defined : SSet.t) (f : Syntax.func) : string list =
  let slots =
    SSet.of_list (List.map fst (f.Syntax.args @ f.Syntax.locals))
  in
  let rec go_e acc (e : Syntax.expr) =
    match e with
    | Syntax.FnAddr g -> if SSet.mem g defined then SSet.add g acc else acc
    | Syntax.VarLoc x ->
        if (not (SSet.mem x slots)) && SSet.mem x defined then
          SSet.add x acc
        else acc
    | Syntax.Use { arg; _ }
    | Syntax.FieldOfs { arg; _ }
    | Syntax.UnOp { arg; _ }
    | Syntax.CastIntInt { arg; _ } ->
        go_e acc arg
    | Syntax.CastPtrPtr arg -> go_e acc arg
    | Syntax.BinOp { e1; e2; _ } -> go_e (go_e acc e1) e2
    | Syntax.IntConst _ | Syntax.NullConst -> acc
  in
  let go_s acc s =
    match s with
    | Syntax.Assign { lhs; rhs; _ } -> go_e (go_e acc lhs) rhs
    | Syntax.Call { dest; fn; args } ->
        let acc =
          match dest with Some (_, d) -> go_e acc d | None -> acc
        in
        List.fold_left (fun acc (_, a) -> go_e acc a) (go_e acc fn) args
    | Syntax.Cas { obj; expected; desired; dest; _ } ->
        let acc =
          match dest with Some (_, d) -> go_e acc d | None -> acc
        in
        go_e (go_e (go_e acc obj) expected) desired
    | Syntax.ExprStmt e | Syntax.Free e -> go_e acc e
    | Syntax.Skip -> acc
  in
  SSet.elements
    (List.fold_left
       (fun acc (_, (b : Syntax.block)) ->
         let acc = List.fold_left go_s acc b.Syntax.stmts in
         List.fold_left go_e acc (term_exprs b.Syntax.term))
       SSet.empty f.Syntax.blocks)

(** Bottom-up analysis order over {e all} bodies: the PR-8 dependency
    graph's topological order seeds the visit (callees first, its
    deterministic cycle-breaking kept), and unspecified functions —
    invisible to [Depgraph.build], which only sees [fn_to_check] — are
    woven in by the same callee-first DFS, so a specified caller of an
    unannotated helper still sees the helper's summary. *)
let analysis_order ~(funcs : (string * Syntax.func) list)
    ~(to_check : Rc_refinedc.Typecheck.fn_to_check list) : string list =
  let g = Rc_refinedc.Depgraph.build to_check in
  let defined = SSet.of_list (List.map fst funcs) in
  let seed =
    Rc_refinedc.Depgraph.topo_order g @ List.map fst funcs
  in
  let visited = Hashtbl.create 16 in
  let out = ref [] in
  let rec visit name =
    if SSet.mem name defined && not (Hashtbl.mem visited name) then begin
      Hashtbl.add visited name ();
      (match List.assoc_opt name funcs with
      | Some f -> List.iter visit (direct_callees defined f)
      | None -> ());
      out := name :: !out
    end
  in
  List.iter visit seed;
  List.rev !out

(* ---- putting it together ------------------------------------------ *)

module May_locks = Dataflow.Forward (struct
  type state = SSet.t

  let equal = SSet.equal
  let meet = SSet.union
end)

(** Analyze every function body of one unit bottom-up, returning the
    per-function reports in analysis order.  Pure function of its
    arguments — no session state, no caching of its own: {!Lint.run}
    computes it once per unit and shares it between the three
    concurrency passes, and [cfg_of] hands out the CFGs the other passes
    built. *)
let analyze ~(cfg_of : Syntax.func -> Cfg.t)
    ?(indexes : (string * Rc_refinedc.Lang.fn_index) list = [])
    ~(funcs : (string * Syntax.func) list)
    ~(to_check : Rc_refinedc.Typecheck.fn_to_check list) () :
    func_report list =
  (* location side-tables: the frontend's per-body index when the caller
     has it (covers unspecified functions too), falling back to the
     [fn_to_check] copies; the first index of a name wins *)
  let index_of =
    let tbl = Hashtbl.create 16 in
    let add (name, ix) =
      if not (Hashtbl.mem tbl name) then Hashtbl.add tbl name ix
    in
    List.iter add indexes;
    List.iter
      (fun (ftc : Rc_refinedc.Typecheck.fn_to_check) ->
        add
          (ftc.Rc_refinedc.Typecheck.func.Syntax.fname,
           ftc.Rc_refinedc.Typecheck.index))
      to_check;
    Hashtbl.find_opt tbl
  in
  let loc_of fname label idx =
    match index_of fname with
    | None -> Srcloc.dummy
    | Some ix ->
        Option.value ~default:Srcloc.dummy
          (Rc_refinedc.Lang.stmt_loc ix label idx)
  in
  let summaries : (string, summary) Hashtbl.t = Hashtbl.create 16 in
  let order = analysis_order ~funcs ~to_check in
  List.filter_map
    (fun name ->
      match List.assoc_opt name funcs with
      | None -> None
      | Some f ->
          let env =
            {
              e_esc = Escape.compute f;
              e_slots =
                SSet.of_list
                  (List.map fst (f.Syntax.args @ f.Syntax.locals));
              e_paths = Hashtbl.create 8;
              e_funcs = funcs;
              e_summaries = summaries;
            }
          in
          let cfg = cfg_of f in
          let must =
            Dataflow.Must_vars.run_edges cfg ~entry:SSet.empty
              ~transfer:(transfer env)
          in
          let may =
            May_locks.run_edges cfg ~entry:SSet.empty
              ~transfer:(transfer env)
          in
          (* reporting sweep over the must fixpoint *)
          let accesses = ref [] in
          let acquire_locs : (string, Srcloc.t) Hashtbl.t =
            Hashtbl.create 4
          in
          let order_edges = ref [] in
          let ext_releases = ref [] in
          let exits_must = ref [] in
          List.iter
            (fun (label, input) ->
              match Cfg.block cfg label with
              | None -> ()
              | Some b ->
                  let cur = ref input in
                  let emit = function
                    | Ev_access (idx, p, write, locks) ->
                        accesses :=
                          {
                            a_fname = name;
                            a_path = p;
                            a_write = write;
                            a_loc = loc_of name label idx;
                            a_locks = locks;
                          }
                          :: !accesses
                    | Ev_acquire (idx, p, locks) ->
                        let r = render p in
                        if not (Hashtbl.mem acquire_locs r) then
                          Hashtbl.add acquire_locs r
                            (loc_of name label idx);
                        SSet.iter
                          (fun before ->
                            order_edges :=
                              {
                                o_fname = name;
                                o_before = before;
                                o_after = r;
                                o_loc = loc_of name label idx;
                              }
                              :: !order_edges)
                          locks
                    | Ev_call_order (idx, edges, _locks) ->
                        List.iter
                          (fun (a, b) ->
                            order_edges :=
                              {
                                o_fname = name;
                                o_before = render a;
                                o_after = render b;
                                o_loc = loc_of name label idx;
                              }
                              :: !order_edges)
                          edges
                    | Ev_ext_release p -> ext_releases := p :: !ext_releases
                  in
                  let out, _pending =
                    walk_stmts env ~emit !cur b.Syntax.stmts
                  in
                  cur := out;
                  walk_term env
                    ~emit:(fun _ p ->
                      accesses :=
                        {
                          a_fname = name;
                          a_path = p;
                          a_write = false;
                          a_loc =
                            (match index_of name with
                            | None -> Srcloc.dummy
                            | Some ix ->
                                Option.value ~default:Srcloc.dummy
                                  (Rc_refinedc.Lang.term_loc ix label));
                          a_locks = !cur;
                        }
                        :: !accesses)
                    b.Syntax.term;
                  (match b.Syntax.term with
                  | Syntax.Return _ -> exits_must := !cur :: !exits_must
                  | _ -> ()))
            must;
          (* may-side exit states, for the release-balance check *)
          let exits_may =
            List.filter_map
              (fun (label, input) ->
                match Cfg.block cfg label with
                | Some b -> (
                    match b.Syntax.term with
                    | Syntax.Return _ ->
                        let out, _ =
                          walk_stmts env ~emit:ignore input b.Syntax.stmts
                        in
                        Some out
                    | _ -> None)
                | None -> None)
              may
          in
          let must_exit =
            match !exits_must with
            | [] -> SSet.empty
            | x :: rest -> List.fold_left SSet.inter x rest
          in
          let may_exit =
            List.fold_left SSet.union SSet.empty exits_may
          in
          let unreleased =
            SSet.elements (SSet.diff may_exit must_exit)
            |> List.map (fun r ->
                   ( r,
                     Option.value ~default:Srcloc.dummy
                       (Hashtbl.find_opt acquire_locs r) ))
          in
          (* the exported summary, in caller-substitutable terms *)
          let path_of r =
            match Hashtbl.find_opt env.e_paths r with
            | Some p -> Some p
            | None -> None
          in
          let acquires =
            SSet.elements must_exit
            |> List.filter_map path_of
            |> List.filter substitutable
          in
          let releases =
            List.filter substitutable (List.rev !ext_releases)
            |> List.sort_uniq compare
          in
          let s_order =
            List.rev !order_edges
            |> List.filter_map (fun oe ->
                   match (path_of oe.o_before, path_of oe.o_after) with
                   | Some a, Some b
                     when substitutable a && substitutable b ->
                       Some (a, b)
                   | _ -> None)
            |> List.sort_uniq compare
          in
          Hashtbl.replace summaries name
            { s_acquires = acquires; s_releases = releases; s_order };
          Some
            {
              f_name = name;
              f_accesses = List.rev !accesses;
              f_unreleased = unreleased;
              f_order = List.rev !order_edges;
            })
    order

(** Is any synchronization idiom present in the unit at all?  The lint
    passes stay silent on purely sequential code — a unit that never
    touches an atomic has no lock discipline to check, and flagging
    every pointer write in [swap.c] as a may-race would drown the
    signal (and the dynamic monitor can never observe a race there
    either: no second thread is ever spawned without this unit being
    linked into concurrent code, at which point the lock idioms appear
    with it). *)
let unit_concurrent (funcs : (string * Syntax.func) list) : bool =
  List.exists (fun (_, f) -> Concur.uses_sync f) funcs
