(** The function-level dependency graph behind incremental verification.

    RefinedC's checking is compositional by construction: verifying one
    function consults, besides the session configuration, exactly its
    own Caesium body, its own specification and loop invariants, and the
    specifications of the functions it *directly* references (the
    [fc_specs] lookups happen only at [FnAddr f] expressions and at
    [VarLoc x] names that are not stack slots — see [Rules_expr] and
    [Rules_stmt.direct_callee]).  This module makes that input cone
    explicit: a per-file graph whose edges are the direct spec-level
    dependencies and whose nodes carry content digests of the
    body/invariants and of the exported interface (the spec).

    Edges are extracted eagerly — the driver's cold-run schedule
    ({!topo_order}) and the lockset analysis need them on every run.
    Digests are computed on first use, i.e. only when a verification
    cache asks for a key.  Both digests hash injective structural
    encodings ({!Rc_util.Enc}: constructor tags, every field,
    length-prefixed strings and lists) — the body of the Caesium
    function ([enc_func], every [Layout.t] in full) with its loop
    invariants, and the spec ({!Rtype.enc_spec}) — never printed text,
    which drops fields.

    The graph is what the driver keys the verification cache on
    ({!components}): a function's cache key digests its own body + spec
    + invariants and the *interface* digests of its direct callees —
    nothing else from the file.  That gives early cutoff for free: a
    callee body edit that leaves its spec unchanged does not
    appear anywhere in a caller's key, so the caller's entry still hits.
    Transitive dependencies are covered inductively — if a transitive
    callee's spec moves, the direct callee re-verifies (its own key
    changed) while the caller is untouched, exactly mirroring how the
    checker itself only ever reads one level of specs. *)

module Syntax = Rc_caesium.Syntax
module Layout = Rc_caesium.Layout
module Int_type = Rc_caesium.Int_type
module SS = Set.Make (String)

type node = {
  n_name : string;
  n_index : int;  (** position in source order *)
  n_deps : string list;
      (** direct dependencies: spec'd siblings this function's body or
          spec references, sorted, self-reference removed *)
  n_body_digest : string Lazy.t;
      (** Caesium body + loop invariants; forced by the (sequential)
          cache probe, never from several domains at once *)
  n_iface_digest : string Lazy.t;
      (** the exported interface: the spec — the only part of
          this function a caller's check can observe *)
}

type t = {
  nodes : (string * node) list;  (** in source order *)
  by_name : (string, node * string list) Hashtbl.t;
      (** each name's first node, with its reverse edges: its direct
          callers, sorted.  Read-only once built. *)
}

(* ---- direct-reference extraction --------------------------------- *)

(* Names a body can resolve against the sibling spec table: [FnAddr f]
   anywhere, and [VarLoc x] where [x] is not a stack slot (the expr rule
   falls through to [fc_specs] exactly then). *)
let rec refs_of_expr ~slots (acc : SS.t) (e : Syntax.expr) : SS.t =
  match e with
  | Syntax.FnAddr f -> SS.add f acc
  | Syntax.VarLoc x -> if SS.mem x slots then acc else SS.add x acc
  | Syntax.IntConst _ | Syntax.NullConst -> acc
  | Syntax.Use { arg; _ }
  | Syntax.FieldOfs { arg; _ }
  | Syntax.UnOp { arg; _ }
  | Syntax.CastIntInt { arg; _ }
  | Syntax.CastPtrPtr arg ->
      refs_of_expr ~slots acc arg
  | Syntax.BinOp { e1; e2; _ } ->
      refs_of_expr ~slots (refs_of_expr ~slots acc e1) e2

let refs_of_stmt ~slots (acc : SS.t) (s : Syntax.stmt) : SS.t =
  let e = refs_of_expr ~slots in
  match s with
  | Syntax.Assign { lhs; rhs; _ } -> e (e acc lhs) rhs
  | Syntax.Call { dest; fn; args } ->
      let acc = match dest with Some (_, d) -> e acc d | None -> acc in
      List.fold_left (fun acc (_, a) -> e acc a) (e acc fn) args
  | Syntax.Cas { obj; expected; desired; dest; _ } ->
      let acc = match dest with Some (_, d) -> e acc d | None -> acc in
      e (e (e acc obj) expected) desired
  | Syntax.Skip -> acc
  | Syntax.ExprStmt x | Syntax.Free x -> e acc x

let refs_of_term ~slots (acc : SS.t) (term : Syntax.terminator) : SS.t =
  match term with
  | Syntax.Goto _ | Syntax.Unreachable | Syntax.Return None -> acc
  | Syntax.CondGoto { cond; _ } -> refs_of_expr ~slots acc cond
  | Syntax.Switch { scrut; _ } -> refs_of_expr ~slots acc scrut
  | Syntax.Return (Some e) -> refs_of_expr ~slots acc e

let refs_of_func (f : Syntax.func) : SS.t =
  let slots =
    SS.of_list (List.map fst (f.Syntax.args @ f.Syntax.locals))
  in
  List.fold_left
    (fun acc (_, (b : Syntax.block)) ->
      refs_of_term ~slots
        (List.fold_left (refs_of_stmt ~slots) acc b.Syntax.stmts)
        b.Syntax.term)
    SS.empty f.Syntax.blocks

(* Spec-level references: [TFnPtr] types name sibling functions (the
   subsumption rule compares them nominally, and the checker resolves
   the name against [fc_specs]); a spec or invariant mentioning [fn<g>]
   therefore depends on [g]'s interface like a call site does. *)
let rec refs_of_rtype (acc : SS.t) (ty : Rtype.rtype) : SS.t =
  match ty with
  | Rtype.TFnPtr s -> refs_of_spec (SS.add s.Rtype.fs_name acc) s
  | Rtype.TInt _ | Rtype.TBool _ | Rtype.TNull | Rtype.TPtrV _
  | Rtype.TUninit _ | Rtype.TAnyInt _ | Rtype.TArrayInt _
  | Rtype.TNamed _ | Rtype.TManaged _ ->
      acc
  | Rtype.TOwn (_, ty) | Rtype.TConstr (ty, _) | Rtype.TPadded (ty, _) ->
      refs_of_rtype acc ty
  | Rtype.TOptional (_, t1, t2) -> refs_of_rtype (refs_of_rtype acc t1) t2
  | Rtype.TStruct (_, tys) -> List.fold_left refs_of_rtype acc tys
  | Rtype.TWand (a, ty) -> refs_of_rtype (refs_of_atom acc a) ty
  | Rtype.TExists (x, s, f) ->
      refs_of_rtype acc (f (Rc_pure.Term.Var (x, s)))
  | Rtype.TAtomicBool (_, _, h1, h2) ->
      refs_of_hres_list (refs_of_hres_list acc h1) h2

and refs_of_atom acc = function
  | Rtype.LocTy (_, ty) | Rtype.ValTy (_, ty) -> refs_of_rtype acc ty

and refs_of_hres acc = function
  | Rtype.HAtom a -> refs_of_atom acc a
  | Rtype.HProp _ -> acc

and refs_of_hres_list acc hs = List.fold_left refs_of_hres acc hs

and refs_of_spec acc (s : Rtype.fn_spec) : SS.t =
  refs_of_rtype
    (refs_of_hres_list
       (refs_of_hres_list (List.fold_left refs_of_rtype acc s.Rtype.fs_args)
          s.Rtype.fs_pre)
       s.Rtype.fs_post)
    s.Rtype.fs_ret

let refs_of_invs (invs : (string * Lang.loop_inv) list) : SS.t =
  List.fold_left
    (fun acc (_, (i : Lang.loop_inv)) ->
      List.fold_left (fun acc (_, ty) -> refs_of_rtype acc ty) acc
        i.Lang.li_vars)
    SS.empty invs

(* ---- digests ------------------------------------------------------ *)

(* The body encoding is the injective structural encoding of
   {!Rc_util.Enc}: each value is written as a constructor tag followed
   by its fields, so no two distinct functions share an encoding.  Every
   [Layout.t] is written in full ({!Layout.enc}) wherever it occurs; a
   layout edit therefore always moves the digest.  Any change to this
   encoding must bump the cache tag in
   [Typecheck.toolchain_fingerprint] (a golden digest in
   test_incremental pins it). *)

module Enc = Rc_util.Enc

let enc_ot w = function
  | Syntax.OInt it ->
      Enc.tag w 'I';
      Int_type.enc w it
  | Syntax.OPtr -> Enc.tag w 'P'

let enc_binop w (op : Syntax.binop) =
  match op with
  | Syntax.AddOp -> Enc.tag w '+'
  | Syntax.SubOp -> Enc.tag w '-'
  | Syntax.MulOp -> Enc.tag w '*'
  | Syntax.DivOp -> Enc.tag w '/'
  | Syntax.ModOp -> Enc.tag w '%'
  | Syntax.AndOp -> Enc.tag w '&'
  | Syntax.OrOp -> Enc.tag w '|'
  | Syntax.XorOp -> Enc.tag w '^'
  | Syntax.ShlOp -> Enc.tag w '<'
  | Syntax.ShrOp -> Enc.tag w '>'
  | Syntax.EqOp -> Enc.tag w '='
  | Syntax.NeOp -> Enc.tag w '!'
  | Syntax.LtOp -> Enc.tag w 'l'
  | Syntax.LeOp -> Enc.tag w 'L'
  | Syntax.GtOp -> Enc.tag w 'g'
  | Syntax.GeOp -> Enc.tag w 'G'
  | Syntax.PtrPlusOp l ->
      Enc.tag w 'p';
      Layout.enc w l
  | Syntax.PtrDiffOp l ->
      Enc.tag w 'd';
      Layout.enc w l

let enc_unop w (op : Syntax.unop) =
  Enc.tag w
    (match op with
    | Syntax.NegOp -> '-'
    | Syntax.BitNotOp -> '~'
    | Syntax.LogNotOp -> '!')

let rec enc_expr w (e : Syntax.expr) =
  match e with
  | Syntax.IntConst (n, it) ->
      Enc.tag w 'i';
      Enc.enc_int w n;
      Int_type.enc w it
  | Syntax.NullConst -> Enc.tag w 'n'
  | Syntax.FnAddr f ->
      Enc.tag w 'a';
      Enc.enc_str w f
  | Syntax.VarLoc x ->
      Enc.tag w 'v';
      Enc.enc_str w x
  | Syntax.Use { atomic; layout; arg } ->
      Enc.tag w 'u';
      Enc.enc_bool w atomic;
      Layout.enc w layout;
      enc_expr w arg
  | Syntax.FieldOfs { arg; struct_; field } ->
      Enc.tag w 'f';
      enc_expr w arg;
      Layout.enc_struct w struct_;
      Enc.enc_str w field
  | Syntax.BinOp { op; ot1; ot2; e1; e2 } ->
      Enc.tag w 'b';
      enc_binop w op;
      enc_ot w ot1;
      enc_ot w ot2;
      enc_expr w e1;
      enc_expr w e2
  | Syntax.UnOp { op; ot; arg } ->
      Enc.tag w 'o';
      enc_unop w op;
      enc_ot w ot;
      enc_expr w arg
  | Syntax.CastIntInt { from_; to_; arg } ->
      Enc.tag w 'c';
      Int_type.enc w from_;
      Int_type.enc w to_;
      enc_expr w arg
  | Syntax.CastPtrPtr arg ->
      Enc.tag w 'p';
      enc_expr w arg

(* a list of (layout, expr) pairs: call arguments *)
let rec enc_operands w = function
  | [] -> ()
  | (l, e) :: rest ->
      Layout.enc w l;
      enc_expr w e;
      enc_operands w rest

let enc_dest w = function
  | None -> Enc.tag w 'N'
  | Some (l, e) ->
      Enc.tag w 'S';
      Layout.enc w l;
      enc_expr w e

let enc_stmt w (s : Syntax.stmt) =
  match s with
  | Syntax.Assign { atomic; layout; lhs; rhs } ->
      Enc.tag w 'A';
      Enc.enc_bool w atomic;
      Layout.enc w layout;
      enc_expr w lhs;
      enc_expr w rhs
  | Syntax.Call { dest; fn; args } ->
      Enc.tag w 'C';
      enc_dest w dest;
      enc_expr w fn;
      Enc.enc_int w (List.length args);
      enc_operands w args
  | Syntax.Cas { layout; obj; expected; desired; dest } ->
      Enc.tag w 'X';
      Layout.enc w layout;
      enc_expr w obj;
      enc_expr w expected;
      enc_expr w desired;
      enc_dest w dest
  | Syntax.Skip -> Enc.tag w 'S'
  | Syntax.ExprStmt e ->
      Enc.tag w 'E';
      enc_expr w e
  | Syntax.Free e ->
      Enc.tag w 'F';
      enc_expr w e

let rec enc_cases w = function
  | [] -> ()
  | (n, l) :: rest ->
      Enc.enc_int w n;
      Enc.enc_str w l;
      enc_cases w rest

let enc_term w (t : Syntax.terminator) =
  match t with
  | Syntax.Goto l ->
      Enc.tag w 'g';
      Enc.enc_str w l
  | Syntax.CondGoto { ot; cond; if_true; if_false } ->
      Enc.tag w 'c';
      enc_ot w ot;
      enc_expr w cond;
      Enc.enc_str w if_true;
      Enc.enc_str w if_false
  | Syntax.Switch { ot; scrut; cases; default } ->
      Enc.tag w 's';
      enc_ot w ot;
      enc_expr w scrut;
      Enc.enc_int w (List.length cases);
      enc_cases w cases;
      Enc.enc_str w default
  | Syntax.Return None ->
      Enc.tag w 'r';
      Enc.tag w 'N'
  | Syntax.Return (Some e) ->
      Enc.tag w 'r';
      Enc.tag w 'S';
      enc_expr w e
  | Syntax.Unreachable -> Enc.tag w 'u'

let enc_block w (blk : Syntax.block) =
  Enc.enc_int w (List.length blk.Syntax.stmts);
  List.iter (enc_stmt w) blk.Syntax.stmts;
  enc_term w blk.Syntax.term

let rec enc_slots_of w = function
  | [] -> ()
  | (x, l) :: rest ->
      Enc.enc_str w x;
      Layout.enc w l;
      enc_slots_of w rest

let enc_slots w slots =
  Enc.enc_int w (List.length slots);
  enc_slots_of w slots

let rec enc_blocks w = function
  | [] -> ()
  | (l, blk) :: rest ->
      Enc.enc_str w l;
      enc_block w blk;
      enc_blocks w rest

let enc_func w (f : Syntax.func) =
  Enc.enc_str w f.Syntax.fname;
  enc_slots w f.Syntax.args;
  enc_slots w f.Syntax.locals;
  Layout.enc w f.Syntax.ret_layout;
  Enc.enc_int w (List.length f.Syntax.blocks);
  enc_blocks w f.Syntax.blocks;
  Enc.enc_str w f.Syntax.entry

(** The body digest: the structural encoding of the Caesium function
    followed by that of its loop invariants. *)
let body_digest (ftc : Typecheck.fn_to_check) : string =
  let w = Enc.create 1024 in
  enc_func w ftc.Typecheck.func;
  Typecheck.enc_invs w ftc.Typecheck.invs;
  Enc.digest w

(** The interface digest: the structural encoding of the spec. *)
let iface_digest (ftc : Typecheck.fn_to_check) : string =
  let w = Enc.create 256 in
  Rtype.enc_spec w ftc.Typecheck.spec;
  Enc.digest w

(* ---- graph construction ------------------------------------------- *)

(** Build the dependency graph of one elaborated file.  Only references
    to *specified* siblings become edges: a call to an unknown name is
    unprovable, fails, and failures are never cached — so the name's
    later appearance re-verifies the caller anyway.  (Appearing or
    disappearing edges change a function's component *list*, which is
    itself part of its cache key.) *)
let build (fns : Typecheck.fn_to_check list) : t =
  let spec'd =
    SS.of_list
      (List.map (fun f -> f.Typecheck.spec.Rtype.fs_name) fns)
  in
  let nodes =
    List.mapi
      (fun i (f : Typecheck.fn_to_check) ->
        let name = f.Typecheck.spec.Rtype.fs_name in
        let refs =
          SS.union
            (refs_of_func f.Typecheck.func)
            (SS.union
               (refs_of_spec SS.empty f.Typecheck.spec)
               (refs_of_invs f.Typecheck.invs))
        in
        let deps =
          SS.elements (SS.remove name (SS.inter refs spec'd))
        in
        ( name,
          {
            n_name = name;
            n_index = i;
            n_deps = deps;
            n_body_digest = lazy (body_digest f);
            n_iface_digest = lazy (iface_digest f);
          } ))
      fns
  in
  let rdeps_tbl = Hashtbl.create 16 in
  List.iter
    (fun (name, node) ->
      List.iter
        (fun dep ->
          Hashtbl.replace rdeps_tbl dep
            (name
            :: Option.value ~default:[] (Hashtbl.find_opt rdeps_tbl dep)))
        node.n_deps)
    nodes;
  (* the first node of a name wins, as [List.assoc] would pick it *)
  let by_name = Hashtbl.create (List.length nodes) in
  List.iter
    (fun (name, node) ->
      if not (Hashtbl.mem by_name name) then
        Hashtbl.add by_name name
          ( node,
            List.sort compare
              (Option.value ~default:[] (Hashtbl.find_opt rdeps_tbl name)) ))
    nodes;
  { nodes; by_name }

let node (g : t) (name : string) : node option =
  match Hashtbl.find g.by_name name with
  | n, _ -> Some n
  | exception Not_found -> None

let names (g : t) : string list = List.map fst g.nodes

(** Direct dependencies (spec'd functions this one references). *)
let direct_deps (g : t) (name : string) : string list =
  match Hashtbl.find g.by_name name with
  | n, _ -> n.n_deps
  | exception Not_found -> []

(** Direct dependents (spec'd functions that reference this one). *)
let dependents (g : t) (name : string) : string list =
  match Hashtbl.find g.by_name name with
  | _, callers -> callers
  | exception Not_found -> []

(** Dependency-respecting order: callees before callers, source order
    within a stratum; cycles (mutual recursion) are broken at the
    source-order-first member.  The driver dispatches the dirty set in
    this order. *)
let topo_order (g : t) : string list =
  let visiting = Hashtbl.create 16 and done_ = Hashtbl.create 16 in
  let out = ref [] in
  let rec visit name =
    if (not (Hashtbl.mem done_ name)) && not (Hashtbl.mem visiting name)
    then begin
      Hashtbl.replace visiting name ();
      List.iter visit (direct_deps g name);
      Hashtbl.remove visiting name;
      Hashtbl.replace done_ name ();
      out := name :: !out
    end
  in
  List.iter (fun (name, _) -> visit name) g.nodes;
  List.rev !out

(** The *dirty cone* of an interface change: the transitive dependents
    of [roots], roots included, in source order.  This is what a spec
    edit can at most re-verify; a body edit's cone is just the root
    (early cutoff — bodies are invisible to callers). *)
let cone (g : t) (roots : string list) : string list =
  let seen = Hashtbl.create 16 in
  let rec visit name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.replace seen name ();
      List.iter visit (dependents g name)
    end
  in
  List.iter visit roots;
  List.filter (Hashtbl.mem seen) (names g)

(* ---- cache-key components ----------------------------------------- *)

(** The named component digests of one function's verification inputs —
    the dependency-cone cache key.  Order is fixed (config, budget,
    body, spec, invariants, then callees sorted by name) so the digested
    concatenation is deterministic; the component *names* let a miss be
    explained by diffing against the last stored manifest
    ({!Rc_util.Vercache.find_keyed}).

    The config and budget components depend on the session only, and
    the toolchain fingerprint encodes every registered type definition:
    [components ~session] computes both once, and the function it
    returns reuses them for every function it keys — the driver applies
    it once per check. *)
let components ~(session : Session.t) : t -> Typecheck.fn_to_check ->
    (string * string) list =
  let shared =
    [
      ("config", Typecheck.toolchain_fingerprint session);
      ("budget", Typecheck.budget_signature session.Session.budget);
    ]
  in
  fun g ftc ->
    let name = ftc.Typecheck.spec.Rtype.fs_name in
    let n =
      match node g name with
      | Some n -> n
      | None ->
          (* a function checked outside its file graph (API
             single-function checks): degrade to an edgeless node —
             correct, never stale, just without sibling sharing *)
          {
            n_name = name;
            n_index = 0;
            n_deps = [];
            n_body_digest = lazy (body_digest ftc);
            n_iface_digest = lazy (iface_digest ftc);
          }
    in
    shared
    @ [
        ("body", Lazy.force n.n_body_digest);
        ("spec", Lazy.force n.n_iface_digest);
      ]
    @ List.filter_map
        (fun dep ->
          Option.map
            (fun dn -> ("callee:" ^ dep, Lazy.force dn.n_iface_digest))
            (node g dep))
        n.n_deps

(** The stable cache identity of one function: what the manifest (the
    miss explainer) is keyed on.  Per (file, function) so two files
    defining the same name do not fight over one manifest. *)
let cache_id ~(file : string) (name : string) : string =
  Rc_util.Vercache.fingerprint [ "rc-cone-id"; file; name ]
