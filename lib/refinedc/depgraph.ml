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
    body/invariants and of the exported interface (the spec signature).

    Edges are extracted eagerly — the driver's cold-run schedule
    ({!topo_order}) and the lockset analysis need them on every run.
    Digests are computed on first use, i.e. only when a verification
    cache asks for a key.  The body digest hashes a hand-written
    structural encoding of the Caesium function ([enc_func]:
    constructor tags, length-prefixed strings, every [Layout.t] in
    full), never printed text.

    The graph is what the driver keys the verification cache on
    ({!components}): a function's cache key digests its own body + spec
    + invariants and the *interface* digests of its direct callees —
    nothing else from the file.  That gives early cutoff for free: a
    callee body edit that leaves its spec signature unchanged does not
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
      (** the exported interface: the spec signature — the only part of
          this function a caller's check can observe *)
}

type t = {
  nodes : (string * node) list;  (** in source order *)
  rdeps : (string * string list) list;
      (** reverse edges: function ↦ its direct callers, sorted *)
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

(* The body encoding is injective: each value is written as a
   constructor tag followed by its fields, ints as decimal terminated by
   [';'], strings and lists prefixed by their length, so no two distinct
   functions share an encoding.  Every [Layout.t] is written in full —
   struct name, fields, offsets, size and alignment — wherever it
   occurs; a layout edit therefore always moves the digest.  Any change
   to this encoding must bump the cache tag in
   [Typecheck.toolchain_fingerprint] (a golden digest in
   test_incremental pins it). *)

(* [string_of_int n ^ ";"], written straight into [b]: the digits come
   from the non-positive [-|n|], which exists for [min_int] too *)
let enc_int b n =
  if n < 0 then Buffer.add_char b '-';
  let rec digits m =
    if m <= -10 then digits (m / 10);
    Buffer.add_char b (Char.unsafe_chr (48 - (m mod 10)))
  in
  digits (if n < 0 then n else -n);
  Buffer.add_char b ';'

let enc_str b s =
  enc_int b (String.length s);
  Buffer.add_string b s

let enc_bool b x = Buffer.add_char b (if x then 't' else 'f')

let enc_list enc b xs =
  enc_int b (List.length xs);
  List.iter (enc b) xs

let enc_option enc b = function
  | None -> Buffer.add_char b 'N'
  | Some x ->
      Buffer.add_char b 'S';
      enc b x

let enc_pair enc1 enc2 b (x, y) =
  enc1 b x;
  enc2 b y

let enc_int_type b (it : Int_type.t) =
  enc_str b it.Int_type.it_name;
  enc_int b it.Int_type.size;
  Buffer.add_char b
    (match it.Int_type.signedness with
    | Int_type.Signed -> 's'
    | Int_type.Unsigned -> 'u')

let rec enc_layout b (l : Layout.t) =
  match l with
  | Layout.Int it ->
      Buffer.add_char b 'I';
      enc_int_type b it
  | Layout.Ptr -> Buffer.add_char b 'P'
  | Layout.FnPtr -> Buffer.add_char b 'F'
  | Layout.Struct sl ->
      Buffer.add_char b 'S';
      enc_struct b sl
  | Layout.Array (l, n) ->
      Buffer.add_char b 'A';
      enc_layout b l;
      enc_int b n
  | Layout.Void -> Buffer.add_char b 'V'

and enc_struct b (sl : Layout.struct_layout) =
  enc_str b sl.Layout.sl_name;
  enc_list
    (fun b (f : Layout.field) ->
      enc_str b f.Layout.fld_name;
      enc_int b f.Layout.fld_ofs;
      enc_layout b f.Layout.fld_layout)
    b sl.Layout.sl_fields;
  enc_int b sl.Layout.sl_size;
  enc_int b sl.Layout.sl_align

let enc_ot b = function
  | Syntax.OInt it ->
      Buffer.add_char b 'I';
      enc_int_type b it
  | Syntax.OPtr -> Buffer.add_char b 'P'

let enc_binop b (op : Syntax.binop) =
  let tag c = Buffer.add_char b c in
  match op with
  | Syntax.AddOp -> tag '+'
  | Syntax.SubOp -> tag '-'
  | Syntax.MulOp -> tag '*'
  | Syntax.DivOp -> tag '/'
  | Syntax.ModOp -> tag '%'
  | Syntax.AndOp -> tag '&'
  | Syntax.OrOp -> tag '|'
  | Syntax.XorOp -> tag '^'
  | Syntax.ShlOp -> tag '<'
  | Syntax.ShrOp -> tag '>'
  | Syntax.EqOp -> tag '='
  | Syntax.NeOp -> tag '!'
  | Syntax.LtOp -> tag 'l'
  | Syntax.LeOp -> tag 'L'
  | Syntax.GtOp -> tag 'g'
  | Syntax.GeOp -> tag 'G'
  | Syntax.PtrPlusOp l ->
      tag 'p';
      enc_layout b l
  | Syntax.PtrDiffOp l ->
      tag 'd';
      enc_layout b l

let enc_unop b (op : Syntax.unop) =
  Buffer.add_char b
    (match op with
    | Syntax.NegOp -> '-'
    | Syntax.BitNotOp -> '~'
    | Syntax.LogNotOp -> '!')

let rec enc_expr b (e : Syntax.expr) =
  let tag c = Buffer.add_char b c in
  match e with
  | Syntax.IntConst (n, it) ->
      tag 'i';
      enc_int b n;
      enc_int_type b it
  | Syntax.NullConst -> tag 'n'
  | Syntax.FnAddr f ->
      tag 'a';
      enc_str b f
  | Syntax.VarLoc x ->
      tag 'v';
      enc_str b x
  | Syntax.Use { atomic; layout; arg } ->
      tag 'u';
      enc_bool b atomic;
      enc_layout b layout;
      enc_expr b arg
  | Syntax.FieldOfs { arg; struct_; field } ->
      tag 'f';
      enc_expr b arg;
      enc_struct b struct_;
      enc_str b field
  | Syntax.BinOp { op; ot1; ot2; e1; e2 } ->
      tag 'b';
      enc_binop b op;
      enc_ot b ot1;
      enc_ot b ot2;
      enc_expr b e1;
      enc_expr b e2
  | Syntax.UnOp { op; ot; arg } ->
      tag 'o';
      enc_unop b op;
      enc_ot b ot;
      enc_expr b arg
  | Syntax.CastIntInt { from_; to_; arg } ->
      tag 'c';
      enc_int_type b from_;
      enc_int_type b to_;
      enc_expr b arg
  | Syntax.CastPtrPtr arg ->
      tag 'p';
      enc_expr b arg

let enc_dest b = enc_option (enc_pair enc_layout enc_expr) b

let enc_stmt b (s : Syntax.stmt) =
  let tag c = Buffer.add_char b c in
  match s with
  | Syntax.Assign { atomic; layout; lhs; rhs } ->
      tag 'A';
      enc_bool b atomic;
      enc_layout b layout;
      enc_expr b lhs;
      enc_expr b rhs
  | Syntax.Call { dest; fn; args } ->
      tag 'C';
      enc_dest b dest;
      enc_expr b fn;
      enc_list (enc_pair enc_layout enc_expr) b args
  | Syntax.Cas { layout; obj; expected; desired; dest } ->
      tag 'X';
      enc_layout b layout;
      enc_expr b obj;
      enc_expr b expected;
      enc_expr b desired;
      enc_dest b dest
  | Syntax.Skip -> tag 'S'
  | Syntax.ExprStmt e ->
      tag 'E';
      enc_expr b e
  | Syntax.Free e ->
      tag 'F';
      enc_expr b e

let enc_term b (t : Syntax.terminator) =
  let tag c = Buffer.add_char b c in
  match t with
  | Syntax.Goto l ->
      tag 'g';
      enc_str b l
  | Syntax.CondGoto { ot; cond; if_true; if_false } ->
      tag 'c';
      enc_ot b ot;
      enc_expr b cond;
      enc_str b if_true;
      enc_str b if_false
  | Syntax.Switch { ot; scrut; cases; default } ->
      tag 's';
      enc_ot b ot;
      enc_expr b scrut;
      enc_list (enc_pair enc_int enc_str) b cases;
      enc_str b default
  | Syntax.Return e ->
      tag 'r';
      enc_option enc_expr b e
  | Syntax.Unreachable -> tag 'u'

let enc_block b (blk : Syntax.block) =
  enc_list enc_stmt b blk.Syntax.stmts;
  enc_term b blk.Syntax.term

let enc_slots = enc_list (enc_pair enc_str enc_layout)

let enc_func b (f : Syntax.func) =
  enc_str b f.Syntax.fname;
  enc_slots b f.Syntax.args;
  enc_slots b f.Syntax.locals;
  enc_layout b f.Syntax.ret_layout;
  enc_list (enc_pair enc_str enc_block) b f.Syntax.blocks;
  enc_str b f.Syntax.entry

let digest (s : string) : string = Digest.to_hex (Digest.string s)

(** The body digest: the structural encoding of the Caesium function
    followed by the loop-invariant signature. *)
let body_digest (ftc : Typecheck.fn_to_check) : string =
  let b = Buffer.create 1024 in
  enc_func b ftc.Typecheck.func;
  enc_str b (Typecheck.invs_signature ftc.Typecheck.invs);
  digest (Buffer.contents b)

let iface_digest (ftc : Typecheck.fn_to_check) : string =
  digest (Rtype.spec_signature ftc.Typecheck.spec)

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
  let rdeps =
    List.map
      (fun (name, _) ->
        ( name,
          List.sort compare
            (Option.value ~default:[] (Hashtbl.find_opt rdeps_tbl name)) ))
      nodes
  in
  { nodes; rdeps }

let node (g : t) (name : string) : node option = List.assoc_opt name g.nodes
let names (g : t) : string list = List.map fst g.nodes

(** Direct dependencies (spec'd functions this one references). *)
let direct_deps (g : t) (name : string) : string list =
  match node g name with Some n -> n.n_deps | None -> []

(** Direct dependents (spec'd functions that reference this one). *)
let dependents (g : t) (name : string) : string list =
  Option.value ~default:[] (List.assoc_opt name g.rdeps)

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
    the toolchain fingerprint prints every registered type definition:
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
