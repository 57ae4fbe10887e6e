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

(* The body encoding is injective: each value is written as a
   constructor tag followed by its fields, ints as decimal terminated by
   [';'], strings and lists prefixed by their length, so no two distinct
   functions share an encoding.  Every [Layout.t] is written in full —
   struct name, fields, offsets, size and alignment — wherever it
   occurs; a layout edit therefore always moves the digest.  Any change
   to this encoding must bump the cache tag in
   [Typecheck.toolchain_fingerprint] (a golden digest in
   test_incremental pins it). *)

(* The writer: a growable byte array the encoders fill in place, so a
   tag is one store and an int one store per digit, with no closure per
   list or pair and no [Buffer] call per character. *)
type enc = { mutable bytes : Bytes.t; mutable len : int }

let enc_create n = { bytes = Bytes.create n; len = 0 }

let grow (w : enc) n =
  let bytes = Bytes.create (max (w.len + n) (2 * Bytes.length w.bytes)) in
  Bytes.blit w.bytes 0 bytes 0 w.len;
  w.bytes <- bytes

(* room for [n] more bytes; inlined, so a write that fits costs a
   comparison and a store *)
let[@inline] reserve (w : enc) n =
  if w.len + n > Bytes.length w.bytes then grow w n

let[@inline] tag (w : enc) c =
  reserve w 1;
  Bytes.unsafe_set w.bytes w.len c;
  w.len <- w.len + 1

(* [string_of_int n ^ ";"]: the digits come from the non-positive
   [-|n|], which exists for [min_int] too, written backwards from the
   end of their counted width *)
let enc_int (w : enc) n =
  if n >= 0 && n < 10 then begin
    (* the common case: a length, size, offset or small constant *)
    reserve w 2;
    Bytes.unsafe_set w.bytes w.len (Char.unsafe_chr (48 + n));
    Bytes.unsafe_set w.bytes (w.len + 1) ';';
    w.len <- w.len + 2
  end
  else begin
    let m = if n < 0 then n else -n in
    let rec width m k = if m <= -10 then width (m / 10) (k + 1) else k in
    let digits = width m 1 in
    let sign = if n < 0 then 1 else 0 in
    reserve w (sign + digits + 1);
    let b = w.bytes and start = w.len in
    if n < 0 then Bytes.unsafe_set b start '-';
    let rec put m i =
      Bytes.unsafe_set b i (Char.unsafe_chr (48 - (m mod 10)));
      if m <= -10 then put (m / 10) (i - 1)
    in
    put m (start + sign + digits - 1);
    Bytes.unsafe_set b (start + sign + digits) ';';
    w.len <- start + sign + digits + 1
  end

let enc_str (w : enc) s =
  let n = String.length s in
  enc_int w n;
  reserve w n;
  Bytes.unsafe_blit_string s 0 w.bytes w.len n;
  w.len <- w.len + n

let enc_bool w x = tag w (if x then 't' else 'f')

let enc_int_type w (it : Int_type.t) =
  enc_str w it.Int_type.it_name;
  enc_int w it.Int_type.size;
  tag w
    (match it.Int_type.signedness with
    | Int_type.Signed -> 's'
    | Int_type.Unsigned -> 'u')

let rec enc_layout w (l : Layout.t) =
  match l with
  | Layout.Int it ->
      tag w 'I';
      enc_int_type w it
  | Layout.Ptr -> tag w 'P'
  | Layout.FnPtr -> tag w 'F'
  | Layout.Struct sl ->
      tag w 'S';
      enc_struct w sl
  | Layout.Array (l, n) ->
      tag w 'A';
      enc_layout w l;
      enc_int w n
  | Layout.Void -> tag w 'V'

and enc_struct w (sl : Layout.struct_layout) =
  enc_str w sl.Layout.sl_name;
  enc_int w (List.length sl.Layout.sl_fields);
  enc_fields w sl.Layout.sl_fields;
  enc_int w sl.Layout.sl_size;
  enc_int w sl.Layout.sl_align

and enc_fields w = function
  | [] -> ()
  | (f : Layout.field) :: rest ->
      enc_str w f.Layout.fld_name;
      enc_int w f.Layout.fld_ofs;
      enc_layout w f.Layout.fld_layout;
      enc_fields w rest

let enc_ot w = function
  | Syntax.OInt it ->
      tag w 'I';
      enc_int_type w it
  | Syntax.OPtr -> tag w 'P'

let enc_binop w (op : Syntax.binop) =
  match op with
  | Syntax.AddOp -> tag w '+'
  | Syntax.SubOp -> tag w '-'
  | Syntax.MulOp -> tag w '*'
  | Syntax.DivOp -> tag w '/'
  | Syntax.ModOp -> tag w '%'
  | Syntax.AndOp -> tag w '&'
  | Syntax.OrOp -> tag w '|'
  | Syntax.XorOp -> tag w '^'
  | Syntax.ShlOp -> tag w '<'
  | Syntax.ShrOp -> tag w '>'
  | Syntax.EqOp -> tag w '='
  | Syntax.NeOp -> tag w '!'
  | Syntax.LtOp -> tag w 'l'
  | Syntax.LeOp -> tag w 'L'
  | Syntax.GtOp -> tag w 'g'
  | Syntax.GeOp -> tag w 'G'
  | Syntax.PtrPlusOp l ->
      tag w 'p';
      enc_layout w l
  | Syntax.PtrDiffOp l ->
      tag w 'd';
      enc_layout w l

let enc_unop w (op : Syntax.unop) =
  tag w
    (match op with
    | Syntax.NegOp -> '-'
    | Syntax.BitNotOp -> '~'
    | Syntax.LogNotOp -> '!')

let rec enc_expr w (e : Syntax.expr) =
  match e with
  | Syntax.IntConst (n, it) ->
      tag w 'i';
      enc_int w n;
      enc_int_type w it
  | Syntax.NullConst -> tag w 'n'
  | Syntax.FnAddr f ->
      tag w 'a';
      enc_str w f
  | Syntax.VarLoc x ->
      tag w 'v';
      enc_str w x
  | Syntax.Use { atomic; layout; arg } ->
      tag w 'u';
      enc_bool w atomic;
      enc_layout w layout;
      enc_expr w arg
  | Syntax.FieldOfs { arg; struct_; field } ->
      tag w 'f';
      enc_expr w arg;
      enc_struct w struct_;
      enc_str w field
  | Syntax.BinOp { op; ot1; ot2; e1; e2 } ->
      tag w 'b';
      enc_binop w op;
      enc_ot w ot1;
      enc_ot w ot2;
      enc_expr w e1;
      enc_expr w e2
  | Syntax.UnOp { op; ot; arg } ->
      tag w 'o';
      enc_unop w op;
      enc_ot w ot;
      enc_expr w arg
  | Syntax.CastIntInt { from_; to_; arg } ->
      tag w 'c';
      enc_int_type w from_;
      enc_int_type w to_;
      enc_expr w arg
  | Syntax.CastPtrPtr arg ->
      tag w 'p';
      enc_expr w arg

(* a list of (layout, expr) pairs: call arguments *)
let rec enc_operands w = function
  | [] -> ()
  | (l, e) :: rest ->
      enc_layout w l;
      enc_expr w e;
      enc_operands w rest

let enc_dest w = function
  | None -> tag w 'N'
  | Some (l, e) ->
      tag w 'S';
      enc_layout w l;
      enc_expr w e

let enc_stmt w (s : Syntax.stmt) =
  match s with
  | Syntax.Assign { atomic; layout; lhs; rhs } ->
      tag w 'A';
      enc_bool w atomic;
      enc_layout w layout;
      enc_expr w lhs;
      enc_expr w rhs
  | Syntax.Call { dest; fn; args } ->
      tag w 'C';
      enc_dest w dest;
      enc_expr w fn;
      enc_int w (List.length args);
      enc_operands w args
  | Syntax.Cas { layout; obj; expected; desired; dest } ->
      tag w 'X';
      enc_layout w layout;
      enc_expr w obj;
      enc_expr w expected;
      enc_expr w desired;
      enc_dest w dest
  | Syntax.Skip -> tag w 'S'
  | Syntax.ExprStmt e ->
      tag w 'E';
      enc_expr w e
  | Syntax.Free e ->
      tag w 'F';
      enc_expr w e

let rec enc_cases w = function
  | [] -> ()
  | (n, l) :: rest ->
      enc_int w n;
      enc_str w l;
      enc_cases w rest

let enc_term w (t : Syntax.terminator) =
  match t with
  | Syntax.Goto l ->
      tag w 'g';
      enc_str w l
  | Syntax.CondGoto { ot; cond; if_true; if_false } ->
      tag w 'c';
      enc_ot w ot;
      enc_expr w cond;
      enc_str w if_true;
      enc_str w if_false
  | Syntax.Switch { ot; scrut; cases; default } ->
      tag w 's';
      enc_ot w ot;
      enc_expr w scrut;
      enc_int w (List.length cases);
      enc_cases w cases;
      enc_str w default
  | Syntax.Return None ->
      tag w 'r';
      tag w 'N'
  | Syntax.Return (Some e) ->
      tag w 'r';
      tag w 'S';
      enc_expr w e
  | Syntax.Unreachable -> tag w 'u'

let enc_block w (blk : Syntax.block) =
  enc_int w (List.length blk.Syntax.stmts);
  List.iter (enc_stmt w) blk.Syntax.stmts;
  enc_term w blk.Syntax.term

let rec enc_slots_of w = function
  | [] -> ()
  | (x, l) :: rest ->
      enc_str w x;
      enc_layout w l;
      enc_slots_of w rest

let enc_slots w slots =
  enc_int w (List.length slots);
  enc_slots_of w slots

let rec enc_blocks w = function
  | [] -> ()
  | (l, blk) :: rest ->
      enc_str w l;
      enc_block w blk;
      enc_blocks w rest

let enc_func w (f : Syntax.func) =
  enc_str w f.Syntax.fname;
  enc_slots w f.Syntax.args;
  enc_slots w f.Syntax.locals;
  enc_layout w f.Syntax.ret_layout;
  enc_int w (List.length f.Syntax.blocks);
  enc_blocks w f.Syntax.blocks;
  enc_str w f.Syntax.entry

let digest (s : string) : string = Digest.to_hex (Digest.string s)

(** The body digest: the structural encoding of the Caesium function
    followed by the loop-invariant signature. *)
let body_digest (ftc : Typecheck.fn_to_check) : string =
  let w = enc_create 1024 in
  enc_func w ftc.Typecheck.func;
  enc_str w (Typecheck.invs_signature ftc.Typecheck.invs);
  Digest.to_hex (Digest.subbytes w.bytes 0 w.len)

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
