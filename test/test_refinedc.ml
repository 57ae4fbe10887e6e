(* End-to-end tests of the RefinedC type system on hand-elaborated
   Caesium code: the paper's Figure 1 allocator (both variants of §6),
   its buggy-specification error message (§2.1), and smaller sanity
   checks. *)

open Rc_pure
open Rc_pure.Term
open Rc_caesium.Syntax
open Rc_refinedc
open Rc_refinedc.Rtype

let u64 = Int_type.size_t
let lu64 = Layout.Int u64
let li32 = Layout.Int Int_type.i32
let use ?(atomic = false) layout arg = Use { atomic; layout; arg }

let mem_t_sl = Layout.mk_struct "mem_t" [ ("len", lu64); ("buffer", Layout.Ptr) ]

(* the session all tests in this file check under: stock configuration
   plus the hand-registered mem_t named type *)
let session = Session.create ()

let () =
  register_type_def session.Session.tenv
    {
      td_name = "mem_t";
      td_params = [ ("a", Sort.Nat) ];
      td_layout = Some (Layout.Struct mem_t_sl);
      td_unfold =
        (function
        | [ a ] ->
            TStruct (mem_t_sl, [ TInt (u64, a); TOwn (None, TUninit a) ])
        | _ -> invalid_arg "mem_t arity");
    }

(* -------------------------------------------------------------- *)
(* Figure 1: the allocator, hand-elaborated to a Caesium CFG        *)
(* -------------------------------------------------------------- *)

let d_len = FieldOfs { arg = use Layout.Ptr (VarLoc "d"); struct_ = mem_t_sl; field = "len" }
let d_buffer =
  FieldOfs { arg = use Layout.Ptr (VarLoc "d"); struct_ = mem_t_sl; field = "buffer" }

let binop op ot1 ot2 e1 e2 = BinOp { op; ot1; ot2; e1; e2 }

(* variant 1 (Figure 1): allocate from the end of the buffer *)
let alloc_fn =
  {
    fname = "alloc";
    args = [ ("d", Layout.Ptr); ("sz", lu64) ];
    locals = [];
    ret_layout = Layout.Ptr;
    entry = "b0";
    blocks =
      [
        ( "b0",
          {
            stmts = [];
            term =
              CondGoto
                {
                  ot = OInt Int_type.i32;
                  cond =
                    binop GtOp (OInt u64) (OInt u64) (use lu64 (VarLoc "sz"))
                      (use lu64 d_len);
                  if_true = "btrue";
                  if_false = "bfalse";
                };
          } );
        ("btrue", { stmts = []; term = Return (Some NullConst) });
        ( "bfalse",
          {
            stmts =
              [
                Assign
                  {
                    atomic = false;
                    layout = lu64;
                    lhs = d_len;
                    rhs =
                      binop SubOp (OInt u64) (OInt u64) (use lu64 d_len)
                        (use lu64 (VarLoc "sz"));
                  };
              ];
            term =
              Return
                (Some
                   (binop (PtrPlusOp (Layout.Int Int_type.u8)) OPtr (OInt u64)
                      (use Layout.Ptr d_buffer) (use lu64 d_len)));
          } );
      ];
  }

(* variant 2 (§6, suggested by a PLDI reviewer): allocate from the start *)
let alloc2_fn =
  {
    alloc_fn with
    fname = "alloc2";
    locals = [ ("res", Layout.Ptr) ];
    blocks =
      [
        ( "b0",
          {
            stmts = [];
            term =
              CondGoto
                {
                  ot = OInt Int_type.i32;
                  cond =
                    binop GtOp (OInt u64) (OInt u64) (use lu64 (VarLoc "sz"))
                      (use lu64 d_len);
                  if_true = "btrue";
                  if_false = "bfalse";
                };
          } );
        ("btrue", { stmts = []; term = Return (Some NullConst) });
        ( "bfalse",
          {
            stmts =
              [
                Assign
                  {
                    atomic = false;
                    layout = Layout.Ptr;
                    lhs = VarLoc "res";
                    rhs = use Layout.Ptr d_buffer;
                  };
                Assign
                  {
                    atomic = false;
                    layout = Layout.Ptr;
                    lhs = d_buffer;
                    rhs =
                      binop (PtrPlusOp (Layout.Int Int_type.u8)) OPtr
                        (OInt u64)
                        (use Layout.Ptr d_buffer)
                        (use lu64 (VarLoc "sz"));
                  };
                Assign
                  {
                    atomic = false;
                    layout = lu64;
                    lhs = d_len;
                    rhs =
                      binop SubOp (OInt u64) (OInt u64) (use lu64 d_len)
                        (use lu64 (VarLoc "sz"));
                  };
              ];
            term = Return (Some (use Layout.Ptr (VarLoc "res")));
          } );
      ];
  }

let a = Var ("a", Sort.Nat)
let n = Var ("n", Sort.Nat)
let p = Var ("p", Sort.Loc)

let alloc_spec ?(name = "alloc") ?(cmp = PLe (n, a)) () : fn_spec =
  {
    fs_name = name;
    fs_params = [ ("a", Sort.Nat); ("n", Sort.Nat); ("p", Sort.Loc) ];
    fs_args = [ TOwn (Some p, TNamed ("mem_t", [ a ])); TInt (u64, n) ];
    fs_pre = [];
    fs_exists = [];
    fs_ret = TOptional (cmp, TOwn (None, TUninit n), TNull);
    fs_post =
      [
        HAtom
          (LocTy
             (p, TNamed ("mem_t", [ Ite (PLe (n, a), Sub (a, n), a) ])));
      ];
    fs_tactics = [];
    fs_loc = None;
  }

let check fn spec =
  Typecheck.check_fn ~session ~specs:[ (spec.fs_name, spec) ]
    { func = fn; spec; invs = []; index = Lang.index_fn fn Lang.empty_meta }

let expect_ok name fn spec =
  Alcotest.test_case name `Quick (fun () ->
      match check fn spec with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "verification failed:@.%s" (Rc_lithium.Report.to_string e))

let expect_fail name fn spec =
  Alcotest.test_case name `Quick (fun () ->
      match check fn spec with
      | Ok _ -> Alcotest.fail "verification unexpectedly succeeded"
      | Error _ -> ())

(* -------------------------------------------------------------- *)
(* Smaller sanity checks                                            *)
(* -------------------------------------------------------------- *)

(* int id(int x) { return x; } *)
let id_fn =
  {
    fname = "id";
    args = [ ("x", li32) ];
    locals = [];
    ret_layout = li32;
    entry = "b0";
    blocks =
      [ ("b0", { stmts = []; term = Return (Some (use li32 (VarLoc "x"))) }) ];
  }

let id_spec =
  {
    fs_name = "id";
    fs_params = [ ("n", Sort.Int) ];
    fs_args = [ TInt (Int_type.i32, Var ("n", Sort.Int)) ];
    fs_pre = [];
    fs_exists = [];
    fs_ret = TInt (Int_type.i32, Var ("n", Sort.Int));
    fs_post = [];
    fs_tactics = [];
    fs_loc = None;
  }

(* int add3(int x) { return x + 3; }, spec requires n+3 in range *)
let add3_fn =
  {
    id_fn with
    fname = "add3";
    blocks =
      [
        ( "b0",
          {
            stmts = [];
            term =
              Return
                (Some
                   (binop AddOp (OInt Int_type.i32) (OInt Int_type.i32)
                      (use li32 (VarLoc "x"))
                      (IntConst (3, Int_type.i32))));
          } );
      ];
  }

let add3_spec ~with_pre =
  {
    id_spec with
    fs_name = "add3";
    fs_pre =
      (if with_pre then
         [ HProp (PLt (Var ("n", Sort.Int), Num 1000000)) ]
       else []);
    fs_ret = TInt (Int_type.i32, Add (Var ("n", Sort.Int), Num 3));
  }

let basic_tests =
  [
    expect_ok "id" id_fn id_spec;
    expect_ok "add3 with precondition" add3_fn (add3_spec ~with_pre:true);
    expect_fail "add3 without range precondition" add3_fn
      (add3_spec ~with_pre:false);
  ]

let alloc_tests =
  [
    expect_ok "alloc (Figure 1)" alloc_fn (alloc_spec ());
    expect_ok "alloc variant 2 (§6), same rules" alloc2_fn
      (alloc_spec ~name:"alloc2" ());
    expect_fail "alloc with buggy spec n < a (§2.1)" alloc_fn
      (alloc_spec ~cmp:(PLt (n, a)) ());
  ]

let error_message_test =
  Alcotest.test_case "buggy spec yields a located, readable error" `Quick
    (fun () ->
      match check alloc_fn (alloc_spec ~cmp:(PLt (n, a)) ()) with
      | Ok _ -> Alcotest.fail "expected failure"
      | Error e ->
          let msg = Rc_lithium.Report.to_string e in
          Alcotest.(check bool)
            "mentions a side condition" true
            (e.Rc_lithium.Report.kind
             |> function
             | Rc_lithium.Report.Unsolved_side_condition _ -> true
             | _ -> false);
          Alcotest.(check bool)
            "message is non-empty" true
            (String.length msg > 10))

(* -------------------------------------------------------------- *)
(* The per-function index answers exactly as the assoc lists       *)
(* -------------------------------------------------------------- *)

let case_dir =
  List.find Sys.file_exists
    [
      "case_studies"; "../case_studies"; "../../case_studies";
      "../../../case_studies";
    ]

(* every label a lookup could ask about, one unknown label included *)
let labels_of (func : Rc_caesium.Syntax.func) (m : Lang.fn_meta) =
  List.sort_uniq compare
    (("no-such-block" :: List.map fst func.blocks)
    @ List.map (fun ((l, _), _) -> l) m.Lang.fm_stmt_locs
    @ List.map fst m.Lang.fm_term_locs
    @ List.map fst m.Lang.fm_block_descr)

(* the text elaboration used to format for every label up front *)
let eager_descr (br : Lang.branch) =
  let kind =
    match br.Lang.br_kind with
    | Lang.Then_branch -> "then-branch of the if"
    | Lang.Else_branch -> "else-branch of the if"
    | Lang.Switch_case n -> Printf.sprintf "case %d of the switch" n
    | Lang.Switch_default -> "default case of the switch"
    | Lang.Loop_body -> "body of the loop"
    | Lang.Loop_exit -> "exit of the loop"
  in
  Fmt.str "the %s at %a" kind Rc_util.Srcloc.pp br.Lang.br_loc

(* The side tables elaboration builds each index from, by function:
   the index keeps no copy, so they are elaborated again from the AST. *)
let metas ~file src (el : Rc_frontend.Elab.elaborated) =
  List.filter_map
    (function
      | Rc_frontend.Cabs.DFun ({ fn_body = Some body; _ } as fd) ->
          let _, meta, _ =
            Rc_frontend.Elab.elab_fun el.Rc_frontend.Elab.genv fd body
          in
          Some (fd.fn_name, meta)
      | _ -> None)
    (Rc_frontend.Cparser.parse_file ~file src).decls

let check_index file (func : Rc_caesium.Syntax.func) (m : Lang.fn_meta)
    (ix : Lang.fn_index) =
  let what label = Printf.sprintf "%s/%s/%s" file func.fname label in
  List.iter
    (fun label ->
      let block = List.assoc_opt label func.blocks in
      let last =
        List.fold_left
          (fun acc ((l, i), _) -> if l = label then max acc i else acc)
          (match block with Some b -> List.length b.stmts | None -> 0)
          m.Lang.fm_stmt_locs
      in
      (* every index up to one past the last known one *)
      for idx = 0 to last + 1 do
        Alcotest.(check bool)
          (Printf.sprintf "%s[%d] stmt_loc" (what label) idx)
          true
          (Lang.stmt_loc ix label idx
          = List.assoc_opt (label, idx) m.Lang.fm_stmt_locs)
      done;
      Alcotest.(check bool) (what label ^ " term_loc") true
        (Lang.term_loc ix label = List.assoc_opt label m.Lang.fm_term_locs);
      Alcotest.(check (option string)) (what label ^ " block_descr")
        (Option.map eager_descr (List.assoc_opt label m.Lang.fm_block_descr))
        (Lang.block_descr ix label);
      let entry = Lang.block_entry ix label in
      Alcotest.(check bool) (what label ^ " block") true
        (Option.bind entry (fun e -> e.Lang.be_block) = block);
      match (entry, block) with
      | Some e, Some b ->
          Alcotest.(check bool) (what label ^ " statements") true
            (Array.to_list e.Lang.be_stmts = b.stmts)
      | _ -> ())
    (labels_of func m)

(* -------------------------------------------------------------- *)
(* The spec and invariant signatures the cache keys digest          *)
(* -------------------------------------------------------------- *)

(* Pins the printed bytes of [Rtype.spec_signature] and
   [Typecheck.invs_signature], line breaks included, and the interface
   digest taken over them.  If one moves, the cache keys moved: bump the
   cache tag in [Typecheck.toolchain_fingerprint] and update the values
   here. *)
let signature_tests =
  [
    Alcotest.test_case "golden spec and invariant signatures" `Quick
      (fun () ->
        let src =
          In_channel.with_open_bin
            (Filename.concat case_dir "binary_search.c")
            In_channel.input_all
        in
        let session =
          Rc_session.Refinedc_api.create_session ~case_studies:true ()
        in
        let el =
          Rc_frontend.Driver.parse_and_elab ~session ~file:"binary_search.c"
            src
        in
        let ftc =
          List.find
            (fun (f : Typecheck.fn_to_check) ->
              f.spec.fs_name = "bsearch_idx")
            el.Rc_frontend.Elab.to_check
        in
        Alcotest.(check string) "spec_signature"
          "bsearch_idx|params:q:loc, n:nat, xs:list int,\n\
           k:int|args:q @ &own<array<int<int>, n, xs>>, n @ int<size_t>, \
           k @ int<int>,\n\
           fn<cmp_spec>|pre:\226\140\156n \226\137\164 100000\226\140\157|\
           exists:r:int|ret:r @ int<size_t>|post:\226\140\1560 \226\137\164 \
           r\226\140\157,\n\
           \226\140\156r \226\137\164 n\226\140\157,\n\
           q \226\151\129\226\130\151 array<int<int>, n, xs>|tactics:"
          (Rtype.spec_signature ftc.spec);
        Alcotest.(check string) "invs_signature"
          "loop0{ex:a:nat, b:nat|vars:lo:a @ int<size_t>,\n\
           hi:b @ int<size_t>|cstr:0 \226\137\164 a, a \226\137\164 b,\n\
           b \226\137\164 n}"
          (Typecheck.invs_signature ftc.invs);
        Alcotest.(check string) "iface_digest"
          "033d3613d855a6aee74592cf875877bc"
          (Depgraph.iface_digest ftc));
  ]

(* The [Fmt] printers the signatures were first defined by: the oracle
   of the differential checks below. *)
let fmt_spec_signature (s : fn_spec) : string =
  let binder ppf (x, srt) = Fmt.pf ppf "%s:%a" x Sort.pp srt in
  Fmt.str "%s|params:%a|args:%a|pre:%a|exists:%a|ret:%a|post:%a|tactics:%s"
    s.fs_name
    Fmt.(list ~sep:comma binder)
    s.fs_params
    Fmt.(list ~sep:comma pp_rtype)
    s.fs_args
    Fmt.(list ~sep:comma pp_hres)
    s.fs_pre
    Fmt.(list ~sep:comma binder)
    s.fs_exists pp_rtype s.fs_ret
    Fmt.(list ~sep:comma pp_hres)
    s.fs_post
    (String.concat "," s.fs_tactics)

let fmt_invs_signature (invs : (string * Lang.loop_inv) list) : string =
  let binder ppf (x, srt) = Fmt.pf ppf "%s:%a" x Sort.pp srt in
  let var ppf (x, ty) = Fmt.pf ppf "%s:%a" x pp_rtype ty in
  let inv ppf (label, (i : Lang.loop_inv)) =
    Fmt.pf ppf "%s{ex:%a|vars:%a|cstr:%a}" label
      Fmt.(list ~sep:comma binder)
      i.li_exists
      Fmt.(list ~sep:comma var)
      i.li_vars
      Fmt.(list ~sep:comma pp_prop)
      i.li_constraints
  in
  Fmt.str "%a" Fmt.(list ~sep:semi inv) invs

(* random texts: runs of ASCII and multi-byte characters, with and
   without separators, long enough to wrap several times *)
let gen_chunks =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (pair
         (map String.concat (pure "")
         <*> list_size (int_range 0 12)
               (oneofl [ "a"; "bc"; " "; "≤"; "⌜"; "x_1"; "@"; "int<int>" ]))
         (oneofl [ None; None; Some ","; Some ";" ])))

let sig_gen_term =
  QCheck.Gen.(
    sized_size (int_range 0 6)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 map (fun i -> Num i) (oneofl [ 0; 7; -3; 100000; min_int ]);
                 map (fun x -> Var (x, Sort.Int)) (oneofl [ "n"; "xs"; "a%4" ]);
                 map (fun i -> Evar (i, Sort.Int)) (int_range 0 20);
                 pure NullLoc;
                 map (fun v -> BoolLit v) bool;
               ]
           in
           if n = 0 then leaf
           else
             let sub = self (n / 2) in
             oneof
               [
                 leaf;
                 map2 (fun a b -> Add (a, b)) sub sub;
                 map2 (fun a b -> Mod (a, b)) sub sub;
                 map2 (fun a b -> Min (a, b)) sub sub;
                 map2 (fun a b -> LocOfs (a, b)) sub sub;
                 map2 (fun a b -> Cons (a, b)) sub sub;
                 map3 (fun a b c -> NthDflt (a, b, c)) sub sub sub;
                 map3 (fun a b c -> SetListInsert (a, b, c)) sub sub sub;
                 map2 (fun a b -> Ite (PLe (a, b), a, b)) sub sub;
                 map (fun a -> TProp (PNot (PEq (a, a)))) sub;
                 map
                   (fun a -> TProp (PForall ("k%1", Sort.List Sort.Nat, PLt (a, a))))
                   sub;
                 map (fun args -> App ("f", args)) (list_size (int_range 0 8) sub);
               ]))

let signature_diff_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:3000 ~name:"Breakbuf lays out text as Format"
         (QCheck.make gen_chunks) (fun chunks ->
           let b = Rc_util.Breakbuf.create 16 in
           List.iter
             (fun (text, sep) ->
               match sep with
               | None -> Rc_util.Breakbuf.add_string b text
               | Some s ->
                   Rc_util.Breakbuf.add_string b text;
                   Rc_util.Breakbuf.sep b s)
             chunks;
           let expected =
             Format.asprintf "%a"
               (fun ppf ->
                 List.iter (fun (text, sep) ->
                     Format.pp_print_string ppf text;
                     match sep with
                     | None -> ()
                     | Some s ->
                         Format.pp_print_string ppf s;
                         Format.pp_print_space ppf ()))
               chunks
           in
           Rc_util.Breakbuf.contents b = expected));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:2000 ~name:"add_term prints as pp_term"
         (QCheck.make ~print:term_to_string sig_gen_term) (fun t ->
           let b = Rc_util.Breakbuf.create 16 in
           Rc_util.Breakbuf.list b ~sep:"," add_term [ t; t ];
           Rc_util.Breakbuf.contents b
           = Fmt.str "%a" Fmt.(list ~sep:comma pp_term) [ t; t ]));
    Alcotest.test_case "signatures print as the Fmt printers" `Quick
      (fun () ->
        let studies =
          Sys.readdir case_dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".c")
          |> List.map (fun f ->
                 ( f,
                   In_channel.with_open_bin (Filename.concat case_dir f)
                     In_channel.input_all ))
        in
        let generated =
          List.map
            (fun (p : Rc_benchgen.Corpus.program) -> (p.p_name, p.p_src))
            (Rc_benchgen.Corpus.stress_corpus ~scale:2)
          @ [
              ("loop_farm", Rc_benchgen.Corpus.loop_farm ~functions:6 ());
              ("lock_farm", Rc_benchgen.Corpus.lock_farm ~functions:4 ());
            ]
        in
        let n = ref 0 in
        List.iter
          (fun (file, src) ->
            let session =
              Rc_session.Refinedc_api.create_session ~case_studies:true ()
            in
            let el = Rc_frontend.Driver.parse_and_elab ~session ~file src in
            List.iter
              (fun (f : Typecheck.fn_to_check) ->
                incr n;
                Alcotest.(check string)
                  (file ^ ": " ^ f.spec.fs_name)
                  (fmt_spec_signature f.spec)
                  (Rtype.spec_signature f.spec);
                Alcotest.(check string)
                  (file ^ ": invariants of " ^ f.spec.fs_name)
                  (fmt_invs_signature f.invs)
                  (Typecheck.invs_signature f.invs))
              el.Rc_frontend.Elab.to_check)
          (studies @ generated);
        Alcotest.(check bool) "functions compared" true (!n > 80));
  ]

let index_tests =
  [
    Alcotest.test_case "index answers as List.assoc_opt" `Quick (fun () ->
        let studies =
          Sys.readdir case_dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".c")
          |> List.sort compare
          |> List.map (fun f ->
                 ( f,
                   In_channel.with_open_bin (Filename.concat case_dir f)
                     In_channel.input_all ))
        in
        Alcotest.(check int) "studies" 13 (List.length studies);
        let stress =
          List.map
            (fun (p : Rc_benchgen.Corpus.program) -> (p.p_name, p.p_src))
            (Rc_benchgen.Corpus.stress_corpus ~scale:1)
        in
        List.iter
          (fun (file, src) ->
            let session =
              Rc_session.Refinedc_api.create_session ~case_studies:true ()
            in
            let el = Rc_frontend.Driver.parse_and_elab ~session ~file src in
            let funcs = el.Rc_frontend.Elab.program.funcs in
            let metas = metas ~file src el in
            Alcotest.(check int) (file ^ ": one index per body")
              (List.length funcs)
              (List.length el.Rc_frontend.Elab.indexes);
            List.iter
              (fun (name, ix) ->
                check_index file (List.assoc name funcs)
                  (List.assoc name metas) ix)
              el.Rc_frontend.Elab.indexes;
            (* the checked functions carry the same index *)
            List.iter
              (fun (ftc : Typecheck.fn_to_check) ->
                Alcotest.(check bool) (file ^ ": shared index") true
                  (List.assq_opt ftc.index
                     (List.map (fun (n, ix) -> (ix, n)) el.Rc_frontend.Elab.indexes)
                  = Some ftc.func.fname))
              el.Rc_frontend.Elab.to_check)
          (studies @ stress));
    Alcotest.test_case "descriptions render once, from any domain" `Quick
      (fun () ->
        let src =
          In_channel.with_open_bin
            (Filename.concat case_dir "mem_alloc.c")
            In_channel.input_all
        in
        let session =
          Rc_session.Refinedc_api.create_session ~case_studies:true ()
        in
        let el =
          Rc_frontend.Driver.parse_and_elab ~session ~file:"mem_alloc.c" src
        in
        (* a fresh index whose branch texts nobody has read yet *)
        let metas = metas ~file:"mem_alloc.c" src el in
        let ix, descrs =
          List.find_map
            (fun (name, (ix : Lang.fn_index)) ->
              match (List.assoc name metas).Lang.fm_block_descr with
              | [] -> None
              | ds -> Some (ix, ds))
            el.Rc_frontend.Elab.indexes
          |> Option.get
        in
        let labels = List.map fst descrs in
        let ready = Atomic.make 0 in
        let read () =
          Atomic.incr ready;
          while Atomic.get ready < 4 do
            Domain.cpu_relax ()
          done;
          List.map (Lang.block_descr ix) labels
        in
        let texts =
          List.map Domain.join (List.init 4 (fun _ -> Domain.spawn read))
        in
        let expected =
          List.map
            (fun l ->
              Option.map eager_descr (List.assoc_opt l descrs))
            labels
        in
        List.iter
          (Alcotest.(check (list (option string))) "same text" expected)
          texts);
  ]

let () =
  Alcotest.run "refinedc"
    [
      ("basic", basic_tests);
      ("alloc", alloc_tests);
      ("errors", [ error_message_test ]);
      ("index", index_tests);
      ("sigs", signature_tests @ signature_diff_tests);
    ]
