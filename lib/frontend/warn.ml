(** The frontend's over-approximating analyses (§3):

    "the RefinedC front end performs an over-approximating analysis that
    emits warnings if an expression may be non-deterministic, or if the
    address of a block-scoped variable could escape."

    Caesium fixes a left-to-right evaluation order, and our elaboration
    makes calls and assignments statements, so the residual
    non-determinism risk is a statement that both calls a function and
    reads memory the callee could touch — we warn on multiple calls in
    one statement position (which the elaborator in fact rejects) and,
    mainly, on escaping addresses of locals: all Caesium locals are
    function-scoped, so returning or storing `&local` would outlive the
    C block scope the programmer may have intended. *)

open Cabs

let rec expr_has_addr_of_local (locals : string list) (e : expr) : string option
    =
  match e.e with
  | EAddr { e = EId x; _ } when List.exists (String.equal x) locals -> Some x
  | EAddr a | EUn (_, a) | EDeref a | ECast (_, a) ->
      expr_has_addr_of_local locals a
  | EBin (_, a, b) | EIndex (a, b) | EAssign (a, b) | EAssignOp (_, a, b) -> (
      match expr_has_addr_of_local locals a with
      | Some x -> Some x
      | None -> expr_has_addr_of_local locals b)
  | EMember (a, _) | EArrow (a, _) -> expr_has_addr_of_local locals a
  | ECall (_, args) -> List.find_map (expr_has_addr_of_local locals) args
  | ECond (a, b, c) ->
      List.find_map (expr_has_addr_of_local locals) [ a; b; c ]
  | _ -> None

let rec count_calls (e : expr) : int =
  match e.e with
  | ECall (_, args) -> 1 + Rc_util.Xlist.sum (List.map count_calls args)
  | EUn (_, a) | EDeref a | EAddr a | ECast (_, a) | EMember (a, _)
  | EArrow (a, _) ->
      count_calls a
  | EBin (_, a, b) | EIndex (a, b) | EAssign (a, b) | EAssignOp (_, a, b) ->
      count_calls a + count_calls b
  | ECond (a, b, c) -> count_calls a + count_calls b + count_calls c
  | _ -> 0

(** [check_fun fd] returns warnings for one function body. *)
let check_fun (fd : fun_decl) : Rc_util.Diagnostic.t list =
  match fd.fn_body with
  | None -> []
  | Some body ->
      let warnings = ref [] in
      let warn ?hint loc code fmt =
        Fmt.kstr
          (fun s ->
            warnings :=
              Rc_util.Diagnostic.make ?hint ~code ~loc
                (Fmt.str "in %s: %s" fd.fn_name s)
              :: !warnings)
          fmt
      in
      let rec stmt locals (s : stmt) : string list =
        match s.s with
        | SDecl (_, x, init) ->
            (match init with
            | Some e -> check_expr locals s.sloc ~escaping:false e
            | None -> ());
            x :: locals
        | SExpr ({ e = EAssign (lhs, rhs); _ } as e) ->
            (* storing &local through a pointer lets it escape *)
            let escaping =
              match lhs.e with
              | EDeref _ | EArrow _ | EIndex _ -> true
              | _ -> false
            in
            check_expr locals s.sloc ~escaping:false lhs;
            check_expr locals s.sloc ~escaping rhs;
            ignore e;
            locals
        | SExpr e ->
            check_expr locals s.sloc ~escaping:false e;
            locals
        | SReturn (Some e) ->
            check_expr locals s.sloc ~escaping:true e;
            locals
        | SReturn None -> locals
        | SIf (c, t, f) ->
            check_expr locals s.sloc ~escaping:false c;
            ignore (List.fold_left stmt locals t);
            ignore (List.fold_left stmt locals f);
            locals
        | SWhile (_, c, b) ->
            check_expr locals s.sloc ~escaping:false c;
            ignore (List.fold_left stmt locals b);
            locals
        | SFor (_, init, c, st, b) ->
            let locals' =
              match init with Some i -> stmt locals i | None -> locals
            in
            Option.iter (check_expr locals' s.sloc ~escaping:false) c;
            Option.iter (check_expr locals' s.sloc ~escaping:false) st;
            ignore (List.fold_left stmt locals' b);
            locals
        | SBlock b ->
            ignore (List.fold_left stmt locals b);
            locals
        | SSwitch (scrut, cases, default) ->
            check_expr locals s.sloc ~escaping:false scrut;
            List.iter
              (fun (_, body) -> ignore (List.fold_left stmt locals body))
              cases;
            ignore (List.fold_left stmt locals default);
            locals
        | SBreak | SContinue -> locals
      and check_expr locals loc ~escaping e =
        if count_calls e > 1 then
          warn loc "RC-W001"
            ~hint:"split the statement so each call is sequenced explicitly"
            "expression performs several calls; evaluation order is fixed \
             left-to-right by Caesium (the ISO order would be unspecified)";
        if escaping then
          match expr_has_addr_of_local locals e with
          | Some x ->
              warn loc "RC-W002"
                "the address of block-scoped variable %s may escape (all \
                 Caesium locals are function-scoped)"
                x
          | None -> ()
      in
      ignore (List.fold_left stmt [] body);
      List.rev !warnings

let check_file (file : Cabs.file) : Rc_util.Diagnostic.t list =
  List.concat_map
    (function DFun fd -> check_fun fd | _ -> [])
    file.decls
