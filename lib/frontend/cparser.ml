(** Recursive-descent parser for the C subset.

    Follows the Menhir manual's discipline for hand-written parsers:
    every production commits after one token of lookahead (plus the
    typedef table to disambiguate type names), and errors carry the
    precise source location. *)

open Cabs
open Clexer

exception Parse_error of string * Rc_util.Srcloc.t

type state = {
  mutable toks : lexed list;
  mutable typedefs : (string * ctype) list;
  mutable structs : string list;
  file : string;
}

let make ~file toks = { toks; typedefs = []; structs = []; file }

let peek st = match st.toks with [] -> TEof | l :: _ -> l.tok
let peek_loc st =
  match st.toks with [] -> Rc_util.Srcloc.dummy | l :: _ -> l.loc

let peek2 st = match st.toks with _ :: l :: _ -> l.tok | _ -> TEof

let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let error st msg = raise (Parse_error (msg, peek_loc st))

let expect_punct st p =
  match peek st with
  | TPunct q when q = p -> advance st
  | _ -> error st (Printf.sprintf "expected '%s'" p)

let expect_id st =
  match peek st with
  | TId x ->
      advance st;
      x
  | _ -> error st "expected identifier"

let eat_punct st p =
  match peek st with
  | TPunct q when q = p ->
      advance st;
      true
  | _ -> false

let rec collect_attrs st acc =
  match peek st with
  | TAttr (name, args) ->
      let loc = peek_loc st in
      advance st;
      collect_attrs st ({ a_name = name; a_args = args; a_loc = loc } :: acc)
  | _ -> List.rev acc

let attrs st = collect_attrs st []

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let is_type_start st =
  match peek st with
  | TKw
      ( "void" | "unsigned" | "signed" | "char" | "short" | "int" | "long"
      | "struct" | "_Bool" | "bool" | "const" ) ->
      true
  | TId x -> List.mem_assoc x st.typedefs
  | _ -> false

let parse_base_type st : ctype =
  let rec skip_quals () =
    match peek st with
    | TKw ("const" | "static" | "inline" | "extern") ->
        advance st;
        skip_quals ()
    | _ -> ()
  in
  skip_quals ();
  match peek st with
  | TKw "void" ->
      advance st;
      CVoid
  | TKw ("_Bool" | "bool") ->
      advance st;
      CBool
  | TKw "struct" ->
      advance st;
      let name = expect_id st in
      CStructRef name
  | TKw _ ->
      (* integer type keyword soup *)
      let words = ref [] in
      let rec go () =
        match peek st with
        | TKw (("unsigned" | "signed" | "char" | "short" | "int" | "long") as w)
          ->
            advance st;
            words := !words @ [ w ];
            go ()
        | _ -> ()
      in
      go ();
      if !words = [] then error st "expected type";
      CInt (String.concat " " !words)
  | TId x when List.mem_assoc x st.typedefs ->
      advance st;
      CNamed x
  | _ -> error st "expected type"

let parse_type st : ctype =
  let base = parse_base_type st in
  let rec stars t =
    if eat_punct st "*" then stars (CPtr t)
    else (
      (match peek st with
      | TKw "const" -> advance st
      | _ -> ());
      if eat_punct st "*" then stars (CPtr t) else t)
  in
  stars base

(* ------------------------------------------------------------------ *)
(* Expressions (precedence climbing)                                   *)
(* ------------------------------------------------------------------ *)

let mk loc e = { e; eloc = loc }

let rec parse_expr st : expr = parse_assign st

and parse_assign st : expr =
  let loc = peek_loc st in
  let lhs = parse_cond st in
  match peek st with
  | TPunct "=" ->
      advance st;
      let rhs = parse_assign st in
      mk loc (EAssign (lhs, rhs))
  | TPunct "+=" ->
      advance st;
      mk loc (EAssignOp (BAdd, lhs, parse_assign st))
  | TPunct "-=" ->
      advance st;
      mk loc (EAssignOp (BSub, lhs, parse_assign st))
  | TPunct "*=" ->
      advance st;
      mk loc (EAssignOp (BMul, lhs, parse_assign st))
  | TPunct "/=" ->
      advance st;
      mk loc (EAssignOp (BDiv, lhs, parse_assign st))
  | TPunct "%=" ->
      advance st;
      mk loc (EAssignOp (BMod, lhs, parse_assign st))
  | _ -> lhs

and parse_cond st : expr =
  let loc = peek_loc st in
  let c = parse_binary st 0 in
  if eat_punct st "?" then begin
    let t = parse_expr st in
    expect_punct st ":";
    let f = parse_cond st in
    mk loc (ECond (c, t, f))
  end
  else c

(* precedence levels, loosest first *)
and binop_at_level lvl tok =
  match (lvl, tok) with
  | 0, TPunct "||" -> Some BOr
  | 1, TPunct "&&" -> Some BAnd
  | 2, TPunct "|" -> Some BBitOr
  | 3, TPunct "^" -> Some BBitXor
  | 4, TPunct "&" -> Some BBitAnd
  | 5, TPunct "==" -> Some BEq
  | 5, TPunct "!=" -> Some BNe
  | 6, TPunct "<" -> Some BLt
  | 6, TPunct "<=" -> Some BLe
  | 6, TPunct ">" -> Some BGt
  | 6, TPunct ">=" -> Some BGe
  | 7, TPunct "<<" -> Some BShl
  | 7, TPunct ">>" -> Some BShr
  | 8, TPunct "+" -> Some BAdd
  | 8, TPunct "-" -> Some BSub
  | 9, TPunct "*" -> Some BMul
  | 9, TPunct "/" -> Some BDiv
  | 9, TPunct "%" -> Some BMod
  | _ -> None

and parse_binary st lvl : expr =
  if lvl > 9 then parse_unary st
  else
    let loc = peek_loc st in
    let lhs = ref (parse_binary st (lvl + 1)) in
    let rec go () =
      match binop_at_level lvl (peek st) with
      | Some op ->
          advance st;
          let rhs = parse_binary st (lvl + 1) in
          lhs := mk loc (EBin (op, !lhs, rhs));
          go ()
      | None -> ()
    in
    go ();
    !lhs

and parse_unary st : expr =
  let loc = peek_loc st in
  match peek st with
  | TPunct "-" ->
      advance st;
      mk loc (EUn (UNeg, parse_unary st))
  | TPunct "!" ->
      advance st;
      mk loc (EUn (UNot, parse_unary st))
  | TPunct "~" ->
      advance st;
      mk loc (EUn (UBitNot, parse_unary st))
  | TPunct "*" ->
      advance st;
      mk loc (EDeref (parse_unary st))
  | TPunct "&" ->
      advance st;
      mk loc (EAddr (parse_unary st))
  | TKw "sizeof" ->
      advance st;
      expect_punct st "(";
      let t = parse_type st in
      expect_punct st ")";
      mk loc (ESizeof t)
  | TPunct "(" when is_type_start_after_paren st ->
      advance st;
      let t = parse_type st in
      expect_punct st ")";
      mk loc (ECast (t, parse_unary st))
  | _ -> parse_postfix st

and is_type_start_after_paren st =
  match peek2 st with
  | TKw
      ( "void" | "unsigned" | "signed" | "char" | "short" | "int" | "long"
      | "struct" | "_Bool" | "bool" | "const" ) ->
      true
  | TId x -> List.mem_assoc x st.typedefs
  | _ -> false

and parse_postfix st : expr =
  let loc = peek_loc st in
  let e = ref (parse_primary st) in
  let rec go () =
    match peek st with
    | TPunct "->" ->
        advance st;
        let f = expect_id st in
        e := mk loc (EArrow (!e, f));
        go ()
    | TPunct "." ->
        advance st;
        let f = expect_id st in
        e := mk loc (EMember (!e, f));
        go ()
    | TPunct "[" ->
        advance st;
        let i = parse_expr st in
        expect_punct st "]";
        e := mk loc (EIndex (!e, i));
        go ()
    | TPunct "(" -> (
        match !e with
        | { e = EId f; _ } ->
            advance st;
            let args = ref [] in
            if not (eat_punct st ")") then begin
              let rec arg_loop () =
                args := parse_expr st :: !args;
                if eat_punct st "," then arg_loop () else expect_punct st ")"
              in
              arg_loop ()
            end;
            e := mk loc (ECall (f, List.rev !args));
            go ()
        | _ -> error st "only direct calls or calls through named pointers are supported")
    | TPunct "++" ->
        advance st;
        e := mk loc (EAssignOp (BAdd, !e, mk loc (EConst 1)));
        go ()
    | TPunct "--" ->
        advance st;
        e := mk loc (EAssignOp (BSub, !e, mk loc (EConst 1)));
        go ()
    | _ -> ()
  in
  go ();
  !e

and parse_primary st : expr =
  let loc = peek_loc st in
  match peek st with
  | TInt n ->
      advance st;
      mk loc (EConst n)
  | TId "NULL" ->
      advance st;
      mk loc ENull
  | TId "true" ->
      advance st;
      mk loc (EBool true)
  | TId "false" ->
      advance st;
      mk loc (EBool false)
  | TId x ->
      advance st;
      mk loc (EId x)
  | TPunct "(" ->
      advance st;
      let e = parse_expr st in
      expect_punct st ")";
      e
  | _ -> error st "expected expression"

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let mks loc s = { s; sloc = loc }

let rec parse_stmt st : stmt =
  let loc = peek_loc st in
  let atts = attrs st in
  match peek st with
  | TPunct "{" -> mks loc (SBlock (parse_block st))
  | TKw "if" ->
      advance st;
      expect_punct st "(";
      let c = parse_expr st in
      expect_punct st ")";
      let then_ = parse_stmt_as_block st in
      let else_ =
        match peek st with
        | TKw "else" ->
            advance st;
            parse_stmt_as_block st
        | _ -> []
      in
      mks loc (SIf (c, then_, else_))
  | TKw "while" ->
      advance st;
      expect_punct st "(";
      let c = parse_expr st in
      expect_punct st ")";
      let body = parse_stmt_as_block st in
      mks loc (SWhile (atts, c, body))
  | TKw "for" ->
      advance st;
      expect_punct st "(";
      let init =
        if eat_punct st ";" then None
        else
          let s = parse_simple_stmt st in
          (expect_punct st ";";
           Some s)
      in
      let cond = if peek st = TPunct ";" then None else Some (parse_expr st) in
      expect_punct st ";";
      let step = if peek st = TPunct ")" then None else Some (parse_expr st) in
      expect_punct st ")";
      let body = parse_stmt_as_block st in
      mks loc (SFor (atts, init, cond, step, body))
  | TKw "switch" ->
      advance st;
      expect_punct st "(";
      let scrut = parse_expr st in
      expect_punct st ")";
      expect_punct st "{";
      let cases = ref [] in
      let default = ref [] in
      let rec body_loop acc =
        match peek st with
        | TKw "case" | TKw "default" | TPunct "}" -> List.rev acc
        | _ -> body_loop (parse_stmt st :: acc)
      in
      let rec case_loop () =
        match peek st with
        | TKw "case" ->
            advance st;
            let n =
              match peek st with
              | TInt n ->
                  advance st;
                  n
              | TPunct "-" -> (
                  advance st;
                  match peek st with
                  | TInt n ->
                      advance st;
                      -n
                  | _ -> error st "expected integer after case -")
              | _ -> error st "expected integer case label"
            in
            expect_punct st ":";
            cases := (n, body_loop []) :: !cases;
            case_loop ()
        | TKw "default" ->
            advance st;
            expect_punct st ":";
            default := body_loop [];
            case_loop ()
        | TPunct "}" -> advance st
        | _ -> error st "expected case, default or } in switch"
      in
      case_loop ();
      mks loc (SSwitch (scrut, List.rev !cases, !default))
  | TKw "return" ->
      advance st;
      let e = if peek st = TPunct ";" then None else Some (parse_expr st) in
      expect_punct st ";";
      mks loc (SReturn e)
  | TKw "break" ->
      advance st;
      expect_punct st ";";
      mks loc SBreak
  | TKw "continue" ->
      advance st;
      expect_punct st ";";
      mks loc SContinue
  | _ ->
      let s = parse_simple_stmt st in
      expect_punct st ";";
      s

and parse_stmt_as_block st : stmt list =
  match peek st with
  | TPunct "{" -> parse_block st
  | _ -> [ parse_stmt st ]

and parse_block st : stmt list =
  expect_punct st "{";
  let rec go acc =
    if eat_punct st "}" then List.rev acc else go (parse_stmt st :: acc)
  in
  go []

(** declaration or expression statement (no trailing ';' consumed) *)
and parse_simple_stmt st : stmt =
  let loc = peek_loc st in
  if is_type_start st then begin
    let t = parse_type st in
    let x = expect_id st in
    let init = if eat_punct st "=" then Some (parse_expr st) else None in
    mks loc (SDecl (t, x, init))
  end
  else mks loc (SExpr (parse_expr st))

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let parse_field st : field_decl =
  let fd_attrs = attrs st in
  let fd_type = parse_type st in
  let fd_name = expect_id st in
  expect_punct st ";";
  { fd_attrs; fd_type; fd_name }

let parse_struct_body st =
  expect_punct st "{";
  let rec go acc =
    if eat_punct st "}" then List.rev acc else go (parse_field st :: acc)
  in
  go []

let rec parse_decl st : decl option =
  match peek st with
  | TEof -> None
  | TPunct ";" ->
      advance st;
      parse_decl st
  | _ ->
      let d_attrs = attrs st in
      let loc = peek_loc st in
      (match peek st with
      | TKw "typedef" -> (
          advance st;
          match peek st with
          | TKw "struct" ->
              advance st;
              let inner_attrs = attrs st in
              let name_opt =
                match peek st with
                | TId x when peek2 st = TPunct "{" ->
                    advance st;
                    Some x
                | _ -> None
              in
              let fields = parse_struct_body st in
              let is_ptr = eat_punct st "*" in
              let td_name = expect_id st in
              expect_punct st ";";
              let sd_name = Option.value ~default:td_name name_opt in
              st.structs <- sd_name :: st.structs;
              st.typedefs <-
                ( td_name,
                  if is_ptr then CPtr (CStructRef sd_name)
                  else CStructRef sd_name )
                :: st.typedefs;
              Some
                (DStruct
                   {
                     sd_attrs = d_attrs @ inner_attrs;
                     sd_name;
                     sd_fields = fields;
                     sd_typedef = Some (is_ptr, td_name);
                     sd_loc = loc;
                   })
          | _ ->
              let t = parse_type st in
              let name = expect_id st in
              (* function typedef: typedef int cmp_t(int a, int b); *)
              let t =
                if peek st = TPunct "(" then begin
                  advance st;
                  let params = ref [] in
                  if not (eat_punct st ")") then begin
                    let rec go () =
                      let pt = parse_type st in
                      (match peek st with
                      | TId _ -> advance st
                      | _ -> ());
                      params := pt :: !params;
                      if eat_punct st "," then go () else expect_punct st ")"
                    in
                    go ()
                  end;
                  CFn (List.rev !params, t)
                end
                else t
              in
              expect_punct st ";";
              st.typedefs <- (name, t) :: st.typedefs;
              Some (DTypedef (name, t)))
      | TKw "struct" when peek2 st <> TPunct "*" -> (
          (* struct definition: struct [[attrs]] name { ... }; *)
          match st.toks with
          | _ :: { tok = TAttr _; _ } :: _
          | _ :: { tok = TId _; _ } :: { tok = TPunct "{"; _ } :: _
          | _ :: { tok = TId _; _ } :: { tok = TAttr _; _ } :: _ ->
              advance st;
              let inner = attrs st in
              let name = expect_id st in
              let more = attrs st in
              let fields = parse_struct_body st in
              expect_punct st ";";
              st.structs <- name :: st.structs;
              Some
                (DStruct
                   {
                     sd_attrs = d_attrs @ inner @ more;
                     sd_name = name;
                     sd_fields = fields;
                     sd_typedef = None;
                     sd_loc = loc;
                   })
          | _ -> parse_fun st d_attrs loc)
      | _ -> parse_fun st d_attrs loc)

and parse_fun st fn_attrs fn_loc : decl option =
  let ret = parse_type st in
  let name = expect_id st in
  expect_punct st "(";
  let params = ref [] in
  if not (eat_punct st ")") then begin
    (match peek st with
    | TKw "void" when peek2 st = TPunct ")" ->
        advance st;
        expect_punct st ")"
    | _ ->
        let rec go () =
          let t = parse_type st in
          let x =
            match peek st with
            | TId x ->
                advance st;
                x
            | _ -> error st "expected parameter name"
          in
          params := (t, x) :: !params;
          if eat_punct st "," then go () else expect_punct st ")"
        in
        go ())
  end;
  let body =
    if eat_punct st ";" then None
    else Some (parse_block st)
  in
  Some
    (DFun
       {
         fn_attrs;
         fn_ret = ret;
         fn_name = name;
         fn_params = List.rev !params;
         fn_body = body;
         fn_loc;
       })

let parse_file ~file (src : string) : Cabs.file =
  let toks = Clexer.tokenize ~file src in
  let st = make ~file toks in
  let rec go acc =
    match parse_decl st with
    | None -> List.rev acc
    | Some d -> go (d :: acc)
  in
  { decls = go []; file_name = file }
