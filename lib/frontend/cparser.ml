(** Recursive-descent parser for the C subset.

    Follows the Menhir manual's discipline for hand-written parsers:
    every production commits after at most three tokens of lookahead
    (plus the typedef table to disambiguate type names), and errors
    carry the precise source location.  The tokens are one table
    ({!Clexer.tokens}) that the parser walks forward with an index; binary
    operators are parsed by precedence climbing over one
    operator-to-precedence table ({!binop}). *)

open Cabs
open Clexer

exception Parse_error of string * Rc_util.Srcloc.t

type state = {
  t : Clexer.tokens;
  mutable i : int;  (** index of the next token *)
  typedefs : (string, unit) Hashtbl.t;  (** the typedef names so far *)
}

let peek st = Clexer.token st.t st.i

(* the token [k] places after the next one *)
let peek_at st k = Clexer.token st.t (st.i + k)
let peek2 st = peek_at st 1
let peek_loc st = Clexer.loc st.t st.i
let advance st = st.i <- st.i + 1

let error st msg = raise (Parse_error (msg, peek_loc st))

let expect_punct st p =
  match peek st with
  | TPunct q when q = p -> advance st
  | _ -> error st (Printf.sprintf "expected '%s'" (punct_text p))

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

let is_punct tok p = match tok with TPunct q -> q = p | _ -> false

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

let starts_type st = function
  | TKw
      ( Void | Unsigned | Signed | Char | Short | Int | Long | Struct | Bool_
      | Bool | Const ) ->
      true
  | TId x -> Hashtbl.mem st.typedefs x
  | _ -> false

let is_type_start st = starts_type st (peek st)

let parse_base_type st : ctype =
  let rec skip_quals () =
    match peek st with
    | TKw (Const | Static | Inline | Extern) ->
        advance st;
        skip_quals ()
    | _ -> ()
  in
  skip_quals ();
  match peek st with
  | TKw Void ->
      advance st;
      CVoid
  | TKw (Bool_ | Bool) ->
      advance st;
      CBool
  | TKw Struct ->
      advance st;
      let name = expect_id st in
      CStructRef name
  | TKw _ ->
      (* integer type keyword soup *)
      let rec go words =
        match peek st with
        | TKw ((Unsigned | Signed | Char | Short | Int | Long) as w) ->
            advance st;
            go (kw_text w :: words)
        | _ -> List.rev words
      in
      let words = go [] in
      if words = [] then error st "expected type";
      CInt (String.concat " " words)
  | TId x when Hashtbl.mem st.typedefs x ->
      advance st;
      CNamed x
  | _ -> error st "expected type"

let parse_type st : ctype =
  let base = parse_base_type st in
  let rec stars t =
    if eat_punct st Star then stars (CPtr t)
    else (
      (match peek st with
      | TKw Const -> advance st
      | _ -> ());
      if eat_punct st Star then stars (CPtr t) else t)
  in
  stars base

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let mk loc e = { e; eloc = loc }

(** The binary operator a token stands for, with its precedence
    (loosest 0); [-1] for any other token.  All are left-associative. *)
let binop = function
  | TPunct p -> (
      match p with
      | OrOr -> (0, BOr)
      | AndAnd -> (1, BAnd)
      | Bar -> (2, BBitOr)
      | Caret -> (3, BBitXor)
      | Amp -> (4, BBitAnd)
      | EqEq -> (5, BEq)
      | Ne -> (5, BNe)
      | Lt -> (6, BLt)
      | Le -> (6, BLe)
      | Gt -> (6, BGt)
      | Ge -> (6, BGe)
      | Shl -> (7, BShl)
      | Shr -> (7, BShr)
      | Plus -> (8, BAdd)
      | Minus -> (8, BSub)
      | Star -> (9, BMul)
      | Slash -> (9, BDiv)
      | Percent -> (9, BMod)
      | _ -> (-1, BAdd))
  | _ -> (-1, BAdd)

let rec parse_expr st : expr = parse_assign st

and parse_assign st : expr =
  let loc = peek_loc st in
  let lhs = parse_cond st in
  let compound op =
    advance st;
    mk loc (EAssignOp (op, lhs, parse_assign st))
  in
  match peek st with
  | TPunct Assign ->
      advance st;
      let rhs = parse_assign st in
      mk loc (EAssign (lhs, rhs))
  | TPunct PlusEq -> compound BAdd
  | TPunct MinusEq -> compound BSub
  | TPunct StarEq -> compound BMul
  | TPunct SlashEq -> compound BDiv
  | TPunct PercentEq -> compound BMod
  | _ -> lhs

and parse_cond st : expr =
  let loc = peek_loc st in
  let c = parse_binary st 0 in
  if eat_punct st Question then begin
    let t = parse_expr st in
    expect_punct st Colon;
    let f = parse_cond st in
    mk loc (ECond (c, t, f))
  end
  else c

(* precedence climbing: the operands of operators binding at least as
   tightly as [min]; a node is located at its leftmost operand *)
and parse_binary st min : expr =
  let loc = peek_loc st in
  let rec go lhs =
    let prec, op = binop (peek st) in
    if prec < min then lhs
    else begin
      advance st;
      let rhs = parse_binary st (prec + 1) in
      go (mk loc (EBin (op, lhs, rhs)))
    end
  in
  go (parse_unary st)

and parse_unary st : expr =
  let loc = peek_loc st in
  match peek st with
  | TPunct Minus ->
      advance st;
      mk loc (EUn (UNeg, parse_unary st))
  | TPunct Bang ->
      advance st;
      mk loc (EUn (UNot, parse_unary st))
  | TPunct Tilde ->
      advance st;
      mk loc (EUn (UBitNot, parse_unary st))
  | TPunct Star ->
      advance st;
      mk loc (EDeref (parse_unary st))
  | TPunct Amp ->
      advance st;
      mk loc (EAddr (parse_unary st))
  | TKw Sizeof ->
      advance st;
      expect_punct st LParen;
      let t = parse_type st in
      expect_punct st RParen;
      mk loc (ESizeof t)
  | TPunct LParen when starts_type st (peek2 st) ->
      advance st;
      let t = parse_type st in
      expect_punct st RParen;
      mk loc (ECast (t, parse_unary st))
  | _ -> parse_postfix st

and parse_postfix st : expr =
  let loc = peek_loc st in
  let rec go e =
    match peek st with
    | TPunct Arrow ->
        advance st;
        let f = expect_id st in
        go (mk loc (EArrow (e, f)))
    | TPunct Dot ->
        advance st;
        let f = expect_id st in
        go (mk loc (EMember (e, f)))
    | TPunct LBracket ->
        advance st;
        let i = parse_expr st in
        expect_punct st RBracket;
        go (mk loc (EIndex (e, i)))
    | TPunct LParen -> (
        match e with
        | { e = EId f; _ } ->
            advance st;
            let args =
              if eat_punct st RParen then []
              else
                let rec arg_loop acc =
                  let acc = parse_expr st :: acc in
                  if eat_punct st Comma then arg_loop acc
                  else (
                    expect_punct st RParen;
                    List.rev acc)
                in
                arg_loop []
            in
            go (mk loc (ECall (f, args)))
        | _ ->
            error st
              "only direct calls or calls through named pointers are supported")
    | TPunct PlusPlus ->
        advance st;
        go (mk loc (EAssignOp (BAdd, e, mk loc (EConst 1))))
    | TPunct MinusMinus ->
        advance st;
        go (mk loc (EAssignOp (BSub, e, mk loc (EConst 1))))
    | _ -> e
  in
  go (parse_primary st)

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
  | TPunct LParen ->
      advance st;
      let e = parse_expr st in
      expect_punct st RParen;
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
  | TPunct LBrace -> mks loc (SBlock (parse_block st))
  | TKw If ->
      advance st;
      expect_punct st LParen;
      let c = parse_expr st in
      expect_punct st RParen;
      let then_ = parse_stmt_as_block st in
      let else_ =
        match peek st with
        | TKw Else ->
            advance st;
            parse_stmt_as_block st
        | _ -> []
      in
      mks loc (SIf (c, then_, else_))
  | TKw While ->
      advance st;
      expect_punct st LParen;
      let c = parse_expr st in
      expect_punct st RParen;
      let body = parse_stmt_as_block st in
      mks loc (SWhile (atts, c, body))
  | TKw For ->
      advance st;
      expect_punct st LParen;
      let init =
        if eat_punct st Semi then None
        else
          let s = parse_simple_stmt st in
          expect_punct st Semi;
          Some s
      in
      let cond =
        if is_punct (peek st) Semi then None else Some (parse_expr st)
      in
      expect_punct st Semi;
      let step =
        if is_punct (peek st) RParen then None else Some (parse_expr st)
      in
      expect_punct st RParen;
      let body = parse_stmt_as_block st in
      mks loc (SFor (atts, init, cond, step, body))
  | TKw Switch ->
      advance st;
      expect_punct st LParen;
      let scrut = parse_expr st in
      expect_punct st RParen;
      expect_punct st LBrace;
      let cases = ref [] in
      let default = ref [] in
      let rec body_loop acc =
        match peek st with
        | TKw (Case | Default) | TPunct RBrace -> List.rev acc
        | _ -> body_loop (parse_stmt st :: acc)
      in
      let rec case_loop () =
        match peek st with
        | TKw Case ->
            advance st;
            let n =
              match peek st with
              | TInt n ->
                  advance st;
                  n
              | TPunct Minus -> (
                  advance st;
                  match peek st with
                  | TInt n ->
                      advance st;
                      -n
                  | _ -> error st "expected integer after case -")
              | _ -> error st "expected integer case label"
            in
            expect_punct st Colon;
            cases := (n, body_loop []) :: !cases;
            case_loop ()
        | TKw Default ->
            advance st;
            expect_punct st Colon;
            default := body_loop [];
            case_loop ()
        | TPunct RBrace -> advance st
        | _ -> error st "expected case, default or } in switch"
      in
      case_loop ();
      mks loc (SSwitch (scrut, List.rev !cases, !default))
  | TKw Return ->
      advance st;
      let e = if is_punct (peek st) Semi then None else Some (parse_expr st) in
      expect_punct st Semi;
      mks loc (SReturn e)
  | TKw Break ->
      advance st;
      expect_punct st Semi;
      mks loc SBreak
  | TKw Continue ->
      advance st;
      expect_punct st Semi;
      mks loc SContinue
  | _ ->
      let s = parse_simple_stmt st in
      expect_punct st Semi;
      s

and parse_stmt_as_block st : stmt list =
  match peek st with
  | TPunct LBrace -> parse_block st
  | _ -> [ parse_stmt st ]

and parse_block st : stmt list =
  expect_punct st LBrace;
  let rec go acc =
    if eat_punct st RBrace then List.rev acc else go (parse_stmt st :: acc)
  in
  go []

(** declaration or expression statement (no trailing ';' consumed) *)
and parse_simple_stmt st : stmt =
  let loc = peek_loc st in
  if is_type_start st then begin
    let t = parse_type st in
    let x = expect_id st in
    let init = if eat_punct st Assign then Some (parse_expr st) else None in
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
  expect_punct st Semi;
  { fd_attrs; fd_type; fd_name }

let parse_struct_body st =
  expect_punct st LBrace;
  let rec go acc =
    if eat_punct st RBrace then List.rev acc else go (parse_field st :: acc)
  in
  go []

(* the comma-separated list [item] parses up to a closing ')', which
   the caller has just opened *)
let paren_list st item =
  if eat_punct st RParen then []
  else
    let rec go acc =
      let acc = item () :: acc in
      if eat_punct st Comma then go acc
      else (
        expect_punct st RParen;
        List.rev acc)
    in
    go []

let rec parse_decl st : decl option =
  match peek st with
  | TEof -> None
  | TPunct Semi ->
      advance st;
      parse_decl st
  | _ -> (
      let d_attrs = attrs st in
      let loc = peek_loc st in
      match peek st with
      | TKw Typedef -> (
          advance st;
          match peek st with
          | TKw Struct ->
              advance st;
              let inner_attrs = attrs st in
              let name_opt =
                match peek st with
                | TId x when is_punct (peek2 st) LBrace ->
                    advance st;
                    Some x
                | _ -> None
              in
              let fields = parse_struct_body st in
              let is_ptr = eat_punct st Star in
              let td_name = expect_id st in
              expect_punct st Semi;
              let sd_name = Option.value ~default:td_name name_opt in
              Hashtbl.replace st.typedefs td_name ();
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
                if eat_punct st LParen then
                  let param () =
                    let pt = parse_type st in
                    (match peek st with TId _ -> advance st | _ -> ());
                    pt
                  in
                  CFn (paren_list st param, t)
                else t
              in
              expect_punct st Semi;
              Hashtbl.replace st.typedefs name ();
              Some (DTypedef (name, t)))
      | TKw Struct when not (is_punct (peek2 st) Star) -> (
          (* struct definition: struct [[attrs]] name { ... }; *)
          match (peek2 st, peek_at st 2) with
          | TAttr _, _ | TId _, (TPunct LBrace | TAttr _) ->
              advance st;
              let inner = attrs st in
              let name = expect_id st in
              let more = attrs st in
              let fields = parse_struct_body st in
              expect_punct st Semi;
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
  expect_punct st LParen;
  let params =
    match (peek st, peek2 st) with
    | TKw Void, TPunct RParen ->
        advance st;
        advance st;
        []
    | _ ->
        paren_list st (fun () ->
            let t = parse_type st in
            match peek st with
            | TId x ->
                advance st;
                (t, x)
            | _ -> error st "expected parameter name")
  in
  let body = if eat_punct st Semi then None else Some (parse_block st) in
  Some
    (DFun
       { fn_attrs; fn_ret = ret; fn_name = name; fn_params = params;
         fn_body = body; fn_loc })

(** Parse a whole input.  A lexical error anywhere in the input wins over
    a parse error, as if the whole input were lexed first. *)
let parse_file ~file (src : string) : Cabs.file =
  let st =
    { t = Clexer.tokenize ~file src; i = 0; typedefs = Hashtbl.create 16 }
  in
  let rec go acc =
    match parse_decl st with
    | None -> List.rev acc
    | Some d -> go (d :: acc)
  in
  match go [] with
  | decls -> { decls; file_name = file }
  | exception (Parse_error _ as e) ->
      Clexer.drain st.t;
      raise e
