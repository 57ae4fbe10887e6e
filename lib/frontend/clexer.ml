(** Hand-written lexer for the C subset.

    Tokenizes C source including C2x attribute blocks [[rc::name("…")]],
    whose string arguments are captured verbatim (the annotation
    language inside them is parsed separately by {!Specparse}, with the
    parameter environment in scope).  UTF-8 payloads inside attribute
    strings pass through untouched, so specifications can use the
    paper's notation (≤, ⊎, ∅, ∀ …). *)

type token =
  | TId of string
  | TInt of int
  | TKw of string  (** keyword *)
  | TPunct of string  (** operator / punctuation *)
  | TString of string  (** string literal (inside attributes) *)
  | TAttr of string * string list  (** [[rc::name("arg1", "arg2")]] *)
  | TEof

type lexed = { tok : token; loc : Rc_util.Srcloc.t }

(* a match on string literals compiles to a compare tree: no list scan,
   and no table (which would be top-level mutable state) *)
let is_keyword = function
  | "struct" | "typedef" | "if" | "else" | "while" | "for" | "do" | "return"
  | "break" | "continue" | "void" | "unsigned" | "signed" | "char" | "short"
  | "int" | "long" | "static" | "inline" | "const" | "sizeof" | "switch"
  | "case" | "default" | "goto" | "_Bool" | "bool" | "extern" ->
      true
  | _ -> false

exception Lex_error of string * Rc_util.Srcloc.t

type state = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let make file src = { src; file; pos = 0; line = 1; col = 1 }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.col <- 1
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.pos <- st.pos + 1

let here st =
  Rc_util.Srcloc.make ~file:st.file ~start_line:st.line ~start_col:st.col
    ~end_line:st.line ~end_col:st.col

let error st msg = raise (Lex_error (msg, here st))

let is_id_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_id_char c = is_id_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      skip_ws st
  | Some '/' when peek2 st = Some '/' ->
      while peek st <> None && peek st <> Some '\n' do
        advance st
      done;
      skip_ws st
  | Some '/' when peek2 st = Some '*' ->
      advance st;
      advance st;
      let rec go () =
        match (peek st, peek2 st) with
        | Some '*', Some '/' ->
            advance st;
            advance st
        | None, _ -> error st "unterminated comment"
        | _ ->
            advance st;
            go ()
      in
      go ();
      skip_ws st
  | _ -> ()

let lex_string st =
  (* positioned at the opening quote *)
  advance st;
  let buf = Buffer.create 32 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some c ->
            Buffer.add_char buf
              (match c with 'n' -> '\n' | 't' -> '\t' | c -> c);
            advance st;
            go ()
        | None -> error st "unterminated escape")
    | Some c ->
        Buffer.add_char buf c;
        advance st;
        go ()
  in
  go ();
  Buffer.contents buf

let lex_number st =
  let start = st.pos and sl = st.line and sc = st.col in
  (* located at the whole literal, not just where lexing stopped *)
  let fail msg =
    raise
      (Lex_error
         ( msg,
           Rc_util.Srcloc.make ~file:st.file ~start_line:sl ~start_col:sc
             ~end_line:st.line ~end_col:st.col ))
  in
  (* [int_of_string] wraps hex literals past [max_int] to negatives *)
  let literal text =
    match int_of_string_opt text with
    | Some n when n >= 0 -> n
    | _ -> fail "integer literal out of range"
  in
  if peek st = Some '0' && (peek2 st = Some 'x' || peek2 st = Some 'X') then begin
    advance st;
    advance st;
    while
      match peek st with
      | Some c -> is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
      | None -> false
    do
      advance st
    done;
    if st.pos - start = 2 then fail "malformed hex literal";
    literal (String.sub st.src start (st.pos - start))
  end
  else begin
    while match peek st with Some c -> is_digit c | None -> false do
      advance st
    done;
    (* swallow integer suffixes *)
    let n = literal (String.sub st.src start (st.pos - start)) in
    while
      match peek st with
      | Some ('u' | 'U' | 'l' | 'L') -> true
      | _ -> false
    do
      advance st
    done;
    n
  end

(** Lex an attribute block, positioned after the opening [[ ]. *)
let lex_attr st : token =
  skip_ws st;
  (* expect: identifier (:: identifier)* ( "args" ) *)
  let ident () =
    let start = st.pos in
    if not (match peek st with Some c -> is_id_start c | None -> false) then
      error st "expected attribute name";
    while match peek st with Some c -> is_id_char c | None -> false do
      advance st
    done;
    String.sub st.src start (st.pos - start)
  in
  let ns = ident () in
  let name =
    if peek st = Some ':' && peek2 st = Some ':' then begin
      advance st;
      advance st;
      ns ^ "::" ^ ident ()
    end
    else ns
  in
  skip_ws st;
  let args = ref [] in
  if peek st = Some '(' then begin
    advance st;
    let rec arg_loop () =
      skip_ws st;
      match peek st with
      | Some '"' ->
          args := lex_string st :: !args;
          skip_ws st;
          (match peek st with
          | Some ',' ->
              advance st;
              arg_loop ()
          | Some ')' -> advance st
          | _ -> error st "expected ',' or ')' in attribute")
      | Some ')' -> advance st
      | _ -> error st "expected string literal in attribute"
    in
    arg_loop ()
  end;
  skip_ws st;
  (match (peek st, peek2 st) with
  | Some ']', Some ']' ->
      advance st;
      advance st
  | _ -> error st "expected ]] to close attribute");
  TAttr (name, List.rev !args)

let next (st : state) : lexed =
  skip_ws st;
  let sl = st.line and sc = st.col in
  let fin tok =
    {
      tok;
      loc =
        Rc_util.Srcloc.make ~file:st.file ~start_line:sl ~start_col:sc
          ~end_line:st.line ~end_col:st.col;
    }
  in
  match peek st with
  | None -> fin TEof
  | Some '[' when peek2 st = Some '[' ->
      advance st;
      advance st;
      fin (lex_attr st)
  | Some c when is_id_start c ->
      let start = st.pos in
      while match peek st with Some c -> is_id_char c | None -> false do
        advance st
      done;
      let s = String.sub st.src start (st.pos - start) in
      if is_keyword s then fin (TKw s) else fin (TId s)
  | Some c when is_digit c -> fin (TInt (lex_number st))
  | Some '"' -> fin (TString (lex_string st))
  | Some c ->
      let two p =
        advance st;
        advance st;
        fin (TPunct p)
      in
      let one p =
        advance st;
        fin (TPunct p)
      in
      (match (c, peek2 st) with
      | '-', Some '>' -> two "->"
      | '-', Some '=' -> two "-="
      | '-', Some '-' -> two "--"
      | '+', Some '=' -> two "+="
      | '+', Some '+' -> two "++"
      | '*', Some '=' -> two "*="
      | '/', Some '=' -> two "/="
      | '%', Some '=' -> two "%="
      | '<', Some '=' -> two "<="
      | '>', Some '=' -> two ">="
      | '=', Some '=' -> two "=="
      | '!', Some '=' -> two "!="
      | '&', Some '&' -> two "&&"
      | '|', Some '|' -> two "||"
      | '<', Some '<' -> two "<<"
      | '>', Some '>' -> two ">>"
      | ( ('+' | '-' | '*' | '/' | '%' | '<' | '>' | '=' | '!' | '&' | '|'
          | '^' | '~' | '(' | ')' | '{' | '}' | '[' | ']' | ';' | ',' | '.'
          | '?' | ':'), _ ) ->
          one (String.make 1 c)
      | _ -> error st (Printf.sprintf "unexpected character %C" c))

(** Tokenize a whole input. *)
let tokenize ~file (src : string) : lexed list =
  let st = make file src in
  let rec go acc =
    let l = next st in
    match l.tok with TEof -> List.rev (l :: acc) | _ -> go (l :: acc)
  in
  go []
