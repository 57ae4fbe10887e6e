(** Hand-written lexer for the C subset.

    Tokenizes C source including C2x attribute blocks [[rc::name("…")]],
    whose string arguments are captured verbatim (the annotation
    language inside them is parsed separately by {!Specparse}, with the
    parameter environment in scope).  UTF-8 payloads inside attribute
    strings pass through untouched, so specifications can use the
    paper's notation (≤, ⊎, ∅, ∀ …).

    The lexer walks byte offsets and reads past the end as a ['\000']
    sentinel, so the inner loops allocate nothing.  It tracks only the
    current line and the offset where it began; a column is the offset
    from that line start, counted in bytes from 1 (a tab or a UTF-8
    byte counts one).  Tokens go into a {!tokens} table that the parser
    indexes, lexed as it reads them; a token's {!Rc_util.Srcloc.t} is
    built the first time the parser asks for it and shared from then
    on. *)

type punct =
  | Arrow  (** [->] *)
  | PlusEq | MinusEq | StarEq | SlashEq | PercentEq
  | PlusPlus | MinusMinus
  | Le | Ge | EqEq | Ne | AndAnd | OrOr | Shl | Shr
  | Plus | Minus | Star | Slash | Percent | Lt | Gt | Assign | Bang | Amp
  | Bar | Caret | Tilde
  | LParen | RParen | LBrace | RBrace | LBracket | RBracket
  | Semi | Comma | Dot | Question | Colon

type kw =
  | Struct | Typedef | If | Else | While | For | Do | Return | Break
  | Continue | Void | Unsigned | Signed | Char | Short | Int | Long | Static
  | Inline | Const | Sizeof | Switch | Case | Default | Goto
  | Bool_  (** [_Bool] *)
  | Bool  (** [bool] *)
  | Extern

type token =
  | TId of string
  | TInt of int
  | TKw of kw  (** keyword *)
  | TPunct of punct  (** operator / punctuation *)
  | TString of string  (** string literal (inside attributes) *)
  | TAttr of string * string list  (** [[rc::name("arg1", "arg2")]] *)
  | TEof

let punct_text = function
  | Arrow -> "->" | PlusEq -> "+=" | MinusEq -> "-=" | StarEq -> "*="
  | SlashEq -> "/=" | PercentEq -> "%=" | PlusPlus -> "++"
  | MinusMinus -> "--" | Le -> "<=" | Ge -> ">=" | EqEq -> "=="
  | Ne -> "!=" | AndAnd -> "&&" | OrOr -> "||" | Shl -> "<<" | Shr -> ">>"
  | Plus -> "+" | Minus -> "-" | Star -> "*" | Slash -> "/"
  | Percent -> "%" | Lt -> "<" | Gt -> ">" | Assign -> "=" | Bang -> "!"
  | Amp -> "&" | Bar -> "|" | Caret -> "^" | Tilde -> "~" | LParen -> "("
  | RParen -> ")" | LBrace -> "{" | RBrace -> "}" | LBracket -> "["
  | RBracket -> "]" | Semi -> ";" | Comma -> "," | Dot -> "." | Question -> "?"
  | Colon -> ":"

let kw_text = function
  | Struct -> "struct" | Typedef -> "typedef" | If -> "if" | Else -> "else"
  | While -> "while" | For -> "for" | Do -> "do" | Return -> "return"
  | Break -> "break" | Continue -> "continue" | Void -> "void"
  | Unsigned -> "unsigned" | Signed -> "signed" | Char -> "char"
  | Short -> "short" | Int -> "int" | Long -> "long" | Static -> "static"
  | Inline -> "inline" | Const -> "const" | Sizeof -> "sizeof"
  | Switch -> "switch" | Case -> "case" | Default -> "default"
  | Goto -> "goto" | Bool_ -> "_Bool" | Bool -> "bool" | Extern -> "extern"

(* a match on string literals compiles to a compare tree: no list scan,
   and no table (which would be top-level mutable state) *)
let ident_token = function
  | "struct" -> TKw Struct | "typedef" -> TKw Typedef | "if" -> TKw If
  | "else" -> TKw Else | "while" -> TKw While | "for" -> TKw For
  | "do" -> TKw Do | "return" -> TKw Return | "break" -> TKw Break
  | "continue" -> TKw Continue | "void" -> TKw Void
  | "unsigned" -> TKw Unsigned | "signed" -> TKw Signed
  | "char" -> TKw Char | "short" -> TKw Short | "int" -> TKw Int
  | "long" -> TKw Long | "static" -> TKw Static | "inline" -> TKw Inline
  | "const" -> TKw Const | "sizeof" -> TKw Sizeof | "switch" -> TKw Switch
  | "case" -> TKw Case | "default" -> TKw Default | "goto" -> TKw Goto
  | "_Bool" -> TKw Bool_ | "bool" -> TKw Bool | "extern" -> TKw Extern
  | s -> TId s

exception Lex_error of string * Rc_util.Srcloc.t

(* a line/column pair in one immediate int *)
let pack line col = (line lsl 32) lor col
let line_of p = p lsr 32
let col_of p = p land 0xffff_ffff

let make_loc file start stop =
  Rc_util.Srcloc.make ~file ~start_line:(line_of start)
    ~start_col:(col_of start) ~end_line:(line_of stop) ~end_col:(col_of stop)

type state = {
  src : string;
  len : int;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (** offset at which [line] starts *)
}

(* the byte at [pos], or the sentinel '\000' at and past the end *)
let at st pos = if pos < st.len then String.unsafe_get st.src pos else '\000'
let cur st = at st st.pos
let eof st = st.pos >= st.len
let here_p st = pack st.line (st.pos - st.bol + 1)
let here st = make_loc st.file (here_p st) (here_p st)
let error st msg = raise (Lex_error (msg, here st))

(* consume the byte at [pos], which is a newline when [c = '\n'] *)
let step st c =
  st.pos <- st.pos + 1;
  if c = '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.pos
  end

let is_id_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_id_char c = is_id_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let is_hex c =
  is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let rec skip_ws st =
  match cur st with
  | ' ' | '\t' | '\r' | '\n' as c ->
      step st c;
      skip_ws st
  | '/' when at st (st.pos + 1) = '/' ->
      while (not (eof st)) && cur st <> '\n' do
        st.pos <- st.pos + 1
      done;
      skip_ws st
  | '/' when at st (st.pos + 1) = '*' ->
      st.pos <- st.pos + 2;
      while not (cur st = '*' && at st (st.pos + 1) = '/') do
        if eof st then error st "unterminated comment";
        step st (cur st)
      done;
      st.pos <- st.pos + 2;
      skip_ws st
  | _ -> ()

let lex_string st =
  (* positioned at the opening quote; a string without escapes is one
     [String.sub] *)
  st.pos <- st.pos + 1;
  let start = st.pos in
  let rec plain () =
    match cur st with
    | '"' ->
        let s = String.sub st.src start (st.pos - start) in
        st.pos <- st.pos + 1;
        s
    | '\\' ->
        let buf = Buffer.create (2 * (st.pos - start) + 16) in
        Buffer.add_substring buf st.src start (st.pos - start);
        escaped buf
    | c ->
        if eof st then error st "unterminated string";
        step st c;
        plain ()
  and escaped buf =
    match cur st with
    | '"' ->
        st.pos <- st.pos + 1;
        Buffer.contents buf
    | '\\' ->
        st.pos <- st.pos + 1;
        if eof st then error st "unterminated escape";
        let c = cur st in
        Buffer.add_char buf (match c with 'n' -> '\n' | 't' -> '\t' | c -> c);
        step st c;
        escaped buf
    | c ->
        if eof st then error st "unterminated string";
        Buffer.add_char buf c;
        step st c;
        escaped buf
  in
  plain ()

(* a decimal literal's value, [None] past [max_int] *)
let decimal src start stop =
  let rec go n i =
    if i = stop then Some n
    else
      let d = Char.code src.[i] - 48 in
      if n > (max_int - d) / 10 then None else go ((10 * n) + d) (i + 1)
  in
  go 0 start

let lex_number st =
  let start = st.pos and start_p = here_p st in
  (* located at the whole literal, not just where lexing stopped *)
  let fail msg = raise (Lex_error (msg, make_loc st.file start_p (here_p st))) in
  let out_of_range () = fail "integer literal out of range" in
  if cur st = '0' && (at st (st.pos + 1) = 'x' || at st (st.pos + 1) = 'X')
  then begin
    st.pos <- st.pos + 2;
    while is_hex (cur st) do
      st.pos <- st.pos + 1
    done;
    if st.pos - start = 2 then fail "malformed hex literal";
    (* [int_of_string] wraps hex literals past [max_int] to negatives *)
    match int_of_string_opt (String.sub st.src start (st.pos - start)) with
    | Some n when n >= 0 -> n
    | _ -> out_of_range ()
  end
  else begin
    while is_digit (cur st) do
      st.pos <- st.pos + 1
    done;
    match decimal st.src start st.pos with
    | None -> out_of_range ()
    | Some n ->
        (* swallow integer suffixes *)
        while match cur st with 'u' | 'U' | 'l' | 'L' -> true | _ -> false do
          st.pos <- st.pos + 1
        done;
        n
  end

let ident st =
  let start = st.pos in
  while is_id_char (cur st) do
    st.pos <- st.pos + 1
  done;
  String.sub st.src start (st.pos - start)

(** Lex an attribute block, positioned after the opening [[ ]. *)
let lex_attr st : token =
  skip_ws st;
  (* expect: identifier (:: identifier)* ( "args" ) *)
  let name () =
    if not (is_id_start (cur st)) then error st "expected attribute name";
    ident st
  in
  let ns = name () in
  let name =
    if cur st = ':' && at st (st.pos + 1) = ':' then begin
      st.pos <- st.pos + 2;
      ns ^ "::" ^ name ()
    end
    else ns
  in
  skip_ws st;
  let args = ref [] in
  if cur st = '(' then begin
    st.pos <- st.pos + 1;
    let rec arg_loop () =
      skip_ws st;
      match cur st with
      | '"' -> (
          args := lex_string st :: !args;
          skip_ws st;
          match cur st with
          | ',' ->
              st.pos <- st.pos + 1;
              arg_loop ()
          | ')' -> st.pos <- st.pos + 1
          | _ -> error st "expected ',' or ')' in attribute")
      | ')' -> st.pos <- st.pos + 1
      | _ -> error st "expected string literal in attribute"
    in
    arg_loop ()
  end;
  skip_ws st;
  if cur st = ']' && at st (st.pos + 1) = ']' then st.pos <- st.pos + 2
  else error st "expected ]] to close attribute";
  TAttr (name, List.rev !args)

let punct st c =
  let two p =
    st.pos <- st.pos + 2;
    TPunct p
  and one p =
    st.pos <- st.pos + 1;
    TPunct p
  in
  match (c, at st (st.pos + 1)) with
  | '-', '>' -> two Arrow
  | '-', '=' -> two MinusEq
  | '-', '-' -> two MinusMinus
  | '+', '=' -> two PlusEq
  | '+', '+' -> two PlusPlus
  | '*', '=' -> two StarEq
  | '/', '=' -> two SlashEq
  | '%', '=' -> two PercentEq
  | '<', '=' -> two Le
  | '>', '=' -> two Ge
  | '=', '=' -> two EqEq
  | '!', '=' -> two Ne
  | '&', '&' -> two AndAnd
  | '|', '|' -> two OrOr
  | '<', '<' -> two Shl
  | '>', '>' -> two Shr
  | '+', _ -> one Plus
  | '-', _ -> one Minus
  | '*', _ -> one Star
  | '/', _ -> one Slash
  | '%', _ -> one Percent
  | '<', _ -> one Lt
  | '>', _ -> one Gt
  | '=', _ -> one Assign
  | '!', _ -> one Bang
  | '&', _ -> one Amp
  | '|', _ -> one Bar
  | '^', _ -> one Caret
  | '~', _ -> one Tilde
  | '(', _ -> one LParen
  | ')', _ -> one RParen
  | '{', _ -> one LBrace
  | '}', _ -> one RBrace
  | '[', _ -> one LBracket
  | ']', _ -> one RBracket
  | ';', _ -> one Semi
  | ',', _ -> one Comma
  | '.', _ -> one Dot
  | '?', _ -> one Question
  | ':', _ -> one Colon
  | _ -> error st (Printf.sprintf "unexpected character %C" c)

(* the token at the current position, after whitespace and comments *)
let next st : token =
  match cur st with
  | '[' when at st (st.pos + 1) = '[' ->
      st.pos <- st.pos + 2;
      lex_attr st
  | c when is_id_start c -> ident_token (ident st)
  | c when is_digit c -> TInt (lex_number st)
  | '"' -> TString (lex_string st)
  | '\000' when eof st -> TEof
  | c -> punct st c

(* ------------------------------------------------------------------ *)
(* The token table                                                     *)
(* ------------------------------------------------------------------ *)

(* Tokens are lexed a chunk at a time, when the reader first asks for
   one.  A chunk array is small enough for the minor heap (at most 256
   words), and a chunk two behind the one being filled is dropped, so a
   token the parser has passed is garbage before a minor collection can
   promote it. *)
let chunk_bits = 7
let chunk = 1 lsl chunk_bits
let mask = chunk - 1

(** The tokens of one input, in source order and ending with [TEof].
    Token [i] is in chunk [i lsr chunk_bits] at [i land mask].  Read it
    with {!token} and {!loc}, which lex up to it first; a reader moves
    forward, and may look at most a chunk behind the furthest token it
    asked for. *)
type tokens = {
  lexer : state;
  mutable count : int;  (** tokens lexed so far *)
  mutable finished : bool;  (** [TEof] is lexed *)
  mutable toks : token array array;
  mutable spans : int array array;
      (** where each token starts and ends ({!pack}ed line/col), at
          [2 * (i land mask)] and the next index *)
  mutable locs : Rc_util.Srcloc.t array array;
      (** built on first use, see {!loc} *)
}

(* lex the next chunk; [t.count] is a multiple of [chunk] *)
let fill (t : tokens) =
  let c = t.count lsr chunk_bits in
  if c = Array.length t.toks then begin
    let grow a = Array.append a (Array.make (Array.length a) [||]) in
    t.toks <- grow t.toks;
    t.spans <- grow t.spans;
    t.locs <- grow t.locs
  end;
  let toks = Array.make chunk TEof and spans = Array.make (2 * chunk) 0 in
  t.toks.(c) <- toks;
  t.spans.(c) <- spans;
  t.locs.(c) <- Array.make chunk Rc_util.Srcloc.dummy;
  if c >= 2 then begin
    t.toks.(c - 2) <- [||];
    t.spans.(c - 2) <- [||];
    t.locs.(c - 2) <- [||]
  end;
  let st = t.lexer in
  let rec go k =
    skip_ws st;
    let start = here_p st in
    let tok = next st in
    toks.(k) <- tok;
    spans.(2 * k) <- start;
    spans.((2 * k) + 1) <- here_p st;
    t.count <- t.count + 1;
    match tok with
    | TEof -> t.finished <- true
    | _ -> if k < mask then go (k + 1)
  in
  go 0

(* lex up to token [i], or to the end *)
let rec reach (t : tokens) i =
  if i >= t.count && not t.finished then begin
    fill t;
    reach t i
  end

(** A token table over [src], lexed on demand.  A lexical error is
    raised by the read that reaches it, or by {!drain}. *)
let tokenize ~file (src : string) : tokens =
  {
    lexer = { src; len = String.length src; file; pos = 0; line = 1; bol = 0 };
    count = 0;
    finished = false;
    toks = Array.make 16 [||];
    spans = Array.make 16 [||];
    locs = Array.make 16 [||];
  }

(** Token [i]; [TEof] past the end. *)
let token (t : tokens) i =
  reach t i;
  if i < t.count then t.toks.(i lsr chunk_bits).(i land mask) else TEof

(** The location of token [i], made once and then shared, so every AST
    node that starts at this token holds the same record. *)
let loc (t : tokens) i =
  reach t i;
  if i >= t.count then Rc_util.Srcloc.dummy
  else
    let locs = t.locs.(i lsr chunk_bits) and k = i land mask in
    let l = locs.(k) in
    if l != Rc_util.Srcloc.dummy then l
    else begin
      let spans = t.spans.(i lsr chunk_bits) in
      let l = make_loc t.lexer.file spans.(2 * k) spans.((2 * k) + 1) in
      locs.(k) <- l;
      l
    end

(** Lex the rest of the input, raising its first lexical error if it
    has one. *)
let drain (t : tokens) = reach t max_int
