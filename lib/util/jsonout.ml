(** Minimal JSON for machine-readable diagnostics ([--json]) and the
    run ledger.

    Historically output-only; the run ledger ({!Runlog}) made the
    toolchain a *reader* of its own records too, so a small
    recursive-descent {!parse} joins the printer.  Still no external
    dependency: the reader accepts exactly the JSON this module emits,
    plus standard escapes. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape (s : string) : string =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec pp ppf (v : t) =
  match v with
  | Null -> Fmt.string ppf "null"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Fmt.pf ppf "%.1f" f
      else Fmt.pf ppf "%.6g" f
  | Str s -> Fmt.pf ppf "\"%s\"" (escape s)
  | List vs ->
      Fmt.pf ppf "[@[<hv>%a@]]" (Fmt.list ~sep:(Fmt.any ",@ ") pp) vs
  | Obj fields ->
      let field ppf (k, v) = Fmt.pf ppf "\"%s\":%a" (escape k) pp v in
      Fmt.pf ppf "{@[<hv>%a@]}" (Fmt.list ~sep:(Fmt.any ",@ ") field) fields

let to_string (v : t) : string = Fmt.str "%a" pp v

(** Single-line serialization (no wrapping, whatever the width) — the
    NDJSON form {!Runlog} appends, where one record must be one line. *)
let to_line (v : t) : string =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_set_margin ppf 1_000_000_000;
  pp ppf v;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing (the run ledger)                                            *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

(** Parse one JSON document.  Numbers without [.]/[e] that fit an OCaml
    [int] parse as [Int]; everything else numeric parses as [Float] —
    the same split the printer makes.  [Error msg] rather than an
    exception, because the ledger reader's contract is skip-on-corrupt,
    not abort. *)
let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  (* UTF-8-encode a \uXXXX code point (surrogate pairs join first) *)
  let add_utf8 b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
    | Some v ->
        pos := !pos + 4;
        v
    | None -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
          advance ();
          Buffer.contents b
      | Some '\\' -> (
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char b '"'; advance ()
          | Some '\\' -> Buffer.add_char b '\\'; advance ()
          | Some '/' -> Buffer.add_char b '/'; advance ()
          | Some 'b' -> Buffer.add_char b '\b'; advance ()
          | Some 'f' -> Buffer.add_char b '\012'; advance ()
          | Some 'n' -> Buffer.add_char b '\n'; advance ()
          | Some 'r' -> Buffer.add_char b '\r'; advance ()
          | Some 't' -> Buffer.add_char b '\t'; advance ()
          | Some 'u' ->
              advance ();
              let cp = hex4 () in
              let cp =
                (* high surrogate: consume the low half if present *)
                if cp >= 0xD800 && cp <= 0xDBFF
                   && !pos + 6 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                then begin
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo >= 0xDC00 && lo <= 0xDFFF then
                    0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                  else lo
                end
                else cp
              in
              add_utf8 b cp
          | _ -> fail "bad escape");
          go ())
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    let is_floaty =
      String.exists (function '.' | 'e' | 'E' -> true | _ -> false) lit
    in
    if is_floaty then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt lit with
          | Some f -> Float f
          | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elems []
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ---------------- accessors for parsed values ---------------- *)

let member (k : string) = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function List vs -> Some vs | _ -> None

(** [number_member k v] reads an [Int]/[Float] field as a float. *)
let number_member (k : string) (v : t) : float option =
  Option.bind (member k v) to_float
