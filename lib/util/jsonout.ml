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

let needs_escape (c : char) = c = '"' || c = '\\' || Char.code c < 0x20

(** [s] with JSON escapes; [s] itself when nothing needs escaping. *)
let escape (s : string) : string =
  if not (String.exists needs_escape s) then s
  else begin
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
  end

let float_text (f : float) : string =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

(* ---- layout --------------------------------------------------------

   The printer reproduces, byte for byte, what OCaml's [Format] printed
   for ["[@[<hv>%a@]]"] / ["{@[<hv>%a@]}"] with [",@ "] separators at
   margin 78 and maximum indentation 68 (DESIGN.md §17):

   - a box opened at column [c] (just after its bracket) stays on one
     line iff the flat width of its contents is strictly less than
     [margin - c];
   - a box that does not fit puts each element on its own line, at
     column [min c 68];
   - a box opened past column 68 inside a broken box whose column is
     left of it first breaks the line to [min (that column) 68]; the
     fit test still uses the column before that break.

   Width counts stop at the space left, so each decision costs at most
   a line's worth of the tree and the writer stays linear. *)

let max_indent = 68

let int_width (n : int) : int =
  let rec go n w = if n > -10 && n < 10 then w else go (n / 10) (w + 1) in
  go n (if n < 0 then 2 else 1)

let escaped_width ~limit (acc : int) (s : string) : int =
  let acc = ref acc and i = ref 0 in
  while !acc < limit && !i < String.length s do
    (acc :=
       !acc
       +
       match s.[!i] with
       | '"' | '\\' | '\n' | '\r' | '\t' -> 2
       | c when Char.code c < 0x20 -> 6
       | _ -> 1);
    incr i
  done;
  !acc

(* [acc] plus the flat width of [v], or some value [>= limit] once the
   sum reaches [limit] *)
let rec width ~limit (acc : int) (v : t) : int =
  if acc >= limit then acc
  else
    match v with
    | Null -> acc + 4
    | Bool b -> acc + if b then 4 else 5
    | Int i -> acc + int_width i
    | Float f -> acc + String.length (float_text f)
    | Str s -> escaped_width ~limit (acc + 2) s
    | List vs -> 1 + items_width ~limit (acc + 1) (width ~limit) vs
    | Obj fs -> 1 + items_width ~limit (acc + 1) (field_width ~limit) fs

and field_width ~limit acc (k, v) =
  width ~limit (escaped_width ~limit (acc + 3) k) v

(* the contents of a box: the items joined by [", "] *)
and items_width : 'a. limit:int -> int -> (int -> 'a -> int) -> 'a list -> int
    =
 fun ~limit acc item_width -> function
  | [] -> acc
  | x :: rest ->
      List.fold_left
        (fun acc x -> if acc >= limit then acc else item_width (acc + 2) x)
        (item_width acc x) rest

type writer = {
  buf : Buffer.t;
  margin : int;
  mutable line_start : int;  (** buffer offset of the current line *)
}

let col (w : writer) = Buffer.length w.buf - w.line_start

let newline (w : writer) (indent : int) =
  Buffer.add_char w.buf '\n';
  w.line_start <- Buffer.length w.buf;
  for _ = 1 to indent do
    Buffer.add_char w.buf ' '
  done

(* Where an item is written: inside a box that fits (then so does every
   box nested in it), or inside a broken box opened at column [c] *)
type mode = Fits | Broken of int

let rec write (w : writer) (mode : mode) (v : t) : unit =
  let b = w.buf in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_text f)
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
  | List vs -> box w mode '[' ']' width write vs
  | Obj fs -> box w mode '{' '}' field_width write_field fs

and write_field w mode (k, v) =
  Buffer.add_char w.buf '"';
  Buffer.add_string w.buf (escape k);
  Buffer.add_string w.buf "\":";
  write w mode v

and box :
      'a.
      writer ->
      mode ->
      char ->
      char ->
      (limit:int -> int -> 'a -> int) ->
      (writer -> mode -> 'a -> unit) ->
      'a list ->
      unit =
 fun w mode opening closing item_width write_item items ->
  Buffer.add_char w.buf opening;
  let inner =
    match mode with
    | Fits -> Fits
    | Broken p ->
        let c = col w in
        let space = w.margin - c in
        let fits =
          items_width ~limit:space 0 (item_width ~limit:space) items < space
        in
        if c > max_indent && p < c then newline w (min p max_indent);
        if fits then Fits else Broken (col w)
  in
  List.iteri
    (fun i x ->
      if i > 0 then begin
        match inner with
        | Fits -> Buffer.add_string w.buf ", "
        | Broken c ->
            Buffer.add_char w.buf ',';
            newline w (min c max_indent)
      end;
      write_item w inner x)
    items;
  Buffer.add_char w.buf closing

let render ~margin (v : t) : string =
  let w = { buf = Buffer.create 1024; margin; line_start = 0 } in
  (* the top level sits in a broken box at column 0, as in [Format] *)
  write w (Broken 0) v;
  Buffer.contents w.buf

let to_string (v : t) : string = render ~margin:78 v

(** Single-line serialization (no wrapping, whatever the width) — the
    NDJSON form {!Runlog} appends, where one record must be one line. *)
let to_line (v : t) : string = render ~margin:max_int v

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
