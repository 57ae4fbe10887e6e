(** Text with break hints, laid out exactly as [Format.asprintf] lays out
    a format that opens no box.

    The cache keys digest printed signatures ({!Rc_refinedc.Rtype.spec_signature},
    {!Rc_refinedc.Typecheck.invs_signature}) whose bytes were first
    defined by [Fmt.str] with [Fmt.comma]/[Fmt.semi] separators, and a
    key must not move when the printer does.  Those separators are a
    text followed by a break hint ([Format.pp_print_space]).  With no
    box open, every hint sits in [Format]'s outermost box, a hov box of
    indent 0 at the default margin of 78 columns, and the layout of such
    a box reduces to one rule per hint:

    - the last hint of the text always breaks the line (the outer box is
      never closed, so the size of what follows it stays unknown);
    - any other hint breaks the line iff the column before it, plus one,
      plus the length of the text up to the next hint reaches the
      margin.

    A broken hint is a newline with no indentation, a kept one a single
    space.  Both are one byte, so the text is written flat, a space at
    each hint, and {!contents} turns the breaking hints into newlines in
    place.  Columns count bytes, as [Format] does.  The property test in
    test_refinedc compares this layout with [Format]'s on random texts. *)

type t = { buf : Buffer.t; mutable breaks : int list  (** reversed *) }

let margin = 78
let create n = { buf = Buffer.create n; breaks = [] }
let add_string t s = Buffer.add_string t.buf s
let add_char t c = Buffer.add_char t.buf c
let add_substring t s ofs len = Buffer.add_substring t.buf s ofs len

(** [string_of_int n], written straight into [t]: the digits come from
    the non-positive [-|n|], which exists for [min_int] too. *)
let add_int t n =
  if n < 0 then Buffer.add_char t.buf '-';
  let rec digits m =
    if m <= -10 then digits (m / 10);
    Buffer.add_char t.buf (Char.unsafe_chr (48 - (m mod 10)))
  in
  digits (if n < 0 then n else -n)

(** [sep t s] writes [s] and a break hint: [sep t ","] is [Fmt.comma]. *)
let sep t s =
  Buffer.add_string t.buf s;
  t.breaks <- Buffer.length t.buf :: t.breaks;
  Buffer.add_char t.buf ' '

(** [list t ~sep:s f xs] writes the elements with [f], each pair
    separated by [sep t s], as [Fmt.list ~sep] does. *)
let list t ~sep:s f = function
  | [] -> ()
  | x :: xs ->
      f t x;
      List.iter
        (fun x ->
          sep t s;
          f t x)
        xs

let contents t =
  match t.breaks with
  | [] -> Buffer.contents t.buf
  | last :: _ ->
      let s = Buffer.to_bytes t.buf in
      let rec lay col = function
        | [] -> ()
        | p :: rest ->
            (* the text after the hint at [p] runs to the next hint or
               to the end *)
            let next = match rest with q :: _ -> q | [] -> Bytes.length s in
            let seg = next - p - 1 in
            if p = last || col + 1 + seg >= margin then begin
              Bytes.unsafe_set s p '\n';
              lay seg rest
            end
            else lay (col + 1 + seg) rest
      in
      let breaks = List.rev t.breaks in
      lay (List.hd breaks) breaks;
      Bytes.unsafe_to_string s
