(** The structural encoder behind every identity the checker compares or
    digests: cache-key components, rule equalities and memo keys.

    A value is written as a constructor tag followed by every one of its
    fields, ints as decimal terminated by [';'], strings and lists
    prefixed by their length.  No encoding is a proper prefix of another
    at the same type, so two values share an encoding only if they are
    equal: the encoders are injective, unlike the human printers, which
    drop fields and are for display only.

    The writer is a growable byte array the encoders fill in place, so a
    tag is one store and an int one store per digit, with no closure per
    list or pair and no [Buffer] call per character. *)

type t = { mutable bytes : Bytes.t; mutable len : int }

let create n = { bytes = Bytes.create n; len = 0 }

let grow (w : t) n =
  let bytes = Bytes.create (max (w.len + n) (2 * Bytes.length w.bytes)) in
  Bytes.blit w.bytes 0 bytes 0 w.len;
  w.bytes <- bytes

(* room for [n] more bytes; inlined, so a write that fits costs a
   comparison and a store *)
let[@inline] reserve (w : t) n =
  if w.len + n > Bytes.length w.bytes then grow w n

let[@inline] tag (w : t) c =
  reserve w 1;
  Bytes.unsafe_set w.bytes w.len c;
  w.len <- w.len + 1

(* [string_of_int n ^ ";"]: the digits come from the non-positive
   [-|n|], which exists for [min_int] too, written backwards from the
   end of their counted width *)
let enc_int (w : t) n =
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

let enc_str (w : t) s =
  let n = String.length s in
  enc_int w n;
  reserve w n;
  Bytes.unsafe_blit_string s 0 w.bytes w.len n;
  w.len <- w.len + n

let enc_bool w x = tag w (if x then 't' else 'f')

(** The length, then each element. *)
let enc_list f w xs =
  enc_int w (List.length xs);
  List.iter (f w) xs

let contents (w : t) = Bytes.sub_string w.bytes 0 w.len

(** The hex MD5 of what [w] holds. *)
let digest (w : t) = Digest.to_hex (Digest.subbytes w.bytes 0 w.len)

(** [x]'s encoding under [f], as a string: two values are the same iff
    their encodings are equal. *)
let encode f x =
  let w = create 64 in
  f w x;
  contents w
