(** Fixed-size C integer types.

    Caesium supports "fixed-size integers" (§3).  We model the usual
    LP64 data model (the one the paper's case studies assume): [char] is
    1 byte, [int] 4 bytes, [long]/[size_t]/pointers 8 bytes. *)

type signedness = Signed | Unsigned [@@deriving eq, ord]

type t = {
  it_name : string;  (** C surface name, for printing *)
  size : int;  (** in bytes *)
  signedness : signedness;
}
[@@deriving eq, ord]

(* Names are for display only: size_t and unsigned long are the same
   type.  Equality compares representation. *)
let equal a b = a.size = b.size && equal_signedness a.signedness b.signedness

let make name size signedness = { it_name = name; size; signedness }
let i8 = make "signed char" 1 Signed
let u8 = make "unsigned char" 1 Unsigned
let i16 = make "short" 2 Signed
let u16 = make "unsigned short" 2 Unsigned
let i32 = make "int" 4 Signed
let u32 = make "unsigned int" 4 Unsigned
let i64 = make "long" 8 Signed
let u64 = make "unsigned long" 8 Unsigned
let size_t = { u64 with it_name = "size_t" }
let uintptr_t = { u64 with it_name = "uintptr_t" }
let bool_it = { u8 with it_name = "_Bool" }
let char = { i8 with it_name = "char" }  (* char is signed in our ABI *)

let bits it = it.size * 8
let is_signed it = it.signedness = Signed

(** Inclusive bounds.  OCaml ints are 63-bit, so 8-byte ranges are capped
    at [min_int/2 .. max_int/2] — far beyond every value in the case
    studies, and documented in DESIGN.md.  All arithmetic stays exact
    within the caps. *)
let min_val it =
  if not (is_signed it) then 0
  else if it.size >= 8 then min_int / 2
  else -(1 lsl (bits it - 1))

let max_val it =
  if it.size >= 8 then max_int / 2
  else if is_signed it then (1 lsl (bits it - 1)) - 1
  else (1 lsl bits it) - 1

let in_range it v = min_val it <= v && v <= max_val it

(** Two's-complement wrap into the type's range (defined for unsigned
    arithmetic; signed wrap-around is UB and handled by the caller). *)
let wrap it v =
  if it.size >= 8 then v (* modelled as unbounded below the cap *)
  else
    let m = 1 lsl bits it in
    let v = ((v mod m) + m) mod m in
    if is_signed it && v >= 1 lsl (bits it - 1) then v - m else v

let uint8_t = { u8 with it_name = "uint8_t" }
let uint16_t = { u16 with it_name = "uint16_t" }
let uint32_t = { u32 with it_name = "uint32_t" }
let uint64_t = { u64 with it_name = "uint64_t" }
let int8_t = { i8 with it_name = "int8_t" }
let int16_t = { i16 with it_name = "int16_t" }
let int32_t = { i32 with it_name = "int32_t" }
let int64_t = { i64 with it_name = "int64_t" }

(** The integer type a C type name denotes; raises [Not_found] for a name
    that is not an integer type.  Allocates nothing. *)
let of_name = function
  | "char" -> char
  | "signed char" -> i8
  | "unsigned char" -> u8
  | "short" -> i16
  | "unsigned short" -> u16
  | "int" -> i32
  | "unsigned" | "unsigned int" -> u32
  | "long" | "long long" | "intptr_t" | "ptrdiff_t" | "ssize_t" -> i64
  | "unsigned long" | "unsigned long long" -> u64
  | "size_t" -> size_t
  | "uintptr_t" -> uintptr_t
  | "uint8_t" -> uint8_t
  | "uint16_t" -> uint16_t
  | "uint32_t" -> uint32_t
  | "uint64_t" -> uint64_t
  | "int8_t" -> int8_t
  | "int16_t" -> int16_t
  | "int32_t" -> int32_t
  | "int64_t" -> int64_t
  | "_Bool" | "bool" -> bool_it
  | _ -> raise Not_found

let pp ppf it = Fmt.string ppf it.it_name
