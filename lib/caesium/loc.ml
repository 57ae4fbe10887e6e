(** Concrete memory locations with allocation provenance.

    Following CompCert's memory model (the basis for Caesium's, §3), a
    location is an allocation identifier plus a byte offset.  Pointer
    comparisons and arithmetic respect provenance: relational comparison
    of pointers into different allocations is undefined behaviour. *)

type t =
  | Null
  | Ptr of { alloc : int; ofs : int }
[@@deriving eq, ord]

let ptr alloc ofs = Ptr { alloc; ofs }

let shift l n =
  match l with
  | Null -> invalid_arg "Loc.shift: null"
  | Ptr { alloc; ofs } -> Ptr { alloc; ofs = ofs + n }

let is_null = function Null -> true | Ptr _ -> false

let pp ppf = function
  | Null -> Fmt.string ppf "NULL"
  | Ptr { alloc; ofs } -> Fmt.pf ppf "a%d+%d" alloc ofs
