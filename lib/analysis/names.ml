(** Dense numbering of one function's names (block labels, locals).

    [intern] gives each distinct name the next index, [find] looks one
    up.  The table is open addressing over a power-of-two array of
    indexes, with an FNV-1a hash computed in OCaml: a lookup is a short
    loop over the name's bytes and one string comparison, with no call
    into the runtime's generic hash.  The caller sizes the table with an
    upper bound on the distinct names it will intern. *)

type t = {
  keys : string array;  (** index ↦ name *)
  slots : int array;  (** index + 1, or 0 for an empty slot *)
  mask : int;
  mutable count : int;
}

let create (bound : int) : t =
  let rec pow2 n = if n >= 2 * (bound + 1) then n else pow2 (2 * n) in
  let size = pow2 8 in
  { keys = Array.make (max bound 1) ""; slots = Array.make size 0;
    mask = size - 1; count = 0 }

let hash (s : string) : int =
  let h = ref 0x811c9dc5 in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193
  done;
  !h

(* the slot holding [s], or the empty slot where it belongs *)
let slot (t : t) (s : string) : int =
  let rec probe i =
    let e = t.slots.(i) in
    if e = 0 || String.equal t.keys.(e - 1) s then i
    else probe ((i + 1) land t.mask)
  in
  probe (hash s land t.mask)

(** The index of [s], or [-1]. *)
let find (t : t) (s : string) : int = t.slots.(slot t s) - 1

(** The index of [s], numbering it next if it is new. *)
let intern (t : t) (s : string) : int =
  let i = slot t s in
  let e = t.slots.(i) in
  if e > 0 then e - 1
  else begin
    let id = t.count in
    t.keys.(id) <- s;
    t.slots.(i) <- id + 1;
    t.count <- id + 1;
    id
  end

let count (t : t) : int = t.count

(** The name of index [i]. *)
let name (t : t) (i : int) : string = t.keys.(i)
