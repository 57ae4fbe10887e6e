(** List helpers used across the code base. *)

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: xs -> x :: take (n - 1) xs

let rec drop n = function
  | xs when n <= 0 -> xs
  | [] -> []
  | _ :: xs -> drop (n - 1) xs

let rec last = function
  | [] -> invalid_arg "Xlist.last"
  | [ x ] -> x
  | _ :: xs -> last xs

(** [find_remove p xs] returns the first element satisfying [p] and the
    list without it.  This is the primitive behind Lithium's context lookup
    (goal case (6d)): at most one atom in Δ matches, so taking the first
    match is deterministic. *)
let find_remove p xs =
  let rec go acc = function
    | [] -> None
    | x :: rest when p x -> Some (x, List.rev_append acc rest)
    | x :: rest -> go (x :: acc) rest
  in
  go [] xs

let rec assoc_update k v = function
  | [] -> [ (k, v) ]
  | (k', _) :: rest when k' = k -> (k, v) :: rest
  | kv :: rest -> kv :: assoc_update k v rest

let sum = List.fold_left ( + ) 0

let rec transpose = function
  | [] | [] :: _ -> []
  | rows -> List.map List.hd rows :: transpose (List.map List.tl rows)

let index_of p xs =
  let rec go i = function
    | [] -> None
    | x :: _ when p x -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 xs

let rec zip xs ys =
  match (xs, ys) with
  | [], _ | _, [] -> []
  | x :: xs, y :: ys -> (x, y) :: zip xs ys
