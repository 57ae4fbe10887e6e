(** Sorts of the pure (mathematical) layer.

    RefinedC refinements range over "arbitrary mathematical domains (i.e.,
    Coq types)" (§2.1).  This reproduction fixes the concrete collection of
    domains that the paper's case studies actually use: natural numbers,
    integers, booleans, memory locations, finite multisets of integers
    (e.g. the free-list sizes of Figure 3, [gmultiset nat] in the paper),
    finite sets of integers (the BST specs), and lists over any sort (the
    linked-list, queue, array and hashmap specs). *)

type t =
  | Nat  (** non-negative integers; variables of this sort carry an implicit
             [x >= 0] assumption in the solvers *)
  | Int  (** unbounded mathematical integers *)
  | Bool  (** booleans as terms (propositions embed via {!Term.TProp}) *)
  | Loc  (** abstract memory locations, compared syntactically (§9) *)
  | Mset  (** finite multisets of integers *)
  | Set  (** finite sets of integers *)
  | List of t  (** finite lists over a sort *)
  | Unknown  (** placeholder used before sort inference resolves *)
[@@deriving eq, ord]

let rec pp ppf = function
  | Nat -> Fmt.string ppf "nat"
  | Int -> Fmt.string ppf "int"
  | Bool -> Fmt.string ppf "bool"
  | Loc -> Fmt.string ppf "loc"
  | Mset -> Fmt.string ppf "multiset"
  | Set -> Fmt.string ppf "set"
  | List s -> Fmt.pf ppf "list %a" pp s
  | Unknown -> Fmt.string ppf "?"

let to_string s = Fmt.str "%a" pp s

(** The structural encoding ({!Rc_util.Enc}). *)
let rec enc w s =
  match s with
  | List s ->
      Rc_util.Enc.tag w 'l';
      enc w s
  | Nat -> Rc_util.Enc.tag w 'n'
  | Int -> Rc_util.Enc.tag w 'i'
  | Bool -> Rc_util.Enc.tag w 'b'
  | Loc -> Rc_util.Enc.tag w 'p'
  | Mset -> Rc_util.Enc.tag w 'm'
  | Set -> Rc_util.Enc.tag w 's'
  | Unknown -> Rc_util.Enc.tag w '?'

(** Numeric sorts admit linear-arithmetic reasoning. *)
let is_numeric = function Nat | Int -> true | _ -> false

(** [lub a b] is the most precise common sort, used during inference:
    [Nat] embeds in [Int]. *)
let rec lub a b =
  match (a, b) with
  | Unknown, s | s, Unknown -> Some s
  | Nat, Int | Int, Nat -> Some Int
  | List x, List y -> Option.map (fun s -> List s) (lub x y)
  | a, b when equal a b -> Some a
  | _ -> None

let of_string = function
  | "nat" -> Some Nat
  | "int" | "Z" -> Some Int
  | "bool" -> Some Bool
  | "loc" -> Some Loc
  | "multiset" | "gmultiset nat" | "{gmultiset nat}" -> Some Mset
  | "set" | "gset nat" | "gset Z" -> Some Set
  | _ -> None
