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

(** [pp]'s text, written into a signature buffer. *)
let rec add b s =
  match s with
  | List s ->
      Rc_util.Breakbuf.add_string b "list ";
      add b s
  | Nat -> Rc_util.Breakbuf.add_string b "nat"
  | Int -> Rc_util.Breakbuf.add_string b "int"
  | Bool -> Rc_util.Breakbuf.add_string b "bool"
  | Loc -> Rc_util.Breakbuf.add_string b "loc"
  | Mset -> Rc_util.Breakbuf.add_string b "multiset"
  | Set -> Rc_util.Breakbuf.add_string b "set"
  | Unknown -> Rc_util.Breakbuf.add_string b "?"

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
