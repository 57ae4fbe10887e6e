(** Lithium goal syntax (§5).

    [('f, 'atom) goal] is the goal grammar

    {v
      G ::= True | F | H ∗ G | H -∗ G | G₁ ∧ G₂ | ∀x. G(x) | ∃x. G(x)
      H ::= ⌜φ⌝ | A | H ∗ H | ∃x. H(x)
    v}

    parameterized by the language of basic goals ['f] (RefinedC typing
    judgments) and atoms ['atom] (the [ℓ ◁ₗ τ] / [v ◁ᵥ τ] assertions).
    Binders are higher-order (OCaml functions over pure terms), so the
    interpreter performs no substitution: universal binders are applied
    to fresh variables, existential binders to fresh evars — exactly
    goal cases (3) and (4) of the paper.

    The crucial syntactic restriction of Lithium is visible in the types:
    the left side of [∗] and [-∗] is an [('f, 'atom) left], which cannot
    contain [∧], [∀] or [-∗].  This is what makes non-backtracking,
    goal-directed proof search complete for the fragment (§5, "No
    backtracking"). *)

type ('f, 'atom) goal =
  | True_
  | Basic of 'f
  | Star of ('f, 'atom) left * ('f, 'atom) goal  (** H ∗ G *)
  | Wand of ('f, 'atom) left * ('f, 'atom) goal  (** H -∗ G *)
  | AndG of (string option * ('f, 'atom) goal) list
      (** G₁ ∧ … ∧ Gₙ; the optional labels become the "branch trail" in
          error messages (e.g. ["else branch of if at …:11"]) *)
  | All of string * Rc_pure.Sort.t * (Rc_pure.Term.term -> ('f, 'atom) goal)
  | Ex of string * Rc_pure.Sort.t * (Rc_pure.Term.term -> ('f, 'atom) goal)
  | Find of {
      descr : unit -> string;
          (** what is sought, printed only when a report or a [--deriv]
              judgment reads it *)
      pred : (Rc_pure.Term.term -> Rc_pure.Term.term) -> 'atom -> bool;
          (** receives the current evar resolver, then the candidate atom *)
      cont : 'atom -> ('f, 'atom) goal;
    }
      (** RefinedC's [find_in_context]: locate and consume the unique atom
          in Δ satisfying [pred] (e.g. the type of the location a load
          reads from), then continue.  Deterministic: Δ contains at most
          one atom per subject, so the first match is the only match. *)
  | FindOpt of {
      descr : unit -> string;
      pred : (Rc_pure.Term.term -> Rc_pure.Term.term) -> 'atom -> bool;
      cont : 'atom option -> ('f, 'atom) goal;
    }
      (** soft variant of [Find]: the continuation decides what to do when
          no atom matches (used e.g. to prove a magic wand either from an
          existing wand in Δ or, from emp, as the identity wand) *)

and ('f, 'atom) left =
  | LProp of Rc_pure.Term.prop
  | LAtom of 'atom
  | LStar of ('f, 'atom) left * ('f, 'atom) left
  | LEx of string * Rc_pure.Sort.t * (Rc_pure.Term.term -> ('f, 'atom) left)
  | LTrue  (** empty resource, unit of ∗ *)

(* Smart constructors *)

let star h g = match h with LTrue -> g | _ -> Star (h, g)
let wand h g = match h with LTrue -> g | _ -> Wand (h, g)

let rec stars hs g =
  match hs with [] -> g | h :: rest -> star h (stars rest g)

let rec wands hs g =
  match hs with [] -> g | h :: rest -> wand h (wands rest g)

let lstars hs =
  match hs with
  | [] -> LTrue
  | h :: rest -> List.fold_left (fun acc x -> LStar (acc, x)) h rest

let prop p = LProp p
