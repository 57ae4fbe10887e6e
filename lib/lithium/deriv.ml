(** Derivation trees (certificates).

    Lithium's output is not just "yes": every run produces a derivation
    tree recording each interpreter case, each typing-rule application
    (by name), and each pure side condition together with the evidence
    that discharged it (its solver verdict), with all evars resolved.
    This is the reproduction's stand-in for the Coq proof term of the
    paper: the independent checker in [rc_cert] re-validates the tree
    without trusting the search engine. *)

type node = {
  d_case : string;
      (** interpreter case or ["rule:<name>"] for rule applications *)
  d_info : string;
      (** printed judgment / atom / binder; empty unless the run asked
          for judgments (the engine's [o_judgments]) or the node is a
          branch label.  No checker reads it: it exists for [--deriv]. *)
  d_loc : Rc_util.Srcloc.t option;
  d_side : (Rc_pure.Term.prop * Rc_pure.Registry.verdict) list;
      (** side conditions discharged at this node, evar-free *)
  d_hyps : Rc_pure.Term.prop list;
      (** the pure context Γ the side conditions were discharged under
          (recorded so the certificate checker can re-discharge them) *)
  d_tactics : string list;  (** named solvers that were enabled *)
  d_children : node list;
}

let make ?(info = "") ?loc ?(side = []) ?(hyps = []) ?(tactics = []) case
    children =
  { d_case = case; d_info = info; d_loc = loc; d_side = side; d_hyps = hyps;
    d_tactics = tactics; d_children = children }

let rec size n = 1 + List.fold_left (fun a c -> a + size c) 0 n.d_children

(** Nodes at depth [max_depth] and below are not printed; each cut
    prints one line counting the nodes it elides instead. *)
let max_depth = 40

let indent depth = String.make (min depth 20 * 2) ' '

let rec pp ?(depth = 0) ppf n =
  Fmt.pf ppf "%s%s%s%s@." (indent depth) n.d_case
    (if n.d_info = "" then "" else ": " ^ n.d_info)
    (match n.d_side with
    | [] -> ""
    | side ->
        Fmt.str " [%a]"
          Fmt.(
            list ~sep:comma (fun ppf (p, v) ->
                Fmt.pf ppf "%a (%a)" Rc_pure.Term.pp_prop p
                  Rc_pure.Registry.pp_verdict v))
          side);
  if depth + 1 < max_depth then
    List.iter (pp ~depth:(depth + 1) ppf) n.d_children
  else if n.d_children <> [] then
    Fmt.pf ppf "%s… %d nodes below depth %d elided@." (indent (depth + 1))
      (size n - 1) max_depth

(** All side conditions in the tree, with their verdicts. *)
let rec side_conditions n =
  n.d_side
  @ List.concat_map side_conditions n.d_children

(** All rule applications (names) in the tree. *)
let rec rules n =
  (if String.length n.d_case > 5 && String.sub n.d_case 0 5 = "rule:" then
     [ String.sub n.d_case 5 (String.length n.d_case - 5) ]
   else [])
  @ List.concat_map rules n.d_children
