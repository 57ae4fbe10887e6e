(** Rule-set sanity checks (codes RC-L020 … RC-L022).

    The Lithium engine dispatches on judgment heads and tries the rules
    of a bucket in priority order, committing to the first match — so a
    misdeclared rule fails {e silently}: it just never fires, and proof
    search reports an unrelated stuck goal.  This pass audits the
    session's full rule set (standard library plus [extra_rules]) for
    the three declaration mistakes that produce such silent failures:

    - RC-L020: two rules share a name — rule statistics, traces and the
      certificate checker key rules by name, so a duplicate makes their
      reports ambiguous;
    - RC-L021: a rule is dead by construction — it declares [Some []]
      (no head can ever dispatch to it) or declares a head outside
      {!Rc_refinedc.Lang.all_heads} (a typo: "exprs" for "expr");
    - RC-L022: two rules land in the same dispatch bucket with equal
      priority — which fires first depends on registration order, an
      accident callers should not rely on.

    Rules have no source locations, so all diagnostics anchor at
    {!Rc_util.Srcloc.dummy}; the rule names in the messages are the
    actionable handle. *)

module Lang = Rc_refinedc.Lang
module Diagnostic = Rc_util.Diagnostic

let make ?hint ~code msg =
  Diagnostic.make ?hint ~severity:Diagnostic.Warning ~code
    ~loc:Rc_util.Srcloc.dummy msg

let check (rules : Lang.E.rule list) : Diagnostic.t list =
  (* RC-L020: duplicate rule names *)
  let dup_names =
    let seen = Hashtbl.create 64 and dups = ref [] in
    List.iter
      (fun (r : Lang.E.rule) ->
        let n = r.Lang.E.rname in
        if Hashtbl.mem seen n then begin
          if not (List.mem n !dups) then dups := n :: !dups
        end
        else Hashtbl.add seen n ())
      rules;
    List.rev_map
      (fun n ->
        make ~code:"RC-L020"
          ~hint:"rename one of them; traces and certificates key rules by name"
          (Printf.sprintf "two rules in this session are both named '%s'" n))
      !dups
  in
  (* RC-L021: dead rules — empty or misspelled head declarations *)
  let dead =
    List.concat_map
      (fun (r : Lang.E.rule) ->
        match r.Lang.E.heads with
        | None -> []
        | Some [] ->
            [
              make ~code:"RC-L021"
                ~hint:
                  "declare the heads it should fire on, or None for wildcard"
                (Printf.sprintf
                   "rule '%s' declares an empty head list and can never fire"
                   r.Lang.E.rname);
            ]
        | Some hs ->
            List.filter_map
              (fun h ->
                if List.mem h Lang.all_heads then None
                else
                  Some
                    (make ~code:"RC-L021"
                       ~hint:
                         (Printf.sprintf "valid heads: %s"
                            (String.concat ", " Lang.all_heads))
                       (Printf.sprintf
                          "rule '%s' declares unknown head '%s'; no judgment \
                           ever dispatches to it"
                          r.Lang.E.rname h)))
              hs)
      rules
  in
  (* RC-L022: equal-priority rules in one dispatch bucket.  Mirror the
     engine's bucketing: for each valid head, the rules whose
     declaration covers it (wildcards included), in priority order. *)
  let overlaps =
    List.concat_map
      (fun h ->
        let bucket =
          List.filter
            (fun (r : Lang.E.rule) ->
              match r.Lang.E.heads with
              | None -> true
              | Some hs -> List.mem h hs)
            rules
        in
        let sorted =
          List.stable_sort
            (fun (a : Lang.E.rule) (b : Lang.E.rule) ->
              compare a.Lang.E.prio b.Lang.E.prio)
            bucket
        in
        let rec adjacent = function
          | (a : Lang.E.rule) :: (b : Lang.E.rule) :: rest ->
              if a.Lang.E.prio = b.Lang.E.prio then
                make ~code:"RC-L022"
                  ~hint:"give them distinct priorities to fix the order"
                  (Printf.sprintf
                     "rules '%s' and '%s' both handle head '%s' at priority \
                      %d; their dispatch order is registration-dependent"
                     a.Lang.E.rname b.Lang.E.rname h a.Lang.E.prio)
                :: adjacent (b :: rest)
              else adjacent (b :: rest)
          | _ -> []
        in
        adjacent sorted)
      Lang.all_heads
  in
  dup_names @ dead @ overlaps

(* the standard library's findings, computed once when the program
   starts: most sessions add no rules *)
let std_diagnostics = check (Rc_refinedc.Rules.builtin ())

let run (session : Rc_refinedc.Session.t) : Diagnostic.t list =
  match session.Rc_refinedc.Session.extra_rules with
  | [] -> std_diagnostics
  | extra -> check (Rc_refinedc.Rules.builtin () @ extra)
