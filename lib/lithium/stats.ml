(** Verification statistics — the instrumentation behind Figure 7.

    One [t] is collected per verified function and aggregated per case
    study by the benchmark harness:
    - [rules_used]/[rule_apps]: the "Rules" column (distinct / applications)
    - [evar_insts]: the "∃" column
    - [side_auto]/[side_manual]: the "⌜φ⌝" column (the paper counts any
      condition needing a named solver or a registered lemma as manual) *)

type t = {
  mutable rule_apps : int;
  mutable rules_used : (string, int) Hashtbl.t;
  mutable evar_insts : int;
  mutable side_auto : int;
  mutable side_manual : int;
  mutable manual_detail : (string * string) list;
      (** (solver-or-lemma, printed side condition) *)
  mutable memo_hits : int;
      (** memoized-subgoal replays; the subsumed rule applications are
          already merged into [rule_apps]/[rules_used], so Figure-7
          columns match a memo-off run exactly *)
  mutable memo_saved_apps : int;
      (** rule applications the memo hits subsumed (counted inside
          [rule_apps] as well — this field reports the saving) *)
}

let create () =
  {
    rule_apps = 0;
    rules_used = Hashtbl.create 32;
    evar_insts = 0;
    side_auto = 0;
    side_manual = 0;
    manual_detail = [];
    memo_hits = 0;
    memo_saved_apps = 0;
  }

let add_rule_uses t name n =
  Hashtbl.replace t.rules_used name
    (n + Option.value ~default:0 (Hashtbl.find_opt t.rules_used name))

(* the condition is printed only for the manual verdicts that keep it *)
let record_side t (v : Rc_pure.Registry.verdict) (phi : Rc_pure.Term.prop) =
  match v with
  | Rc_pure.Registry.Auto -> t.side_auto <- t.side_auto + 1
  | Rc_pure.Registry.Via_solver s ->
      t.side_manual <- t.side_manual + 1;
      t.manual_detail <-
        (s, Rc_pure.Term.prop_to_string phi) :: t.manual_detail
  | Rc_pure.Registry.Via_lemma s ->
      t.side_manual <- t.side_manual + 1;
      t.manual_detail <-
        ("lemma " ^ s, Rc_pure.Term.prop_to_string phi) :: t.manual_detail
  | Rc_pure.Registry.Unsolved -> ()

let distinct_rules t = Hashtbl.length t.rules_used

let merge a b =
  a.rule_apps <- a.rule_apps + b.rule_apps;
  Hashtbl.iter (add_rule_uses a) b.rules_used;
  a.evar_insts <- a.evar_insts + b.evar_insts;
  a.side_auto <- a.side_auto + b.side_auto;
  a.side_manual <- a.side_manual + b.side_manual;
  (* [manual_detail] is reverse-chronological; [to_json] reverses it.
     Keeping [b]'s (later) entries at the head makes the serialized
     order [a]'s entries then [b]'s — source order for a driver merging
     per-function stats, regardless of [-j N]. *)
  a.manual_detail <- b.manual_detail @ a.manual_detail;
  a.memo_hits <- a.memo_hits + b.memo_hits;
  a.memo_saved_apps <- a.memo_saved_apps + b.memo_saved_apps

(** Deterministic JSON rendering: [rules_used] is emitted in sorted
    order and [manual_detail] in chronological order, so two runs that
    performed the same proof work — e.g. a [-j 1] and a [-j 4] run over
    the same corpus, merged in source order — serialize byte-identically
    regardless of hashtable iteration order or domain scheduling. *)
let to_json t : string =
  let b = Buffer.create 256 in
  let esc s =
    let eb = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string eb "\\\""
        | '\\' -> Buffer.add_string eb "\\\\"
        | '\n' -> Buffer.add_string eb "\\n"
        | c when Char.code c < 0x20 ->
            Buffer.add_string eb (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char eb c)
      s;
    Buffer.contents eb
  in
  Buffer.add_string b
    (Printf.sprintf
       "{\"rule_apps\":%d,\"distinct_rules\":%d,\"evar_insts\":%d,\"side_auto\":%d,\"side_manual\":%d,\"memo_hits\":%d,\"memo_saved_apps\":%d,\"rules_used\":{"
       t.rule_apps (distinct_rules t) t.evar_insts t.side_auto t.side_manual
       t.memo_hits t.memo_saved_apps);
  let rules =
    List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) t.rules_used [])
  in
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%d" (esc k) v))
    rules;
  Buffer.add_string b "},\"manual\":[";
  List.iteri
    (fun i (who, what) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "[\"%s\",\"%s\"]" (esc who) (esc what)))
    (List.rev t.manual_detail);
  Buffer.add_string b "]}";
  Buffer.contents b

let pp ppf t =
  Fmt.pf ppf "rules %d/%d, ∃ %d, ⌜φ⌝ %d/%d" (distinct_rules t) t.rule_apps
    t.evar_insts t.side_auto t.side_manual;
  (* only under --memo, so memo-off output is untouched *)
  if t.memo_hits > 0 then
    Fmt.pf ppf ", memo %d hits (%d apps replayed)" t.memo_hits
      t.memo_saved_apps
