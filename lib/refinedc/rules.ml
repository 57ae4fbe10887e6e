(** The RefinedC standard library of typing rules.

    The paper's standard library "currently contains around 30 types and
    200 typing rules" (§7); this reproduction's library covers the rules
    the case-study corpus exercises.  Extensibility is the point of the
    Lithium architecture (§5): a session may carry additional
    (user/expert) rules.  There is no mutable global rule table: the
    standard library alone is compiled once per process ({!std_index}),
    a session with extra rules compiles its own head-indexed
    {!Lang.E.index} ({!make}), and an index is read-only from then on,
    safely shared by every checker domain and every session that uses
    it. *)

(** The built-in standard library, in dispatch order. *)
let builtin () : Lang.E.rule list =
  Rules_stmt.all @ Rules_expr.all @ Rules_binop.all @ Rules_mem.all
  @ Rules_call.all @ Rules_subsume.all

(** The standard library's index: an immutable value computed when the
    program starts, shared by every session that adds no rules. *)
let std_index : Lang.E.index = Lang.E.index_rules (builtin ())

(** Compile a rule set (standard library plus [extra] session rules)
    into the engine's head-indexed dispatch structure. *)
let make ?(extra = []) () : Lang.E.index =
  match extra with
  | [] -> std_index
  | _ -> Lang.E.index_rules (builtin () @ extra)

(** Digest of a compiled rule set (names, priorities, head declarations,
    in order) — a component of the verification-cache key. *)
let fingerprint (idx : Lang.E.index) : string = idx.Lang.E.idx_fingerprint

(** Number of rules in a compiled set (for the Figure-7 style summary
    line in the benchmark harness). *)
let count (idx : Lang.E.index) : int = idx.Lang.E.idx_size
