(** The RefinedC standard library of typing rules.

    The paper's standard library "currently contains around 30 types and
    200 typing rules" (§7); this reproduction's library covers the rules
    the case-study corpus exercises.  Extensibility is the point of the
    Lithium architecture (§5): a session may carry additional
    (user/expert) rules.  There is no mutable global rule table — a
    session compiles its own head-indexed {!Lang.E.index} once
    ({!make}), after which the index is read-only and safely shared by
    every checker domain of that session. *)

(** The built-in standard library, in dispatch order. *)
let builtin () : Lang.E.rule list =
  Rules_stmt.all @ Rules_expr.all @ Rules_binop.all @ Rules_mem.all
  @ Rules_call.all @ Rules_subsume.all

(** Compile a rule set (standard library plus [extra] session rules)
    into the engine's head-indexed dispatch structure. *)
let make ?(extra = []) () : Lang.E.index =
  Lang.E.index_rules (builtin () @ extra)

(** Digest of a compiled rule set (names, priorities, head declarations,
    in order) — a component of the verification-cache key. *)
let fingerprint (idx : Lang.E.index) : string = idx.Lang.E.idx_fingerprint

(** Number of rules in a compiled set (for the Figure-7 style summary
    line in the benchmark harness). *)
let count (idx : Lang.E.index) : int = idx.Lang.E.idx_size
