(** The Lithium interpreter: goal-directed proof search without
    backtracking (§5).

    The engine is a functor over the language of basic goals and atoms;
    RefinedC instantiates it with its typing judgments.  The interpreter
    is a direct transcription of the seven goal cases of the paper:

    1. [True] succeeds.
    2. [G₁ ∧ G₂] forks (contexts are persistent; the evar store is shared,
       matching Coq's behaviour for evars created before the fork).
    3. [∀x. G] introduces a fresh universal.
    4. [∃x. G] introduces a fresh *sealed* evar.
    5. [F] applies the unique matching typing rule (rules are indexed and
       tried in priority order; the first match commits — no backtracking).
    6. [H ∗ G] decomposes [H]: (a) nested [∗] re-associates, (b) [∃]
       hoists, (c) [⌜φ⌝] becomes a side condition, (d) an atom is matched
       against the unique related atom in Δ, yielding a subsumption goal.
    7. [H -∗ G] decomposes [H] into the contexts: pure facts are
       normalized into Γ (a contradictory fact closes the goal
       vacuously), atoms join Δ.

    One extension mirrors RefinedC's [find_in_context]: the goal form
    {!Goal.Find} locates (and consumes) the atom for a given subject in
    Δ, which is how read/write/call rules obtain the current type of a
    location. *)

open Rc_pure
open Rc_pure.Term
module Goal = Goal

module type LANG = sig
  type f
  type atom

  type env
  (** language-level immutable environment threaded to rules (RefinedC
      uses it for the session's named-type definitions); [unit] for
      languages that need none *)

  val pp_f : Format.formatter -> f -> unit
  val pp_atom : Format.formatter -> atom -> unit

  val head_of_f : f -> string
  (** judgment head name: the reference {!head_id_of_f} and
      {!head_names} must agree with *)

  val head_id_of_f : f -> int
  (** the same head as a dense id into {!head_names} — one constructor
      match instead of a string, so dispatch is an array access rather
      than a string-keyed hash lookup *)

  val head_names : string array
  (** id ↦ head name; [head_names.(head_id_of_f f) = head_of_f f] *)

  val enc_atom : Rc_util.Enc.t -> atom -> unit
  (** the atom's injective structural encoding (memo keys) *)

  val memo_key_of_f : (term -> term) -> f -> (Rc_util.Enc.t -> unit) option
  (** [Some key] iff the judgment is safely memoizable within a run;
      [key] writes the judgment's injective structural encoding.  Its
      search behaviour must be fully determined by that encoding, the
      resolved Δ, and Γ-interactions the engine records as probes.  In
      practice that means judgments whose continuation is implied by
      their own data (RefinedC's ⊢GOTO) rather than captured in a
      closure no encoder can see.  The function argument resolves
      instantiated evars, so the key reflects the current evar state. *)

  val loc_of_f : f -> Rc_util.Srcloc.t option

  val related : exact:bool -> atom -> atom -> bool
  (** do the two atoms assign a type to the same location/value?  The
      engine first looks for an [exact] subject match; if none exists it
      makes a weak pass, which the language can use for e.g. splitting
      ownership of sub-ranges (O-ADD-UNINIT-style reasoning, §6). *)

  val resolve_atom : (term -> term) -> atom -> atom
  (** map a term-resolution function over the atom *)

  val mk_subsume : atom -> atom -> (f, atom) Goal.goal -> f
  (** the subsumption judgment [A₁ <: A₂ {G}] *)
end

module Make (L : LANG) = struct
  type goal = (L.f, L.atom) Goal.goal
  type left = (L.f, L.atom) Goal.left

  (* ---------------------------------------------------------------- *)
  (* Rules                                                             *)
  (* ---------------------------------------------------------------- *)

  type rule_input = {
    ri_env : L.env;  (** the session's language environment *)
    ri_fresh : ?hint:string -> Sort.t -> term;
    ri_evar : ?hint:string -> Sort.t -> term;
    ri_resolve : term -> term;
    ri_resolve_prop : prop -> prop;
    ri_props : prop list;  (** current Γ, for rules that peek at facts *)
    ri_prove : prop -> bool;
        (** quick default-solver check (not recorded as a side condition);
            used by rules only to pick between *equivalent* premises *)
    ri_peek : (L.atom -> bool) -> L.atom option;
        (** non-consuming Δ lookup, used by rules to dispatch between
            premises according to where ownership currently lives *)
  }

  type rule = {
    rname : string;
    prio : int;  (** lower fires first (§5 footnote: priorities) *)
    heads : string list option;
        (** the judgment heads ({!L.head_of_f}) this rule can fire on;
            [None] means it must be tried on every head.  This is a
            dispatch hint, not a semantic filter: a rule listed under the
            wrong head is simply never offered the goals it matches. *)
    apply : rule_input -> L.f -> goal option;
  }

  type cfg = {
    rules : rule list;  (** indexed by priority and head at [run] *)
    tactics : string list;  (** named solvers enabled ([rc::tactics]) *)
  }

  (* ---------------------------------------------------------------- *)
  (* Rule index                                                        *)
  (* ---------------------------------------------------------------- *)

  (** A compiled rule set: the priority sort and the head buckets are
      computed once and shared by every subsequent [run_indexed] — and,
      read-only from then on, safely shared across checker domains.
      Looking up the rules for a basic goal is O(bucket) instead of
      O(all rules). *)
  type index = {
    idx_by_id : (int * rule) list array;
        (** {!L.head_id_of_f} ↦ rules declaring that head plus the
            wildcard rules, in priority order — exactly the subsequence
            of the sorted rule list that can fire on this head.  Heads no
            rule declares get the wildcard rules alone.  The lookup is
            one array access, no string hashing.  Each rule is paired
            with its ordinal, its position in the sorted list, under
            which a run counts its applications. *)
    idx_names : string array;  (** ordinal ↦ rule name *)
    idx_nodes : string array;
        (** ordinal ↦ the rule's derivation-node case, ["rule:" ^ name],
            built once here rather than per application *)
    idx_fingerprint : string;
        (** digest of (name, priority, heads) of every rule in order —
            a component of the verification-cache key. *)
    idx_size : int;  (** number of rules in the set *)
  }

  (** [index_rules rules] compiles the rule set, sorted by priority.
      The sort is stable, so equal-priority ties keep their input order.
      Order across priorities is semantically significant (the
      first-match-commits contract, §5); within a tie the rule authors
      guarantee disjoint guards (checked by lint RC-L022), so tie order
      can only change speed, never a verdict. *)
  let index_rules (rules : rule list) : index =
    let sorted = List.stable_sort (fun a b -> compare a.prio b.prio) rules in
    let ranked = List.mapi (fun i r -> (i, r)) sorted in
    let declared =
      List.concat_map (fun r -> Option.value ~default:[] r.heads) sorted
      |> List.sort_uniq compare
    in
    let bucket_for h =
      List.filter
        (fun (_, r) ->
          match r.heads with None -> true | Some hs -> List.mem h hs)
        ranked
    in
    let idx_buckets = Hashtbl.create (List.length declared * 2) in
    List.iter (fun h -> Hashtbl.replace idx_buckets h (bucket_for h)) declared;
    let idx_fingerprint =
      Digest.to_hex
        (Digest.string
           (String.concat ";"
              (List.map
                 (fun r ->
                   Printf.sprintf "%s:%d:%s" r.rname r.prio
                     (match r.heads with
                     | None -> "*"
                     | Some hs -> String.concat "," hs))
                 sorted)))
    in
    let wild = List.filter (fun (_, r) -> r.heads = None) ranked in
    let idx_by_id =
      Array.map
        (fun h ->
          match Hashtbl.find_opt idx_buckets h with
          | Some bucket -> bucket
          | None -> wild)
        L.head_names
    in
    {
      idx_by_id;
      idx_names = Array.of_list (List.map (fun r -> r.rname) sorted);
      idx_nodes =
        Array.of_list (List.map (fun r -> "rule:" ^ r.rname) sorted);
      idx_fingerprint;
      idx_size = List.length sorted;
    }

  (* ---------------------------------------------------------------- *)
  (* Interpreter state                                                 *)
  (* ---------------------------------------------------------------- *)

  (** One atom of Δ.  [d_atom] is the atom as it entered Δ; [d_res] is
      its resolved form ({!L.resolve_atom} under the evar store), valid
      while the store's instantiation count still equals [d_at].  Every
      instantiation bumps that count ({!Evar.t.instantiations}), so an
      entry whose count matches needs no re-resolution; a stale one is
      re-resolved from [d_atom] on its next read.  The store is shared by
      all branches of a run and its count only grows, so entries shared
      between forked contexts may be refreshed in place. *)
  type dentry = {
    d_atom : L.atom;
    mutable d_res : L.atom;
    mutable d_at : int;
  }

  type ctx = {
    props : prop list;  (** Γ: pure facts *)
    vars : (string * Sort.t) list;  (** Γ: universals *)
    delta : dentry list;  (** Δ: owned atoms *)
    trail : string list;  (** branch labels for error messages *)
  }

  let empty_ctx = { props = []; vars = []; delta = []; trail = [] }

  (* ---------------------------------------------------------------- *)
  (* Within-run subgoal memoization                                     *)
  (* ---------------------------------------------------------------- *)

  (** The same ownership obligations recur across the branches of one
      function: every path through a CFG join re-proves the join block's
      suffix, so [k] sequential if/else diamonds re-check the common
      suffix 2^k times.  The memo layer caches *successful* solves of
      memoizable judgments ({!L.memo_key_of_f}) keyed on the structural
      encoding of the judgment and of the resolved Δ, and replays them on repeat
      visits — turning the 2^k re-checks into O(k).

      Γ is deliberately *not* part of the key (branch rules inject
      branch-distinguishing facts, so exact-Γ keys would never hit at a
      join).  Instead, every Γ interaction the subtree performed —
      side-condition verdicts and rule-level [ri_prove] checks — is
      recorded as a probe and re-validated against the current Γ before
      a hit is accepted; any difference falls back to a fresh solve.
      Each probe stores its hypotheses as a delta above the frame's base
      Γ (contexts only grow by prepending, so the delta is the physical
      prefix), rebased onto the Γ at hit time.

      Only [Ok] results are stored, and only when the subtree
      instantiated no pre-existing evar (tracked by an id watermark
      against {!Evar.t.min_inst}) — an entry must describe a
      self-contained proof whose only external reads went through the
      key or the probes.  On a hit the replay realigns every observable
      side effect: fresh-name and evar-id counters are skipped forward,
      instantiation counts credited, the step budget charged, and the
      recorded per-frame {!Stats.t} merged — so Figure-7 numbers,
      budgets and downstream naming are identical to a memo-off run. *)

  type probe =
    | PSolve of {
        delta : prop list;  (** hypotheses above the frame base *)
        phi : prop;
        verdict : Registry.verdict;
      }
    | PProve of { delta : prop list; phi : prop; result : bool }

  type memo_entry = {
    e_deriv : Deriv.node;
    e_stats : Stats.t;  (** the subtree's counters, frozen at store *)
    e_probes : probe list;  (** chronological *)
    e_names : int;  (** fresh names the subtree drew *)
    e_evar_ids : int;  (** evar ids the subtree allocated *)
    e_insts : int;  (** evar instantiations it performed *)
    e_steps : int;  (** budget steps it consumed *)
    e_loc : Rc_util.Srcloc.t option;
    e_loc_changed : bool;
    e_head : string option;
    e_head_changed : bool;
  }

  (** One open recording: pushed when a memoizable goal misses, popped
      when its subtree completes.  Frames nest (a goto inside a goto);
      probes are recorded into every open frame, each against its own
      base. *)
  type frame = {
    fr_key : string;
    fr_base : prop list;  (** ctx.props at open — the probe-delta base *)
    fr_saved_stats : Stats.t;  (** the enclosing collector, swapped out *)
    fr_names0 : int;
    fr_evar0 : int;  (** evar-id watermark: the store gate *)
    fr_insts0 : int;
    fr_steps0 : int;
    fr_min_saved : int;  (** enclosing [min_inst], restored with min *)
    fr_loc0 : Rc_util.Srcloc.t option;
    fr_head0 : string option;
    mutable fr_probes : probe list;  (** reversed *)
    mutable fr_poisoned : bool;
        (** set when a probe cannot be expressed (base not reachable, or
            an evar-laden [ri_prove]) — solve normally, store nothing *)
  }

  type memo = {
    m_table : (string, memo_entry) Hashtbl.t;
    mutable m_frames : frame list;  (** innermost first *)
  }

  (* ---------------------------------------------------------------- *)
  (* Proof-failure forensics                                            *)
  (* ---------------------------------------------------------------- *)

  (** One open basic-goal frame of the forensic goal stack: the goal
      being solved, the bucket rules rejected so far (guards returned
      [None]) and the rule that committed, if any.  Frames exist only
      when forensics are enabled — the disabled path allocates nothing
      per basic goal, mirroring the Obs discipline. *)
  type fx_frame = {
    fxf_goal : L.f;
    mutable fxf_rejected : string list;  (** reversed trial order *)
    mutable fxf_matched : string option;
  }

  (** Per-run forensic recorder: the live basic-goal stack (innermost
      first) and a bounded ring of recent rule applications.  The
      snapshot is taken inside {!fail}, before unwinding pops the
      frames. *)
  type fx_state = {
    mutable fx_stack : fx_frame list;
    fx_ring : string array;
    mutable fx_ring_n : int;  (** total pushes; head = n mod size *)
  }

  (** Engine tuning knobs.  [o_memo] is the [--memo] flag: it never
      changes results, only speed.  [o_fx] enables proof-failure
      forensics ([--explain-failure]): a derivation snapshot, bounded by
      {!Report.default_fx_limits}, attached to the failure report.  Like
      memoization it never changes verdicts — it only enriches failure
      diagnostics.  [o_judgments] prints each derivation node's
      judgment, atom or binder into its [d_info] ([--deriv]).  Off, the
      nodes carry exactly what the certificate checker reads: the case,
      side conditions, hypotheses and tactics, and branch labels. *)
  type opts = {
    o_memo : bool;
    o_fx : bool;
    o_judgments : bool;
  }

  let default_opts = { o_memo = false; o_fx = false; o_judgments = false }

  (** Per-function memo-table bound: beyond it, lookups still hit but no
      new entry is stored. *)
  let memo_max = 4096

  type st = {
    evars : Evar.t;
    mutable stats : Stats.t;
        (** mutable because memo frames swap in a per-frame collector *)
    gen : Rc_util.Gensym.t;
    index : index;
    registry : Registry.t;  (** side-condition discharge configuration *)
    gs : Evar.simp_cfg;  (** goal-simplification configuration *)
    env : L.env;  (** language environment handed to rules *)
    tactics : string list;
    budget : Rc_util.Budget.t;
    obs : Rc_util.Obs.t;
        (** this check's observability handle ({!Rc_util.Obs.off} when
            disabled — every guard below is then one pattern match) *)
    memo : memo option;  (** [Some] iff within-run memoization is on *)
    fx : fx_state option;  (** [Some] iff forensics capture is on *)
    judgments : bool;  (** {!opts.o_judgments} *)
    rule_counts : int array;
        (** applications by rule ordinal ({!index.idx_names}) not yet
            credited to [stats.rules_used] *)
    mutable counted : int list;  (** ordinals with a nonzero count *)
    mutable cur_loc : Rc_util.Srcloc.t option;
    mutable cur_head : string option;  (** head of the last basic goal *)
  }

  let resolve st t = Evar.resolve st.evars t
  let resolve_prop st p = Evar.resolve_prop st.evars p
  let resolve_atom st a = L.resolve_atom (resolve st) a

  (** A Δ entry of an atom resolved just now: fresh until the next
      instantiation, since resolving a resolved atom changes nothing. *)
  let resolved_entry st a =
    { d_atom = a; d_res = a; d_at = st.evars.Evar.instantiations }

  (** The entry's atom, resolved under the current evar store. *)
  let resolved st (e : dentry) : L.atom =
    let now = st.evars.Evar.instantiations in
    if e.d_at <> now then begin
      e.d_res <- resolve_atom st e.d_atom;
      e.d_at <- now
    end;
    e.d_res

  (** Credit the pending per-ordinal counts to [st.stats.rules_used]. *)
  let flush_rule_counts st =
    List.iter
      (fun o ->
        Stats.add_rule_uses st.stats st.index.idx_names.(o) st.rule_counts.(o);
        st.rule_counts.(o) <- 0)
      st.counted;
    st.counted <- []

  let count_rule st o =
    st.stats.Stats.rule_apps <- st.stats.Stats.rule_apps + 1;
    let n = st.rule_counts.(o) in
    if n = 0 then st.counted <- o :: st.counted;
    st.rule_counts.(o) <- n + 1

  (* [st.stats] only holds the innermost frame's counters while memo
     frames are open; diagnostics want the run total. *)
  let total_rule_apps st =
    let base = st.stats.Stats.rule_apps in
    match st.memo with
    | None -> base
    | Some m ->
        List.fold_left
          (fun acc fr -> acc + fr.fr_saved_stats.Stats.rule_apps)
          base m.m_frames

  (** [props_above props base] is the prefix of [props] above [base],
      found by physical equality — contexts only ever grow by prepending,
      so an open frame's base is a tail of every later context in its
      subtree. *)
  let props_above (props : prop list) (base : prop list) : prop list option =
    let rec go acc l =
      if l == base then Some (List.rev acc)
      else match l with [] -> None | p :: rest -> go (p :: acc) rest
    in
    go [] props

  (** Record a Γ interaction into every open memo frame.  [poison ()]
      marks the interaction as unexpressible (an evar-laden [ri_prove]
      whose result cannot be faithfully revalidated later): the open
      frames still solve normally but will not be stored.  It is asked
      only when a frame is open. *)
  let record_probe st ctx ~(poison : unit -> bool) (mk : prop list -> probe)
      : unit =
    match st.memo with
    | None -> ()
    | Some { m_frames = []; _ } -> ()
    | Some m ->
        let poison = poison () in
        List.iter
          (fun fr ->
            if not fr.fr_poisoned then
              if poison then fr.fr_poisoned <- true
              else
                match props_above ctx.props fr.fr_base with
                | None -> fr.fr_poisoned <- true
                | Some delta -> fr.fr_probes <- mk delta :: fr.fr_probes)
          m.m_frames

  let rule_input st ctx =
    {
      ri_env = st.env;
      ri_fresh =
        (fun ?hint s ->
          Var (Rc_util.Gensym.fresh ?hint st.gen, s));
      ri_evar = (fun ?hint s -> Evar.fresh ?hint:(Some (Option.value ~default:"x" hint)) st.evars s);
      ri_resolve = resolve st;
      ri_resolve_prop = resolve_prop st;
      ri_props = ctx.props;
      ri_prove =
        (fun p ->
          let phi = resolve_prop st p in
          let result = Registry.default_prove st.registry ~hyps:ctx.props phi in
          (* an evar-laden check cannot be revalidated at a later hit
             site (the frame-local evar ids differ), so it poisons the
             open frames instead of becoming a probe *)
          record_probe st ctx
            ~poison:(fun () -> has_evars_prop phi)
            (fun delta -> PProve { delta; phi; result });
          result);
      ri_peek =
        (fun pred ->
          List.find_map
            (fun e -> if pred (resolved st e) then Some e.d_atom else None)
            ctx.delta);
    }

  (** A derivation node's [d_info]: [x] printed by [pp], or nothing when
      the run did not ask for judgments. *)
  let judgment st pp x =
    if st.judgments then Some (Fmt.str "%a" pp x) else None

  let pp_delta ctx =
    List.map (fun e -> Fmt.str "%a" L.pp_atom e.d_atom) ctx.delta
    @ List.map (fun p -> Fmt.str "⌜%a⌝" Term.pp_prop p) ctx.props

  (* ---------------------------------------------------------------- *)
  (* Forensic capture                                                   *)
  (* ---------------------------------------------------------------- *)

  (* [fx_push]/[fx_pop] bracket each basic-goal solve; the caller pops
     on both the success and the exception path — the snapshot is taken
     inside {!fail} *before* unwinding, so the stack is intact there. *)
  let fx_push st (f : L.f) : fx_frame option =
    match st.fx with
    | None -> None
    | Some fx ->
        let fr = { fxf_goal = f; fxf_rejected = []; fxf_matched = None } in
        fx.fx_stack <- fr :: fx.fx_stack;
        Some fr

  let fx_pop st =
    match st.fx with
    | None -> ()
    | Some fx -> (
        match fx.fx_stack with
        | _ :: rest -> fx.fx_stack <- rest
        | [] -> ())

  let fx_record_rejected (fr : fx_frame option) rname =
    match fr with
    | None -> ()
    | Some fr -> fr.fxf_rejected <- rname :: fr.fxf_rejected

  let fx_record_matched st (fr : fx_frame option) rname =
    match (st.fx, fr) with
    | Some fx, Some fr ->
        fr.fxf_matched <- Some rname;
        fx.fx_ring.(fx.fx_ring_n mod Array.length fx.fx_ring) <- rname;
        fx.fx_ring_n <- fx.fx_ring_n + 1
    | _ -> ()

  (** Keep the first [keep - keep/2] and last [keep/2] of [l], with the
      elided middle count — both the root and the failure frontier stay
      visible however deep the stack was. *)
  let bound_middle keep (l : 'a list) : 'a list * int =
    let n = List.length l in
    if n <= keep then (l, 0)
    else begin
      let head_keep = keep - (keep / 2) in
      let tail_keep = keep - head_keep in
      let kept =
        List.filteri (fun i _ -> i < head_keep || i >= n - tail_keep) l
      in
      (kept, n - keep)
    end

  (** The committed rule's rejection reason: first-match-commits means
      the failure happened *inside* its premise, and the failure kind
      says how. *)
  let fx_reason_of_kind (kind : Report.kind) : string =
    match kind with
    | Report.Unsolved_side_condition p ->
        Fmt.str "side condition unsolved: %s (solver verdict: unsolved)"
          (prop_to_string p)
    | Report.Evar_stuck p ->
        Fmt.str "side condition stuck on uninstantiated evars: %s"
          (prop_to_string p)
    | Report.No_rule_applies _ -> "no rule in the subgoal's bucket applied"
    | Report.No_ownership a -> "subgoal failed: no ownership for " ^ a
    | Report.Resource_exhausted { exh; _ } ->
        "subgoal exhausted the budget: "
        ^ Rc_util.Budget.exhaustion_label exh
    | Report.Frontend _ | Report.Checker_fault _ | Report.Injected_fault _ ->
        "subgoal failed"

  (** One printed line per evar entry: hint, id, sort and the resolved
      instantiation (or its sealed/uninstantiated status). *)
  let fx_evar_lines st lim : string list * int =
    let entries =
      Hashtbl.fold (fun id e acc -> (id, e) :: acc) st.evars.Evar.entries []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    let n = List.length entries in
    let keep = lim.Report.fxl_evars in
    let elided = if n > keep then n - keep else 0 in
    let kept = List.filteri (fun i _ -> i >= elided) entries in
    let line (id, (e : Evar.entry)) =
      let status =
        match e.Evar.inst with
        | Some t ->
            " := " ^ term_to_string (Evar.resolve st.evars t)
        | None ->
            if e.Evar.sealed then " (sealed, uninstantiated)"
            else " (uninstantiated)"
      in
      Fmt.str "?%s#%d : %s%s" e.Evar.e_hint id
        (Sort.to_string e.Evar.e_sort)
        status
    in
    (List.map line kept, elided)

  (** Assemble the bounded derivation snapshot at the point of failure
      (the frames are still on the stack; unwinding pops them after). *)
  let fx_snapshot st (fx : fx_state) (kind : Report.kind) : Report.forensics
      =
    let lim = Report.default_fx_limits in
    let frames = List.rev fx.fx_stack in
    let goal_stack, stack_elided =
      bound_middle lim.Report.fxl_depth
        (List.map (fun fr -> Fmt.str "%a" L.pp_f fr.fxf_goal) frames)
    in
    let candidates, cand_elided =
      match fx.fx_stack with
      | [] -> ([], 0)
      | innermost :: _ ->
          let rejected =
            List.rev_map (fun r -> (r, "guard failed")) innermost.fxf_rejected
          in
          let n = List.length rejected in
          let keep = lim.Report.fxl_width in
          let rejected, elided =
            if n <= keep then (rejected, 0)
            else (List.filteri (fun i _ -> i < keep) rejected, n - keep)
          in
          let matched =
            match innermost.fxf_matched with
            | Some r -> [ (r, fx_reason_of_kind kind) ]
            | None -> []
          in
          (rejected @ matched, elided)
    in
    let evars, evars_elided = fx_evar_lines st lim in
    let ring_size = Array.length fx.fx_ring in
    let count = min fx.fx_ring_n ring_size in
    let recent =
      List.init count (fun i ->
          fx.fx_ring.((fx.fx_ring_n - count + i) mod ring_size))
    in
    {
      Report.fx_goal_stack = goal_stack;
      fx_goal_stack_elided = stack_elided;
      fx_stuck_head = st.cur_head;
      fx_candidates = candidates;
      fx_candidates_elided = cand_elided;
      fx_evars = evars;
      fx_evars_elided = evars_elided;
      fx_recent_rules = recent;
    }

  let fail st ctx kind =
    let forensics =
      match st.fx with
      | None -> None
      | Some fx -> Some (fx_snapshot st fx kind)
    in
    Report.fail ?loc:st.cur_loc ~trail:ctx.trail ~context:(pp_delta ctx)
      ?forensics kind

  (* budget exhaustion: abort the search with a structured diagnostic
     recording where it stood (§5's predictability, made enforceable) *)
  let exhausted st ctx (exh : Rc_util.Budget.exhaustion) =
    if Rc_util.Obs.on st.obs then begin
      let label = Rc_util.Budget.exhaustion_label exh in
      Rc_util.Obs.counter st.obs ("budget." ^ label);
      Rc_util.Obs.instant st.obs ~cat:"budget"
        ~args:
          [
            ("goal_head", Option.value ~default:"?" st.cur_head);
            ("rule_apps", string_of_int (total_rule_apps st));
          ]
        ("budget:" ^ label)
    end;
    fail st ctx
      (Report.Resource_exhausted
         {
           exh;
           goal_head = st.cur_head;
           rule_apps = total_rule_apps st;
           elapsed = Rc_util.Budget.elapsed st.budget;
         })

  let check_budget st ctx =
    match Rc_util.Budget.step st.budget with
    | Some ex -> exhausted st ctx ex
    | None -> ()

  (* ---------------------------------------------------------------- *)
  (* Memo frames                                                       *)
  (* ---------------------------------------------------------------- *)

  (** The memo key for a basic goal, or [None] when the judgment is not
      memoizable: the judgment's structural encoding
      ({!L.memo_key_of_f}, evars resolved) followed by that of the
      resolved Δ in order — order matters because context lookup takes
      the first related atom.  When the budget bounds recursion depth
      the current depth joins the key, since the subtree's depth checks
      then depend on where it starts. *)
  let memo_key st (depth : int) ctx (f : L.f) : string option =
    match L.memo_key_of_f (resolve st) f with
    | None -> None
    | Some key ->
        let w = Rc_util.Enc.create 256 in
        key w;
        Rc_util.Enc.enc_list
          (fun w e -> L.enc_atom w (resolved st e))
          w ctx.delta;
        (match Rc_util.Budget.depth_limit st.budget with
        | Some _ -> Rc_util.Enc.enc_int w depth
        | None -> ());
        Some (Rc_util.Enc.contents w)

  (** Re-check every Γ interaction of a candidate entry against the
      current Γ.  Runs without observers and records nothing: a passing
      validation must leave no trace of its own (the entry's recorded
      stats and probes are replayed separately), and a failing one falls
      back to a fresh solve. *)
  let memo_validate st ctx (e : memo_entry) : bool =
    List.for_all
      (fun p ->
        match p with
        | PSolve { delta; phi; verdict } ->
            Registry.solve st.registry ~obs:Rc_util.Obs.off
              ~tactics:st.tactics ~hyps:(delta @ ctx.props) phi
            = verdict
        | PProve { delta; phi; result } ->
            Registry.default_prove st.registry ~hyps:(delta @ ctx.props) phi
            = result)
      e.e_probes

  let memo_open st (m : memo) (key : string) ctx : frame =
    flush_rule_counts st;
    let fr =
      {
        fr_key = key;
        fr_base = ctx.props;
        fr_saved_stats = st.stats;
        fr_names0 = Rc_util.Gensym.count st.gen;
        fr_evar0 = Evar.next_id st.evars;
        fr_insts0 = st.evars.Evar.instantiations;
        fr_steps0 = Rc_util.Budget.steps st.budget;
        fr_min_saved = st.evars.Evar.min_inst;
        fr_loc0 = st.cur_loc;
        fr_head0 = st.cur_head;
        fr_probes = [];
        fr_poisoned = false;
      }
    in
    st.stats <- Stats.create ();
    st.evars.Evar.min_inst <- max_int;
    m.m_frames <- fr :: m.m_frames;
    fr

  (* Merge the frame's counters back into the enclosing collector and
     restore the instantiation watermark, propagating the frame-period
     minimum so outer frames still see instantiations made inside. *)
  let memo_pop st (m : memo) (fr : frame) : Stats.t =
    (match m.m_frames with
    | top :: rest when top == fr -> m.m_frames <- rest
    | _ -> invalid_arg "Engine.memo_pop: frame stack out of order");
    flush_rule_counts st;
    let child = st.stats in
    st.stats <- fr.fr_saved_stats;
    Stats.merge st.stats child;
    st.evars.Evar.min_inst <- min fr.fr_min_saved st.evars.Evar.min_inst;
    child

  let memo_abort st (m : memo) (fr : frame) : unit =
    ignore (memo_pop st m fr)

  (** Close a successfully solved frame and store its entry — unless the
      frame was poisoned, the subtree instantiated a pre-existing evar
      (its proof then depends on state the key cannot see), or the table
      is full. *)
  let memo_close st (m : memo) (fr : frame) (d : Deriv.node) : unit =
    let frame_min = st.evars.Evar.min_inst in
    let child = memo_pop st m fr in
    let storable =
      (not fr.fr_poisoned)
      && frame_min >= fr.fr_evar0
      && Hashtbl.length m.m_table < memo_max
    in
    if storable then begin
      Hashtbl.replace m.m_table fr.fr_key
        {
          e_deriv = d;
          e_stats = child;
          e_probes = List.rev fr.fr_probes;
          e_names = Rc_util.Gensym.count st.gen - fr.fr_names0;
          e_evar_ids = Evar.next_id st.evars - fr.fr_evar0;
          e_insts = st.evars.Evar.instantiations - fr.fr_insts0;
          e_steps = Rc_util.Budget.steps st.budget - fr.fr_steps0;
          e_loc = st.cur_loc;
          e_loc_changed = st.cur_loc <> fr.fr_loc0;
          e_head = st.cur_head;
          e_head_changed = st.cur_head <> fr.fr_head0;
        };
      if Rc_util.Obs.on st.obs then Rc_util.Obs.counter st.obs "memo.store"
    end

  (** Replay a validated entry: realign every observable side effect the
      subsumed search would have had, then return its derivation. *)
  let memo_hit st (m : memo) ctx (e : memo_entry) : Deriv.node =
    (* rebase the entry's probes into the enclosing recordings: a frame
       stored from here must revalidate them too, against its own base *)
    if e.e_probes <> [] then
      List.iter
        (fun fr ->
          if not fr.fr_poisoned then
            match props_above ctx.props fr.fr_base with
            | None -> fr.fr_poisoned <- true
            | Some outer ->
                List.iter
                  (fun p ->
                    let p' =
                      match p with
                      | PSolve r -> PSolve { r with delta = r.delta @ outer }
                      | PProve r -> PProve { r with delta = r.delta @ outer }
                    in
                    fr.fr_probes <- p' :: fr.fr_probes)
                  e.e_probes)
        m.m_frames;
    Rc_util.Gensym.skip st.gen e.e_names;
    Evar.skip_ids st.evars e.e_evar_ids;
    Evar.credit_instantiations st.evars e.e_insts;
    (* the Figure-7 columns merge additively (a replay must report
       exactly what re-solving would have), but the memo counters are
       *live-site* diagnostics: one replay event here, subsuming the
       entry's (fully expanded) applications.  The entry's own recorded
       counters must not compound through nested replays — that would
       let "saved" exceed the total and make hit counts exponential in
       the nesting depth. *)
    let hits0 = st.stats.Stats.memo_hits
    and saved0 = st.stats.Stats.memo_saved_apps in
    Stats.merge st.stats e.e_stats;
    st.stats.Stats.memo_hits <- hits0 + 1;
    st.stats.Stats.memo_saved_apps <- saved0 + e.e_stats.Stats.rule_apps;
    if e.e_loc_changed then st.cur_loc <- e.e_loc;
    if e.e_head_changed then st.cur_head <- e.e_head;
    (match Rc_util.Budget.charge st.budget e.e_steps with
    | Some ex -> exhausted st ctx ex
    | None -> ());
    e.e_deriv

  (* ---------------------------------------------------------------- *)
  (* Side conditions (goal case 6c + evar heuristics of §5)            *)
  (* ---------------------------------------------------------------- *)

  let rec discharge st ctx (phi : prop) : (prop * Registry.verdict) list =
    (* the simplification/unification heuristics recurse too: they burn
       budget so a divergent simp loop cannot hang the checker *)
    check_budget st ctx;
    let phi =
      Simp.simp_prop ~hooks:st.registry.Registry.hooks (resolve_prop st phi)
    in
    match phi with
    | PTrue -> []
    | PAnd (a, b) -> discharge st ctx a @ discharge st ctx b
    | _ ->
        if has_evars_prop phi then begin
          (* Heuristic 1: equalities are discharged by unification with the
             seals removed. *)
          let unified =
            match phi with
            | PEq (a, b) -> Evar.unify ~unseal:true st.evars a b
            | _ -> false
          in
          if unified then
            [
              ( Simp.simp_prop ~hooks:st.registry.Registry.hooks
                  (resolve_prop st phi),
                Registry.Auto );
            ]
          else
            (* Heuristic 2: goal simplification rules. *)
            match Evar.apply_goal_simp ~cfg:st.gs st.evars phi with
            | Evar.Progress phi' -> discharge st ctx phi'
            | Evar.NoProgress ->
                fail st ctx (Report.Evar_stuck phi)
        end
        else
          let verdict =
            Registry.solve st.registry ~obs:st.obs ~tactics:st.tactics
              ~hyps:ctx.props phi
          in
          (match verdict with
          | Registry.Unsolved ->
              fail st ctx (Report.Unsolved_side_condition phi)
          | v -> Stats.record_side st.stats v);
          record_probe st ctx ~poison:(fun () -> false) (fun delta ->
              PSolve { delta; phi; verdict });
          [ (phi, verdict) ]

  (* ---------------------------------------------------------------- *)
  (* The interpreter                                                   *)
  (* ---------------------------------------------------------------- *)

  let rec solve (st : st) (depth : int) (ctx : ctx) (g : goal) : Deriv.node =
    (* every goal step pays one unit of fuel and re-checks the deadline
       and the depth bound; exhaustion raises a structured report *)
    check_budget st ctx;
    (match Rc_util.Budget.check_depth st.budget depth with
    | Some ex -> exhausted st ctx ex
    | None -> ());
    let solve ctx g = solve st (depth + 1) ctx g in
    match g with
    (* case 1 *)
    | Goal.True_ -> Deriv.make "done" []
    (* case 2 *)
    | Goal.AndG branches ->
        let children =
          List.map
            (fun (label, g) ->
              let ctx =
                match label with
                | Some l -> { ctx with trail = l :: ctx.trail }
                | None -> ctx
              in
              let d = solve ctx g in
              match label with
              | Some l -> Deriv.make ~info:l "branch" [ d ]
              | None -> d)
            branches
        in
        Deriv.make "and" children
    (* case 3 *)
    | Goal.All (x, s, body) ->
        let y = Rc_util.Gensym.fresh ~hint:x st.gen in
        let ctx = { ctx with vars = (y, s) :: ctx.vars } in
        let d = solve ctx (body (Var (y, s))) in
        Deriv.make
          ?info:(if st.judgments then Some (Rc_util.Gensym.base y) else None)
          "intro-forall" [ d ]
    (* case 4 *)
    | Goal.Ex (x, s, body) ->
        let e = Evar.fresh ~hint:x st.evars s in
        let d = solve ctx (body e) in
        Deriv.make
          ?info:
            (if st.judgments then Some (term_to_string (resolve st e))
             else None)
          "intro-exists" [ d ]
    (* case 5 *)
    | Goal.Basic f -> begin
        match st.memo with
        | None -> solve_basic st depth ctx f
        | Some m -> (
            match memo_key st depth ctx f with
            | None -> solve_basic st depth ctx f
            | Some key -> (
                match Hashtbl.find_opt m.m_table key with
                | Some e when memo_validate st ctx e -> memo_hit st m ctx e
                | found ->
                    (if Rc_util.Obs.on st.obs then
                       Rc_util.Obs.counter st.obs
                         (match found with
                         | None -> "memo.miss"
                         | Some _ -> "memo.invalid"));
                    let fr = memo_open st m key ctx in
                    (match solve_basic st depth ctx f with
                    | d ->
                        memo_close st m fr d;
                        d
                    | exception ex ->
                        memo_abort st m fr;
                        raise ex)))
      end
    (* case 6 *)
    | Goal.Star (h, g') -> begin
        match h with
        | Goal.LTrue -> solve ctx g'
        | Goal.LStar (h1, h2) -> solve ctx (Goal.Star (h1, Goal.Star (h2, g')))
        | Goal.LEx (x, s, body) ->
            solve ctx (Goal.Ex (x, s, fun t -> Goal.Star (body t, g')))
        | Goal.LProp phi ->
            let side = discharge st ctx phi in
            (* proven facts strengthen Γ for later side conditions *)
            let ctx =
              { ctx with props = List.map fst side @ ctx.props }
            in
            let d = solve ctx g' in
            Deriv.make ~side ~hyps:ctx.props ~tactics:st.tactics
              ?loc:st.cur_loc "side-condition" [ d ]
        | Goal.LAtom a ->
            let a = resolve_atom st a in
            let found =
              match
                Rc_util.Xlist.find_remove
                  (fun e -> L.related ~exact:true (resolved st e) a)
                  ctx.delta
              with
              | Some r -> Some r
              | None ->
                  Rc_util.Xlist.find_remove
                    (fun e -> L.related ~exact:false (resolved st e) a)
                    ctx.delta
            in
            (match found with
            | None ->
                fail st ctx (Report.No_ownership (Fmt.str "%a" L.pp_atom a))
            | Some (e, delta) ->
                let ctx = { ctx with delta } in
                let d =
                  solve ctx (Goal.Basic (L.mk_subsume (resolved st e) a g'))
                in
                Deriv.make
                  ?info:
                    (if st.judgments then
                       Some (Fmt.str "%a <: %a" L.pp_atom e.d_atom L.pp_atom a)
                     else None)
                  "ctx-lookup" [ d ])
      end
    (* case 7 *)
    | Goal.Wand (h, g') -> begin
        match h with
        | Goal.LTrue -> solve ctx g'
        | Goal.LStar (h1, h2) -> solve ctx (Goal.Wand (h1, Goal.Wand (h2, g')))
        | Goal.LEx (x, s, body) ->
            solve ctx (Goal.All (x, s, fun t -> Goal.Wand (body t, g')))
        | Goal.LProp phi -> begin
            let hooks = st.registry.Registry.hooks in
            let phi = Simp.simp_prop ~hooks (resolve_prop st phi) in
            match Simp.destruct_hyp ~hooks phi with
            | None ->
                (* contradictory hypothesis: goal holds vacuously *)
                Deriv.make ?info:(judgment st pp_prop phi) "vacuous" []
            | Some hyps ->
                let ctx = { ctx with props = hyps @ ctx.props } in
                let d = solve ctx g' in
                Deriv.make ?info:(judgment st pp_prop phi) "intro-hyp" [ d ]
          end
        | Goal.LAtom a ->
            let a = resolve_atom st a in
            let ctx = { ctx with delta = resolved_entry st a :: ctx.delta } in
            let d = solve ctx g' in
            Deriv.make ?info:(judgment st L.pp_atom a) "intro-atom" [ d ]
      end
    | Goal.FindOpt { descr; pred; cont } -> (
        match
          Rc_util.Xlist.find_remove
            (fun e -> pred (resolve st) (resolved st e))
            ctx.delta
        with
        | None ->
            let d = solve ctx (cont None) in
            Deriv.make
              ?info:
                (if st.judgments then Some (descr () ^ " (absent)") else None)
              "find-opt" [ d ]
        | Some (e, delta) ->
            let a = resolved st e in
            let ctx = { ctx with delta } in
            let d = solve ctx (cont (Some a)) in
            Deriv.make ?info:(judgment st L.pp_atom a) "find-opt" [ d ])
    (* find_in_context extension *)
    | Goal.Find { descr; pred; cont } ->
        let found =
          Rc_util.Xlist.find_remove
            (fun e -> pred (resolve st) (resolved st e))
            ctx.delta
        in
        (match found with
        | None -> fail st ctx (Report.No_ownership (descr ()))
        | Some (e, delta) ->
            let a = resolved st e in
            let ctx = { ctx with delta } in
            let d = solve ctx (cont a) in
            Deriv.make ?info:(judgment st L.pp_atom a) "find" [ d ])

  (* goal case 5 proper: rule lookup and first-match-commits application *)
  and solve_basic (st : st) (depth : int) (ctx : ctx) (f : L.f) : Deriv.node =
    let loc = L.loc_of_f f in
    (match loc with Some _ -> st.cur_loc <- loc | None -> ());
    let id = L.head_id_of_f f in
    let bucket = st.index.idx_by_id.(id) and head = L.head_names.(id) in
    st.cur_head <- Some head;
    Rc_util.Faultsim.point st.registry.Registry.fault "rule_lookup";
    let ri = rule_input st ctx in
    let fr = fx_push st f in
    let rec try_rules = function
      | [] -> fail st ctx (Report.No_rule_applies (Fmt.str "%a" L.pp_f f))
      | (o, r) :: rest -> (
          match r.apply ri f with
          | Some premise ->
              count_rule st o;
              fx_record_matched st fr r.rname;
              let d =
                if Rc_util.Obs.on st.obs then begin
                  (* span over the whole premise solve: the browsable
                     proof-search tree.  Self-time (span minus nested
                     rule spans) feeds the profiler; the exception
                     handler keeps the trace balanced when a nested
                     goal fails or exhausts its budget. *)
                  let name = st.index.idx_nodes.(o) in
                  Rc_util.Obs.enter_span st.obs ~cat:"rule"
                    ~key:("rule.self_ns." ^ r.rname)
                    ~args:[ ("head", head) ]
                    name;
                  match solve st (depth + 1) ctx premise with
                  | d ->
                      Rc_util.Obs.exit_span st.obs ~cat:"rule" name;
                      d
                  | exception e ->
                      Rc_util.Obs.exit_span st.obs ~cat:"rule" name;
                      raise e
                end
                else solve st (depth + 1) ctx premise
              in
              Deriv.make ?info:(judgment st L.pp_f f) ?loc
                st.index.idx_nodes.(o) [ d ]
          | None ->
              fx_record_rejected fr r.rname;
              try_rules rest)
    in
    match try_rules bucket with
    | d ->
        fx_pop st;
        d
    | exception e ->
        (* the snapshot (if any) was taken inside [fail] with the stack
           intact; unwinding just keeps the stack consistent for any
           enclosing handler *)
        fx_pop st;
        raise e

  (* ---------------------------------------------------------------- *)
  (* Entry point                                                       *)
  (* ---------------------------------------------------------------- *)

  type result = {
    deriv : Deriv.node;
    stats : Stats.t;
  }

  let run_indexed (index : index) ?(registry = Registry.default)
      ?(gs = Evar.default_simp_cfg) ~(env : L.env) ~(tactics : string list)
      ?(budget = Rc_util.Budget.unlimited) ?(obs = Rc_util.Obs.off)
      ?(opts = default_opts) ?(ctx = empty_ctx) (g : goal) :
      (result, Report.t) Stdlib.result =
    (* one solver scope per check: the function's side conditions share
       their hypotheses, which are then prepared once *)
    let registry = Registry.scoped registry in
    let st =
      {
        evars = Evar.create ?fault:registry.Registry.fault ~obs ();
        stats = Stats.create ();
        gen = Rc_util.Gensym.create ();
        index;
        registry;
        gs;
        env;
        tactics;
        budget = Rc_util.Budget.start budget;
        obs;
        memo =
          (if opts.o_memo then
             Some
               { m_table = Hashtbl.create 256; m_frames = [] }
           else None);
        fx =
          (if opts.o_fx then
             Some
               {
                 fx_stack = [];
                 fx_ring = Array.make Report.default_fx_limits.fxl_recent "";
                 fx_ring_n = 0;
               }
           else None);
        judgments = opts.o_judgments;
        rule_counts = Array.make index.idx_size 0;
        counted = [];
        cur_loc = None;
        cur_head = None;
      }
    in
    (* the run's proof work reaches the metrics only here, on every exit
       path: [st.stats] is the root collector again once the unwinding
       has closed every memo frame *)
    let finish () =
      flush_rule_counts st;
      st.stats.Stats.evar_insts <- st.evars.Evar.instantiations;
      Stats.flush st.stats obs
    in
    let outcome =
      match solve st 0 ctx g with
      | d -> Ok d
      | exception Report.Error e -> Error e
      | exception Stack_overflow ->
          (* catch here (rather than only in the driver) so the diagnostic
             still carries the source location of the judgment in flight *)
          Error
            (Report.make ?loc:st.cur_loc
               (Report.Checker_fault "Stack_overflow during proof search"))
      | exception e ->
          (* an injected fault or other escape: flush the statistics and
             let the driver's isolation boundary classify it *)
          finish ();
          raise e
    in
    finish ();
    Registry.flush_scope registry obs;
    Result.map (fun d -> { deriv = d; stats = st.stats }) outcome

  (** One-shot entry point: indexes [cfg.rules] and runs.  Callers that
      check many functions against the same rule set should build the
      {!index} once ({!index_rules}) and use {!run_indexed}. *)
  let run (cfg : cfg) ?registry ?gs ~(env : L.env) ?budget ?ctx (g : goal) :
      (result, Report.t) Stdlib.result =
    run_indexed (index_rules cfg.rules) ?registry ?gs ~env ~tactics:cfg.tactics
      ?budget ?ctx g
end
