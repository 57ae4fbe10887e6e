(** The human-readable [--profile] summary: where a check's time and
    rule applications went, rendered from a {!Metrics.t} registry.

    Sections (each omitted when its data is absent):
    - the phase table (parse / elaborate / check wall-clock);
    - the top-N hottest typing rules by self-time, with application
      counts (self-time = span time minus nested rule spans, so the
      column sums to real time spent *in* each rule's premises and side
      conditions rather than on the stack).  The count is the
      [rule.self_ns.*] timer's: the applications actually run, which a
      memo replay does not add to;
    - the solver breakdown (default solver, named solvers, lemma
      matching) with call counts and verdict-relevant time, and the
      linear-arithmetic work counters ([solver.lia.*]);
    - the top-N hottest functions by wall-clock;
    - cache, evar and budget counters.

    This is a renderer only: the same registry as JSON is
    {!Metrics.to_json}, the one encoder, which both the [--json]
    report's [metrics] block and the run ledger's [metrics] field
    use. *)

let ms ns = Int64.to_float ns /. 1e6

let top_n n l = List.filteri (fun i _ -> i < n) l

let pp ?(top = 10) ppf (m : Metrics.t) =
  if not (Metrics.on m) then
    Fmt.pf ppf "profile: metrics were not collected@."
  else begin
    Fmt.pf ppf "== profile ==@.";
    (* phases *)
    let phases = Metrics.timers_with_prefix m ~prefix:"phase." in
    if phases <> [] then begin
      Fmt.pf ppf "@.phases:@.";
      List.iter
        (fun (name, _count, total) ->
          Fmt.pf ppf "  %-12s %10.3f ms@." name (ms total))
        phases
    end;
    (* hottest rules by self-time *)
    let rules = Metrics.timers_with_prefix m ~prefix:"rule.self_ns." in
    if rules <> [] then begin
      let by_self =
        List.sort
          (fun (_, _, a) (_, _, b) -> Int64.compare b a)
          rules
      in
      Fmt.pf ppf "@.hottest rules (self time, top %d of %d):@." top
        (List.length rules);
      Fmt.pf ppf "  %-28s %10s %12s@." "rule" "apps" "self ms";
      List.iter
        (fun (name, apps, self) ->
          Fmt.pf ppf "  %-28s %10d %12.3f@." name apps (ms self))
        (top_n top by_self)
    end;
    (* solver breakdown *)
    let solvers = Metrics.timers_with_prefix m ~prefix:"solver.ns." in
    if solvers <> [] then begin
      Fmt.pf ppf "@.solver time:@.";
      Fmt.pf ppf "  %-28s %10s %12s@." "solver" "calls" "total ms";
      List.iter
        (fun (name, count, total) ->
          Fmt.pf ppf "  %-28s %10d %12.3f@." name count (ms total))
        (List.sort
           (fun (_, _, a) (_, _, b) -> Int64.compare b a)
           solvers)
    end;
    (* the default solver's linear arithmetic (Linarith's scope counters) *)
    let lia name = Metrics.counter m ("solver.lia." ^ name) in
    if lia "queries" > 0 then
      Fmt.pf ppf
        "@.linear arithmetic: %d queries, %d branches refuted, %d given up \
         at a bound@.  hypotheses: %d pushed, %d reused from the stack; \
         Fourier-Motzkin constraints: %d generated, %d kept@."
        (lia "queries") (lia "refuted") (lia "exhausted") (lia "pushed")
        (lia "reused") (lia "fm_generated") (lia "fm_kept");
    (* hottest functions *)
    let fns = Metrics.timers_with_prefix m ~prefix:"fn.ns." in
    if fns <> [] then begin
      let by_time =
        List.sort (fun (_, _, a) (_, _, b) -> Int64.compare b a) fns
      in
      Fmt.pf ppf "@.hottest functions (top %d of %d):@." top
        (List.length fns);
      List.iter
        (fun (name, _, total) ->
          Fmt.pf ppf "  %-28s %12.3f ms@." name (ms total))
        (top_n top by_time)
    end;
    (* scalar counters *)
    let c name = Metrics.counter m name in
    Fmt.pf ppf "@.side conditions: %d auto, %d manual;  evars instantiated: %d@."
      (c "side.auto") (c "side.manual") (c "evar.insts");
    let hits = c "cache.hit" and misses = c "cache.miss" in
    let corrupt = c "cache.corrupt" in
    if hits + misses + corrupt > 0 then
      Fmt.pf ppf "cache: %d hits, %d misses, %d corrupt entries skipped@."
        hits misses corrupt;
    let exhausted = Metrics.counters_with_prefix m ~prefix:"budget." in
    List.iter
      (fun (label, n) ->
        Fmt.pf ppf "budget exhaustion: %s × %d@." label n)
      exhausted
  end
