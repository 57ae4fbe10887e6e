(** The four workloads, their inputs, and the pipeline a closed-loop
    client runs over them: one check at a time, each from source string
    to JSON report under a fresh session, as each [refinedc check]
    invocation does.

    A measured check runs the pipeline with observability off.  A traced
    check runs the same pipeline with a metrics handle, so the time of a
    check can be attributed layer by layer. *)

module Api = Rc_session.Refinedc_api
module Driver = Rc_frontend.Driver
module Elab = Rc_frontend.Elab
module Depgraph = Rc_refinedc.Depgraph
module Obs = Rc_util.Obs
module Metrics = Rc_util.Metrics
module Vercache = Rc_util.Vercache
module Checker = Rc_cert.Checker
module Report = Rc_lithium.Report
module Stats = Rc_lithium.Stats

let pr = Printf.sprintf
let now_ns () = Int64.to_float (Rc_util.Trace.now_ns ())

(* ------------------------------------------------------------------ *)
(* Workloads and their inputs                                          *)
(* ------------------------------------------------------------------ *)

type spec = {
  name : string;
  cert : bool;  (** re-check every derivation: the foundational verdict *)
  edit : bool;  (** edit loop over one file in a warm cache *)
}

(** The real corpus: small checks, so per-file costs (session, frontend,
    certificate, report) show. *)
let studies = { name = "studies"; cert = true; edit = false }

(** The pure solvers take most of the time: a solver change must show
    here. *)
let solver_heavy = { name = "solver_heavy"; cert = false; edit = false }

(** Rule dispatch takes the time and the solvers almost none: an engine
    change shows here, a solver change should not. *)
let engine_heavy = { name = "engine_heavy"; cert = false; edit = false }

(** The developer inner loop: frontend, cache and dependency graph, with
    one function re-proved per check. *)
let edit_loop = { name = "edit_loop"; cert = false; edit = true }

let all = [ studies; solver_heavy; engine_heavy; edit_loop ]
let find name = List.find_opt (fun w -> w.name = name) all

type input = { label : string; src : string; n_fns : int }

let study_files =
  [
    "barrier.c"; "binary_search.c"; "bst_direct.c"; "bst_layered.c";
    "free_list.c"; "hashmap.c"; "linked_list.c"; "mem_alloc.c"; "mpool.c";
    "page_alloc.c"; "queue.c"; "spinlock.c"; "talloc.c";
  ]

let read_study file =
  In_channel.with_open_bin (Filename.concat "case_studies" file)
    In_channel.input_all

(* A case study as an input: its function count is the number of rows
   the known-answer table gives it. *)
let study answers ~label src =
  match Answers.exact_rows answers ~input:label with
  | [] -> failwith (pr "answers.txt has no rows for %s" label)
  | fns -> { label; src; n_fns = List.length fns }

(* The paper's §2.1 buggy allocator spec: [alloc] promises a block only
   when n < a, yet hands one out when n = a. *)
let mem_alloc_bug src =
  let sub = "[[rc::returns(\"{n <= a} @ optional" in
  if not (Rc_util.Xstring.contains_sub src ~sub) then
    failwith "case_studies/mem_alloc.c no longer has the alloc spec to mutate";
  Rc_util.Xstring.replace_first src ~sub
    ~by:"[[rc::returns(\"{n < a} @ optional"

let shuffle rng (l : 'a list) : 'a list =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* One input per size: the seed deals a fixed list of sizes out to a
   family's instances, so the inputs change with the seed and their
   total cost does not. *)
let family rng ~prefix sizes make =
  List.mapi
    (fun i size ->
      let src, n_fns = make size in
      { label = pr "%s_%d.c" prefix i; src; n_fns })
    (shuffle rng sizes)

(** The edit loop's file: a call chain of [edit_fns] functions, each
    weighted with [edit_weight] diamonds. *)
let edit_fns = 24

let edit_weight = 4
let edit_label = "edit/call_chain.c"

let edits_per_sweep = 8

(* The cosmetic constants come from the same rng state every time, so
   only the nonces and the broken body move between edits. *)
let edit_src ~seed ~nonces ?broken () =
  Gen.call_chain
    (Random.State.make [| seed; 3 |])
    ~nonces ?broken ~n:edit_fns ~weight:edit_weight ()

let inputs answers (w : spec) ~seed : input list =
  let rng = Random.State.make [| seed; 0 |] in
  match w.name with
  | "studies" ->
      List.map
        (fun f -> study answers ~label:("studies/" ^ f) (read_study f))
        study_files
      @ [
          study answers ~label:"studies/mem_alloc_bug.c"
            (mem_alloc_bug (read_study "mem_alloc.c"));
        ]
  | "solver_heavy" ->
      (* 9 inputs, each checked once a sweep: with an odd count the
         median lies inside one input's latencies, not in the gap
         between two, where it moved by 14% from run to run *)
      family rng ~prefix:"solver/wide_exprs" [ 7; 8 ] (fun stmts ->
          (Gen.wide_exprs rng ~stmts ~width:3, 1))
      @ family rng ~prefix:"solver/index_arith" [ 5; 6; 7; 7 ] (fun steps ->
            (Gen.index_arith rng ~functions:2 ~steps (), 2))
      @ [
          {
            label = "solver/index_arith_bad.c";
            src = Gen.index_arith rng ~bad:true ~functions:1 ~steps:2 ();
            n_fns = 1;
          };
          study answers ~label:"solver/hashmap.c" (read_study "hashmap.c");
          study answers ~label:"solver/binary_search.c"
            (read_study "binary_search.c");
        ]
  | "engine_heavy" ->
      (* 11 inputs.  The large loop_farm and lock_farm cost about what
         call_chain weight 2 and struct_nest depth 10 cost, so four
         inputs share the middle ranks and the median lies in the middle
         of their latencies; with a gap there it moved by 20% from run
         to run *)
      family rng ~prefix:"engine/diamond_farm" [ 5; 6 ] (fun k ->
          (Gen.diamond_farm rng ~functions:3 ~k, 3))
      @ family rng ~prefix:"engine/call_chain" [ 2; 3 ] (fun weight ->
            (Gen.call_chain rng ~n:10 ~weight (), 10))
      @ [
          {
            label = "engine/call_chain_bad.c";
            src = Gen.call_chain rng ~broken:0 ~n:3 ~weight:1 ();
            n_fns = 3;
          };
        ]
      @ family rng ~prefix:"engine/struct_nest" [ 10; 14 ] (fun depth ->
            (Gen.struct_nest ~depth, 1))
      @ family rng ~prefix:"engine/loop_farm" [ 8; 18 ] (fun functions ->
            (Gen.loop_farm rng ~functions, functions))
      @ family rng ~prefix:"engine/lock_farm" [ 6; 15 ] (fun functions ->
            (Gen.lock_farm rng ~functions, functions + 2))
  | "edit_loop" ->
      [
        {
          label = edit_label;
          src = edit_src ~seed ~nonces:(Array.make edit_fns 0) ();
          n_fns = edit_fns;
        };
      ]
  | other -> invalid_arg ("unknown workload " ^ other)

(* ------------------------------------------------------------------ *)
(* The edit sequence                                                   *)
(* ------------------------------------------------------------------ *)

(* A sweep is [edits_per_sweep] edits.  Each gives one seeded function a
   never-seen nonce, except that one edit per sweep, at a seeded
   position, instead breaks a function ([Gen.call_chain ~broken]) and the
   next edit fixes it with a fresh nonce; so every sweep does the same
   kind of work.  Edits accumulate, and every one changes exactly one
   body, so exactly one function is re-proved per check.  The cache keeps
   the entries of superseded bodies, as the CLI's uncapped cache does,
   so it grows by one entry per edit over the run. *)
type edits = {
  seed : int;
  rng : Random.State.t;
  nonces : int array;
  mutable next_nonce : int;
  mutable break_at : int;  (** the breaking edit's position in this sweep *)
  mutable broken : int option;
}

let edits ~seed =
  let rng = Random.State.make [| seed; 2 |] in
  {
    seed;
    rng;
    nonces = Array.make edit_fns 0;
    next_nonce = 1 + Random.State.int rng (1 lsl 29);
    break_at = 0;
    broken = None;
  }

type job = {
  j_label : string;
  j_src : string;
  j_fns : int;
  j_broken : string option;
}

let job_of_input (i : input) =
  { j_label = i.label; j_src = i.src; j_fns = i.n_fns; j_broken = None }

(** The [k]th edit of a sweep. *)
let next_edit (e : edits) k : job =
  let fresh i =
    e.nonces.(i) <- e.next_nonce;
    e.next_nonce <- e.next_nonce + 1
  in
  if k = 0 then e.break_at <- Random.State.int e.rng (edits_per_sweep - 1);
  (match e.broken with
  | Some i ->
      e.broken <- None;
      fresh i
  | None ->
      let i = Random.State.int e.rng edit_fns in
      if k = e.break_at then e.broken <- Some i else fresh i);
  {
    j_label = edit_label;
    j_src = edit_src ~seed:e.seed ~nonces:e.nonces ?broken:e.broken ();
    j_fns = edit_fns;
    j_broken = Option.map (pr "f%d") e.broken;
  }

(* ------------------------------------------------------------------ *)
(* Checking one job                                                    *)
(* ------------------------------------------------------------------ *)

(** What one check produced, judged against the known answers. *)
type outcome = {
  o_label : string;
  o_ns : float;  (** source string to JSON report *)
  o_fns : int;  (** function verdicts delivered *)
  o_reproved : int;  (** functions proved rather than replayed *)
  o_stats : Stats.t;  (** merged over verified, freshly proved functions *)
  o_wrong : int;  (** verdicts that differ from the known answer *)
  o_failed : string option;
      (** crash, frontend error, checker fault, timeout or skip *)
}

(* The certificate of every freshly proved function; a replayed verdict
   carries only a stub derivation. *)
let certify ~obs session (t : Driver.t) : (string * Checker.report) list =
  List.filter_map
    (fun (r : Driver.check_result) ->
      match r.outcome with
      | Ok res when not r.cached ->
          Some (r.name, Checker.check ~obs ~session res.Rc_refinedc.Lang.E.deriv)
      | _ -> None)
    t.results

let judge answers (job : job) ~ns (t : Driver.t) certs : outcome =
  let stats = Stats.create () in
  let wrong = ref 0 and failed = ref None in
  let fail msg = if !failed = None then failed := Some msg in
  List.iter
    (fun (r : Driver.check_result) ->
      let got =
        match r.outcome with
        | Ok res -> (
            if not r.cached then Stats.merge stats res.Rc_refinedc.Lang.E.stats;
            match List.assoc_opt r.name certs with
            | Some rep when not (Checker.ok rep) -> Some Answers.Failed
            | _ -> Some Answers.Verified)
        | Error e when Report.is_fault e ->
            fail (pr "%s: %s: checker fault" job.j_label r.name);
            None
        | Error _ -> Some Answers.Failed
      in
      match got with
      | None -> ()
      | Some v ->
          if
            Answers.expect answers ?broken:job.j_broken ~input:job.j_label
              r.name
            <> Some v
          then incr wrong)
    t.results;
  if t.skipped <> [] then fail (pr "%s: functions skipped" job.j_label);
  if List.length t.results <> job.j_fns then incr wrong;
  {
    o_label = job.j_label;
    o_ns = ns;
    o_fns = List.length t.results;
    o_reproved =
      List.length
        (List.filter (fun (r : Driver.check_result) -> not r.cached) t.results);
    o_stats = stats;
    o_wrong = !wrong;
    o_failed = !failed;
  }

let crashed (job : job) ~ns e =
  {
    o_label = job.j_label;
    o_ns = ns;
    o_fns = 0;
    o_reproved = 0;
    o_stats = Stats.create ();
    o_wrong = 0;
    o_failed = Some (pr "%s: %s" job.j_label (Printexc.to_string e));
  }


(** One check: a fresh session, [Driver.parse_and_elab],
    [Driver.check_elaborated] (lint on), the certificates where the
    workload re-checks them, and the JSON report.  A measured check
    passes [Obs.off].  A traced check passes a metrics handle, which the
    library's own self-timed spans fill ([phase.parse], [phase.elab],
    [phase.lint], [lint.<pass>], [phase.cert], the solver timers); the
    spans here cover the calls that have none. *)
let pipeline (w : spec) ~obs ~cache_dir (job : job) =
  let span key f = Obs.timed obs ~cat:"bench" ~key key f in
  let file = job.j_label in
  let session =
    span "session.create" (fun () -> Api.create_session ~case_studies:true ())
  in
  let cache =
    Option.map
      (fun dir -> span "cache.open" (fun () -> Vercache.create dir))
      cache_dir
  in
  let el = Driver.parse_and_elab ~obs ~session ~file job.j_src in
  let t =
    span "refinedc.check" (fun () ->
        Driver.check_elaborated ?cache ~obs ~session ~file el)
  in
  let certs = if w.cert then certify ~obs session t else [] in
  (* the report of a check without observability: no metrics block *)
  let bytes =
    span "report" (fun () ->
        String.length
          (Rc_util.Jsonout.to_string
             (Driver.to_json { t with Driver.obs = Obs.off })))
  in
  (session, el, t, certs, bytes)

(** A measured check. *)
let check answers (w : spec) ~cache_dir (job : job) : outcome =
  let t0 = now_ns () in
  match pipeline w ~obs:Obs.off ~cache_dir job with
  | _, _, t, certs, _ -> judge answers job ~ns:(now_ns () -. t0) t certs
  | exception e -> crashed job ~ns:(now_ns () -. t0) e

(* ------------------------------------------------------------------ *)
(* Traced checks                                                       *)
(* ------------------------------------------------------------------ *)

(** Trace events kept for the Chrome trace, at most: a traced check
    records one span per rule application. *)
let trace_events = 200_000

(** Everything the traced checks of one run accumulate. *)
type acc = {
  lib : Metrics.t;  (** the checks' metrics, merged *)
  chrome : Rc_util.Trace.t option;  (** trace events, while recording *)
  mutable checks : int;
  mutable verdict_ns : float;
  mutable src_bytes : int;
  mutable json_bytes : int;
  mutable diags : int;
  mutable fn_ms : float list;  (** re-proved functions *)
  mutable proved_ns : float;  (** [time_s] of re-proved functions *)
  mutable proved_apps : int;  (** rule applications of re-proved functions *)
  mutable replayed_ns : float;  (** [time_s] of cache replays *)
  mutable lookups : int;  (** pipeline cache lookups, hits *)
  mutable lookup_hits : int;
  mutable depgraph_ns : float;
  mutable probe_ns : float;
  mutable probes : int;
  mutable probe_hits : int;
  mutable cert_beside_ns : float;
  mutable cert_nodes : int;
  mutable cert_sides : int;
  mutable minor_words : float;
  mutable major_gcs : int;
}

(** With [~chrome], checks also record trace events into it, up to
    [trace_events]. *)
let new_acc ?chrome () =
  {
    lib = Metrics.make ();
    chrome;
    checks = 0;
    verdict_ns = 0.;
    src_bytes = 0;
    json_bytes = 0;
    diags = 0;
    fn_ms = [];
    proved_ns = 0.;
    proved_apps = 0;
    replayed_ns = 0.;
    lookups = 0;
    lookup_hits = 0;
    depgraph_ns = 0.;
    probe_ns = 0.;
    probes = 0;
    probe_hits = 0;
    cert_beside_ns = 0.;
    cert_nodes = 0;
    cert_sides = 0;
    minor_words = 0.;
    major_gcs = 0;
  }

(* Measured beside the pipeline, after the verdict: the dependency graph
   alone, and one probe per function of [probe], the cache the next
   identical check would consult.  A miss is stored as the pipeline
   would, so a cache the pipeline does not use warms up all the same. *)
let beside acc ~session ~file (probe : Vercache.t) (el : Elab.elaborated)
    (t : Driver.t) =
  let t0 = now_ns () in
  ignore (Depgraph.build el.Elab.to_check);
  acc.depgraph_ns <- acc.depgraph_ns +. (now_ns () -. t0);
  let keyed =
    List.map
      (fun (f : Rc_refinedc.Typecheck.fn_to_check) ->
        let name = f.Rc_refinedc.Typecheck.spec.Rc_refinedc.Rtype.fs_name in
        (name, Depgraph.cache_id ~file name, Depgraph.components ~session t.graph f))
      el.Elab.to_check
  in
  let t0 = now_ns () in
  let found =
    List.map
      (fun (name, id, components) ->
        (name, id, components, Vercache.find_keyed probe ~id ~components))
      keyed
  in
  acc.probe_ns <- acc.probe_ns +. (now_ns () -. t0);
  List.iter
    (fun (name, id, components, found) ->
      acc.probes <- acc.probes + 1;
      match found with
      | Vercache.KHit _ -> acc.probe_hits <- acc.probe_hits + 1
      | Vercache.KMiss _ -> (
          match
            List.find_opt
              (fun (r : Driver.check_result) -> r.name = name)
              t.results
          with
          | Some { outcome = Ok res; _ } ->
              Vercache.store_keyed probe ~id ~components
                (Driver.cache_payload res.Rc_refinedc.Lang.E.stats)
          | _ -> ()))
    found

let count_certs acc certs =
  List.iter
    (fun (_, (rep : Checker.report)) ->
      acc.cert_nodes <- acc.cert_nodes + rep.nodes;
      acc.cert_sides <- acc.cert_sides + rep.side_conditions)
    certs

(** A traced check: the pipeline with a metrics handle, then the layers
    it does not run, measured beside it. *)
let check_traced answers (w : spec) acc ~cache_dir ~(probe : Vercache.t)
    (job : job) : outcome =
  let c_trace =
    match acc.chrome with
    | Some tr -> Rc_util.Trace.event_count tr < trace_events
    | None -> false
  in
  let obs = Obs.create { Obs.c_trace; c_metrics = true } in
  let gc0 = Gc.quick_stat () in
  let t0 = now_ns () in
  match pipeline w ~obs ~cache_dir job with
  | exception e -> crashed job ~ns:(now_ns () -. t0) e
  | session, el, t, certs, bytes ->
      let ns = now_ns () -. t0 in
      let gc1 = Gc.quick_stat () in
      acc.checks <- acc.checks + 1;
      acc.verdict_ns <- acc.verdict_ns +. ns;
      acc.src_bytes <- acc.src_bytes + String.length job.j_src;
      acc.json_bytes <- acc.json_bytes + bytes;
      acc.diags <- acc.diags + List.length t.Driver.diagnostics;
      acc.minor_words <-
        acc.minor_words +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
      acc.major_gcs <-
        acc.major_gcs + (gc1.Gc.major_collections - gc0.Gc.major_collections);
      Metrics.merge acc.lib (Obs.mx obs);
      Option.iter (fun tr -> Rc_util.Trace.absorb tr (Obs.tr obs)) acc.chrome;
      List.iter
        (fun (r : Driver.check_result) ->
          if r.cached then acc.replayed_ns <- acc.replayed_ns +. (r.time_s *. 1e9)
          else begin
            acc.proved_ns <- acc.proved_ns +. (r.time_s *. 1e9);
            acc.fn_ms <- (r.time_s *. 1e3) :: acc.fn_ms
          end)
        t.Driver.results;
      (match t.Driver.cache_stats with
      | Some (hits, misses) ->
          acc.lookups <- acc.lookups + hits + misses;
          acc.lookup_hits <- acc.lookup_hits + hits
      | None -> ());
      count_certs acc certs;
      beside acc ~session ~file:job.j_label probe el t;
      (* the certificate layer, measured beside on workloads whose
         pipeline does not re-check derivations *)
      if not w.cert then begin
        let t0 = now_ns () in
        let certs = certify ~obs:Obs.off session t in
        acc.cert_beside_ns <- acc.cert_beside_ns +. (now_ns () -. t0);
        count_certs acc certs
      end;
      let o = judge answers job ~ns t certs in
      acc.proved_apps <- acc.proved_apps + o.o_stats.Stats.rule_apps;
      o
