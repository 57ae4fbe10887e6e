(* The repository benchmark: closed loop, one client, one domain.

     perf.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--json-out F]
     perf.exe [--seed N] [--seconds S] [--trace 0|1] [--json-out F]
     perf.exe --smoke
     perf.exe --compare A.json[,A2.json...] B.json[,B2.json...]

   A run sets its workload up several times (input generation, cold
   cache fill, one warm-up sweep) and reports the median set-up time,
   then checks one input after another for S seconds.  An untraced run
   reports the end-to-end metrics of its complete sweeps, with every
   time at the reference speed (see calib.ml); a traced run
   alternates untraced and traced sweeps and reports the per-layer
   metrics and the tracing overhead.  Without --workload every workload
   runs in its own child process, one after another.  Every verdict is
   judged against answers.txt.  The last line of standard output is one
   JSON object; see README.md. *)

module W = Workloads
module Stats = Rc_lithium.Stats
module Metrics = Rc_util.Metrics
module Json = Rc_util.Jsonout
module Vercache = Rc_util.Vercache

let pr = Printf.sprintf
let now_ns = W.now_ns
let answers_path = "perfbench/answers.txt"
let benchmark_path = "BENCHMARK.json"
let work_root = "perfbench/_work"

(** Set-ups per untraced run; set-up time is their median. *)
let setups = 9

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

(** Linear interpolation between order statistics. *)
let percentile p (xs : float list) : float =
  match List.sort Float.compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let rank = p *. float_of_int (Array.length a - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      let frac = rank -. float_of_int lo in
      (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)

let median = percentile 0.5
let ratio a b = if b = 0. then 0. else a /. b
let sum = List.fold_left ( +. ) 0.

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(** Peak resident set size of this process ([VmHWM]), in MiB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* One line, and floats with every digit: a measurement is printed as
   measured. *)
let rec json_line (v : Json.t) : string =
  match v with
  | Json.Float f when Float.is_finite f -> pr "%.15g" f
  | Json.Float _ -> "null"
  | Json.List vs -> "[" ^ String.concat ", " (List.map json_line vs) ^ "]"
  | Json.Obj fields ->
      "{"
      ^ String.concat ", "
          (List.map
             (fun (k, v) -> pr "\"%s\": %s" (Json.escape k) (json_line v))
             fields)
      ^ "}"
  | v -> Json.to_string v

let load_json path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok v -> v
  | Error msg -> failwith (pr "%s: %s" path msg)

let field k v =
  match Json.member k v with
  | Some x -> x
  | None -> failwith (pr "missing field %S" k)

let str_field k v = Option.get (Json.to_str (field k v))
let num_field k v = Option.get (Json.to_float (field k v))
let list_field k v = Option.get (Json.to_list (field k v))

(* ------------------------------------------------------------------ *)
(* Clients                                                             *)
(* ------------------------------------------------------------------ *)

type mode = Untraced | Traced of W.acc * Vercache.t

(** One closed-loop client over one workload. *)
type client = {
  w : W.spec;
  answers : Answers.t;
  inputs : W.input list;
  order : Random.State.t;
  edits : W.edits option;
  cache_dir : string option;
  mutable mode : mode;
}

(** Where a traced run writes the trace of its warm-up sweep. *)
let trace_file (w : W.spec) = Filename.concat work_root (pr "trace-%s.json" w.W.name)

let run_job c job =
  match c.mode with
  | Untraced -> W.check c.answers c.w ~cache_dir:c.cache_dir job
  | Traced (acc, probe) ->
      W.check_traced c.answers c.w acc ~cache_dir:c.cache_dir ~probe job

(** One sweep: every input once in a fresh seeded order, or
    [edits_per_sweep] consecutive edits. *)
let sweep c : W.job Seq.t =
  match c.edits with
  | Some e -> Seq.init W.edits_per_sweep (W.next_edit e)
  | None -> List.to_seq (W.shuffle c.order c.inputs) |> Seq.map W.job_of_input

(** Generate the inputs, fill the cache cold and run one warm-up sweep;
    returns the client and the problems the warm-up met. *)
let setup answers (w : W.spec) ~seed ~dir ~traced : client * string list =
  mkdir_p dir;
  let cache_dir =
    if w.W.edit then Some (Filename.concat dir "cache") else None
  in
  let traced_mode () =
    let probe_dir =
      Option.value cache_dir ~default:(Filename.concat dir "probe")
    in
    Traced
      (W.new_acc ~chrome:(Rc_util.Trace.make ()) (), Vercache.create probe_dir)
  in
  let c =
    {
      w;
      answers;
      inputs = W.inputs answers w ~seed;
      order = Random.State.make [| seed; 1 |];
      edits = (if w.W.edit then Some (W.edits ~seed) else None);
      cache_dir;
      mode = (if traced then traced_mode () else Untraced);
    }
  in
  let problems = ref [] in
  let warm job =
    let o = run_job c job in
    if o.W.o_wrong > 0 then
      problems := pr "%s: wrong verdict in warm-up" job.W.j_label :: !problems;
    Option.iter (fun p -> problems := p :: !problems) o.W.o_failed
  in
  if w.W.edit then List.iter (fun i -> warm (W.job_of_input i)) c.inputs;
  Seq.iter warm (sweep c);
  (* the warm-up sweep goes to the Chrome trace, written now so that it
     does not weigh on the heap; the traced accumulators cover measured
     checks only *)
  (match c.mode with
  | Traced (acc, probe) ->
      Option.iter
        (fun tr -> Rc_util.Trace.write_chrome tr (trace_file w))
        acc.W.chrome;
      c.mode <- Traced (W.new_acc (), probe)
  | Untraced -> ());
  (c, List.rev !problems)

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

(** A measured check's latency, and the same latency at the reference
    speed ([Calib]), known once the run is over. *)
type timed = { ns : float; mutable scaled_ms : float }

(** One complete sweep: its checks' latencies and the function verdicts
    they delivered. *)
type swept = { s_lat : timed list; s_fns : int }

type tally = {
  mutable lat : float list;  (** verdict latency of every check, ns *)
  by_file : (string, float list) Hashtbl.t;
  mutable swept : swept list;  (** complete sweeps *)
  mutable checks : int;
  mutable reproved : int;
  mutable wrong : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first, at most 8 *)
  mutable sweep_stats : Stats.t option;  (** the first complete sweep *)
}

let new_tally () =
  {
    lat = [];
    by_file = Hashtbl.create 16;
    swept = [];
    checks = 0;
    reproved = 0;
    wrong = 0;
    failed = 0;
    problems = [];
    sweep_stats = None;
  }

let record t (o : W.outcome) =
  let note p = if List.length t.problems < 8 then t.problems <- p :: t.problems in
  t.lat <- o.o_ns :: t.lat;
  Hashtbl.replace t.by_file o.o_label
    (o.o_ns :: Option.value ~default:[] (Hashtbl.find_opt t.by_file o.o_label));
  t.checks <- t.checks + 1;
  t.reproved <- t.reproved + o.o_reproved;
  t.wrong <- t.wrong + o.o_wrong;
  if o.o_wrong > 0 then note (pr "%s: wrong verdict" o.o_label);
  Option.iter
    (fun p ->
      t.failed <- t.failed + 1;
      note p)
    o.o_failed

(* Each check's latency at the reference speed: its wall time scaled by
   the median of the five reference timings nearest to it, the one taken
   just before it and two on either side.  [timeline] is newest first;
   [last] was taken after the final check. *)
let scale (timeline : (float * timed) list) ~last =
  let refs = Array.of_list (List.rev (last :: List.map fst timeline)) in
  let n = Array.length refs in
  List.rev_map snd timeline
  |> List.iteri (fun k x ->
         let lo = max 0 (k - 2) and hi = min n (k + 3) in
         let local = median (Array.to_list (Array.sub refs lo (hi - lo))) in
         x.scaled_ms <- x.ns /. 1e6 *. Calib.nominal_ms /. local)

(** Run the clients sweep by sweep, in turn, until [seconds] have passed
    and each has finished a sweep.  A sweep in progress at the deadline
    stops there.  The reference task is timed before every check. *)
let measure ~seconds (clients : (client * tally) array) =
  let deadline = now_ns () +. (seconds *. 1e9) in
  let n = Array.length clients in
  let sweeps = ref 0 in
  let timeline = ref [] in
  let going () = !sweeps < n || now_ns () < deadline in
  while going () do
    let c, t = clients.(!sweeps mod n) in
    let stats = Stats.create () in
    let rec go s lat fns =
      if going () then
        match s () with
        | Seq.Nil ->
            t.swept <- { s_lat = lat; s_fns = fns } :: t.swept;
            if t.sweep_stats = None then t.sweep_stats <- Some stats
        | Seq.Cons (job, rest) ->
            let speed = Calib.sample () in
            let o = run_job c job in
            let x = { ns = o.W.o_ns; scaled_ms = Float.nan } in
            timeline := (speed, x) :: !timeline;
            record t o;
            Stats.merge stats o.W.o_stats;
            go rest (x :: lat) (fns + o.W.o_fns)
    in
    go (sweep c) [] 0;
    incr sweeps
  done;
  scale !timeline ~last:(Calib.sample ())

let sweep_apps t =
  (Option.value t.sweep_stats ~default:(Stats.create ())).Stats.rule_apps

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float; samples : int }

let m name unit_ ~samples value = { name; unit_; value; samples }
let ms_of t = List.map (fun ns -> ns /. 1e6) t.lat

(* Latencies of the complete sweeps, in ms at the reference speed (or on
   the wall clock): every input weighs the same. *)
let swept_ms ?(wall = false) t =
  List.concat_map
    (fun s ->
      List.map (fun x -> if wall then x.ns /. 1e6 else x.scaled_ms) s.s_lat)
    t.swept

let end_to_end ~setup_s (t : tally) =
  let ms = swept_ms t in
  let n = List.length ms in
  let fns = List.fold_left (fun n s -> n + s.s_fns) 0 t.swept in
  [
    m "setup_s" "s" ~samples:(List.length setup_s) (median setup_s);
    m "verdict_ms_p50" "ms" ~samples:n (percentile 0.50 ms);
    m "verdict_ms_p90" "ms" ~samples:n (percentile 0.90 ms);
    m "funcs_per_s" "1/s" ~samples:n (ratio (float_of_int fns) (sum ms /. 1e3));
    m "peak_rss_mb" "MB" ~samples:1 (peak_rss_mb ());
  ]

let lint_passes =
  [ "init"; "deref"; "reach"; "spec"; "rules"; "race"; "lockrel"; "lockord" ]

let pure_ns (acc : W.acc) =
  List.fold_left
    (fun s (_, _, ns) -> s +. Int64.to_float ns)
    0.
    (Metrics.timers_with_prefix acc.W.lib ~prefix:"solver.ns.")

(** A timer summed over the traced checks, in ns.  A span's timer holds
    its self time. *)
let timer (acc : W.acc) key = Int64.to_float (Metrics.timer_total_ns acc.W.lib key)

let lint_ns acc =
  timer acc "phase.lint"
  +. sum (List.map (fun p -> timer acc ("lint." ^ p)) lint_passes)

(** The self time of each layer over the traced checks, in ns, in
    pipeline order.  Function checks run in their own observability
    handles, so their time is inside the [refinedc.check] span's self
    time; it is split off by each function's wall-clock, and the solver
    timers split that again. *)
let layer_ns (acc : W.acc) =
  [
    ("session", timer acc "session.create");
    ("frontend", timer acc "phase.parse" +. timer acc "phase.elab");
    ("analysis", lint_ns acc);
    ("cache", timer acc "cache.open" +. acc.W.replayed_ns);
    ( "refinedc",
      timer acc "refinedc.check" -. acc.W.proved_ns -. acc.W.replayed_ns );
    ("lithium", acc.W.proved_ns -. pure_ns acc);
    ("pure", pure_ns acc);
    ("cert", timer acc "phase.cert");
    ("report", timer acc "report");
  ]

let per_layer (w : W.spec) (acc : W.acc) ~(probe : Vercache.t)
    ~(untraced : tally) (traced : tally) =
  let lib = acc.W.lib in
  let n = acc.W.checks in
  let per_check x = ratio x (float_of_int n) in
  let ms ns = per_check ns /. 1e6 in
  let timer = timer acc in
  let calls p = float_of_int (Metrics.counter lib ("solver.calls." ^ p)) in
  let pure_calls =
    List.fold_left
      (fun s (_, c) -> s + c)
      0
      (Metrics.counters_with_prefix lib ~prefix:"solver.calls.")
  in
  let layers = layer_ns acc in
  let layer l = List.assoc l layers in
  let sweep = Option.value traced.sweep_stats ~default:(Stats.create ()) in
  let lookups, hits =
    if acc.W.lookups > 0 then (acc.W.lookups, acc.W.lookup_hits)
    else (acc.W.probes, acc.W.probe_hits)
  in
  let store = Vercache.stats probe in
  let p50 t = median (ms_of t) in
  let count = "count" and exact = 1 in
  [
    m "session.create_ms" "ms" ~samples:n (ms (timer "session.create"));
    m "frontend.parse_ms" "ms" ~samples:n (ms (timer "phase.parse"));
    m "frontend.elab_ms" "ms" ~samples:n (ms (timer "phase.elab"));
    m "frontend.bytes_per_ms" "B/ms" ~samples:n
      (ratio (float_of_int acc.W.src_bytes) (layer "frontend" /. 1e6));
    m "analysis.lint_ms" "ms" ~samples:n (ms (layer "analysis"));
  ]
  @ List.map
      (fun p -> m ("analysis.pass_ms." ^ p) "ms" ~samples:n (ms (timer ("lint." ^ p))))
      lint_passes
  @ [
      m "analysis.diagnostics" count ~samples:n
        (per_check (float_of_int acc.W.diags));
      m "refinedc.driver_ms" "ms" ~samples:n (ms (layer "refinedc"));
      m "refinedc.depgraph_ms" "ms" ~samples:n (ms acc.W.depgraph_ns);
      m "refinedc.fn_ms_p50" "ms" ~samples:(List.length acc.W.fn_ms)
        (percentile 0.5 acc.W.fn_ms);
      m "refinedc.fn_ms_p90" "ms" ~samples:(List.length acc.W.fn_ms)
        (percentile 0.9 acc.W.fn_ms);
      m "lithium.ms" "ms" ~samples:n (ms (layer "lithium"));
      m "lithium.rule_apps" count ~samples:exact
        (float_of_int sweep.Stats.rule_apps);
      m "lithium.apps_per_s" "1/s" ~samples:n
        (ratio (float_of_int acc.W.proved_apps) (layer "lithium" /. 1e9));
      m "lithium.evar_insts" count ~samples:exact
        (float_of_int sweep.Stats.evar_insts);
      m "lithium.side_conditions" count ~samples:exact
        (float_of_int (sweep.Stats.side_auto + sweep.Stats.side_manual));
      m "lithium.memo_hits" count ~samples:exact
        (float_of_int sweep.Stats.memo_hits);
      m "pure.ms" "ms" ~samples:n (ms (layer "pure"));
      m "pure.calls.default" count ~samples:n (per_check (calls "default"));
      m "pure.ms.default" "ms" ~samples:n (ms (timer "solver.ns.default"));
      m "pure.calls.lemmas" count ~samples:n (per_check (calls "lemmas"));
      m "pure.ms.lemmas" "ms" ~samples:n (ms (timer "solver.ns.lemmas"));
      m "pure.us_per_call" "us" ~samples:pure_calls
        (ratio (layer "pure") (float_of_int pure_calls) /. 1e3);
      m "pure.share" "%" ~samples:n
        (100. *. ratio (layer "pure") acc.W.proved_ns);
      m "cert.ms" "ms" ~samples:n (ms (layer "cert" +. acc.W.cert_beside_ns));
      m "cert.nodes" count ~samples:n (per_check (float_of_int acc.W.cert_nodes));
      m "cert.side_conditions" count ~samples:n
        (per_check (float_of_int acc.W.cert_sides));
      m "cache.probe_ms" "ms" ~samples:acc.W.probes (ms acc.W.probe_ns);
      m "cache.replay_ms" "ms" ~samples:n (ms (layer "cache"));
      m "cache.hit_rate" "%" ~samples:lookups
        (100. *. ratio (float_of_int hits) (float_of_int lookups));
      m "cache.lookups" count ~samples:exact (float_of_int lookups);
      m "cache.reverified_per_edit" count ~samples:traced.checks
        (if w.W.edit then
           ratio (float_of_int traced.reproved) (float_of_int traced.checks)
         else 0.);
      m "cache.entries" count ~samples:exact
        (float_of_int store.Vercache.st_entries);
      m "cache.bytes" "B" ~samples:exact (float_of_int store.Vercache.st_bytes);
      m "report.json_ms" "ms" ~samples:n (ms (timer "report"));
      m "report.json_bytes" "B" ~samples:n
        (per_check (float_of_int acc.W.json_bytes));
      m "gc.minor_mwords_per_check" "Mword" ~samples:n
        (per_check acc.W.minor_words /. 1e6);
      m "gc.major_per_s" "1/s" ~samples:n
        (ratio (float_of_int acc.W.major_gcs) (acc.W.verdict_ns /. 1e9));
      m "gc.top_heap_mb" "MB" ~samples:exact
        (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1048576.);
      m "trace.verdict_ms_p50" "ms" ~samples:traced.checks (p50 traced);
      m "trace.overhead_pct" "%" ~samples:untraced.checks
        (100. *. (ratio (p50 traced) (p50 untraced) -. 1.));
      m "trace.accounted_pct" "%" ~samples:n
        (100. *. ratio (sum (List.map snd layers)) acc.W.verdict_ns);
    ]

(* ------------------------------------------------------------------ *)
(* One run                                                             *)
(* ------------------------------------------------------------------ *)

type run = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  metrics : metric list;
  attempted : int;
  failed : int;
  wrong : int;
  problems : string list;
  files : Json.t list;
  extra : (string * Json.t) list;
  sweep_apps : int list;  (** rule applications of each client's first sweep *)
}

let correct run = run.wrong = 0 && run.failed = 0 && run.problems = []

(** One row per input file: checks, median latency, share of the time. *)
let file_rows (t : tally) : Json.t list =
  let total = sum t.lat in
  Hashtbl.fold (fun file lat acc -> (file, lat) :: acc) t.by_file []
  |> List.sort compare
  |> List.map (fun (file, lat) ->
         Json.Obj
           [
             ("file", Json.Str file);
             ("checks", Json.Int (List.length lat));
             ("p50_ms", Json.Float (median lat /. 1e6));
             ("share", Json.Float (ratio (sum lat) total));
           ])

let run_workload answers (w : W.spec) ~seed ~seconds ~traced ~n_setups : run =
  let dir = Filename.concat work_root (pr "%s-%d" w.W.name (Unix.getpid ())) in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* a set-up's time at the reference speed of the three reference
     timings before it and the three after *)
  let timed_setup k ~traced =
    let sub = Filename.concat dir (pr "setup%d" k) in
    let speeds () = List.init 3 (fun _ -> Calib.sample ()) in
    let before = speeds () in
    let t0 = now_ns () in
    let c, problems = setup answers w ~seed ~dir:sub ~traced in
    let s = (now_ns () -. t0) /. 1e9 in
    ((c, problems), s *. Calib.nominal_ms /. median (before @ speeds ()))
  in
  if not traced then begin
    let timed = List.init n_setups (fun k -> timed_setup k ~traced:false) in
    let c, problems = fst (List.nth timed (n_setups - 1)) in
    let t = new_tally () in
    measure ~seconds [| (c, t) |];
    {
      workload = w.W.name;
      seed;
      seconds;
      traced;
      metrics = end_to_end ~setup_s:(List.map snd timed) t;
      attempted = t.checks;
      failed = t.failed;
      wrong = t.wrong;
      problems = problems @ List.rev t.problems;
      files = file_rows t;
      extra =
        [
          ( "failed_frac",
            Json.Float (ratio (float_of_int t.failed) (float_of_int t.checks)) );
          ("wrong_verdicts", Json.Int t.wrong);
          ("verdict_ms_p99", Json.Float (percentile 0.99 (swept_ms t)));
          ( "wall_verdict_ms_p50",
            Json.Float (percentile 0.50 (swept_ms ~wall:true t)) );
          ( "wall_verdict_ms_p90",
            Json.Float (percentile 0.90 (swept_ms ~wall:true t)) );
          ( "reproved_per_check",
            Json.Float (ratio (float_of_int t.reproved) (float_of_int t.checks))
          );
        ];
      sweep_apps = [ sweep_apps t ];
    }
  end
  else begin
    let (cu, pu), _ = timed_setup 0 ~traced:false in
    let (ct, pt), _ = timed_setup 1 ~traced:true in
    let tu = new_tally () and tt = new_tally () in
    measure ~seconds [| (cu, tu); (ct, tt) |];
    let acc, probe =
      match ct.mode with
      | Traced (acc, probe) -> (acc, probe)
      | Untraced -> invalid_arg "traced client"
    in
    let per_check ns = ns /. 1e6 /. float_of_int (max 1 acc.W.checks) in
    {
      workload = w.W.name;
      seed;
      seconds;
      traced;
      metrics = per_layer w acc ~probe ~untraced:tu tt;
      attempted = tu.checks + tt.checks;
      failed = tu.failed + tt.failed;
      wrong = tu.wrong + tt.wrong;
      problems = pu @ pt @ List.rev tu.problems @ List.rev tt.problems;
      files = file_rows tt;
      extra =
        [
          ("trace_file", Json.Str (trace_file w));
          ( "layers",
            Json.List
              (List.map
                 (fun (l, ns) ->
                   Json.Obj
                     [
                       ("layer", Json.Str l);
                       ("ms_per_check", Json.Float (per_check ns));
                       ("share", Json.Float (ratio ns acc.W.verdict_ns));
                     ])
                 (layer_ns acc)) );
          ( "provers",
            Json.List
              (List.map
                 (fun (p, calls, ns) ->
                   Json.Obj
                     [
                       ("prover", Json.Str p);
                       ("calls", Json.Int calls);
                       ("ms_per_check", Json.Float (per_check (Int64.to_float ns)));
                     ])
                 (Metrics.timers_with_prefix acc.W.lib ~prefix:"solver.ns.")) );
        ];
      sweep_apps = [ sweep_apps tu; sweep_apps tt ];
    }
  end

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let run_json (r : run) : Json.t =
  Json.Obj
    ([
       ("workload", Json.Str r.workload);
       ("seed", Json.Int r.seed);
       ("seconds", Json.Float r.seconds);
       ("trace", Json.Bool r.traced);
       ("correct", Json.Bool (correct r));
       ("attempted", Json.Int r.attempted);
       ("failed", Json.Int r.failed);
       ("problems", Json.List (List.map (fun p -> Json.Str p) r.problems));
       ( "metrics",
         Json.Obj
           (List.map
              (fun x ->
                ( x.name,
                  Json.Obj
                    [
                      ("value", Json.Float x.value);
                      ("unit", Json.Str x.unit_);
                      ("samples", Json.Int x.samples);
                    ] ))
              r.metrics) );
       ("files", Json.List r.files);
     ]
    @ r.extra)

(** The results file ([--json-out]): one [run_json] per run. *)
let write_results path (runs : Json.t list) =
  let doc = Json.Obj [ ("schema", Json.Str "perfbench/1"); ("runs", Json.List runs) ] in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (json_line doc ^ "\n"))

let print_run (r : run) =
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d: %d checks, %d failed, %d wrong\n"
    r.workload r.seed r.seconds (Bool.to_int r.traced) r.attempted r.failed r.wrong;
  List.iter
    (fun x -> Printf.printf "  %-30s %14.4f %-6s (n=%d)\n" x.name x.value x.unit_ x.samples)
    r.metrics;
  List.iter
    (fun f ->
      Printf.printf "  file %-30s %8.3f ms p50  %5.1f%% of time\n"
        (str_field "file" f) (num_field "p50_ms" f)
        (100. *. num_field "share" f))
    r.files;
  List.iter (fun p -> Printf.printf "  problem: %s\n" p) r.problems

(** The line the benchmark driver reads: the last line of stdout. *)
let driver_line (r : run) =
  json_line
    (Json.Obj
       [
         ("correct", Json.Bool (correct r));
         ("attempted", Json.Int r.attempted);
         ("failed", Json.Int r.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun x ->
                  ( x.name,
                    Json.Obj [ ("value", Json.Float x.value); ("unit", Json.Str x.unit_) ] ))
                r.metrics) );
       ])

(* ------------------------------------------------------------------ *)
(* Modes                                                               *)
(* ------------------------------------------------------------------ *)

let single answers w ~seed ~seconds ~traced ~json_out =
  let r =
    run_workload answers w ~seed ~seconds ~traced
      ~n_setups:(if traced then 1 else setups)
  in
  print_run r;
  Option.iter (fun path -> write_results path [ run_json r ]) json_out;
  print_endline (driver_line r);
  if correct r then 0 else 1

(* Each workload in its own child process, one after another, so no
   workload inherits another's heap. *)
let every ~seed ~seconds ~traced ~json_out =
  mkdir_p work_root;
  let runs_ok =
    List.map
      (fun (w : W.spec) ->
        let out =
          Filename.concat work_root (pr "child-%s-%d.json" w.W.name (Unix.getpid ()))
        in
        let args =
          [| Sys.executable_name; "--workload"; w.W.name; "--seed"; string_of_int seed;
             "--seconds"; pr "%g" seconds; "--trace"; (if traced then "1" else "0");
             "--json-out"; out |]
        in
        flush stdout;
        let pid =
          Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
            Unix.stderr
        in
        let status = snd (Unix.waitpid [] pid) in
        let runs =
          if Sys.file_exists out then begin
            let runs = list_field "runs" (load_json out) in
            Sys.remove out;
            runs
          end
          else []
        in
        (runs, status = Unix.WEXITED 0))
      W.all
  in
  Option.iter
    (fun path -> write_results path (List.concat_map fst runs_ok))
    json_out;
  if List.for_all snd runs_ok then 0 else 1

type bound = { b_name : string; better_lower : bool; bound : float option }

let benchmark_metrics key : bound list =
  list_field key (load_json benchmark_path)
  |> List.map (fun x ->
         {
           b_name = str_field "name" x;
           better_lower = str_field "better" x = "lower";
           bound = Option.bind (Json.member "bound" x) Json.to_float;
         })

(* Median of each end-to-end metric over each side's result files, per
   workload; a metric fails when the change side is worse than the base
   side by more than its bound. *)
let compare_results (base : string list) (change : string list) =
  let values files =
    List.concat_map (fun f -> list_field "runs" (load_json f)) files
    |> List.filter (fun r -> field "trace" r = Json.Bool false)
    |> List.concat_map (fun r ->
           let wl = str_field "workload" r in
           match field "metrics" r with
           | Json.Obj ms -> List.map (fun (k, v) -> ((wl, k), num_field "value" v)) ms
           | _ -> [])
  in
  let a = values base and b = values change in
  let med key vs = median (List.filter_map (fun (k, v) -> if k = key then Some v else None) vs) in
  let ok = ref true in
  Printf.printf "%-14s %-16s %12s %12s %8s %7s\n" "workload" "metric" "base" "change"
    "ratio" "bound";
  List.iter
    (fun (w : W.spec) ->
      List.iter
        (fun bm ->
          let key = (w.W.name, bm.b_name) in
          if List.mem_assoc key a && List.mem_assoc key b then begin
            let va = med key a and vb = med key b in
            let r = ratio vb va in
            let worse = if bm.better_lower then r -. 1. else 1. -. r in
            let bound = Option.value bm.bound ~default:0. in
            let pass = worse <= bound in
            if not pass then ok := false;
            Printf.printf "%-14s %-16s %12.4f %12.4f %8.4f %6.0f%% %s\n" w.W.name
              bm.b_name va vb r (100. *. bound) (if pass then "PASS" else "FAIL")
          end)
        (benchmark_metrics "end_to_end"))
    W.all;
  if !ok then 0 else 1

(* One untraced and one traced sweep per workload: correct verdicts, the
   metric names BENCHMARK.json declares, and the same rule applications
   with and without tracing. *)
let smoke answers ~seed =
  let names key = List.sort compare (List.map (fun b -> b.b_name) (benchmark_metrics key)) in
  let e2e = names "end_to_end" and layers = names "per_layer" in
  let ok = ref true in
  List.iter
    (fun (w : W.spec) ->
      let go traced =
        run_workload answers w ~seed ~seconds:0. ~traced ~n_setups:1
      in
      let u = go false and t = go true in
      let names_of r = List.sort compare (List.map (fun x -> x.name) r.metrics) in
      let apps = u.sweep_apps @ t.sweep_apps in
      let checks =
        [
          ("untraced verdicts", correct u);
          ("traced verdicts", correct t);
          ("end-to-end metric names", names_of u = e2e);
          ("per-layer metric names", names_of t = layers);
          ( "rule_apps equal traced and untraced",
            List.for_all (fun a -> a = List.hd apps && a > 0) apps );
        ]
      in
      List.iter
        (fun (what, pass) ->
          if not pass then ok := false;
          Printf.printf "smoke %-13s %-36s %s\n" w.W.name what
            (if pass then "ok" else "FAIL"))
        checks;
      List.iter (fun p -> Printf.printf "  problem: %s\n" p) (u.problems @ t.problems))
    W.all;
  if !ok then 0 else 1

let usage () =
  prerr_endline
    "usage: perf.exe [--workload studies|solver_heavy|engine_heavy|edit_loop] \
     [--seed N] [--seconds S] [--trace 0|1] [--json-out FILE]\n\
    \       perf.exe --smoke\n\
    \       perf.exe --compare BASE.json[,...] CHANGE.json[,...]";
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref None in
  let traced = ref false and json_out = ref None in
  let action = ref `Run in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_of_string n;
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := Some (float_of_string s);
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        traced := v = "1";
        parse rest
    | "--trace" :: rest ->
        traced := true;
        parse rest
    | "--json-out" :: f :: rest ->
        json_out := Some f;
        parse rest
    | "--smoke" :: rest ->
        action := `Smoke;
        parse rest
    | "--compare" :: a :: b :: rest ->
        action := `Compare (a, b);
        parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let need path =
    if not (Sys.file_exists path) then begin
      prerr_endline
        (pr "perfbench: %s not found; run from the root of a source checkout" path);
      exit 2
    end
  in
  let split = String.split_on_char ',' in
  (* a traced run needs fewer checks: its numbers are per check *)
  let seconds = Option.value !seconds ~default:(if !traced then 10. else 30.) in
  let code =
    match !action with
    | `Compare (a, b) ->
        need benchmark_path;
        compare_results (split a) (split b)
    | `Smoke ->
        need benchmark_path;
        need answers_path;
        smoke (Answers.load answers_path) ~seed:!seed
    | `Run -> (
        need answers_path;
        need "case_studies";
        match !workload with
        | None ->
            every ~seed:!seed ~seconds ~traced:!traced ~json_out:!json_out
        | Some name -> (
            match W.find name with
            | Some w ->
                mkdir_p work_root;
                single (Answers.load answers_path) w ~seed:!seed ~seconds
                  ~traced:!traced ~json_out:!json_out
            | None -> usage ()))
  in
  exit code
