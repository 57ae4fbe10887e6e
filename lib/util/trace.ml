(** Proof-search tracing: a span tree over the verification pipeline,
    exportable as Chrome [trace_event] JSON (loads in Perfetto and
    chrome://tracing).

    A tracer is either [Off] — the disabled representation, a constant
    constructor, so a disabled session allocates *nothing* on the hot
    path (call sites guard with {!on} before building names or args) —
    or [On buf], an append-only single-writer event buffer.  Parallel
    checking gives every function its own child buffer (its own trace
    [tid] lane); the driver splices the children back into the root in
    source order, so the logical event sequence is identical under
    [-j 1] and [-j 4] — scheduling can only move timestamps and the
    [sched] category (task placement on domains), which is exactly what
    {!normalize} erases.

    Timestamps are monotonic-clock nanoseconds, shared by all domains of
    the process, and exported in the microseconds the trace-event format
    expects: whole microseconds since the trace's earliest event, so a
    long-running process keeps every digit of its timestamps. *)

type ph =
  | B  (** span begin *)
  | E  (** span end *)
  | I  (** instant event *)
  | X of int64  (** complete event carrying its own duration (ns) *)
  | M  (** metadata (thread naming) *)

type ev = {
  name : string;
  cat : string;
  ph : ph;
  ts : int64;  (** monotonic ns *)
  tid : int;  (** logical lane, deterministic (not a domain id) *)
  args : (string * string) list;
}

type buf = {
  buf_tid : int;
  mutable evs : ev list;  (** reverse chronological *)
  mutable n_evs : int;
}

type t = Off | On of buf

let off = Off
let on = function Off -> false | On _ -> true
let make ?(tid = 0) () = On { buf_tid = tid; evs = []; n_evs = 0 }

(** A fresh buffer on lane [tid] iff the parent is enabled. *)
let child (t : t) ~tid = match t with Off -> Off | On _ -> make ~tid ()

let now_ns () : int64 = Monotonic_clock.now ()

let push (t : t) (e : ev) =
  match t with
  | Off -> ()
  | On b ->
      b.evs <- e :: b.evs;
      b.n_evs <- b.n_evs + 1

let emit (t : t) ?(args = []) ~cat ~ph name =
  match t with
  | Off -> ()
  | On b ->
      push t { name; cat; ph; ts = now_ns (); tid = b.buf_tid; args }

let span_begin t ?args ~cat name = emit t ?args ~cat ~ph:B name
let span_end t ?args ~cat name = emit t ?args ~cat ~ph:E name
let instant t ?args ~cat name = emit t ?args ~cat ~ph:I name

(** A complete event: one record carrying start and duration. *)
let complete (t : t) ?(args = []) ~cat ~start_ns ~dur_ns name =
  match t with
  | Off -> ()
  | On b ->
      push t { name; cat; ph = X dur_ns; ts = start_ns; tid = b.buf_tid; args }

(** Name a lane in trace viewers ([thread_name] metadata). *)
let name_lane (t : t) ~tid name =
  match t with
  | Off -> ()
  | On _ ->
      push t
        { name = "thread_name"; cat = "__metadata"; ph = M; ts = 0L; tid;
          args = [ ("name", name) ] }

(** Splice a child's events into the parent at the current position.
    The child must be quiescent (its function's check has completed). *)
let absorb (t : t) (child : t) =
  match (t, child) with
  | On b, On c ->
      b.evs <- c.evs @ b.evs;
      b.n_evs <- b.n_evs + c.n_evs
  | _ -> ()

let event_count = function Off -> 0 | On b -> b.n_evs
let events = function Off -> [] | On b -> List.rev b.evs

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

let ph_string = function
  | B -> "B"
  | E -> "E"
  | I -> "i"
  | X _ -> "X"
  | M -> "M"

(** [~normalize] erases everything scheduling-dependent — timestamps,
    durations, and the whole [sched] category (task→domain placement) —
    leaving the logical span tree, which is deterministic: a [-j 1] and
    a [-j 4] run over the same input serialize byte-identically. *)
let to_chrome_json ?(normalize = false) (t : t) : Jsonout.t =
  let open Jsonout in
  let evs = events t in
  (* the origin: the earliest timestamped event (metadata carries none) *)
  let t0 =
    List.fold_left
      (fun t0 (e : ev) -> match e.ph with M -> t0 | _ -> Int64.min t0 e.ts)
      Int64.max_int evs
  in
  let us ns = Int (Int64.to_int (Int64.div ns 1000L)) in
  let ev_json (e : ev) =
    let ts =
      match e.ph with
      | _ when normalize -> Float 0.
      | M -> Int 0
      | _ -> us (Int64.sub e.ts t0)
    in
    let base =
      [
        ("name", Str e.name);
        ("cat", Str e.cat);
        ("ph", Str (ph_string e.ph));
        ("ts", ts);
        ("pid", Int 1);
        ("tid", Int e.tid);
      ]
    in
    let dur =
      match e.ph with
      | X d -> [ ("dur", if normalize then Float 0. else us d) ]
      | _ -> []
    in
    let args =
      match e.args with
      | [] -> []
      | l -> [ ("args", Obj (List.map (fun (k, v) -> (k, Str v)) l)) ]
    in
    Obj (base @ dur @ args)
  in
  let evs =
    if normalize then List.filter (fun e -> e.cat <> "sched") evs else evs
  in
  Obj
    [
      ("traceEvents", List (List.map ev_json evs));
      ("displayTimeUnit", Str "ms");
    ]

let to_chrome_string ?normalize (t : t) : string =
  Jsonout.to_string (to_chrome_json ?normalize t)

(** Write the trace to [path] (the [--trace out.json] file). *)
let write_chrome (t : t) (path : string) : unit =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (to_chrome_string t);
      Out_channel.output_string oc "\n")

(* ------------------------------------------------------------------ *)
(* Well-formedness (used by the test suite and CI validation)          *)
(* ------------------------------------------------------------------ *)

(** Check that the trace is balanced: on every lane, each [E] closes the
    most recent open [B] with the same name, no span is left open, and
    every span/complete duration is non-negative.  Returns the list of
    violations (empty = well-formed). *)
let check_balance (t : t) : string list =
  let issues = ref [] in
  let flag fmt = Format.kasprintf (fun s -> issues := s :: !issues) fmt in
  let stacks : (int, (string * int64) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.replace stacks tid s;
        s
  in
  List.iter
    (fun (e : ev) ->
      match e.ph with
      | B -> (stack e.tid) := (e.name, e.ts) :: !(stack e.tid)
      | E -> (
          let s = stack e.tid in
          match !s with
          | [] -> flag "tid %d: E %S without open B" e.tid e.name
          | (name, ts) :: rest ->
              if name <> e.name then
                flag "tid %d: E %S closes open B %S" e.tid e.name name;
              if Int64.compare e.ts ts < 0 then
                flag "tid %d: span %S has negative duration" e.tid e.name;
              s := rest)
      | X d ->
          if Int64.compare d 0L < 0 then
            flag "tid %d: X %S has negative duration" e.tid e.name
      | I | M -> ())
    (events t);
  Hashtbl.iter
    (fun tid s ->
      List.iter (fun (name, _) -> flag "tid %d: B %S never closed" tid name) !s)
    stacks;
  List.rev !issues
