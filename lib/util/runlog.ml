(** The persistent run ledger: an append-only NDJSON file of one record
    per check run, living beside the verification cache
    ([runs.jsonl] in the cache directory by convention).

    The ledger is the cross-run telemetry substrate: each record carries
    the run's wall-clock, rule-application totals, per-function
    latencies, cache/memo/solver counters, verdict counts and the
    session's toolchain fingerprint, so [refinedc stats] (and a future
    [refinedc serve] health endpoint) can report throughput trends and
    flag regressions without re-running anything.

    Robustness mirrors {!Profstore}: a ledger is a performance artifact,
    never part of a verdict.  An unusable directory degrades to a
    disabled ledger, a failed append disables it for the rest of the
    run, and the reader skips corrupt lines (a torn write from a crash,
    a hand-edited line) instead of aborting.  Appends are atomic at the
    line level: the whole record is serialized first and written with a
    single [O_APPEND] write, so concurrent sessions appending to one
    ledger interleave whole lines, never fragments.

    Determinism note: ledger records contain wall-clock data by design.
    They are out-of-band — written to the ledger file, never to the
    [--json] report on stdout — so the [-j 1] ≡ [-j 4] byte-identity
    contract of [Driver.to_json] is untouched. *)

type t = {
  dir : string;
  file : string;  (** ledger file name inside [dir] *)
  mutable disabled : bool;  (** set when the directory or file is unusable *)
}

(** Bump when a record's field layout changes incompatibly; readers keep
    accepting older versions (fields are looked up by name, and absent
    fields read as [None]). *)
let schema_version = "refinedc-runlog/1"

let file_name = "runs.jsonl"
let path (t : t) = Filename.concat t.dir t.file
let disabled (t : t) = t.disabled

let create ?(file = file_name) (dir : string) : t =
  match
    Vercache.mkdir_p dir;
    if not (Sys.is_directory dir) then failwith "not a directory"
  with
  | () -> { dir; file; disabled = false }
  | exception _ -> { dir; file; disabled = true }

(** Append one record as a single NDJSON line.  The line is fully
    serialized before the file is opened and handed to the kernel in one
    [write] on an [O_APPEND] descriptor, so concurrent appenders cannot
    interleave within a line.  Any failure disables the ledger — an
    append must never abort a verification run. *)
let append (t : t) (record : Jsonout.t) : unit =
  if not t.disabled then begin
    let line = Jsonout.to_line record ^ "\n" in
    let bytes = Bytes.of_string line in
    match
      let fd =
        Unix.openfile (path t) [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
          0o644
      in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let len = Bytes.length bytes in
          let written = Unix.write fd bytes 0 len in
          (* a partial write of an O_APPEND line is not retryable
             atomically; treat it as a failed append *)
          if written <> len then failwith "short write")
    with
    | () -> ()
    | exception _ -> t.disabled <- true
  end

(** Load every parseable record, in append (chronological) order.  An
    absent or unreadable ledger is empty; corrupt lines are skipped. *)
let load (t : t) : Jsonout.t list =
  if t.disabled then []
  else
    match In_channel.with_open_bin (path t) In_channel.input_all with
    | contents ->
        String.split_on_char '\n' contents
        |> List.filter_map (fun line ->
               if String.trim line = "" then None
               else
                 match Jsonout.parse line with
                 | Ok v -> Some v
                 | Error _ -> None)
    | exception _ -> []

(** Lines that failed to parse (for diagnostics/tests). *)
let corrupt_lines (t : t) : int =
  if t.disabled then 0
  else
    match In_channel.with_open_bin (path t) In_channel.input_all with
    | contents ->
        String.split_on_char '\n' contents
        |> List.filter (fun line ->
               String.trim line <> ""
               && Result.is_error (Jsonout.parse line))
        |> List.length
    | exception _ -> 0

(* ------------------------------------------------------------------ *)
(* Trend / regression queries ([refinedc stats])                       *)
(* ------------------------------------------------------------------ *)

(** [percentile p xs] over a non-empty sample, with linear interpolation
    between order statistics ([p] in [0, 1]). *)
let percentile (p : float) (xs : float list) : float option =
  match List.sort compare xs with
  | [] -> None
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let rank = p *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      let frac = rank -. float_of_int lo in
      Some ((a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac))

let median (xs : float list) : float option = percentile 0.5 xs

(** The trailing-window median-of-ratios regression check over a
    chronological metric series where *higher is better* (apps/sec).
    The latest point is compared against each of the [window] points
    before it; the median of those ratios is robust to one noisy
    baseline run.  [regressed] iff the median ratio falls below
    [threshold]. *)
type regression = {
  r_latest : float;
  r_baseline : float list;  (** the trailing window, chronological *)
  r_median_ratio : float;
  r_window : int;  (** points actually used *)
  r_threshold : float;
  r_regressed : bool;
}

let regression ?(window = 4) ?(threshold = 0.75) (series : float list) :
    regression option =
  let series = List.filter (fun x -> x > 0.) series in
  let n = List.length series in
  if n < 2 then None
  else begin
    let latest = List.nth series (n - 1) in
    let prior = List.filteri (fun i _ -> i < n - 1) series in
    let w = min window (List.length prior) in
    let baseline =
      (* the last [w] points before the latest *)
      List.filteri (fun i _ -> i >= List.length prior - w) prior
    in
    let ratios = List.map (fun b -> latest /. b) baseline in
    match median ratios with
    | None -> None
    | Some m ->
        Some
          {
            r_latest = latest;
            r_baseline = baseline;
            r_median_ratio = m;
            r_window = w;
            r_threshold = threshold;
            r_regressed = m < threshold;
          }
  end
