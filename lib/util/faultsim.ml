(** Deterministic, seed-driven fault injection for robustness testing.

    The toolchain claims to survive any single-function checker failure;
    this module lets the test suite *prove* it.  Instrumented points in
    the pipeline (solver calls, rule lookup, evar resolution — and since
    the supervised pool landed, the pool dispatch, cache read/write and
    file-I/O boundaries) call {!point} with the campaign state threaded
    to them by the verification session; each hit draws from a
    splitmix64 stream derived from the campaign seed and raises
    {!Injected} with the configured probability.  The stream depends
    only on the seed and the sequence of hits, so sequential campaigns
    replay bit-for-bit.

    There is deliberately no process-global "armed" switch: a campaign is
    a value ({!t}) owned by exactly one verification session, so two
    sessions — fault-injected or not — never observe each other.  A
    [point None] call (no campaign) is a single pattern match.

    The campaign state lives in {!Atomic} cells so a single campaign may
    be shared across the supervisor's worker domains: counters never
    tear, the PRNG stream never duplicates a draw, and [max_faults] is a
    strict cap.  Under concurrency the *interleaving* of draws across
    sites is scheduling-dependent (which is what a chaos campaign
    wants); with one domain — one draw per hit, in hit order — the
    sequence is exactly the sequential splitmix64 stream. *)

type cfg = {
  seed : int;
  rate : float;  (** injection probability per instrumented point *)
  sites : string list option;  (** restrict to these sites; [None] = all *)
  max_faults : int;  (** stop injecting after this many; negative = no cap *)
}

(** Raised at an instrumented point when the simulator decides to
    inject; the payload is the site name. *)
exception Injected of string

type t = {
  cfg : cfg;
  prng : int64 Atomic.t;
  injected : int Atomic.t;
}

(** Create a campaign.  The resulting value is owned by one verification
    session but may be drawn from concurrently by that session's worker
    domains; independent campaigns never observe each other. *)
let create ?(rate = 0.001) ?sites ?(max_faults = -1) seed : t =
  {
    cfg = { seed; rate; sites; max_faults };
    prng = Atomic.make (Int64.of_int seed);
    injected = Atomic.make 0;
  }

let injected_count (t : t) = Atomic.get t.injected

(* splitmix64: tiny, high-quality, and fully determined by the seed.
   The state advance is a CAS loop so concurrent hits each claim a
   distinct position in the stream. *)
let next (s : t) : int64 =
  let rec claim () =
    let cur = Atomic.get s.prng in
    let nxt = Int64.add cur 0x9E3779B97F4A7C15L in
    if Atomic.compare_and_set s.prng cur nxt then nxt else claim ()
  in
  let z = claim () in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* uniform draw in [0,1) from the top 53 bits *)
let uniform (s : t) : float =
  Int64.to_float (Int64.shift_right_logical (next s) 11) *. 0x1p-53

(* Claim one injection slot under the cap; strict even when several
   domains draw a hit simultaneously. *)
let rec claim_injection (s : t) : bool =
  let n = Atomic.get s.injected in
  if s.cfg.max_faults >= 0 && n >= s.cfg.max_faults then false
  else if Atomic.compare_and_set s.injected n (n + 1) then true
  else claim_injection s

(** An instrumented point.  No-op without a campaign; otherwise may raise
    {!Injected}. *)
let point (campaign : t option) (site : string) : unit =
  match campaign with
  | None -> ()
  | Some s ->
      if s.cfg.max_faults >= 0 && Atomic.get s.injected >= s.cfg.max_faults
      then ()
      else if
        match s.cfg.sites with None -> true | Some l -> List.mem site l
      then begin
        if uniform s < s.cfg.rate && claim_injection s then
          raise (Injected site)
      end
