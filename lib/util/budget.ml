(** Resource budgets for proof search: step fuel, a wall-clock deadline,
    and a recursion-depth bound.

    Lithium's goal-directed search is designed never to get stuck (§5),
    but the toolchain must not *depend* on that: a divergent pure-solver
    loop or a runaway rule chain would otherwise hang an entire corpus
    run.  A budget is created per checked function and consulted at every
    goal step; exhaustion surfaces as a structured diagnostic instead of
    a hang.

    Deadlines use the monotonic clock ([CLOCK_MONOTONIC] via bechamel's
    stubs), so they are immune to system-time adjustments.  When every
    limit is [None] the per-step check is one integer increment and one
    boolean test — effectively zero-cost. *)

type limits = {
  fuel : int option;  (** maximum number of goal steps *)
  timeout : float option;  (** wall-clock seconds *)
  max_depth : int option;  (** maximum goal recursion depth *)
}

let unlimited = { fuel = None; timeout = None; max_depth = None }

let is_unlimited l =
  l.fuel = None && l.timeout = None && l.max_depth = None

type exhaustion =
  | Out_of_fuel of int  (** the fuel limit *)
  | Timed_out of float  (** the deadline, in seconds *)
  | Depth_exceeded of int  (** the depth limit *)

let pp_exhaustion ppf = function
  | Out_of_fuel n -> Fmt.pf ppf "step budget exhausted (fuel %d)" n
  | Timed_out s -> Fmt.pf ppf "wall-clock deadline exceeded (timeout %gs)" s
  | Depth_exceeded d -> Fmt.pf ppf "goal depth limit exceeded (max depth %d)" d

let exhaustion_label = function
  | Out_of_fuel _ -> "out_of_fuel"
  | Timed_out _ -> "timed_out"
  | Depth_exceeded _ -> "depth_exceeded"

type t = {
  limits : limits;
  no_limits : bool;  (** precomputed fast path *)
  start_ns : int64;
  deadline_ns : int64 option;
  mutable steps : int;
}

let now_ns () : int64 = Monotonic_clock.now ()

(** [stopwatch ()] returns a function giving the seconds elapsed since
    the call, on the monotonic clock. *)
let stopwatch () : unit -> float =
  let t0 = now_ns () in
  fun () -> Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(** The monotonic instant [secs] seconds after [from_ns], saturating at
    the end of the clock's range: a budget too long to represent (up to
    [infinity]) never expires. *)
let ns_after (from_ns : int64) (secs : float) : int64 =
  let ns = secs *. 1e9 in
  if ns >= Int64.to_float (Int64.sub Int64.max_int from_ns) then Int64.max_int
  else Int64.add from_ns (Int64.of_float ns)

let start (limits : limits) : t =
  let start_ns = now_ns () in
  {
    limits;
    no_limits = is_unlimited limits;
    start_ns;
    deadline_ns = Option.map (ns_after start_ns) limits.timeout;
    steps = 0;
  }

let steps t = t.steps
let elapsed t = Int64.to_float (Int64.sub (now_ns ()) t.start_ns) /. 1e9
let depth_limit t = t.limits.max_depth

(** Account for one goal step.  [None] means the budget still has room. *)
let step (t : t) : exhaustion option =
  t.steps <- t.steps + 1;
  if t.no_limits then None
  else
    match t.limits.fuel with
    | Some f when t.steps > f -> Some (Out_of_fuel f)
    | _ -> (
        match t.deadline_ns with
        | Some d when Int64.compare (now_ns ()) d > 0 ->
            Some (Timed_out (Option.value ~default:0. t.limits.timeout))
        | _ -> None)

(** Account for [n] goal steps at once.  The engine's memo replay charges
    a whole subtree's fuel in one call, so a memoized run exhausts the
    same step budget as the run it replays; the deadline is re-checked
    once. *)
let charge (t : t) (n : int) : exhaustion option =
  t.steps <- t.steps + n;
  if t.no_limits then None
  else
    match t.limits.fuel with
    | Some f when t.steps > f -> Some (Out_of_fuel f)
    | _ -> (
        match t.deadline_ns with
        | Some d when Int64.compare (now_ns ()) d > 0 ->
            Some (Timed_out (Option.value ~default:0. t.limits.timeout))
        | _ -> None)

(** Check the current goal recursion depth against the limit. *)
let check_depth (t : t) (depth : int) : exhaustion option =
  match t.limits.max_depth with
  | Some d when depth > d -> Some (Depth_exceeded d)
  | _ -> None
