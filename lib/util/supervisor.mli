(** The one batch engine: {!run} applies a function to a list of items
    with per-task crash isolation, a transient-fault retry policy, a
    caller-defined early exit, whole-run deadlines and cancellation —
    on a persistent worker pool when given one, on the calling domain
    otherwise.

    A supervisor spawns its domains {e once} — per CLI invocation or per
    long-lived session — and feeds them batches through a shared work
    queue; its workers live until {!shutdown}.  Without a pool, and on a
    pool that was shut down, the calling domain drains the same queue
    through the same code, so the two differ only in who executes a
    task.  A task that crashes, times out or is skipped becomes a
    structured {!outcome} for that one item; completed results are never
    discarded.

    Supervision model:

    - {b Crash isolation.}  Any exception escaping a task — including
      [Out_of_memory] and [Stack_overflow] — is confined to that task's
      {!Fault} outcome.  [Sys.Break] on the calling domain is the single
      exception: masking an interrupt would be dishonest, so it
      propagates to the caller (cooperative interruption should use
      [~cancel] instead).
    - {b Retry.}  A task whose {e result} the caller classifies as
      transiently faulted ([~should_retry]), or that raised an exception
      classified transient ([~is_transient]), is re-attempted up to
      [~retries] times with capped exponential backoff.  Deterministic
      failures are never retried, and a cancelled or past-deadline run
      stops retrying after the in-flight attempt (keeping that
      attempt's outcome) — a large retry budget never makes the run
      uninterruptible.
    - {b Halting.}  Once a task's {e final} value (after its retries)
      satisfies [~halt], no task queued after it is started; those
      resolve [Not_run Halted].  Tasks queued before it still run to
      their own final value, so the tasks that run are always at least
      the input prefix up to the first halting one, whatever the pool.
    - {b Deadlines.}  [~deadline] bounds the whole run on the monotonic
      clock: once it passes, no further task is {e started} and every
      unstarted task resolves to {!Not_run}.  In-flight tasks are not
      preempted — per-task wall-clock limits are the resource budget's
      job ({!Budget.limits}), enforced cooperatively inside the task.

    Concurrency contract: one [run] at a time per supervisor (batches
    are not re-entrant); any number of supervisors may coexist.  The
    handle is a resource owned by whoever created it — a CLI invocation,
    a bench harness, a server session — and travels inside the
    verification session like every other piece of configuration. *)

val recommended_jobs : unit -> int
(** The number of workers the hardware can actually run concurrently
    (the runtime's recommended domain count).  Policy layers (the CLI,
    the driver) clamp a requested [-j N] to this before sizing a pool:
    worker domains beyond the core count only add scheduling and
    GC-synchronisation overhead — on a single-core host a [-j 4] request
    degrades all the way to inline sequential execution, which is the
    fastest thing that host can do.  {!create} itself does not clamp, so
    tests and embedders can deliberately oversubscribe. *)

val worker_id : unit -> int
(** The calling domain's runtime id.  Observability only (task
    placement events): the value is scheduling-dependent, never part of
    any deterministic output. *)

type t

val create : ?jobs:int -> unit -> t
(** Spawn a pool of [jobs] persistent worker domains (default: the
    runtime's recommended count). *)

val jobs : t -> int
(** The worker count the pool was created with. *)

val shutdown : t -> unit
(** Stop and join every worker.  Idempotent.  Outstanding batches must
    have completed ([run] has returned). *)

(** The structured fate of one task. *)
type 'b outcome =
  | Done of 'b  (** the (last) attempt returned normally *)
  | Fault of fault
      (** every attempt raised; the task's slot holds the final
          attempt's printed exception instead of aborting the batch *)
  | Not_run of reason
      (** never started: the run deadline passed, the run was
          cancelled, or an earlier task halted the run *)

and fault = {
  f_exn : string;  (** printed exception of the final attempt *)
  f_attempts : int;  (** total attempts made (>= 1) *)
}

and reason =
  | Deadline
  | Cancelled
  | Halted
      (** an earlier task's final value satisfied [~halt]: the caller's
          own early exit, not a supervision event *)

(** Counters for one [run], for observability and reports.  All zero on
    a fault-free, deadline-free run, halted or not — which keeps [-j 1]
    and [-j 4] reports byte-identical. *)
type run_stats = {
  rs_retries : int;  (** task re-attempts (transient faults) *)
  rs_task_faults : int;  (** tasks that exhausted their attempts *)
  rs_not_run : int;  (** tasks resolved [Not_run Deadline|Cancelled] *)
  rs_stop : reason option;
      (** the deadline or cancellation that stopped the run early, if
          one did; never [Halted] *)
}

val run :
  t option ->
  ?deadline:float ->
  ?cancel:(unit -> bool) ->
  ?retries:int ->
  ?should_retry:('b -> bool) ->
  ?is_transient:(exn -> bool) ->
  ?halt:('b -> bool) ->
  ('a -> 'b) ->
  'a list ->
  'b outcome list * run_stats
(** [run pool f items] applies [f] to every item and returns the
    outcomes in input order.  Items are started in input order: on
    [Some pool] by its workers, concurrently; on [None] one after
    another on the calling domain.

    [?deadline] is the whole-run wall-clock budget in seconds, measured
    from the call on the monotonic clock.  [?cancel] is polled at every
    dispatch; once it returns [true] the remaining tasks resolve
    [Not_run Cancelled] (the cooperative SIGINT path).  [?retries]
    (default 0) caps re-attempts per task; a re-attempt happens when
    [should_retry] accepts the returned value or [is_transient] accepts
    the raised exception.  [?halt] is checked against each task's final
    [Done] value; see {b Halting} above. *)
