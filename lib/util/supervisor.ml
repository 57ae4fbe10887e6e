(* Supervised persistent domain pool.  See supervisor.mli.

   Locking protocol: every mutable field of [t] is guarded by [t.m], and
   every mutable field of a batch by its [bm] — which is [t.m] itself
   when the batch runs on a pool.  Workers hold the lock while claiming
   work (the chaos-injection draw included, which touches only the
   campaign's own atomics) and publishing completions, and release it
   around task execution.  The domain inside [run] holds it while
   respawning and draining, releasing it around backoff sleeps and
   inline task execution. *)

let recommended_jobs () = max 1 (Domain.recommended_domain_count ())
let worker_id () = (Domain.self () :> int)

type 'b outcome = Done of 'b | Fault of fault | Not_run of reason
and fault = { f_exn : string; f_attempts : int }
and reason = Deadline | Cancelled | Halted

type run_stats = {
  rs_retries : int;
  rs_task_faults : int;
  rs_crashes : int;
  rs_respawns : int;
  rs_not_run : int;
  rs_degraded : bool;
  rs_stop : reason option;
}

let now_ns () : int64 = Monotonic_clock.now ()

(* capped exponential backoff before re-attempt / respawn [k] (0-based);
   kept tiny so degraded chaos runs stay test-friendly *)
let retry_backoff k =
  Unix.sleepf (Float.min 0.005 (0.0005 *. Float.of_int (1 lsl Stdlib.min k 4)))

let respawn_backoff k =
  Unix.sleepf (Float.min 0.01 (0.00025 *. Float.of_int (1 lsl Stdlib.min k 6)))

(* A queued task: type-erased closures over the caller's result array.
   [t_exec] runs the full attempt loop, stores the outcome and says
   whether its final value halts the run; it never raises (except
   [Sys.Break], see the defensive handlers at the call sites).
   [t_fail]/[t_not_run] resolve the slot without running it. *)
type task = {
  t_index : int;  (** position in the batch's input list *)
  t_exec : unit -> bool;
  t_fail : exn -> unit;
  t_not_run : reason -> unit;
}

type batch = {
  bm : Mutex.t;
      (** guards the batch: the pool's lock on a pool, a private one
          otherwise *)
  q : task Queue.t;
  total : int;
  mutable completed : int;
  deadline_ns : int64 option;
  cancel : unit -> bool;
  fault : Faultsim.t option;
  mutable stop : reason option;
  mutable not_run : int;
  mutable halt_at : int;
      (** the least index whose final value satisfied [~halt]
          ([max_int] while none has) *)
}

type t = {
  m : Mutex.t;
  work : Condition.t;  (** workers wait here for tasks (or shutdown) *)
  donec : Condition.t;  (** the supervisor waits here for completions/crashes *)
  n_jobs : int;
  max_respawns : int;
  mutable current : batch option;
  mutable stopping : bool;
  mutable live : int;
  mutable crashed_pending : int;  (** crashes not yet handled by [run] *)
  mutable respawns : int;
  mutable crashes_total : int;
  mutable degraded : bool;
  mutable domains : unit Domain.t list;
}

(* cancellation outranks the deadline: it is the more deliberate signal *)
let stop_reason_of (b : batch) : reason option =
  if b.cancel () then Some Cancelled
  else
    match b.deadline_ns with
    | Some d when Int64.compare (now_ns ()) d > 0 -> Some Deadline
    | _ -> None

(* Pop [b]'s next task to start.  A task the run must not start — one
   queued after a halting task, or any task once the run is cancelled
   or past its deadline — is resolved not-run on the way.  A halt is
   the caller's own early exit, not a supervision event, so it counts
   in neither [not_run] nor [stop].  Caller holds [b.bm]. *)
let rec claim (b : batch) : task option =
  match Queue.take_opt b.q with
  | None -> None
  | Some task -> (
      let r =
        if task.t_index > b.halt_at then Some Halted else stop_reason_of b
      in
      match r with
      | None -> Some task
      | Some r ->
          task.t_not_run r;
          if r <> Halted then begin
            if b.stop = None then b.stop <- Some r;
            b.not_run <- b.not_run + 1
          end;
          b.completed <- b.completed + 1;
          claim b)

(* Run a claimed task with [b.bm] released, then record it; caller
   holds [b.bm].  [t_exec] isolates everything itself; the handler is a
   belt-and-suspenders guarantee that a leak resolves the slot rather
   than hanging the batch forever.  [Sys.Break] propagates only from
   the calling domain ([~inline]): a worker has no caller to tell. *)
let execute ~inline (b : batch) (task : task) =
  Mutex.unlock b.bm;
  let halts =
    match task.t_exec () with
    | h -> h
    | exception Sys.Break when inline -> raise Sys.Break
    | exception e ->
        task.t_fail e;
        false
  in
  Mutex.lock b.bm;
  if halts then b.halt_at <- Stdlib.min b.halt_at task.t_index;
  b.completed <- b.completed + 1

(* ------------------------------------------------------------------ *)
(* Worker domains                                                      *)
(* ------------------------------------------------------------------ *)

let rec worker_loop (t : t) : unit =
  (* invariant: t.m held here; released before returning *)
  if t.stopping then begin
    t.live <- t.live - 1;
    Mutex.unlock t.m
  end
  else
    match t.current with
    | Some b when not (Queue.is_empty b.q) -> (
        let claimed = claim b in
        if b.completed = b.total then Condition.broadcast t.donec;
        match claimed with
        | None -> worker_loop t
        | Some task -> (
            (* the dispatch boundary: a chaos injection here kills the
               *worker* between isolation scopes — the claimed task is
               re-queued and the supervisor respawns the domain *)
            match Faultsim.point b.fault "pool.dispatch" with
            | exception _ ->
                Queue.push task b.q;
                t.live <- t.live - 1;
                t.crashed_pending <- t.crashed_pending + 1;
                t.crashes_total <- t.crashes_total + 1;
                Condition.broadcast t.donec;
                Condition.broadcast t.work;
                Mutex.unlock t.m
                (* the domain terminates (normally — join stays clean) *)
            | () ->
                execute ~inline:false b task;
                if b.completed = b.total then Condition.broadcast t.donec;
                worker_loop t))
    | _ ->
        Condition.wait t.work t.m;
        worker_loop t

let worker (t : t) () =
  Mutex.lock t.m;
  worker_loop t

(* caller holds t.m *)
let spawn_worker (t : t) =
  t.live <- t.live + 1;
  t.domains <- Domain.spawn (worker t) :: t.domains

(* ------------------------------------------------------------------ *)
(* Pool lifecycle                                                      *)
(* ------------------------------------------------------------------ *)

let create ?jobs ?(max_respawns = 16) () : t =
  let n_jobs =
    match jobs with Some n when n > 0 -> n | _ -> recommended_jobs ()
  in
  let t =
    {
      m = Mutex.create ();
      work = Condition.create ();
      donec = Condition.create ();
      n_jobs;
      max_respawns;
      current = None;
      stopping = false;
      live = 0;
      crashed_pending = 0;
      respawns = 0;
      crashes_total = 0;
      degraded = false;
      domains = [];
    }
  in
  Mutex.lock t.m;
  for _ = 1 to n_jobs do
    spawn_worker t
  done;
  Mutex.unlock t.m;
  t

let jobs (t : t) = t.n_jobs

let shutdown (t : t) =
  Mutex.lock t.m;
  if t.stopping then Mutex.unlock t.m
  else begin
    t.stopping <- true;
    Condition.broadcast t.work;
    let ds = t.domains in
    t.domains <- [];
    Mutex.unlock t.m;
    List.iter Domain.join ds
  end

(* ------------------------------------------------------------------ *)
(* Running a batch                                                     *)
(* ------------------------------------------------------------------ *)

(* Respawn crashed workers with capped exponential backoff; once the
   allowance is exhausted, mark the pool degraded.  Caller holds t.m. *)
let handle_crashes (t : t) =
  while t.crashed_pending > 0 do
    t.crashed_pending <- t.crashed_pending - 1;
    if t.respawns < t.max_respawns then begin
      let k = t.respawns in
      t.respawns <- t.respawns + 1;
      Mutex.unlock t.m;
      respawn_backoff k;
      Mutex.lock t.m;
      if not t.stopping then spawn_worker t
    end
    else t.degraded <- true
  done

(* The calling domain drains the queue itself: the whole run without a
   pool, and the fallback of a degraded (or worker-less) one.  Same
   isolation, halt, deadline and cancel semantics as a worker, no
   parallelism, and crucially no pool-dispatch chaos site, so a
   degraded run always terminates.  Caller holds [b.bm]. *)
let rec drain_inline (b : batch) =
  match claim b with
  | None -> ()
  | Some task ->
      execute ~inline:true b task;
      drain_inline b

(* Hand [b] to the pool's workers and wait for it, draining inline once
   no healthy worker is left.  Returns the crashes and respawns the
   batch saw.  Caller holds [t.m] (which is [b.bm]). *)
let supervise (t : t) (b : batch) : int * int =
  let crashes0 = t.crashes_total and respawns0 = t.respawns in
  t.current <- Some b;
  Condition.broadcast t.work;
  let rec wait () =
    handle_crashes t;
    if t.live = 0 || t.degraded then drain_inline b;
    if b.completed < b.total then begin
      Condition.wait t.donec t.m;
      wait ()
    end
  in
  wait ();
  t.current <- None;
  (t.crashes_total - crashes0, t.respawns - respawns0)

(* [give_up] is polled before committing to another attempt, so a
   cancelled or past-deadline run stops retrying after the in-flight
   attempt instead of burning the whole retry budget (with a large
   [--retries] and a persistent fault that loop would otherwise be
   uninterruptible).  Giving up keeps the last attempt's outcome. *)
let attempt_loop ~give_up ~retries ~should_retry ~is_transient ~retries_ctr
    ~faults_ctr (f : 'a -> 'b) (x : 'a) : 'b outcome =
  let rec go k =
    match f x with
    | v ->
        if k < retries && should_retry v && not (give_up ()) then begin
          Atomic.incr retries_ctr;
          retry_backoff k;
          go (k + 1)
        end
        else Done v
    | exception Sys.Break -> raise Sys.Break
    | exception e ->
        if k < retries && is_transient e && not (give_up ()) then begin
          Atomic.incr retries_ctr;
          retry_backoff k;
          go (k + 1)
        end
        else begin
          Atomic.incr faults_ctr;
          Fault { f_exn = Printexc.to_string e; f_attempts = k + 1 }
        end
  in
  go 0

let run (pool : t option) ?deadline ?(cancel = fun () -> false)
    ?(retries = 0) ?(should_retry = fun _ -> false)
    ?(is_transient = fun _ -> false) ?(halt = fun _ -> false) ?fault
    (f : 'a -> 'b) (items : 'a list) : 'b outcome list * run_stats =
  let input = Array.of_list items in
  let n = Array.length input in
  (* a slot no resolution path fills (unreachable) reads as lost *)
  let out : 'b outcome array =
    Array.make n (Fault { f_exn = "task lost by the pool"; f_attempts = 0 })
  in
  let retries_ctr = Atomic.make 0 and faults_ctr = Atomic.make 0 in
  let b =
    {
      bm = (match pool with Some t -> t.m | None -> Mutex.create ());
      q = Queue.create ();
      total = n;
      completed = 0;
      deadline_ns = Option.map (Budget.ns_after (now_ns ())) deadline;
      cancel;
      fault;
      stop = None;
      not_run = 0;
      halt_at = max_int;
    }
  in
  (* racy read of [b.stop], benign: a stale [None] just means one more
     attempt.  A halt deliberately does not give up: a task dispatched
     before the halting one must still reach its own final value *)
  let give_up () = b.stop <> None || stop_reason_of b <> None in
  for i = 0 to n - 1 do
    Queue.push
      {
        t_index = i;
        t_exec =
          (fun () ->
            let o =
              attempt_loop ~give_up ~retries ~should_retry ~is_transient
                ~retries_ctr ~faults_ctr f input.(i)
            in
            out.(i) <- o;
            match o with Done v -> halt v | Fault _ | Not_run _ -> false);
        t_fail =
          (fun e ->
            Atomic.incr faults_ctr;
            out.(i) <- Fault { f_exn = Printexc.to_string e; f_attempts = 1 });
        t_not_run = (fun r -> out.(i) <- Not_run r);
      }
      b.q
  done;
  Mutex.lock b.bm;
  let crashes, respawns =
    match pool with
    | Some t -> supervise t b
    | None ->
        drain_inline b;
        (0, 0)
  in
  let stats =
    {
      rs_retries = Atomic.get retries_ctr;
      rs_task_faults = Atomic.get faults_ctr;
      rs_crashes = crashes;
      rs_respawns = respawns;
      rs_not_run = b.not_run;
      rs_degraded = (match pool with Some t -> t.degraded | None -> false);
      rs_stop = b.stop;
    }
  in
  Mutex.unlock b.bm;
  (Array.to_list out, stats)
