(* Supervised persistent domain pool.  See supervisor.mli.

   Locking protocol: every mutable field of [t] and of the current batch
   is guarded by [t.m].  Workers hold the lock while claiming work and
   publishing completions, and release it around task execution (and
   around the chaos-injection draw, which mutates only the campaign's
   own atomics).  The supervisor (the domain inside [run]) holds it
   while respawning and draining, releasing it around backoff sleeps and
   inline task execution. *)

let recommended_jobs () = max 1 (Domain.recommended_domain_count ())
let worker_id () = (Domain.self () :> int)

type health = Healthy | Degraded of string

type 'b outcome = Done of 'b | Fault of fault | Not_run of reason
and fault = { f_exn : string; f_attempts : int }
and reason = Deadline | Cancelled

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
   [t_exec] runs the full attempt loop and never raises (except
   [Sys.Break], see the defensive handler at the call sites);
   [t_fail]/[t_not_run] resolve the slot without running it. *)
type task = {
  t_exec : unit -> unit;
  t_fail : exn -> unit;
  t_not_run : reason -> unit;
  mutable t_redispatches : int;
}

type batch = {
  q : task Queue.t;
  total : int;
  mutable completed : int;
  deadline_ns : int64 option;
  cancel : unit -> bool;
  fault : Faultsim.t option;
  mutable stop : reason option;
  mutable not_run : int;
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
  mutable health : health;
  mutable domains : unit Domain.t list;
}

let expired (b : batch) =
  match b.deadline_ns with
  | Some d -> Int64.compare (now_ns ()) d > 0
  | None -> false

(* cancellation outranks the deadline: it is the more deliberate signal *)
let stop_reason_of (b : batch) : reason option =
  if b.cancel () then Some Cancelled
  else if expired b then Some Deadline
  else None

(* Resolve one claimed task as not-run; caller holds [t.m]. *)
let resolve_not_run t (b : batch) task (r : reason) =
  if b.stop = None then b.stop <- Some r;
  task.t_not_run r;
  b.not_run <- b.not_run + 1;
  b.completed <- b.completed + 1;
  if b.completed = b.total then Condition.broadcast t.donec

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
        let task = Queue.pop b.q in
        match stop_reason_of b with
        | Some r ->
            resolve_not_run t b task r;
            worker_loop t
        | None -> (
            Mutex.unlock t.m;
            (* the dispatch boundary: a chaos injection here kills the
               *worker* between isolation scopes — the claimed task is
               re-queued and the supervisor respawns the domain *)
            match Faultsim.point b.fault "pool.dispatch" with
            | exception e ->
                Mutex.lock t.m;
                ignore e;
                task.t_redispatches <- task.t_redispatches + 1;
                Queue.push task b.q;
                t.live <- t.live - 1;
                t.crashed_pending <- t.crashed_pending + 1;
                t.crashes_total <- t.crashes_total + 1;
                Condition.broadcast t.donec;
                Condition.broadcast t.work;
                Mutex.unlock t.m
                (* the domain terminates (normally — join stays clean) *)
            | () ->
                (* [t_exec] isolates everything itself; the handler is a
                   belt-and-suspenders guarantee that a leak resolves
                   the slot rather than hanging the batch forever *)
                (match task.t_exec () with
                | () -> ()
                | exception e -> task.t_fail e);
                Mutex.lock t.m;
                b.completed <- b.completed + 1;
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
      health = Healthy;
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

let health (t : t) : health =
  Mutex.lock t.m;
  let h = t.health in
  Mutex.unlock t.m;
  h

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
(* Supervision (the caller's side of a batch)                          *)
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
    else if t.health = Healthy then
      t.health <-
        Degraded
          (Printf.sprintf
             "worker respawn allowance exhausted (%d crashes, %d respawns)"
             t.crashes_total t.respawns)
  done

(* Degraded (or worker-less) fallback: the calling domain drains the
   queue itself — same isolation, deadline and cancel semantics, no
   parallelism, and crucially no pool-dispatch chaos site, so a
   degraded run always terminates.  Caller holds t.m. *)
let drain_inline (t : t) (b : batch) =
  while not (Queue.is_empty b.q) do
    let task = Queue.pop b.q in
    (match stop_reason_of b with
    | Some r ->
        if b.stop = None then b.stop <- Some r;
        task.t_not_run r;
        b.not_run <- b.not_run + 1
    | None -> (
        Mutex.unlock t.m;
        (match task.t_exec () with
        | () -> ()
        | exception e -> task.t_fail e);
        Mutex.lock t.m));
    b.completed <- b.completed + 1
  done;
  if b.completed = b.total then Condition.broadcast t.donec

(* ------------------------------------------------------------------ *)
(* The shared attempt loop (retry policy)                              *)
(* ------------------------------------------------------------------ *)

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

let zero_stats =
  {
    rs_retries = 0;
    rs_task_faults = 0;
    rs_crashes = 0;
    rs_respawns = 0;
    rs_not_run = 0;
    rs_degraded = false;
    rs_stop = None;
  }

let run_seq ?deadline ?(cancel = fun () -> false) ?(retries = 0)
    ?(should_retry = fun _ -> false) ?(is_transient = fun _ -> false)
    (f : 'a -> 'b) (items : 'a list) : 'b outcome list * run_stats =
  let deadline_ns =
    Option.map
      (fun s -> Int64.add (now_ns ()) (Int64.of_float (s *. 1e9)))
      deadline
  in
  let expired () =
    match deadline_ns with
    | Some d -> Int64.compare (now_ns ()) d > 0
    | None -> false
  in
  let retries_ctr = Atomic.make 0 and faults_ctr = Atomic.make 0 in
  let not_run = ref 0 and stop = ref None in
  let outcomes =
    List.map
      (fun item ->
        match !stop with
        | Some r ->
            incr not_run;
            Not_run r
        | None ->
            let r =
              if cancel () then Some Cancelled
              else if expired () then Some Deadline
              else None
            in
            (match r with
            | Some r ->
                stop := Some r;
                incr not_run;
                Not_run r
            | None ->
                attempt_loop
                  ~give_up:(fun () -> cancel () || expired ())
                  ~retries ~should_retry ~is_transient ~retries_ctr
                  ~faults_ctr f item))
      items
  in
  ( outcomes,
    {
      zero_stats with
      rs_retries = Atomic.get retries_ctr;
      rs_task_faults = Atomic.get faults_ctr;
      rs_not_run = !not_run;
      rs_stop = !stop;
    } )

let run (t : t) ?deadline ?(cancel = fun () -> false) ?(retries = 0)
    ?(should_retry = fun _ -> false) ?(is_transient = fun _ -> false)
    ?fault (f : 'a -> 'b) (items : 'a list) : 'b outcome list * run_stats =
  let n = List.length items in
  if n = 0 then ([], zero_stats)
  else begin
    let input = Array.of_list items in
    let out : 'b outcome option array = Array.make n None in
    let retries_ctr = Atomic.make 0 and faults_ctr = Atomic.make 0 in
    (* forward ref: tasks are built before the batch record exists; once
       [b] is live this polls its stop state (racy read, benign — a stale
       [None] just means one more attempt) *)
    let give_up = ref (fun () -> false) in
    let mk_task i =
      {
        t_exec =
          (fun () ->
            out.(i) <-
              Some
                (attempt_loop
                   ~give_up:(fun () -> !give_up ())
                   ~retries ~should_retry ~is_transient ~retries_ctr
                   ~faults_ctr f input.(i)));
        t_fail =
          (fun e ->
            Atomic.incr faults_ctr;
            out.(i) <-
              Some (Fault { f_exn = Printexc.to_string e; f_attempts = 1 }));
        t_not_run = (fun r -> out.(i) <- Some (Not_run r));
        t_redispatches = 0;
      }
    in
    Mutex.lock t.m;
    let crashes0 = t.crashes_total and respawns0 = t.respawns in
    let q = Queue.create () in
    for i = 0 to n - 1 do
      Queue.push (mk_task i) q
    done;
    let b =
      {
        q;
        total = n;
        completed = 0;
        deadline_ns =
          Option.map
            (fun s -> Int64.add (now_ns ()) (Int64.of_float (s *. 1e9)))
            deadline;
        cancel;
        fault;
        stop = None;
        not_run = 0;
      }
    in
    (give_up := fun () -> b.stop <> None || stop_reason_of b <> None);
    t.current <- Some b;
    Condition.broadcast t.work;
    let rec wait () =
      handle_crashes t;
      if
        (t.live = 0 || t.health <> Healthy)
        && not (Queue.is_empty b.q)
      then drain_inline t b;
      if b.completed < b.total then begin
        Condition.wait t.donec t.m;
        wait ()
      end
    in
    wait ();
    t.current <- None;
    let stats =
      {
        rs_retries = Atomic.get retries_ctr;
        rs_task_faults = Atomic.get faults_ctr;
        rs_crashes = t.crashes_total - crashes0;
        rs_respawns = t.respawns - respawns0;
        rs_not_run = b.not_run;
        rs_degraded = t.health <> Healthy;
        rs_stop = b.stop;
      }
    in
    Mutex.unlock t.m;
    let outcomes =
      Array.to_list
        (Array.map
           (function
             | Some o -> o
             (* unreachable: every resolution path fills the slot *)
             | None -> Fault { f_exn = "task lost by the pool"; f_attempts = 0 })
           out)
    in
    (outcomes, stats)
  end
