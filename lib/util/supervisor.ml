(* Persistent domain pool.  See supervisor.mli.

   Locking protocol: every mutable field of [t] is guarded by [t.m], and
   every mutable field of a batch by its [bm] — which is [t.m] itself
   when the batch runs on a pool.  Workers hold the lock while claiming
   work and publishing completions, and release it around task
   execution.  The domain inside [run] holds it while handing out the
   batch and waiting for it (or draining it itself), releasing it
   around inline task execution. *)

let recommended_jobs () = max 1 (Domain.recommended_domain_count ())
let worker_id () = (Domain.self () :> int)

type 'b outcome = Done of 'b | Fault of fault | Not_run of reason
and fault = { f_exn : string }
and reason = Deadline | Cancelled | Halted

type run_stats = {
  rs_task_faults : int;
  rs_not_run : int;
  rs_stop : reason option;
}

let now_ns () : int64 = Monotonic_clock.now ()

(* A queued task: type-erased closures over the caller's result array.
   [t_exec] runs the task once, stores its [Done] value and says
   whether that value halts the run; whatever it raises is the task's
   fault, which {!execute} stores through [t_fail].  [t_not_run]
   resolves the slot without running it. *)
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
  mutable stop : reason option;
  mutable not_run : int;
  mutable halt_at : int;
      (** the least index whose value satisfied [~halt]
          ([max_int] while none has) *)
}

type t = {
  m : Mutex.t;
  work : Condition.t;  (** workers wait here for tasks (or shutdown) *)
  donec : Condition.t;  (** the supervisor waits here for completions *)
  n_jobs : int;
  mutable current : batch option;
  mutable stopping : bool;
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
   holds [b.bm].  This handler is the crash isolation: any exception
   the task raises becomes its [Fault].  [Sys.Break] propagates only
   from the calling domain ([~inline]): a worker has no caller to
   tell. *)
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
  if t.stopping then Mutex.unlock t.m
  else
    match t.current with
    | Some b when not (Queue.is_empty b.q) ->
        Option.iter (execute ~inline:false b) (claim b);
        if b.completed = b.total then Condition.broadcast t.donec;
        worker_loop t
    | _ ->
        Condition.wait t.work t.m;
        worker_loop t

let worker (t : t) () =
  Mutex.lock t.m;
  worker_loop t

(* ------------------------------------------------------------------ *)
(* Pool lifecycle                                                      *)
(* ------------------------------------------------------------------ *)

let create ?jobs () : t =
  let n_jobs =
    match jobs with Some n when n > 0 -> n | _ -> recommended_jobs ()
  in
  let t =
    {
      m = Mutex.create ();
      work = Condition.create ();
      donec = Condition.create ();
      n_jobs;
      current = None;
      stopping = false;
      domains = [];
    }
  in
  Mutex.protect t.m (fun () ->
      t.domains <- List.init n_jobs (fun _ -> Domain.spawn (worker t)));
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

(* The calling domain drains the queue itself: the whole run without a
   pool, and on a pool that was shut down.  Same isolation, halt,
   deadline and cancel semantics as a worker, no parallelism.  Caller
   holds [b.bm]. *)
let rec drain_inline (b : batch) =
  match claim b with
  | None -> ()
  | Some task ->
      execute ~inline:true b task;
      drain_inline b

(* Hand [b] to the pool's workers and wait for it; a shut-down pool has
   none, so the calling domain drains it.  Caller holds [t.m] (which is
   [b.bm]). *)
let supervise (t : t) (b : batch) =
  if t.stopping then drain_inline b
  else begin
    t.current <- Some b;
    Condition.broadcast t.work;
    while b.completed < b.total do
      Condition.wait t.donec t.m
    done;
    t.current <- None
  end

let run (pool : t option) ?deadline ?(cancel = fun () -> false)
    ?(halt = fun _ -> false) (f : 'a -> 'b) (items : 'a list) :
    'b outcome list * run_stats =
  let input = Array.of_list items in
  let n = Array.length input in
  (* a slot no resolution path fills (unreachable) reads as lost *)
  let out : 'b outcome array =
    Array.make n (Fault { f_exn = "task lost by the pool" })
  in
  let faults_ctr = Atomic.make 0 in
  let b =
    {
      bm = (match pool with Some t -> t.m | None -> Mutex.create ());
      q = Queue.create ();
      total = n;
      completed = 0;
      deadline_ns = Option.map (Budget.ns_after (now_ns ())) deadline;
      cancel;
      stop = None;
      not_run = 0;
      halt_at = max_int;
    }
  in
  for i = 0 to n - 1 do
    Queue.push
      {
        t_index = i;
        t_exec =
          (fun () ->
            let v = f input.(i) in
            out.(i) <- Done v;
            halt v);
        t_fail =
          (fun e ->
            Atomic.incr faults_ctr;
            out.(i) <- Fault { f_exn = Printexc.to_string e });
        t_not_run = (fun r -> out.(i) <- Not_run r);
      }
      b.q
  done;
  Mutex.lock b.bm;
  (match pool with Some t -> supervise t b | None -> drain_inline b);
  let stats =
    {
      rs_task_faults = Atomic.get faults_ctr;
      rs_not_run = b.not_run;
      rs_stop = b.stop;
    }
  in
  Mutex.unlock b.bm;
  (Array.to_list out, stats)
