(** Host speed, measured next to the checks.

    A shared host does not run at one speed: on the 2-vCPU host this
    benchmark was built on, every input of a workload ran up to 1.4-1.8
    times slower for stretches of a fraction of a second to hours, and
    process CPU time grew with it.  So the harness times a fixed
    reference task between checks and reports each check's time in
    units of that task: the time the check would take on a host where
    the task takes [nominal_ms].

    The task builds a map of 700 string keys: small allocations, string
    comparisons and pointer chasing, the kind of work the checker does,
    and none of the repository's code, so no change to the checker moves
    it.  A map lookup loop or an array walk that does not allocate
    tracked the host's speed far less well.  The minor heap is emptied
    first, untimed, so the task never pays for a check's garbage. *)

module M = Map.Make (String)

(** What the task takes on a host at the reference speed, in ms. *)
let nominal_ms = 0.25

let task () =
  let m = ref M.empty in
  for i = 0 to 699 do
    m := M.add (string_of_int (i * 7919 mod 10007)) i !m
  done;
  M.cardinal !m

(** One timing of the task, in ms. *)
let sample () =
  Gc.minor ();
  let t0 = Rc_util.Trace.now_ns () in
  ignore (Sys.opaque_identity (task ()));
  Int64.to_float (Int64.sub (Rc_util.Trace.now_ns ()) t0) /. 1e6
