(** Shared helpers for the test executables: scratch space, the CLI
    binary and a session worker pool.

    Every scratch directory a test asks for lives under one
    per-process directory inside the system temp dir, and the whole
    tree is removed by an [at_exit] hook — so test runs never litter
    the repository root (the old [_supcache_*] dirs) or leave orphans
    in [/tmp]. *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* Lazy so the directory (and its cleanup hook) only materialize if a
   test actually asks for scratch space. *)
let root =
  lazy
    (let base = Filename.temp_dir "rc-test-scratch" "" in
     at_exit (fun () -> rm_rf base);
     base)

let counter = ref 0

(** A fresh scratch-directory *path*, unique within the process; the
    caller (usually {!Rc_util.Vercache.create}) creates it. *)
let scratch_dir tag =
  incr counter;
  Filename.concat (Lazy.force root) (Printf.sprintf "%s_%d" tag !counter)

(** The CLI binary, when the test runs from a build tree that has it. *)
let refinedc_exe =
  List.find_opt Sys.file_exists
    [ "../bin/refinedc.exe"; "bin/refinedc.exe"; "../../bin/refinedc.exe" ]

(** [with_jobs ~jobs session k] runs [k] on [session] carrying a
    supervised worker pool of [jobs] workers, the way [refinedc check
    -j N] sets one up: clamped to {!Rc_util.Supervisor.recommended_jobs}
    so the suite never oversubscribes the host, and no pool at all when
    that leaves one worker.  The pool is shut down when [k] returns or
    raises. *)
let with_jobs ~jobs (session : Rc_refinedc.Session.t) k =
  let jobs = min jobs (Rc_util.Supervisor.recommended_jobs ()) in
  if jobs <= 1 then k session
  else
    let pool = Rc_util.Supervisor.create ~jobs () in
    Fun.protect
      ~finally:(fun () -> Rc_util.Supervisor.shutdown pool)
      (fun () ->
        k
          (Rc_refinedc.Session.with_exec session
             { session.Rc_refinedc.Session.exec with x_pool = Some pool }))
