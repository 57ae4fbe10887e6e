(** Shared scratch-space helper for the test executables.

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
