(** The concurrency lint passes (codes RC-L030..RC-L032).

    All three read one {!Locksum.analyze} sweep per unit ({!reports},
    shared through the lint context):

    - {b RC-L030} (warning, "race" pass): a shared, non-atomic access
      performed with an {e empty} must-lockset — the Eraser criterion.
      May-race: every race the dynamic vector-clock monitor can observe
      is such an access (the static lockset only shrinks under the
      approximations), but not every report is a schedulable race.
    - {b RC-L031} (warning, "lockrel" pass): a lock held on some but
      not all paths to return — acquired, then released only on one
      branch.  Intentional hand-offs ([spin_lock] returning with the
      lock held on {e every} path) are not flagged.
    - {b RC-L032} (warning, "lockord" pass): two locks acquired in
      opposite orders somewhere in the unit — the classic deadlock
      shape.  Lock identity across functions is the rendered symbolic
      path, so [f(a,b){lock(a);lock(b)}] against
      [g(a,b){lock(b);lock(a)}] is caught, while unrelated locks that
      merely share an argument name can falsely unify (documented
      over-approximation, DESIGN.md §14).

    A unit with no synchronization idiom at all produces no reports:
    there is no lock discipline to check ({!Locksum.unit_concurrent}). *)

module Syntax = Rc_caesium.Syntax
module Diagnostic = Rc_util.Diagnostic
module SSet = Dataflow.StringSet

(** The lockset summary the three passes share: {!Lint.run} computes it
    once per unit, for whichever of them runs first. *)
let reports ~cfg_of ~indexes ~(funcs : (string * Syntax.func) list)
    ~(to_check : Rc_refinedc.Typecheck.fn_to_check list) :
    Locksum.func_report list =
  if Locksum.unit_concurrent funcs then
    Locksum.analyze ~cfg_of ~indexes ~funcs ~to_check ()
  else []

(* ---- RC-L030: shared access with empty lockset -------------------- *)

let run_race (reports : Locksum.func_report list) : Diagnostic.t list =
  (* one report per (function, path, kind), at the earliest location *)
  let found :
      (string * string * bool, Locksum.access * Rc_util.Srcloc.t) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun (r : Locksum.func_report) ->
      List.iter
        (fun (a : Locksum.access) ->
          if SSet.is_empty a.Locksum.a_locks then begin
            let key =
              (a.Locksum.a_fname, Escape.to_string a.Locksum.a_path,
               a.Locksum.a_write)
            in
            match Hashtbl.find_opt found key with
            | Some (_, l) when Rc_util.Srcloc.compare l a.Locksum.a_loc <= 0
              ->
                ()
            | _ -> Hashtbl.replace found key (a, a.Locksum.a_loc)
          end)
        r.Locksum.f_accesses)
    reports;
  Hashtbl.fold
    (fun (fname, path, write) (_, loc) acc ->
      Diagnostic.make ~severity:Diagnostic.Warning ~code:"RC-L030" ~loc
        ~hint:
          "hold a lock (CAS-acquired) around this access, or make the \
           access atomic"
        (Printf.sprintf
           "in %s: %s of shared location '%s' with empty lockset (may \
            race)"
           fname
           (if write then "write" else "read")
           path)
      :: acc)
    found []

(* ---- RC-L031: lock not released on some path ---------------------- *)

let run_release (reports : Locksum.func_report list) : Diagnostic.t list =
  List.concat_map
    (fun (r : Locksum.func_report) ->
      List.map
        (fun (lock, loc) ->
          Diagnostic.make ~severity:Diagnostic.Warning ~code:"RC-L031" ~loc
            ~hint:"release the lock on every path, or on none (hand-off)"
            (Printf.sprintf
               "in %s: lock '%s' is acquired but not released on some \
                path to return"
               r.Locksum.f_name lock))
        r.Locksum.f_unreleased)
    reports

(* ---- RC-L032: inconsistent lock order ----------------------------- *)

let run_order (reports : Locksum.func_report list) : Diagnostic.t list =
  let edges =
    List.concat_map (fun (r : Locksum.func_report) -> r.Locksum.f_order)
      reports
    |> List.sort_uniq compare
  in
  (* adjacency over rendered lock names *)
  let adj : (string, SSet.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Locksum.order_edge) ->
      let cur =
        Option.value ~default:SSet.empty
          (Hashtbl.find_opt adj e.Locksum.o_before)
      in
      Hashtbl.replace adj e.Locksum.o_before
        (SSet.add e.Locksum.o_after cur))
    edges;
  let reaches src dst =
    let seen = Hashtbl.create 8 in
    let rec go n =
      n = dst
      || (not (Hashtbl.mem seen n))
         &&
         (Hashtbl.add seen n ();
          SSet.exists go
            (Option.value ~default:SSet.empty (Hashtbl.find_opt adj n)))
    in
    go src
  in
  List.filter_map
    (fun (e : Locksum.order_edge) ->
      if
        e.Locksum.o_before <> e.Locksum.o_after
        && reaches e.Locksum.o_after e.Locksum.o_before
      then
        Some
          (Diagnostic.make ~severity:Diagnostic.Warning ~code:"RC-L032"
             ~loc:e.Locksum.o_loc
             ~hint:
               "acquire the locks in one global order everywhere to rule \
                out deadlock"
             (Printf.sprintf
                "in %s: lock '%s' acquired while holding '%s', but the \
                 opposite order also occurs in this unit (potential \
                 deadlock)"
                e.Locksum.o_fname e.Locksum.o_after e.Locksum.o_before))
      else None)
    edges
