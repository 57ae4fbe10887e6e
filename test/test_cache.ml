(* Correctness of the content-addressed verification cache: a cached run
   replays verdicts only when *nothing* the verdict depends on changed.
   Each test drives [Driver.check_source] against a fresh cache directory
   and inspects the (hits, misses) counters.

   The cache key covers the function's dependency cone: its Caesium
   body, its own spec, its loop invariants, the specs of its *direct*
   callees (a call's premise reads the callee's spec; transitive callees
   are covered inductively), the rule-set fingerprint, the solver and
   lemma registry, registered type definitions, ablation switches, and
   the resource budget. *)

module Driver = Rc_frontend.Driver
module Api = Rc_session.Refinedc_api

let fresh_cache_dir () = Testutil.scratch_dir "vercache"

let src =
  {|
[[rc::parameters("x: int", "y: int")]]
[[rc::args("x @ int<int>", "y @ int<int>")]]
[[rc::returns("(x <= y ? x : y) @ int<int>")]]
int imin(int a, int b) {
  if (a <= b) return a;
  return b;
}

[[rc::parameters("x: nat")]]
[[rc::args("x @ int<int>")]]
[[rc::requires("{x <= 1000}")]]
[[rc::returns("(x + 1) @ int<int>")]]
int incr_small(int n) {
  return n + 1;
}
|}

(* the same program with one function *body* edited (still verifies) *)
let src_body_edit =
  Rc_util.Xstring.replace_first src ~sub:"if (a <= b) return a;\n  return b;"
    ~by:"if (b < a) return b;\n  return a;"

(* the same program with one *spec* edited (bodies untouched) *)
let src_spec_edit =
  Rc_util.Xstring.replace_first src ~sub:{|"{x <= 1000}"|} ~by:{|"{x <= 999}"|}

(* Each call builds a fresh stock session; cache keys depend only on the
   session's *configuration*, so two identically-configured sessions
   share verdicts while any config difference forces a miss. *)
let check ?session ~cache src =
  Driver.check_source ?session ~cache ~file:"cache_test.c" src

let counters (t : Driver.t) =
  match t.Driver.cache_stats with
  | Some hm -> hm
  | None -> Alcotest.fail "expected cache statistics"

let all_ok (t : Driver.t) =
  Driver.errors t = [] && t.Driver.skipped = []

let expect name ~hits ~misses t =
  if not (all_ok t) then Alcotest.failf "%s: verification failed" name;
  Alcotest.(check (pair int int)) name (hits, misses) (counters t)

let cache_tests =
  [
    Alcotest.test_case "unchanged input hits" `Quick (fun () ->
        let cache = Rc_util.Vercache.create (fresh_cache_dir ()) in
        expect "cold run misses" ~hits:0 ~misses:2 (check ~cache src);
        expect "warm run hits" ~hits:2 ~misses:0 (check ~cache src);
        Alcotest.(check int) "entries on disk" 2 (Rc_util.Vercache.entries cache));
    Alcotest.test_case "cached verdicts equal fresh verdicts" `Quick (fun () ->
        let cache = Rc_util.Vercache.create (fresh_cache_dir ()) in
        let fresh = check ~cache src in
        let warm = check ~cache src in
        let sig_of (t : Driver.t) =
          List.map
            (fun (r : Driver.check_result) ->
              match r.outcome with
              | Ok res ->
                  let s = res.Rc_refinedc.Lang.E.stats in
                  Fmt.str "%s:ok:%d:%d" r.name s.Rc_lithium.Stats.rule_apps
                    s.Rc_lithium.Stats.evar_insts
              | Error e ->
                  Fmt.str "%s:error:%s" r.name (Rc_lithium.Report.to_string e))
            t.Driver.results
        in
        Alcotest.(check (list string)) "verdicts" (sig_of fresh) (sig_of warm);
        Alcotest.(check int) "exit codes" (Driver.exit_code fresh)
          (Driver.exit_code warm));
    Alcotest.test_case "body edit misses" `Quick (fun () ->
        Alcotest.(check bool) "fixture differs" true (src <> src_body_edit);
        let cache = Rc_util.Vercache.create (fresh_cache_dir ()) in
        expect "cold" ~hits:0 ~misses:2 (check ~cache src);
        (* the edited function misses; its sibling's body and all specs
           are unchanged, so the sibling still hits *)
        expect "after body edit" ~hits:1 ~misses:1
          (check ~cache src_body_edit));
    Alcotest.test_case "spec-only edit dirties only its cone" `Quick (fun () ->
        Alcotest.(check bool) "fixture differs" true (src <> src_spec_edit);
        let cache = Rc_util.Vercache.create (fresh_cache_dir ()) in
        expect "cold" ~hits:0 ~misses:2 (check ~cache src);
        (* incr_small has no callers, so editing its spec re-proves it
           alone — imin's cone never mentions incr_small (early cutoff
           at spec granularity; exhaustive cone tests live in
           test_incremental.ml) *)
        expect "after spec edit" ~hits:1 ~misses:1
          (check ~cache src_spec_edit));
    Alcotest.test_case "rule-set change misses" `Quick (fun () ->
        let cache = Rc_util.Vercache.create (fresh_cache_dir ()) in
        expect "cold" ~hits:0 ~misses:2 (check ~cache src);
        (* a session with an extra rule has a different rule-set
           fingerprint even if the rule never fires (it only serves a
           head no goal has) *)
        let extra =
          Api.create_session
            ~rules:
              [
                {
                  Rc_refinedc.Lang.E.rname = "TEST-NEVER-FIRES";
                  prio = 1000;
                  heads = Some [ "no-such-judgment-head" ];
                  apply = (fun _ _ -> None);
                };
              ]
            ()
        in
        expect "extra-rule session misses" ~hits:0 ~misses:2
          (check ~session:extra ~cache src);
        (* a stock session restores the original fingerprint: hits again *)
        expect "stock session hits" ~hits:2 ~misses:0 (check ~cache src));
    Alcotest.test_case "solver/ablation config keys the cache" `Quick
      (fun () ->
        (* satellite of the session refactor: a verdict produced under
           one solver/ablation configuration must never be replayed for
           a session configured differently, even within one process and
           one cache directory *)
        let cache = Rc_util.Vercache.create (fresh_cache_dir ()) in
        expect "cold, stock config" ~hits:0 ~misses:2 (check ~cache src);
        expect "same config hits" ~hits:2 ~misses:0 (check ~cache src);
        let default_only = Api.create_session ~default_only:true () in
        expect "default-only ablation misses" ~hits:0 ~misses:2
          (check ~session:default_only ~cache src);
        let no_gs = Api.create_session ~no_goal_simp:true () in
        expect "no-goal-simp ablation misses" ~hits:0 ~misses:2
          (check ~session:no_gs ~cache src);
        let open Rc_pure.Term in
        let with_lemma =
          Api.create_session
            ~lemmas:
              [
                {
                  Rc_pure.Registry.lname = "test_cache_lemma";
                  vars = [ ("n", Rc_pure.Sort.Int) ];
                  premises = [];
                  concl = PEq (Var ("n", Rc_pure.Sort.Int),
                               Var ("n", Rc_pure.Sort.Int));
                };
              ]
            ()
        in
        expect "extra-lemma session misses" ~hits:0 ~misses:2
          (check ~session:with_lemma ~cache src);
        (* each ablated config warms its own entries *)
        expect "default-only warm hits" ~hits:2 ~misses:0
          (check ~session:(Api.create_session ~default_only:true ()) ~cache
             src);
        expect "stock config still hits" ~hits:2 ~misses:0
          (check ~cache src));
    Alcotest.test_case "budget change misses" `Quick (fun () ->
        let cache = Rc_util.Vercache.create (fresh_cache_dir ()) in
        let fuel n =
          Rc_refinedc.Session.with_budget
            (Rc_refinedc.Session.create ())
            { Rc_util.Budget.unlimited with fuel = Some n }
        in
        expect "cold, fuel 100k" ~hits:0 ~misses:2
          (check ~session:(fuel 100_000) ~cache src);
        expect "same fuel hits" ~hits:2 ~misses:0
          (check ~session:(fuel 100_000) ~cache src);
        (* a verdict under one budget must not stand in for another *)
        expect "different fuel misses" ~hits:0 ~misses:2
          (check ~session:(fuel 50_000) ~cache src);
        expect "no budget misses" ~hits:0 ~misses:2 (check ~cache src));
    Alcotest.test_case "lint config keys the cache" `Quick (fun () ->
        (* the lint configuration is part of the toolchain fingerprint:
           a verdict cached under one lint config (which decided that
           run's diagnostics and, under werror, its exit code) must not
           be replayed for a session linting differently *)
        let cache = Rc_util.Vercache.create (fresh_cache_dir ()) in
        expect "cold, lint on (default)" ~hits:0 ~misses:2 (check ~cache src);
        expect "same lint config hits" ~hits:2 ~misses:0 (check ~cache src);
        let no_lint =
          Api.create_session
            ~lint:
              {
                Rc_refinedc.Session.l_enabled = false;
                l_passes = None;
                l_werror = false;
              }
            ()
        in
        expect "lint-disabled session misses" ~hits:0 ~misses:2
          (check ~session:no_lint ~cache src);
        let werror =
          Api.create_session
            ~lint:{ Rc_refinedc.Session.default_lint with l_werror = true }
            ()
        in
        expect "werror session misses" ~hits:0 ~misses:2
          (check ~session:werror ~cache src);
        let subset =
          Api.create_session
            ~lint:
              {
                Rc_refinedc.Session.default_lint with
                l_passes = Some [ "init"; "spec" ];
              }
            ()
        in
        expect "pass-subset session misses" ~hits:0 ~misses:2
          (check ~session:subset ~cache src);
        (* the default config's entries are still intact *)
        expect "default lint config still hits" ~hits:2 ~misses:0
          (check ~cache src));
    Alcotest.test_case "corrupt entry degrades to miss" `Quick (fun () ->
        let dir = fresh_cache_dir () in
        let cache = Rc_util.Vercache.create dir in
        expect "cold" ~hits:0 ~misses:2 (check ~cache src);
        Array.iter
          (fun f ->
            if Filename.check_suffix f ".vc" then
              Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
                  Out_channel.output_string oc "garbage"))
          (Sys.readdir dir);
        expect "corrupt entries re-prove" ~hits:0 ~misses:2
          (check ~cache src));
    Alcotest.test_case "unreadable payload counts as a corrupt skip" `Quick
      (fun () ->
        (* an entry whose outer record reads fine but whose payload the
           driver cannot unmarshal: the function is re-proved, and the
           store's counters must say so — a corrupt skip, not a hit *)
        let src = Rc_benchgen.Corpus.call_chain ~n:3 () in
        let file = "chain.c" in
        let check cache = Driver.check_source ~cache ~file src in
        let cache = Rc_util.Vercache.create (fresh_cache_dir ()) in
        expect "cold" ~hits:0 ~misses:3 (check cache);
        let session = Rc_refinedc.Session.create () in
        let el = Driver.parse_and_elab ~session ~file src in
        let graph = Rc_refinedc.Depgraph.build el.Rc_frontend.Elab.to_check in
        List.iter
          (fun (f : Rc_refinedc.Typecheck.fn_to_check) ->
            let name = f.spec.Rc_refinedc.Rtype.fs_name in
            Rc_util.Vercache.store_keyed cache
              ~id:(Rc_refinedc.Depgraph.cache_id ~file name)
              ~components:(Rc_refinedc.Depgraph.components ~session graph f)
              "garbage")
          el.Rc_frontend.Elab.to_check;
        let cache = Rc_util.Vercache.create cache.Rc_util.Vercache.dir in
        let t = check cache in
        expect "unreadable payloads re-prove" ~hits:0 ~misses:3 t;
        Alcotest.(check (list (option string)))
          "cache_why" (List.init 3 (fun _ -> Some "corrupt"))
          (List.map (fun (r : Driver.check_result) -> r.why) t.Driver.results);
        Alcotest.(check int) "corrupt skips" 3
          (Rc_util.Vercache.stats cache).Rc_util.Vercache.st_corrupt_skips;
        (* the re-proved verdicts overwrite the unreadable entries *)
        expect "rewritten entries hit" ~hits:3 ~misses:0 (check cache));
  ]

(* Regression tests for the degradation contract (ISSUE 6): failed
   stores must not leak [*.tmp] orphans, stale orphans are collected on
   open, injected read/write faults degrade to miss/skip, and a
   persistently unwritable directory disables writes instead of paying
   for every store. *)

(* temp files in the cache root or its temp directory *)
let tmp_files dir =
  let in_dir d =
    match Sys.readdir d with
    | files ->
        Array.to_list files
        |> List.filter (fun f -> Filename.check_suffix f ".tmp")
    | exception Sys_error _ -> []
  in
  in_dir dir @ in_dir (Rc_util.Vercache.tmp_dir dir)

(* Every entry below has the same one-component key; [id] tells them
   apart, as the driver's (file, function) ids do. *)
let components = [ ("body", "b") ]

let store ?fault cache id =
  Rc_util.Vercache.store_keyed ?fault cache ~id ~components "v"

let find ?fault cache id =
  Rc_util.Vercache.find_keyed ?fault cache ~id ~components

let hit = Rc_util.Vercache.KHit "v"

let robustness_tests =
  [
    Alcotest.test_case "stale tmp files are collected on open" `Quick
      (fun () ->
        (* temp files live in [<dir>/tmp/]; an interrupted store leaves
           its orphan there *)
        let dir = fresh_cache_dir () in
        let tmp = Rc_util.Vercache.tmp_dir dir in
        Rc_util.Vercache.mkdir_p tmp;
        let touch path =
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc "orphan")
        in
        List.iter (fun f -> touch (Filename.concat tmp f)) [ "a.tmp"; "b.tmp" ];
        touch (Filename.concat dir "not_an_orphan.vc");
        let cache = Rc_util.Vercache.create dir in
        Alcotest.(check (list string)) "orphans swept" [] (tmp_files dir);
        Alcotest.(check bool) "non-tmp files survive" true
          (Sys.file_exists (Filename.concat dir "not_an_orphan.vc"));
        ignore cache);
    Alcotest.test_case "entries through tmp/" `Quick (fun () ->
        let dir = fresh_cache_dir () in
        let cache = Rc_util.Vercache.create dir in
        List.iter (store cache) [ "k1"; "k2"; "k3" ];
        store cache "k1";
        Alcotest.(check (list string)) "no temp file left" [] (tmp_files dir);
        Alcotest.(check int) "entries stored" 3
          (Rc_util.Vercache.entries cache));
    Alcotest.test_case "a cache without a temp directory still hits" `Quick
      (fun () ->
        (* a store written before temp files moved to [<dir>/tmp/] has
           no such directory; its entries sit where they always did *)
        let dir = fresh_cache_dir () in
        let cache = Rc_util.Vercache.create dir in
        List.iter (store cache) [ "k1"; "k2" ];
        Sys.rmdir (Rc_util.Vercache.tmp_dir dir);
        let cache = Rc_util.Vercache.create dir in
        Alcotest.(check bool) "k1 hits" true (find cache "k1" = hit);
        Alcotest.(check bool) "k2 hits" true (find cache "k2" = hit);
        store cache "k3";
        Alcotest.(check bool) "stores resume" true (find cache "k3" = hit));
    Alcotest.test_case "failed rename leaves no tmp orphan" `Quick (fun () ->
        let dir = fresh_cache_dir () in
        let cache = Rc_util.Vercache.create dir in
        (* a directory squatting on the entry path makes the final
           [Sys.rename] fail after the temp file was already written *)
        Sys.mkdir
          (Rc_util.Vercache.entry_path cache
             (Rc_util.Vercache.keyed_key ~id:"key1" components))
          0o755;
        store cache "key1";
        Alcotest.(check (list string)) "tmp removed on failure" []
          (tmp_files dir);
        (* the squatted path reads as corrupt: a miss, never an error *)
        Alcotest.(check bool) "lookup degrades to miss" true
          (find cache "key1" = KMiss Collision));
    Alcotest.test_case "injected read fault degrades to miss" `Quick
      (fun () ->
        let cache = Rc_util.Vercache.create (fresh_cache_dir ()) in
        store cache "k";
        Alcotest.(check bool) "entry is there" true (find cache "k" = hit);
        let fault =
          Rc_util.Faultsim.create ~rate:1.0 ~sites:[ "cache.read" ] 11
        in
        Alcotest.(check bool) "faulted read misses" true
          (find ~fault cache "k" = KMiss Collision);
        (* the entry itself is untouched *)
        Alcotest.(check bool) "entry survives" true (find cache "k" = hit));
    Alcotest.test_case "injected write fault skips the store" `Quick
      (fun () ->
        let dir = fresh_cache_dir () in
        let cache = Rc_util.Vercache.create dir in
        let fault =
          Rc_util.Faultsim.create ~rate:1.0 ~sites:[ "cache.write" ] 12
        in
        store ~fault cache "k";
        Alcotest.(check int) "nothing written" 0
          (Rc_util.Vercache.entries cache);
        Alcotest.(check (list string)) "no orphans" [] (tmp_files dir);
        Alcotest.(check bool) "no manifest either" true
          (find cache "k" = KMiss Fresh);
        (* an unfaulted store afterwards works normally *)
        store cache "k";
        Alcotest.(check bool) "recovers" true (find cache "k" = hit));
    Alcotest.test_case "persistent write failure disables the cache" `Quick
      (fun () ->
        let dir = fresh_cache_dir () in
        let cache = Rc_util.Vercache.create dir in
        let fault =
          Rc_util.Faultsim.create ~rate:1.0 ~sites:[ "cache.write" ] 13
        in
        for i = 1 to 8 do
          store ~fault cache (string_of_int i)
        done;
        Alcotest.(check bool) "disabled after threshold" true
          (Rc_util.Vercache.disabled cache);
        (* once disabled, even a healthy store is a no-op *)
        store cache "healthy";
        Alcotest.(check int) "no writes once disabled" 0
          (Rc_util.Vercache.entries cache);
        (* reads still work (for entries written before the failures) *)
        Alcotest.(check bool) "reads unaffected" true
          (find cache "healthy" = KMiss Fresh);
        (* the same threshold when the failing stores race on pool
           workers: ten dirty functions (five renamed copies of [src]),
           four workers, every write faulted *)
        let fns =
          String.concat "\n"
            (List.init 5 (fun i ->
                 Str.global_replace (Str.regexp "\\([a-z_]+\\)(int ")
                   (Printf.sprintf "\\1_%d(int " i) src))
        in
        let pool = Rc_util.Supervisor.create ~jobs:4 () in
        let cache = Rc_util.Vercache.create (fresh_cache_dir ()) in
        let fault =
          Rc_util.Faultsim.create ~rate:1.0 ~sites:[ "cache.write" ] 16
        in
        let t =
          Fun.protect
            ~finally:(fun () -> Rc_util.Supervisor.shutdown pool)
            (fun () ->
              let session = Api.create_session ~pool ~fault () in
              Driver.check_source ~session ~cache ~file:"many.c" fns)
        in
        Alcotest.(check bool) "all ten verify" true
          (all_ok t && List.length t.Driver.results = 10);
        Alcotest.(check bool) "disabled after threshold on a pool" true
          (Rc_util.Vercache.disabled cache));
    Alcotest.test_case "a success resets the failure streak" `Quick
      (fun () ->
        let cache = Rc_util.Vercache.create (fresh_cache_dir ()) in
        let fault =
          Rc_util.Faultsim.create ~rate:1.0 ~sites:[ "cache.write" ] 14
        in
        for i = 1 to 7 do
          store ~fault cache (string_of_int i)
        done;
        store cache "ok";
        let fault2 =
          Rc_util.Faultsim.create ~rate:1.0 ~sites:[ "cache.write" ] 15
        in
        for i = 8 to 14 do
          store ~fault:fault2 cache (string_of_int i)
        done;
        Alcotest.(check bool) "7 + success + 7 stays enabled" false
          (Rc_util.Vercache.disabled cache));
  ]

(* The on-disk layout: one new file per store, the manifest being a
   second name of the newest entry, and entries checked by header and
   key before they are believed. *)

let entry_of cache components =
  Rc_util.Vercache.entry_path cache
    (Rc_util.Vercache.keyed_key ~id:"k" components)

let layout_tests =
  [
    Alcotest.test_case "a store makes one inode" `Quick (fun () ->
        let dir = fresh_cache_dir () in
        let cache = Rc_util.Vercache.create dir in
        store cache "k";
        let entry = Unix.stat (entry_of cache components) in
        let manifest =
          Unix.stat (Rc_util.Vercache.manifest_path cache "k")
        in
        Alcotest.(check int) "manifest is the entry" entry.Unix.st_ino
          manifest.Unix.st_ino;
        Alcotest.(check int) "two names" 2 entry.Unix.st_nlink;
        Alcotest.(check (array string)) "tmp/ is empty" [||]
          (Sys.readdir (Rc_util.Vercache.tmp_dir dir)));
    Alcotest.test_case "a superseded entry keeps one name and hits" `Quick
      (fun () ->
        let cache = Rc_util.Vercache.create (fresh_cache_dir ()) in
        let moved = [ ("body", "b2") ] in
        store cache "k";
        Rc_util.Vercache.store_keyed cache ~id:"k" ~components:moved "v2";
        Alcotest.(check int) "old entry: one link" 1
          (Unix.stat (entry_of cache components)).Unix.st_nlink;
        Alcotest.(check int) "manifest is the new entry"
          (Unix.stat (entry_of cache moved)).Unix.st_ino
          (Unix.stat (Rc_util.Vercache.manifest_path cache "k")).Unix.st_ino;
        Alcotest.(check bool) "old entry hits" true (find cache "k" = hit);
        Alcotest.(check bool) "a miss diffs against the newest" true
          (Rc_util.Vercache.find_keyed cache ~id:"k"
             ~components:[ ("body", "b3") ]
          = KMiss (Changed [ "body" ])));
    Alcotest.test_case "another layout is a collision, never unmarshalled"
      `Quick (fun () ->
        let cache = Rc_util.Vercache.create (fresh_cache_dir ()) in
        let key = Rc_util.Vercache.keyed_key ~id:"k" components in
        let put v =
          Out_channel.with_open_bin (entry_of cache components) (fun oc ->
              Out_channel.output_string oc v)
        in
        (* the previous layout: a marshalled (version, key, payload) *)
        put (Marshal.to_string ("rc-vercache-1", key, "v") []);
        Alcotest.(check bool) "rc-vercache-1 entry" true
          (find cache "k" = KMiss Collision);
        (* today's record without its header line: unmarshalled, it
           would be a hit *)
        put (Marshal.to_string ("k", components, "v") []);
        Alcotest.(check bool) "headerless entry" true
          (find cache "k" = KMiss Collision);
        Alcotest.(check int) "corrupt skips" 2
          (Rc_util.Vercache.stats cache).Rc_util.Vercache.st_corrupt_skips;
        put (Rc_util.Vercache.magic ^ Marshal.to_string ("k", components, "v") []);
        Alcotest.(check bool) "with its header it hits" true
          (find cache "k" = hit));
    Alcotest.test_case "a failed manifest link keeps the entry" `Quick
      (fun () ->
        let dir = fresh_cache_dir () in
        let cache = Rc_util.Vercache.create dir in
        (* a directory squatting on the manifest path: the link step's
           rename fails after the entry was stored *)
        Sys.mkdir (Rc_util.Vercache.manifest_path cache "k") 0o755;
        store cache "k";
        Alcotest.(check bool) "the store hits" true (find cache "k" = hit);
        Alcotest.(check bool) "the next miss is new" true
          (Rc_util.Vercache.find_keyed cache ~id:"k"
             ~components:[ ("body", "b2") ]
          = KMiss Fresh);
        Alcotest.(check (list string)) "no temp file left" [] (tmp_files dir);
        Alcotest.(check bool) "not a store failure" false
          (Atomic.get cache.Rc_util.Vercache.write_failures > 0));
  ]

let () =
  Alcotest.run "vercache"
    [
      ("cache", cache_tests);
      ("robustness", robustness_tests);
      ("layout", layout_tests);
    ]
