(* Dependency-cone incremental verification (ISSUE 8).

   Three layers under test:

   - [Rc_refinedc.Depgraph]: the per-file call/spec dependency graph —
     edges are exactly the direct references a check can observe, the
     dirty cone of an interface edit is the transitive-dependent set,
     and a function's cache-key components name exactly its own
     body/spec plus its direct callees' interfaces;
   - [Rc_util.Vercache]'s keyed entries: every miss is explained
     (new / changed:<components> / evicted / collision), and the store
     reports and size-caps itself;
   - the driver end-to-end: a warm cache plus a single edit re-verifies
     *exactly* the edit's cone (early cutoff for body edits), verdicts
     are identical cached, replayed and uncached, and at any [-j], and
     the [--json] output is byte-identical across [-j].

   The synthetic fixtures come from [Rc_benchgen.Corpus], whose [?edit]
   parameter moves exactly one function's body digest, spec signature,
   or loop invariant — so every expected dirty set is known by
   construction. *)

module Driver = Rc_frontend.Driver
module Depgraph = Rc_refinedc.Depgraph
module Vercache = Rc_util.Vercache
module Api = Rc_session.Refinedc_api
module Corpus = Rc_benchgen.Corpus

let fresh_cache_dir () = Testutil.scratch_dir "inccache"

let elab src =
  let session = Api.create_session () in
  (Driver.parse_and_elab ~session ~file:"inc_test.c" src)
    .Rc_frontend.Elab.to_check

let graph_of src = Depgraph.build (elab src)

let check ?(session = Rc_refinedc.Session.create ()) ?(jobs = 1) ~cache src =
  Testutil.with_jobs ~jobs session (fun session ->
      Driver.check_source ~session ~cache ~file:"inc_test.c" src)

let counters (t : Driver.t) =
  match t.Driver.cache_stats with
  | Some hm -> hm
  | None -> Alcotest.fail "expected cache statistics"

let all_ok (t : Driver.t) = Driver.errors t = [] && t.Driver.skipped = []

let expect name ~hits ~misses t =
  if not (all_ok t) then Alcotest.failf "%s: verification failed" name;
  Alcotest.(check (pair int int)) name (hits, misses) (counters t)

(* the functions a run actually re-proved (not replayed), source order *)
let reverified (t : Driver.t) =
  List.filter_map
    (fun (r : Driver.check_result) ->
      if r.Driver.cached then None else Some r.Driver.name)
    t.Driver.results

let why_of (t : Driver.t) name =
  match
    List.find_opt (fun (r : Driver.check_result) -> r.Driver.name = name)
      t.Driver.results
  with
  | Some r -> Option.value ~default:"?" r.Driver.why
  | None -> Alcotest.failf "no result for %s" name

(* The verdict surface that must never depend on caching, scheduling or
   parallelism: per-function status + Figure-7 statistics, in source
   order, plus the run's exit code. *)
let verdict_sig (t : Driver.t) : string list =
  Fmt.str "exit:%d" (Driver.exit_code t)
  :: List.map
       (fun (r : Driver.check_result) ->
         match r.outcome with
         | Ok res ->
             let s = res.Rc_refinedc.Lang.E.stats in
             Fmt.str "%s:ok:%d:%d:%d:%d" r.Driver.name
               s.Rc_lithium.Stats.rule_apps s.Rc_lithium.Stats.evar_insts
               s.Rc_lithium.Stats.side_auto s.Rc_lithium.Stats.side_manual
         | Error e ->
             Fmt.str "%s:err:%s" r.Driver.name (Rc_lithium.Report.to_string e))
       t.Driver.results

let case_dir =
  List.find Sys.file_exists
    [
      "case_studies"; "../case_studies"; "../../case_studies";
      "../../../case_studies";
    ]

let study_files =
  [
    "mem_alloc.c"; "free_list.c"; "linked_list.c"; "queue.c";
    "binary_search.c"; "talloc.c"; "page_alloc.c"; "bst_layered.c";
    "bst_direct.c"; "hashmap.c"; "mpool.c"; "spinlock.c"; "barrier.c";
  ]

(* ------------------------------------------------------------------ *)
(* Depgraph structure                                                  *)
(* ------------------------------------------------------------------ *)

let chain n = Corpus.call_chain ~n ()

(* [chain n] writes callees first; here f0 calls f1 … calls f(n-1), in
   that source order, so source and topological order differ *)
let callers_first n =
  String.concat ""
    (List.init n (fun i ->
         Printf.sprintf
           "[[rc::parameters(\"n : int\")]]\n\
            [[rc::args(\"n @ int<int>\")]]\n\
            [[rc::returns(\"n @ int<int>\")]]\n\
            int f%d(int n) {\n  return %s;\n}\n"
           i
           (if i = n - 1 then "n" else Printf.sprintf "f%d(n)" (i + 1))))

let depgraph_tests =
  [
    Alcotest.test_case "chain edges are the direct callees" `Quick (fun () ->
        let g = graph_of (chain 6) in
        (* call_chain emits callee-first: f5 .. f0 in source order *)
        Alcotest.(check (list string)) "names, source order"
          [ "f5"; "f4"; "f3"; "f2"; "f1"; "f0" ]
          (Depgraph.names g);
        Alcotest.(check (list string)) "f0 deps" [ "f1" ]
          (Depgraph.direct_deps g "f0");
        Alcotest.(check (list string)) "leaf has no deps" []
          (Depgraph.direct_deps g "f5");
        Alcotest.(check (list string)) "f5's callers" [ "f4" ]
          (Depgraph.dependents g "f5");
        Alcotest.(check (list string)) "f0 has no callers" []
          (Depgraph.dependents g "f0"));
    Alcotest.test_case "topological order puts callees first" `Quick
      (fun () ->
        let g = graph_of (chain 6) in
        Alcotest.(check (list string)) "topo"
          [ "f5"; "f4"; "f3"; "f2"; "f1"; "f0" ]
          (Depgraph.topo_order g);
        (* an independent farm has no edges: topo = source order *)
        let g2 = graph_of (Corpus.loop_farm ~functions:3 ()) in
        Alcotest.(check (list string)) "edgeless topo = source order"
          [ "count0"; "count1"; "count2" ]
          (Depgraph.topo_order g2));
    Alcotest.test_case "cone = transitive dependents, source order" `Quick
      (fun () ->
        let g = graph_of (chain 6) in
        Alcotest.(check (list string)) "mid-chain cone"
          [ "f3"; "f2"; "f1"; "f0" ]
          (Depgraph.cone g [ "f3" ]);
        Alcotest.(check (list string)) "root-only cone" [ "f0" ]
          (Depgraph.cone g [ "f0" ]);
        Alcotest.(check (list string)) "leaf cone is the whole chain"
          [ "f5"; "f4"; "f3"; "f2"; "f1"; "f0" ]
          (Depgraph.cone g [ "f5" ]);
        let g2 = graph_of (Corpus.loop_farm ~functions:3 ()) in
        Alcotest.(check (list string)) "no edges: cone = roots" [ "count1" ]
          (Depgraph.cone g2 [ "count1" ]));
    Alcotest.test_case "components name exactly the direct cone" `Quick
      (fun () ->
        let fns = elab (chain 4) in
        let g = Depgraph.build fns in
        let session = Api.create_session () in
        let f2 =
          List.find
            (fun (f : Rc_refinedc.Typecheck.fn_to_check) ->
              f.spec.Rc_refinedc.Rtype.fs_name = "f2")
            fns
        in
        Alcotest.(check (list string)) "component names"
          [ "config"; "budget"; "body"; "spec"; "callee:f3" ]
          (List.map fst (Depgraph.components ~session g f2));
        (* the leaf's components have no callee entries at all *)
        let f3 =
          List.find
            (fun (f : Rc_refinedc.Typecheck.fn_to_check) ->
              f.spec.Rc_refinedc.Rtype.fs_name = "f3")
            fns
        in
        Alcotest.(check (list string)) "leaf component names"
          [ "config"; "budget"; "body"; "spec" ]
          (List.map fst (Depgraph.components ~session g f3)));
    Alcotest.test_case "body edit moves only that body digest" `Quick
      (fun () ->
        let g = graph_of (chain 5) in
        let g' = graph_of (Corpus.call_chain ~edit:(`Body 2) ~n:5 ()) in
        List.iter
          (fun name ->
            let n = Option.get (Depgraph.node g name) in
            let n' = Option.get (Depgraph.node g' name) in
            Alcotest.(check bool)
              (name ^ " body digest moved iff edited")
              (name = "f2")
              (Lazy.force n.Depgraph.n_body_digest
               <> Lazy.force n'.Depgraph.n_body_digest);
            (* a body edit is invisible at the interface: early cutoff *)
            Alcotest.(check string)
              (name ^ " iface digest unchanged")
              (Lazy.force n.Depgraph.n_iface_digest)
              (Lazy.force n'.Depgraph.n_iface_digest))
          (Depgraph.names g));
    Alcotest.test_case "spec edit moves only that interface digest" `Quick
      (fun () ->
        let g = graph_of (chain 5) in
        let g' = graph_of (Corpus.call_chain ~edit:(`Spec 2) ~n:5 ()) in
        List.iter
          (fun name ->
            let n = Option.get (Depgraph.node g name) in
            let n' = Option.get (Depgraph.node g' name) in
            Alcotest.(check bool)
              (name ^ " iface digest moved iff edited")
              (name = "f2")
              (Lazy.force n.Depgraph.n_iface_digest
               <> Lazy.force n'.Depgraph.n_iface_digest);
            Alcotest.(check string)
              (name ^ " body digest unchanged")
              (Lazy.force n.Depgraph.n_body_digest)
              (Lazy.force n'.Depgraph.n_body_digest))
          (Depgraph.names g));
  ]

(* ------------------------------------------------------------------ *)
(* Keyed cache entries: explained misses, stats, size cap              *)
(* ------------------------------------------------------------------ *)

let reason = Alcotest.testable
    (Fmt.of_to_string Vercache.reason_label)
    (fun a b -> Vercache.reason_label a = Vercache.reason_label b)

let klookup name expected actual =
  match (expected, actual) with
  | Vercache.KHit e, Vercache.KHit a -> Alcotest.(check string) name e a
  | Vercache.KMiss e, Vercache.KMiss a -> Alcotest.check reason name e a
  | Vercache.KHit _, Vercache.KMiss r ->
      Alcotest.failf "%s: expected hit, missed (%s)" name
        (Vercache.reason_label r)
  | Vercache.KMiss r, Vercache.KHit _ ->
      Alcotest.failf "%s: expected miss (%s), hit" name
        (Vercache.reason_label r)

let keyed_tests =
  [
    Alcotest.test_case "misses are explained" `Quick (fun () ->
        let vc = Vercache.create (fresh_cache_dir ()) in
        let id = "fn-identity" in
        let cs = [ ("body", "b1"); ("spec", "s1"); ("callee:g", "g1") ] in
        klookup "never stored: new" (Vercache.KMiss Vercache.Fresh)
          (Vercache.find_keyed vc ~id ~components:cs);
        Vercache.store_keyed vc ~id ~components:cs "payload";
        klookup "stored: hit" (Vercache.KHit "payload")
          (Vercache.find_keyed vc ~id ~components:cs);
        klookup "one component moved"
          (Vercache.KMiss (Vercache.Changed [ "body" ]))
          (Vercache.find_keyed vc ~id
             ~components:[ ("body", "b2"); ("spec", "s1"); ("callee:g", "g1") ]);
        klookup "two components moved"
          (Vercache.KMiss (Vercache.Changed [ "spec"; "callee:g" ]))
          (Vercache.find_keyed vc ~id
             ~components:[ ("body", "b1"); ("spec", "s2"); ("callee:g", "g2") ]);
        klookup "a callee appeared"
          (Vercache.KMiss (Vercache.Changed [ "callee:h" ]))
          (Vercache.find_keyed vc ~id ~components:(cs @ [ ("callee:h", "h1") ]));
        klookup "a callee disappeared"
          (Vercache.KMiss (Vercache.Changed [ "callee:g" ]))
          (Vercache.find_keyed vc ~id
             ~components:[ ("body", "b1"); ("spec", "s1") ]);
        Alcotest.(check string) "label spelling" "changed:spec+callee:g"
          (Vercache.reason_label
             (Vercache.Changed [ "spec"; "callee:g" ])));
    Alcotest.test_case "evicted and collision are distinguished" `Quick
      (fun () ->
        let dir = fresh_cache_dir () in
        let vc = Vercache.create dir in
        let id = "fn-identity" in
        let cs = [ ("body", "b1"); ("spec", "s1") ] in
        Vercache.store_keyed vc ~id ~components:cs "payload";
        (* remove the payload but keep the manifest: pruned/swept *)
        Array.iter
          (fun f ->
            if Filename.check_suffix f ".vc" then
              Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        klookup "payload gone, inputs unchanged"
          (Vercache.KMiss Vercache.Evicted)
          (Vercache.find_keyed vc ~id ~components:cs);
        (* a corrupt entry at the slot is a collision, never a verdict *)
        Vercache.store_keyed vc ~id ~components:cs "payload";
        Array.iter
          (fun f ->
            if Filename.check_suffix f ".vc" then
              Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
                  Out_channel.output_string oc "garbage"))
          (Sys.readdir dir);
        klookup "corrupt entry" (Vercache.KMiss Vercache.Collision)
          (Vercache.find_keyed vc ~id ~components:cs));
    Alcotest.test_case "store stats and the size cap" `Quick (fun () ->
        let dir = fresh_cache_dir () in
        let vc = Vercache.create dir in
        for i = 1 to 5 do
          Vercache.store_keyed vc
            ~id:(Printf.sprintf "id%d" i)
            ~components:[ ("body", string_of_int i) ]
            (String.make 100 'x')
        done;
        let s = Vercache.stats vc in
        Alcotest.(check int) "entries" 5 s.Vercache.st_entries;
        Alcotest.(check int) "manifests" 5 s.Vercache.st_manifests;
        Alcotest.(check bool) "bytes counted" true (s.Vercache.st_bytes > 500);
        Alcotest.(check int) "no corruption" 0 s.Vercache.st_corrupt_skips;
        (* each manifest is a second name of an entry: its bytes are the
           entry's, counted once *)
        let vc_files =
          List.filter
            (fun f -> Filename.check_suffix f ".vc")
            (Array.to_list (Sys.readdir dir))
        in
        let size f = (Unix.stat (Filename.concat dir f)).Unix.st_size in
        Alcotest.(check int) "bytes not doubled"
          (List.fold_left (fun acc f -> acc + size f) 0 vc_files)
          s.Vercache.st_bytes;
        (* a cap one byte short of the footprint evicts the oldest entry
           and its manifest, and nothing else: bytes are freed only when
           an inode's last name goes *)
        List.iteri
          (fun i f ->
            let t = 1_000_000. +. float_of_int i in
            Unix.utimes (Filename.concat dir f) t t)
          (List.sort compare vc_files);
        let one_short =
          Vercache.create ~max_bytes:(s.Vercache.st_bytes - 1) dir
        in
        let s1 = Vercache.stats one_short in
        Alcotest.(check (pair int int)) "the oldest inode went" (4, 4)
          (s1.Vercache.st_entries, s1.Vercache.st_manifests);
        Alcotest.(check int) "its two names pruned" 2 s1.Vercache.st_pruned;
        (* reopening under a tiny cap prunes oldest-first down to size *)
        let capped = Vercache.create ~max_bytes:0 dir in
        let s' = Vercache.stats capped in
        Alcotest.(check int) "cap 0 empties the store" 0
          (s'.Vercache.st_entries + s'.Vercache.st_manifests);
        Alcotest.(check int) "the eight names left, pruned" 8
          s'.Vercache.st_pruned);
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end dirty cones through the driver                           *)
(* ------------------------------------------------------------------ *)

let cone_tests =
  [
    Alcotest.test_case "warm cache replays everything" `Quick (fun () ->
        let cache = Vercache.create (fresh_cache_dir ()) in
        let t = check ~cache (chain 6) in
        expect "cold" ~hits:0 ~misses:6 t;
        List.iter
          (fun n -> Alcotest.(check string) (n ^ " why") "new" (why_of t n))
          (reverified t);
        let w = check ~cache (chain 6) in
        expect "warm" ~hits:6 ~misses:0 w;
        Alcotest.(check (list string)) "nothing re-verified" [] (reverified w);
        Alcotest.(check (list string)) "nothing scheduled" []
          w.Driver.schedule);
    Alcotest.test_case "body edit re-verifies exactly one function" `Quick
      (fun () ->
        let cache = Vercache.create (fresh_cache_dir ()) in
        expect "cold" ~hits:0 ~misses:6 (check ~cache (chain 6));
        (* early cutoff: f3's body moved, its interface did not — its
           caller f2's key mentions only the interface, so f2 hits *)
        let t = check ~cache (Corpus.call_chain ~edit:(`Body 3) ~n:6 ()) in
        expect "after body edit" ~hits:5 ~misses:1 t;
        Alcotest.(check (list string)) "dirty set" [ "f3" ] (reverified t);
        Alcotest.(check string) "explained" "changed:body" (why_of t "f3");
        Alcotest.(check string) "caller replayed" "hit" (why_of t "f2"));
    Alcotest.test_case "spec edit re-verifies its dependent cone" `Quick
      (fun () ->
        let cache = Vercache.create (fresh_cache_dir ()) in
        expect "cold" ~hits:0 ~misses:6 (check ~cache (chain 6));
        (* f3's interface moved: f3 re-proves against its new spec, and
           its direct caller f2 re-proves against the new callee
           interface; f1 (which only sees f2's unchanged interface)
           still hits — the cone stops at the first unchanged interface *)
        let t = check ~cache (Corpus.call_chain ~edit:(`Spec 3) ~n:6 ()) in
        expect "after spec edit" ~hits:4 ~misses:2 t;
        Alcotest.(check (list string)) "dirty set" [ "f3"; "f2" ]
          (reverified t);
        Alcotest.(check string) "the edited fn" "changed:spec" (why_of t "f3");
        Alcotest.(check string) "its caller" "changed:callee:f3"
          (why_of t "f2");
        Alcotest.(check string) "the caller's caller" "hit" (why_of t "f1"));
    Alcotest.test_case "invariant edit is a body-level change" `Quick
      (fun () ->
        let cache = Vercache.create (fresh_cache_dir ()) in
        let farm = Corpus.loop_farm ~functions:4 () in
        expect "cold" ~hits:0 ~misses:4 (check ~cache farm);
        let t = check ~cache (Corpus.loop_farm ~edit:(`Inv 2) ~functions:4 ())
        in
        expect "after invariant edit" ~hits:3 ~misses:1 t;
        Alcotest.(check (list string)) "dirty set" [ "count2" ] (reverified t);
        Alcotest.(check string) "explained as body" "changed:body"
          (why_of t "count2"));
    Alcotest.test_case "spec edit in an edgeless farm stays local" `Quick
      (fun () ->
        let cache = Vercache.create (fresh_cache_dir ()) in
        let farm ?edit () = Corpus.diamond_farm ?edit ~functions:3 ~k:2 () in
        expect "cold" ~hits:0 ~misses:3 (check ~cache (farm ()));
        let t = check ~cache (farm ~edit:(`Spec 1) ()) in
        expect "after spec edit" ~hits:2 ~misses:1 t;
        Alcotest.(check (list string)) "dirty set" [ "dia1" ] (reverified t));
    Alcotest.test_case "the schedule lists exactly the dirty set" `Quick
      (fun () ->
        (* in [Depgraph.topo_order] cut to the dirty set, so every dirty
           callee is dispatched before its callers *)
        let topological src (t : Driver.t) =
          let g = graph_of src in
          let sched = t.Driver.schedule in
          Alcotest.(check (list string)) "topo order of the dirty set"
            (List.filter (fun n -> List.mem n sched) (Depgraph.topo_order g))
            sched;
          List.iteri
            (fun i n ->
              List.iter
                (fun callee ->
                  match List.find_index (String.equal callee) sched with
                  | Some j when j > i ->
                      Alcotest.failf "%s dispatched after its caller %s"
                        callee n
                  | _ -> ())
                (Depgraph.direct_deps g n))
            sched
        in
        let cache = Vercache.create (fresh_cache_dir ()) in
        let cold = check ~cache (chain 6) in
        topological (chain 6) cold;
        Alcotest.(check (list string)) "cold"
          [ "f5"; "f4"; "f3"; "f2"; "f1"; "f0" ]
          cold.Driver.schedule;
        let edited = Corpus.call_chain ~edit:(`Spec 3) ~n:6 () in
        let t = check ~cache edited in
        topological edited t;
        Alcotest.(check (list string)) "spec edit" [ "f3"; "f2" ]
          t.Driver.schedule;
        let src = callers_first 4 in
        let t = Driver.check_source ~file:"inc_test.c" src in
        topological src t;
        Alcotest.(check (list string)) "callers written first"
          [ "f3"; "f2"; "f1"; "f0" ] t.Driver.schedule);
    Alcotest.test_case "fail-fast dispatches in source order" `Quick
      (fun () ->
        let t =
          Driver.check_source ~fail_fast:true ~file:"inc_test.c"
            (callers_first 4)
        in
        Alcotest.(check (list string)) "source order"
          [ "f0"; "f1"; "f2"; "f3" ] t.Driver.schedule);
    Alcotest.test_case "struct layout edit misses a warm cache" `Quick
      (fun () ->
        (* [p + 4] scales by [struct s]'s size: 4 * 8 bytes stay inside
           the 32-byte block, 4 * 16 do not.  Nothing else moves — not
           the spec, not the statement text — so only a key that holds
           the layout's content can tell the two files apart. *)
        let src fields =
          Printf.sprintf
            {|struct s { %s };

[[rc::parameters("p: loc")]]
[[rc::args("p @ &own<uninit<32>>")]]
[[rc::returns("int<int>")]]
[[rc::ensures("own p : uninit<32>")]]
int f(struct s* p) { struct s* q = p + 4; return 0; }
|}
            fields
        in
        let cache = Vercache.create (fresh_cache_dir ()) in
        expect "cold" ~hits:0 ~misses:1 (check ~cache (src "long a;"));
        let t = check ~cache (src "long a; long b;") in
        Alcotest.(check (pair int int)) "the edit misses" (0, 1) (counters t);
        Alcotest.(check string) "explained" "changed:body" (why_of t "f");
        Alcotest.(check bool) "and fails as it does uncached" false
          (all_ok t);
        Alcotest.(check (list string)) "same verdict as uncached"
          (verdict_sig
             (Driver.check_source ~file:"inc_test.c" (src "long a; long b;")))
          (verdict_sig t));
  ]

(* ------------------------------------------------------------------ *)
(* The body digest's structural encoding                               *)
(* ------------------------------------------------------------------ *)

module Syntax = Rc_caesium.Syntax
module Layout = Rc_caesium.Layout

(* One pass of the single-node mutator: rewrite the [k]-th mutable site
   met in a fixed traversal order of [f], and name its kind ([None] when
   [f] has at most [k] sites).  Every rewrite yields a structurally
   different function. *)
let mutate_site (f : Syntax.func) (k : int) : string option * Syntax.func =
  let seen = ref 0 and kind = ref None in
  let site name x change =
    let i = !seen in
    incr seen;
    if i = k then begin
      kind := Some name;
      change x
    end
    else x
  in
  let name kind x = site kind x (fun x -> x ^ "'") in
  let label l = name "label" l in
  let int_type kind (it : Rc_caesium.Int_type.t) =
    site kind it (fun it -> { it with Rc_caesium.Int_type.size = it.size + 1 })
  in
  let rec layout (l : Layout.t) : Layout.t =
    match l with
    | Layout.Int it -> Layout.Int (int_type "layout size" it)
    | Layout.Struct sl -> Layout.Struct (struct_ sl)
    | Layout.Array (el, n) ->
        let el = layout el in
        Layout.Array (el, site "layout size" n succ)
    | Layout.Ptr | Layout.FnPtr | Layout.Void -> l
  and struct_ (sl : Layout.struct_layout) : Layout.struct_layout =
    let sl_fields =
      List.map
        (fun (fd : Layout.field) ->
          let fld_layout = layout fd.Layout.fld_layout in
          let fld_name = name "field name" fd.Layout.fld_name in
          let fld_ofs = site "field offset" fd.Layout.fld_ofs succ in
          { Layout.fld_name; fld_ofs; fld_layout })
        sl.Layout.sl_fields
    in
    let sl_name = name "struct name" sl.Layout.sl_name in
    let sl_size = site "layout size" sl.Layout.sl_size succ in
    let sl_align = site "layout align" sl.Layout.sl_align succ in
    { Layout.sl_name; sl_fields; sl_size; sl_align }
  in
  let ot (o : Syntax.ot) =
    match o with
    | Syntax.OInt it -> Syntax.OInt (int_type "operand type" it)
    | Syntax.OPtr -> site "operand type" o (fun _ -> Syntax.OInt Rc_caesium.Int_type.i32)
  in
  let binop (op : Syntax.binop) =
    match op with
    | Syntax.PtrPlusOp l ->
        let l = layout l in
        site "operator" (Syntax.PtrPlusOp l) (fun _ -> Syntax.PtrDiffOp l)
    | Syntax.PtrDiffOp l ->
        let l = layout l in
        site "operator" (Syntax.PtrDiffOp l) (fun _ -> Syntax.PtrPlusOp l)
    | op ->
        site "operator" op (function
          | Syntax.AddOp -> Syntax.SubOp
          | _ -> Syntax.AddOp)
  in
  let rec expr (e : Syntax.expr) : Syntax.expr =
    match e with
    | Syntax.IntConst (n, it) ->
        let it = int_type "operand type" it in
        Syntax.IntConst (site "constant" n succ, it)
    | Syntax.NullConst -> e
    | Syntax.FnAddr x -> Syntax.FnAddr (name "name" x)
    | Syntax.VarLoc x -> Syntax.VarLoc (name "name" x)
    | Syntax.Use { atomic; layout = l; arg } ->
        let arg = expr arg in
        let l = layout l in
        Syntax.Use { atomic = site "atomic flag" atomic not; layout = l; arg }
    | Syntax.FieldOfs { arg; struct_ = sl; field } ->
        let arg = expr arg in
        let sl = struct_ sl in
        Syntax.FieldOfs { arg; struct_ = sl; field = name "field name" field }
    | Syntax.BinOp { op; ot1; ot2; e1; e2 } ->
        let e1 = expr e1 in
        let e2 = expr e2 in
        let ot1 = ot ot1 in
        let ot2 = ot ot2 in
        Syntax.BinOp { op = binop op; ot1; ot2; e1; e2 }
    | Syntax.UnOp { op; ot = o; arg } ->
        let arg = expr arg in
        let o = ot o in
        Syntax.UnOp
          {
            op =
              site "operator" op (function
                | Syntax.NegOp -> Syntax.BitNotOp
                | _ -> Syntax.NegOp);
            ot = o;
            arg;
          }
    | Syntax.CastIntInt { from_; to_; arg } ->
        let arg = expr arg in
        let from_ = int_type "cast type" from_ in
        Syntax.CastIntInt { from_; to_ = int_type "cast type" to_; arg }
    | Syntax.CastPtrPtr arg -> Syntax.CastPtrPtr (expr arg)
  in
  let slot (l, e) =
    let l = layout l in
    (l, expr e)
  in
  let stmt (st : Syntax.stmt) : Syntax.stmt =
    match st with
    | Syntax.Assign { atomic; layout = l; lhs; rhs } ->
        let l = layout l in
        let lhs = expr lhs in
        let rhs = expr rhs in
        Syntax.Assign { atomic = site "atomic flag" atomic not; layout = l; lhs; rhs }
    | Syntax.Call { dest; fn; args } ->
        let dest = Option.map slot dest in
        let fn = expr fn in
        Syntax.Call { dest; fn; args = List.map slot args }
    | Syntax.Cas { layout = l; obj; expected; desired; dest } ->
        let l = layout l in
        let obj = expr obj in
        let expected = expr expected in
        let desired = expr desired in
        Syntax.Cas { layout = l; obj; expected; desired; dest = Option.map slot dest }
    | Syntax.Skip -> st
    | Syntax.ExprStmt e -> Syntax.ExprStmt (expr e)
    | Syntax.Free e -> Syntax.Free (expr e)
  in
  let term (t : Syntax.terminator) : Syntax.terminator =
    match t with
    | Syntax.Goto l -> Syntax.Goto (label l)
    | Syntax.CondGoto { ot = o; cond; if_true; if_false } ->
        let o = ot o in
        let cond = expr cond in
        let if_true = label if_true in
        Syntax.CondGoto { ot = o; cond; if_true; if_false = label if_false }
    | Syntax.Switch { ot = o; scrut; cases; default } ->
        let o = ot o in
        let scrut = expr scrut in
        let cases =
          List.map
            (fun (n, l) ->
              let n = site "constant" n succ in
              (n, label l))
            cases
        in
        Syntax.Switch { ot = o; scrut; cases; default = label default }
    | Syntax.Return e -> Syntax.Return (Option.map expr e)
    | Syntax.Unreachable -> t
  in
  let slots =
    List.map (fun (x, l) ->
        let l = layout l in
        (name "name" x, l))
  in
  let fname = name "name" f.Syntax.fname in
  let args = slots f.Syntax.args in
  let locals = slots f.Syntax.locals in
  let ret_layout = layout f.Syntax.ret_layout in
  let blocks =
    List.map
      (fun (lbl, (b : Syntax.block)) ->
        let lbl = label lbl in
        let stmts = List.map stmt b.Syntax.stmts in
        (lbl, { Syntax.stmts; term = term b.Syntax.term }))
      f.Syntax.blocks
  in
  let entry = label f.Syntax.entry in
  (!kind, { Syntax.fname; args; locals; ret_layout; blocks; entry })

(* every single-node mutant of [f], with its kind *)
let mutants (f : Syntax.func) : (string * Syntax.func) list =
  let rec go k acc =
    match mutate_site f k with
    | None, _ -> List.rev acc
    | Some kind, f' -> go (k + 1) ((kind, f') :: acc)
  in
  go 0 []

let study_fns ?(session = Rc_studies.Studies.session ()) file =
  let src =
    In_channel.with_open_bin (Filename.concat case_dir file) In_channel.input_all
  in
  (Driver.parse_and_elab ~session ~file src).Rc_frontend.Elab.to_check

let fn_name (f : Rc_refinedc.Typecheck.fn_to_check) =
  f.Rc_refinedc.Typecheck.spec.Rc_refinedc.Rtype.fs_name

module Rtype = Rc_refinedc.Rtype
module Term = Rc_pure.Term
module Sort = Rc_pure.Sort

(* One pass of the single-node spec mutator, as [mutate_site] for
   bodies: rewrite the [k]-th site met in a fixed traversal order of the
   spec — swap one integer type, change one sort (a binder's or a [[]]'s),
   or drop one resource — and name its kind ([None] when the spec has at
   most [k] sites).  An existential's body is mutated once, at its own
   binder, and re-abstracted by substitution. *)
let mutate_spec (spec : Rtype.fn_spec) (k : int) :
    string option * Rtype.fn_spec =
  let seen = ref 0 and kind = ref None in
  let site name x change =
    let i = !seen in
    incr seen;
    if i = k then begin
      kind := Some name;
      change x
    end
    else x
  in
  let int_type it =
    site "int type" it (fun (it : Rc_caesium.Int_type.t) ->
        if it.it_name = "unsigned char" then Rc_caesium.Int_type.i32
        else Rc_caesium.Int_type.u8)
  in
  let sort s =
    site "sort" s (function Sort.Int -> Sort.Nat | _ -> Sort.Int)
  in
  let binders = List.map (fun (x, s) -> (x, sort s)) in
  let rec term (t : Term.term) =
    match t with Term.Nil s -> Term.Nil (sort s) | _ -> Term.map_term term t
  in
  let prop = Term.map_prop term in
  let rec rtype (ty : Rtype.rtype) : Rtype.rtype =
    match ty with
    | Rtype.TInt (it, n) ->
        let it = int_type it in
        Rtype.TInt (it, term n)
    | Rtype.TBool (it, q) ->
        let it = int_type it in
        Rtype.TBool (it, prop q)
    | Rtype.TNull | Rtype.TManaged _ | Rtype.TFnPtr _ -> ty
    | Rtype.TPtrV l -> Rtype.TPtrV (term l)
    | Rtype.TOwn (l, t) ->
        let l = Option.map term l in
        Rtype.TOwn (l, rtype t)
    | Rtype.TOptional (q, t1, t2) ->
        let q = prop q in
        let t1 = rtype t1 in
        Rtype.TOptional (q, t1, rtype t2)
    | Rtype.TUninit n -> Rtype.TUninit (term n)
    | Rtype.TAnyInt it -> Rtype.TAnyInt (int_type it)
    | Rtype.TStruct (sl, ts) -> Rtype.TStruct (sl, List.map rtype ts)
    | Rtype.TArrayInt (it, len, xs) ->
        let it = int_type it in
        let len = term len in
        Rtype.TArrayInt (it, len, term xs)
    | Rtype.TWand (a, t) ->
        let a = atom a in
        Rtype.TWand (a, rtype t)
    | Rtype.TExists (x, s, f) ->
        let s' = sort s in
        let body = rtype (f (Term.Var (x, s))) in
        Rtype.TExists (x, s', fun t -> Rtype.subst_rtype [ (x, t) ] body)
    | Rtype.TConstr (t, q) ->
        let t = rtype t in
        Rtype.TConstr (t, prop q)
    | Rtype.TPadded (t, n) ->
        let t = rtype t in
        Rtype.TPadded (t, term n)
    | Rtype.TNamed (n, args) -> Rtype.TNamed (n, List.map term args)
    | Rtype.TAtomicBool (it, q, ht, hf) ->
        let it = int_type it in
        let q = prop q in
        let ht = hres_list ht in
        Rtype.TAtomicBool (it, q, ht, hres_list hf)
  and atom = function
    | Rtype.LocTy (l, t) ->
        let l = term l in
        Rtype.LocTy (l, rtype t)
    | Rtype.ValTy (v, t) ->
        let v = term v in
        Rtype.ValTy (v, rtype t)
  and hres = function
    | Rtype.HAtom a -> Rtype.HAtom (atom a)
    | Rtype.HProp p -> Rtype.HProp (prop p)
  and hres_list hs =
    List.concat_map (fun h -> site "hres" [ h ] (fun _ -> [])) (List.map hres hs)
  in
  let fs_params = binders spec.Rtype.fs_params in
  let fs_args = List.map rtype spec.Rtype.fs_args in
  let fs_pre = hres_list spec.Rtype.fs_pre in
  let fs_exists = binders spec.Rtype.fs_exists in
  let fs_ret = rtype spec.Rtype.fs_ret in
  let fs_post = hres_list spec.Rtype.fs_post in
  (!kind, { spec with fs_params; fs_args; fs_pre; fs_exists; fs_ret; fs_post })

(* every single-node mutant of [spec], with its kind *)
let spec_mutants (spec : Rtype.fn_spec) : (string * Rtype.fn_spec) list =
  let rec go k acc =
    match mutate_spec spec k with
    | None, _ -> List.rev acc
    | Some kind, s -> go (k + 1) ((kind, s) :: acc)
  in
  go 0 []

let digest_tests =
  [
    Alcotest.test_case "every single-node mutation moves the body digest"
      `Quick (fun () ->
        let kinds = Hashtbl.create 16 in
        List.iter
          (fun file ->
            List.iter
              (fun (ftc : Rc_refinedc.Typecheck.fn_to_check) ->
                let func = ftc.Rc_refinedc.Typecheck.func in
                let d0 = Depgraph.body_digest ftc in
                (* digest ↦ function: distinct mutants never share one *)
                let seen = Hashtbl.create 64 in
                Hashtbl.replace seen d0 func;
                List.iter
                  (fun (kind, f') ->
                    Hashtbl.replace kinds kind ();
                    let d = Depgraph.body_digest { ftc with func = f' } in
                    match Hashtbl.find_opt seen d with
                    | Some g when g <> f' ->
                        Alcotest.failf "%s/%s: a %s mutation %s" file
                          (fn_name ftc) kind
                          (if g = func then "left the digest unchanged"
                           else "collided with another mutant")
                    | _ -> Hashtbl.replace seen d f')
                  (mutants func))
              (study_fns file))
          study_files;
        List.iter
          (fun kind ->
            Alcotest.(check bool) ("mutated some " ^ kind) true
              (Hashtbl.mem kinds kind))
          [
            "constant"; "field name"; "layout size"; "field offset"; "label";
            "operator"; "atomic flag"; "struct name";
          ]);
    Alcotest.test_case "every single-node spec mutation moves the iface digest"
      `Quick (fun () ->
        let kinds = Hashtbl.create 4 in
        let stress =
          List.map
            (fun (p : Corpus.program) ->
              let session = Api.create_session ~case_studies:true () in
              ( p.Corpus.p_name,
                (Driver.parse_and_elab ~session ~file:p.Corpus.p_name
                   p.Corpus.p_src)
                  .Rc_frontend.Elab.to_check ))
            (Corpus.stress_corpus ~scale:1)
        in
        List.iter
          (fun (file, fns) ->
            List.iter
              (fun (ftc : Rc_refinedc.Typecheck.fn_to_check) ->
                let d0 = Depgraph.iface_digest ftc in
                List.iter
                  (fun (kind, spec) ->
                    Hashtbl.replace kinds kind ();
                    if Depgraph.iface_digest { ftc with spec } = d0 then
                      Alcotest.failf "%s/%s: a %s mutation left the digest \
                                      unchanged"
                        file (fn_name ftc) kind)
                  (spec_mutants ftc.Rc_refinedc.Typecheck.spec))
              fns)
          (List.map (fun f -> (f, study_fns f)) study_files @ stress);
        List.iter
          (fun kind ->
            Alcotest.(check bool) ("mutated some " ^ kind) true
              (Hashtbl.mem kinds kind))
          [ "int type"; "sort"; "hres" ]);
    Alcotest.test_case "elaborating twice gives the same digests" `Quick
      (fun () ->
        List.iter
          (fun file ->
            let digests () =
              List.map
                (fun f -> (fn_name f, Depgraph.body_digest f))
                (study_fns file)
            in
            Alcotest.(check (list (pair string string))) file (digests ())
              (digests ()))
          study_files);
    Alcotest.test_case "golden body digest" `Quick (fun () ->
        (* Pins the encoding.  If this moves, the encoding changed: bump
           the cache tag in Typecheck.toolchain_fingerprint, then update
           the digest here. *)
        let fns =
          elab
            {|struct pt { int x; long y; };

[[rc::parameters("p: loc")]]
[[rc::args("p @ &own<uninit<16>>")]]
[[rc::returns("int<int>")]]
int get(struct pt* p) {
  int r = p->x;
  if (r > 100) return 0;
  return r + 1;
}
|}
        in
        Alcotest.(check string) "digest" "4c5a80376b695e9e2c2f7c3426f2884e"
          (Depgraph.body_digest (List.hd fns)));
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        (* the encoding's ints are the bytes [string_of_int] wrote *)
        QCheck.Test.make ~count:2000 ~name:"enc_int writes string_of_int"
          QCheck.(
            make ~print:string_of_int
              Gen.(
                oneof
                  [
                    int;
                    small_signed_int;
                    oneofl [ 0; -1; 9; 10; -10; min_int; max_int; min_int + 1 ];
                  ]))
          (fun n ->
            (* from a one-byte writer: every int also grows it *)
            let w = Rc_util.Enc.create 1 in
            Rc_util.Enc.enc_int w n;
            Rc_util.Enc.contents w = string_of_int n ^ ";");
      ]

(* ------------------------------------------------------------------ *)
(* Equivalence: cached/uncached, cold/warm, -j1/-j4                    *)
(* ------------------------------------------------------------------ *)

(* cold+cached, warm replay and uncached: three runs whose verdict
   surfaces must be equal; the uncached run is the from-scratch
   reference.  All three use the case-study session, as the CLI does:
   lock_farm needs its [lock_t] type. *)
let assert_equivalent name src =
  let session () = Api.create_session ~case_studies:true () in
  let cache = Vercache.create (fresh_cache_dir ()) in
  let cold = check ~session:(session ()) ~cache src in
  let warm = check ~session:(session ()) ~cache src in
  let uncached =
    Driver.check_source ~session:(session ()) ~file:"inc_test.c" src
  in
  let expected = verdict_sig uncached in
  Alcotest.(check (list string)) (name ^ ": cold ≡ uncached") expected
    (verdict_sig cold);
  Alcotest.(check (list string)) (name ^ ": warm ≡ uncached") expected
    (verdict_sig warm)

let stress_equivalence_tests =
  List.map
    (fun (name, src) ->
      Alcotest.test_case ("verdicts agree: " ^ name) `Quick (fun () ->
          assert_equivalent name src))
    [
      ("diamond_chain", Corpus.diamond_chain ~k:4);
      ("call_chain", Corpus.call_chain ~n:6 ());
      ("struct_nest", Corpus.struct_nest ~depth:4);
      ("wide_exprs", Corpus.wide_exprs ~stmts:4 ~width:3);
      ("loop_farm", Corpus.loop_farm ~functions:3 ());
      ("lock_farm", Corpus.lock_farm ~functions:3 ());
    ]

(* The 13-study corpus: a cached check (cold, then warm replay) must
   agree with the uncached check, per study. *)
let studies_equivalence_tests =
  List.map
    (fun file ->
      Alcotest.test_case ("verdicts agree: " ^ file) `Quick (fun () ->
          let path = Filename.concat case_dir file in
          let session () = Rc_studies.Studies.session () in
          let cache = Vercache.create (fresh_cache_dir ()) in
          let cold = Driver.check_file ~session:(session ()) ~cache path in
          let warm = Driver.check_file ~session:(session ()) ~cache path in
          let uncached = Driver.check_file ~session:(session ()) path in
          let expected = verdict_sig uncached in
          Alcotest.(check (list string)) "cold ≡ uncached" expected
            (verdict_sig cold);
          Alcotest.(check (list string)) "warm ≡ uncached" expected
            (verdict_sig warm)))
    study_files

let jobs_tests =
  [
    Alcotest.test_case "-j1 and -j4 emit byte-identical JSON" `Quick
      (fun () ->
        (* two cache directories warmed identically with -j1, then the
           same single-body-edit checked at -j1 and -j4: scheduling and
           worker fan-out must leave no trace in the (timing-stripped)
           machine-readable output *)
        let src = chain 8 in
        let edited = Corpus.call_chain ~edit:(`Body 4) ~n:8 () in
        let dump t =
          Rc_util.Jsonout.to_string (Driver.to_json ~timings:false t)
        in
        let run jobs =
          let cache = Vercache.create (fresh_cache_dir ()) in
          ignore (check ~jobs:1 ~cache src);
          dump (check ~jobs ~cache edited)
        in
        Alcotest.(check string) "byte-identical" (run 1) (run 4));
    Alcotest.test_case "parallel dirty dispatch preserves the cone" `Quick
      (fun () ->
        let cache = Vercache.create (fresh_cache_dir ()) in
        expect "cold -j4" ~hits:0 ~misses:6 (check ~jobs:4 ~cache (chain 6));
        let t =
          check ~jobs:4 ~cache (Corpus.call_chain ~edit:(`Spec 3) ~n:6 ())
        in
        expect "spec edit -j4" ~hits:4 ~misses:2 t;
        Alcotest.(check (list string)) "dirty set" [ "f3"; "f2" ]
          (reverified t));
  ]

(* ------------------------------------------------------------------ *)
(* CLI: the cache-flag family warns consistently                       *)
(* ------------------------------------------------------------------ *)

let run_cli args =
  match Testutil.refinedc_exe with
  | None -> None
  | Some exe ->
      let err = Filename.temp_file "rc-cli-err" ".txt" in
      let cmd =
        Printf.sprintf "%s %s > /dev/null 2> %s" (Filename.quote exe)
          (String.concat " " (List.map Filename.quote args))
          (Filename.quote err)
      in
      let code = Sys.command cmd in
      let stderr = In_channel.with_open_bin err In_channel.input_all in
      (try Sys.remove err with Sys_error _ -> ());
      Some (code, stderr)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let cli_tests =
  [
    Alcotest.test_case "cache-family flags warn consistently" `Quick
      (fun () ->
        let c = Filename.concat (fresh_cache_dir ()) "t.c" in
        Rc_util.Vercache.create (Filename.dirname c) |> ignore;
        Out_channel.with_open_bin c (fun oc ->
            Out_channel.output_string oc (chain 2));
        let cache_dir = fresh_cache_dir () in
        match run_cli [ "check"; "--cache"; cache_dir; "--cert"; c ] with
        | None -> () (* exe not built in this sandbox; covered by CI *)
        | Some (code, stderr) ->
            Alcotest.(check int) "verifies under --cert" 0 code;
            Alcotest.(check bool) "--cache warns under --cert" true
              (contains stderr
                 "--cache is ignored under --cert");
            (* the new flags warn with the same phrasing *)
            let check_flag flag args expected =
              match run_cli (("check" :: args) @ [ c ]) with
              | None -> ()
              | Some (code, stderr) ->
                  Alcotest.(check int) (flag ^ " still verifies") 0 code;
                  Alcotest.(check bool) (flag ^ " warns") true
                    (contains stderr expected)
            in
            check_flag "--explain-cache under --cert"
              [ "--cache"; cache_dir; "--cert"; "--explain-cache" ]
              "--explain-cache is ignored under --cert";
            check_flag "--cache-stats under --cert"
              [ "--cache"; cache_dir; "--cert"; "--cache-stats" ]
              "--cache-stats is ignored under --cert";
            check_flag "--explain-cache without --cache"
              [ "--explain-cache" ]
              "--explain-cache has no effect without --cache";
            check_flag "--cache-stats without --cache" [ "--cache-stats" ]
              "--cache-stats has no effect without --cache";
            check_flag "--cache-max-mb without --cache"
              [ "--cache-max-mb"; "1" ]
              "--cache-max-mb has no effect without --cache");
    Alcotest.test_case "--explain-cache reports the plan" `Quick (fun () ->
        let dir = fresh_cache_dir () in
        Rc_util.Vercache.create dir |> ignore;
        let c = Filename.concat dir "t.c" in
        Out_channel.with_open_bin c (fun oc ->
            Out_channel.output_string oc (chain 3));
        let cache_dir = fresh_cache_dir () in
        let args =
          [ "check"; "--cache"; cache_dir; "--explain-cache"; "--json"; c ]
        in
        match run_cli args with
        | None -> ()
        | Some (_, cold_err) -> (
            Alcotest.(check bool) "cold plan re-proves" true
              (contains cold_err "cache plan: re-proving");
            match run_cli args with
            | None -> ()
            | Some (_, warm_err) ->
                Alcotest.(check bool) "warm plan is empty" true
                  (contains warm_err "cache plan: nothing dirty");
                Alcotest.(check bool) "per-function hits reported" true
                  (contains warm_err "f0: hit")));
    Alcotest.test_case "numeric flags reject nonsense values" `Quick
      (fun () ->
        let dir = fresh_cache_dir () in
        Rc_util.Vercache.create dir |> ignore;
        let c = Filename.concat dir "t.c" in
        Out_channel.with_open_bin c (fun oc ->
            Out_channel.output_string oc (chain 2));
        let cache_dir = fresh_cache_dir () in
        let exits what args expected =
          match run_cli (("check" :: args) @ [ c ]) with
          | None -> ()
          | Some (code, stderr) ->
              Alcotest.(check int) what expected code;
              if expected = 124 then
                Alcotest.(check bool) (what ^ " names the value") true
                  (contains stderr "invalid value")
        in
        List.iter
          (fun args -> exits (String.concat " " args) args 124)
          [
            [ "--fuel=-1" ];
            [ "--max-depth=-1" ];
            [ "--retries=-1" ];
            [ "--cache"; cache_dir; "--cache-max-mb=-1" ];
            [ "--cache"; cache_dir; "--cache-max-mb=8796093022208" ];
            [ "--timeout=-1" ];
            [ "--timeout=nan" ];
            [ "--deadline=-0.5" ];
            [ "--deadline=nan" ];
            [ "--fault-rate=2" ];
            [ "--fault-rate=-0.1" ];
            [ "--fault-rate=nan" ];
          ];
        (* documented meanings and edge values still verify; a budget
           too long for the nanosecond clock never expires *)
        List.iter
          (fun args -> exits (String.concat " " args) args 0)
          [
            [ "-j"; "0" ];
            [ "--fault-max=-1" ];
            [ "--fault-seed=1"; "--fault-rate=0" ];
            [ "--retries=0" ];
            [ "--deadline=inf" ];
            [ "--timeout=1e300" ];
          ]);
    Alcotest.test_case "--fault-sites accepts only instrumented sites" `Quick
      (fun () ->
        Alcotest.check_raises "Faultsim.create rejects a misspelt site"
          (Invalid_argument "Faultsim.create: unknown site solvr") (fun () ->
            ignore (Rc_util.Faultsim.create ~sites:[ "solvr" ] 1));
        let dir = fresh_cache_dir () in
        Sys.mkdir dir 0o755;
        let c = Filename.concat dir "t.c" in
        Out_channel.with_open_bin c (fun oc ->
            Out_channel.output_string oc (chain 2));
        let exits site expected =
          match
            run_cli
              [ "check"; "--fault-seed=1"; "--fault-rate=0"; "--fault-sites";
                site; c ]
          with
          | None -> ()
          | Some (code, stderr) ->
              Alcotest.(check int) site expected code;
              if expected = 124 then
                Alcotest.(check bool) (site ^ " names the option") true
                  (contains stderr "option '--fault-sites'")
        in
        exits "solvr" 124;
        exits "pool.dispatch" 124;
        exits "solver,pool.dispatch" 124;
        exits "" 124;
        List.iter (fun site -> exits site 0) Rc_util.Faultsim.sites;
        exits (String.concat "," Rc_util.Faultsim.sites) 0);
    Alcotest.test_case "stats options reject nonsense values" `Quick
      (fun () ->
        let dir = fresh_cache_dir () in
        Sys.mkdir dir 0o755;
        let c = Filename.concat dir "t.c" in
        Out_channel.with_open_bin c (fun oc ->
            Out_channel.output_string oc (chain 2));
        let ledger = fresh_cache_dir () in
        for _ = 1 to 3 do
          ignore (run_cli [ "check"; "--runlog"; ledger; c ])
        done;
        let exits args expected =
          match run_cli (("stats" :: args) @ [ ledger ]) with
          | None -> ()
          | Some (code, stderr) ->
              let what = String.concat " " args in
              Alcotest.(check int) what expected code;
              if expected = 124 then
                Alcotest.(check bool) (what ^ " names the value") true
                  (contains stderr "invalid value")
        in
        List.iter
          (fun args -> exits args 124)
          [
            [ "--window=0" ];
            [ "--window=-2" ];
            [ "--last=-1" ];
            [ "--threshold=nan"; "--gate" ];
            [ "--threshold=-1"; "--gate" ];
            [ "--threshold=0"; "--gate" ];
            [ "--threshold=inf"; "--gate" ];
          ];
        List.iter
          (fun args -> exits args 0)
          [ []; [ "--gate" ]; [ "--json" ]; [ "--last=0" ]; [ "--window=1" ] ]);
    Alcotest.test_case "--deriv warns under --cache and --json" `Quick
      (fun () ->
        let dir = fresh_cache_dir () in
        Rc_util.Vercache.create dir |> ignore;
        let c = Filename.concat dir "t.c" in
        Out_channel.with_open_bin c (fun oc ->
            Out_channel.output_string oc (chain 2));
        let cache_dir = fresh_cache_dir () in
        let warns what args expected =
          match run_cli (("check" :: args) @ [ c ]) with
          | None -> ()
          | Some (code, stderr) ->
              Alcotest.(check int) (what ^ " still verifies") 0 code;
              Alcotest.(check bool) (what ^ " warns") true
                (contains stderr expected)
        in
        (* twice: a cache the first run filled would make the second a
           hit, whose derivation is a one-node stub *)
        for _ = 1 to 2 do
          warns "--deriv --cache" [ "--deriv"; "--cache"; cache_dir ]
            "--cache is ignored under --deriv"
        done;
        Alcotest.(check bool) "no cache written under --deriv" false
          (Sys.file_exists cache_dir);
        warns "--cache-stats under --deriv"
          [ "--deriv"; "--cache"; cache_dir; "--cache-stats" ]
          "--cache-stats is ignored under --deriv";
        warns "--deriv --json" [ "--deriv"; "--json" ]
          "--deriv is ignored under --json");
  ]

let () =
  Alcotest.run "incremental"
    [
      ("depgraph", depgraph_tests);
      ("digest", digest_tests);
      ("keyed-cache", keyed_tests);
      ("dirty-cones", cone_tests);
      ("equivalence", stress_equivalence_tests @ studies_equivalence_tests);
      ("parallel", jobs_tests);
      ("cli", cli_tests);
    ]
