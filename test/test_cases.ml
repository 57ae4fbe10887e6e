(* Integration tests over the full Figure-7 corpus:

   - every case study verifies;
   - every emitted certificate re-checks with the independent checker;
   - the semantic-soundness harness finds no UB in any verified function;
   - soundness mutations: breaking the code or the spec in each class of
     ways makes verification FAIL (the type system rejects wrong code). *)

module Driver = Rc_frontend.Driver

(* One fresh case-study session per checked file: elaboration registers
   the file's own named types into the session tenv, so sessions are not
   shared across files. *)
let session () = Rc_studies.Studies.session ()

let case_dir =
  List.find Sys.file_exists
    [
      "case_studies"; "../case_studies"; "../../case_studies";
      "../../../case_studies";
    ]

let read name =
  In_channel.with_open_bin (Filename.concat case_dir name)
    In_channel.input_all

let corpus =
  [
    "mem_alloc.c"; "free_list.c"; "linked_list.c"; "queue.c";
    "binary_search.c"; "talloc.c"; "page_alloc.c"; "bst_layered.c";
    "bst_direct.c"; "hashmap.c"; "mpool.c"; "spinlock.c"; "barrier.c";
  ]

let verify_tests =
  List.map
    (fun file ->
      Alcotest.test_case file `Quick (fun () ->
          let t =
            Driver.check_file ~session:(session ())
              (Filename.concat case_dir file)
          in
          match Driver.errors t with
          | [] -> ()
          | (fn, e) :: _ ->
              Alcotest.failf "%s failed:@.%s" fn
                (Rc_lithium.Report.to_string e)))
    corpus

let cert_tests =
  List.map
    (fun file ->
      Alcotest.test_case file `Quick (fun () ->
          let s = session () in
          let t = Driver.check_file ~session:s (Filename.concat case_dir file) in
          List.iter
            (fun (r : Driver.check_result) ->
              match r.outcome with
              | Ok res ->
                  let rep =
                    Rc_cert.Checker.check ~session:s
                      res.Rc_refinedc.Lang.E.deriv
                  in
                  if not (Rc_cert.Checker.ok rep) then
                    Alcotest.failf "certificate for %s: %s" r.name
                      (Fmt.str "%a" Rc_cert.Checker.pp_report rep)
              | Error _ -> Alcotest.fail "verification failed")
            t.results))
    corpus

let semtest_tests =
  List.map
    (fun file ->
      Alcotest.test_case file `Quick (fun () ->
          let s = session () in
          let t = Driver.check_file ~session:s (Filename.concat case_dir file) in
          let impls =
            List.map
              (fun (f : Rc_refinedc.Typecheck.fn_to_check) ->
                (f.spec.Rc_refinedc.Rtype.fs_name, f.spec))
              t.elaborated.Rc_frontend.Elab.to_check
          in
          List.iter
            (fun (f : Rc_refinedc.Typecheck.fn_to_check) ->
              match
                Rc_sem.Semtest.check_fn ~runs:25 ~impls ~session:s
                  t.elaborated.Rc_frontend.Elab.program f.spec
              with
              | Rc_sem.Semtest.Ub_found msg ->
                  Alcotest.failf "UB in %s: %s"
                    f.spec.Rc_refinedc.Rtype.fs_name msg
              | _ -> ())
            t.elaborated.Rc_frontend.Elab.to_check))
    corpus

(* --------------------------------------------------------------- *)
(* Soundness mutations: wrong code/specs must be rejected            *)
(* --------------------------------------------------------------- *)

let mutation name file ~from_ ~to_ ~fn =
  Alcotest.test_case name `Quick (fun () ->
      let src = read file in
      let mutated = Str.global_replace (Str.regexp_string from_) to_ src in
      if mutated = src then Alcotest.failf "mutation %s did not apply" name;
      match
        Driver.check_source ~session:(session ())
          ~file:("mutated_" ^ file) mutated
      with
      | exception Driver.Frontend_error _ -> () (* rejected even earlier *)
      | t ->
          let errs = Driver.errors t in
          if not (List.mem_assoc fn errs) then
            Alcotest.failf "mutated %s still verifies!" fn)

let mutation_tests =
  [
    (* forget the bounds check entirely: overflow + ownership failure *)
    mutation "alloc without the size check" "mem_alloc.c"
      ~from_:"if (sz > d->len)\n    return NULL;" ~to_:"" ~fn:"alloc";
    (* §2.1: off-by-one in the spec *)
    mutation "alloc with n < a spec" "mem_alloc.c"
      ~from_:"{n <= a} @ optional" ~to_:"{n < a} @ optional" ~fn:"alloc";
    (* drop the header-fits precondition of free (Figure 3) *)
    mutation "free without sizeof precondition" "free_list.c"
      ~from_:"[[rc::requires(\"{sizeof(struct chunk) \xe2\x89\xa4 n}\")]]"
      ~to_:"" ~fn:"free_chunk";
    (* break the sortedness maintenance of free: insert before smaller *)
    mutation "free inserting unsorted" "free_list.c"
      ~from_:"if (sz <= (*cur)->size)" ~to_:"if (sz >= (*cur)->size)"
      ~fn:"free_chunk";
    (* BST descending the wrong way breaks the set specification *)
    mutation "bst_member descending wrong subtree" "bst_direct.c"
      ~from_:"return bst_member(t->left, k);"
      ~to_:"return bst_member(t->right, k);" ~fn:"bst_member";
    (* unprotected critical section: the counter resource is absent *)
    mutation "unlock without holding the resource" "spinlock.c"
      ~from_:"[[rc::requires(\"own c : int<int>\")]]" ~to_:""
      ~fn:"spin_unlock";
    (* hashmap probing out of bounds *)
    mutation "hashmap probing past the capacity" "hashmap.c"
      ~from_:"j = (j + 1) % cap;" ~to_:"j = j + 1;" ~fn:"hm_insert";
    (* queue: forget to terminate the new node *)
    mutation "enqueue without next = NULL" "queue.c"
      ~from_:"n->next = NULL;" ~to_:"" ~fn:"enqueue";
    (* page allocator: free a too-small block *)
    mutation "page_free of a half page" "page_alloc.c"
      ~from_:"\"&own<uninit<4096>>\"" ~to_:"\"&own<uninit<2048>>\""
      ~fn:"page_free";
  ]

(* A comparator whose result is a [bool<uint8_t>] does not implement
   [cmp_spec], whose result is a [bool<int>]: S-FNPTR compares the specs'
   structural encodings, which keep the integer type the printer drops.
   (Passed through, the one-byte result would be read as four bytes.) *)
let fnptr_test =
  Alcotest.test_case "a uint8_t comparator is not a cmp_spec" `Quick
    (fun () ->
      let u8_lt =
        "[[rc::parameters(\"x: int\", \"y: int\")]]\n\
         [[rc::args(\"x @ int<int>\", \"y @ int<int>\")]]\n\
         [[rc::returns(\"{x < y} @ bool<uint8_t>\")]]\n\
         unsigned char u8_lt(int a, int b) {\n\
        \  return a < b;\n\
         }\n\n"
      in
      let src =
        Str.replace_first
          (Str.regexp_string "// Binary search for key")
          (u8_lt ^ "// Binary search for key")
          (read "binary_search.c")
      in
      let src =
        Str.replace_first
          (Str.regexp_string "bsearch_idx(arr, n, key, int_lt)")
          "bsearch_idx(arr, n, key, u8_lt)" src
      in
      let t =
        Driver.check_source ~session:(session ()) ~file:"bsearch_u8.c" src
      in
      let errs = Driver.errors t in
      Alcotest.(check (list string)) "only the client fails"
        [ "bsearch_client" ] (List.map fst errs);
      match (List.assoc "bsearch_client" errs).Rc_lithium.Report.kind with
      | Rc_lithium.Report.No_rule_applies j ->
          let mentions sub =
            match Str.search_forward (Str.regexp_string sub) j 0 with
            | _ -> true
            | exception Not_found -> false
          in
          Alcotest.(check bool) ("stuck at the subsumption: " ^ j) true
            (mentions "fn<u8_lt> <:" && mentions "fn<cmp_spec>")
      | _ ->
          Alcotest.failf "unexpected failure: %s"
            (Rc_lithium.Report.to_string (List.assoc "bsearch_client" errs)))

(* --------------------------------------------------------------- *)
(* Pinned Figure-7 columns                                          *)
(* --------------------------------------------------------------- *)

(* The proof-search columns of Figure 7 — distinct rules / rule
   applications, evars instantiated, side conditions auto / manual — for
   every case study and the scale-1 stress corpus.  [figure7.expected]
   pins them, so a solver or engine change that moves any column fails
   here, not only in the printed bench table. *)
let figure7_row name (t : Driver.t) =
  let s = Driver.stats t in
  Fmt.str "%s rules=%d/%d evars=%d side=%d/%d" name
    (Rc_lithium.Stats.distinct_rules s)
    s.Rc_lithium.Stats.rule_apps s.Rc_lithium.Stats.evar_insts
    s.Rc_lithium.Stats.side_auto s.Rc_lithium.Stats.side_manual

let figure7_table () =
  List.map
    (fun file ->
      figure7_row file
        (Driver.check_file ~session:(session ()) (Filename.concat case_dir file)))
    corpus
  @ List.map
      (fun (p : Rc_benchgen.Corpus.program) ->
        figure7_row ("stress/" ^ p.p_name)
          (Driver.check_source ~session:(session ()) ~file:p.p_name p.p_src))
      (Rc_benchgen.Corpus.stress_corpus ~scale:1)

let figure7_tests =
  [
    Alcotest.test_case "columns match figure7.expected" `Quick (fun () ->
        let expected =
          In_channel.with_open_bin "figure7.expected" In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter (fun l -> l <> "" && l.[0] <> '#')
        in
        let actual = figure7_table () in
        if actual <> expected then
          Alcotest.failf "Figure-7 columns moved; the table is now:@.%s"
            (String.concat "\n" actual));
  ]

(* --------------------------------------------------------------- *)
(* Struct nesting stays linear                                      *)
(* --------------------------------------------------------------- *)

(* [struct_nest ~depth:d] proves in 4d + 14 rule applications.  Its
   cost used to grow as d³: every ⊢EXPR derivation node printed each
   field access's struct layout in full.  Minor-heap allocation is a
   deterministic stand-in for that cost; doubling the depth may at most
   triple it (it was 6x when the layouts were printed). *)
let struct_nest_words depth =
  let session = session () in
  let src = Rc_benchgen.Corpus.struct_nest ~depth in
  let w0 = Gc.minor_words () in
  let t = Driver.check_source ~session ~file:"struct_nest.c" src in
  let words = Gc.minor_words () -. w0 in
  if Driver.errors t <> [] then Alcotest.failf "struct_nest %d failed" depth;
  ((Driver.stats t).Rc_lithium.Stats.rule_apps, words)

let struct_nest_tests =
  [
    Alcotest.test_case "depth 24 allocates at most 3x depth 12" `Quick
      (fun () ->
        let apps12, words12 = struct_nest_words 12 in
        let apps24, words24 = struct_nest_words 24 in
        Alcotest.(check (pair int int)) "rule applications" (62, 110)
          (apps12, apps24);
        let ratio = words24 /. words12 in
        if ratio > 3. then
          Alcotest.failf "minor words grew %.1fx from depth 12 to 24 (%.0f -> %.0f)"
            ratio words12 words24);
  ]

(* --------------------------------------------------------------- *)
(* Judgments are printed only on request                            *)
(* --------------------------------------------------------------- *)

(* The generator families of the engine-heavy benchmark workload, at
   its sizes: rule dispatch takes the time, the solvers almost none. *)
let engine_inputs =
  let open Rc_benchgen.Corpus in
  [
    ("diamond_farm.c", diamond_farm ~functions:3 ~k:5 ());
    ("call_chain.c", call_chain ~n:10 ());
    ("struct_nest.c", struct_nest ~depth:10);
    ("loop_farm.c", loop_farm ~functions:8 ());
    ("lock_farm.c", lock_farm ~functions:6 ());
  ]

(* Check every input under a fresh session: the minor words the checks
   allocated, and each function's result with its session. *)
let check_engine_inputs ~judgments =
  let w0 = Gc.minor_words () in
  let checked =
    List.map
      (fun (file, src) ->
        let s =
          Rc_session.Refinedc_api.create_session ~case_studies:true ~judgments
            ()
        in
        (file, s, Driver.check_source ~session:s ~file src))
      engine_inputs
  in
  let words = Gc.minor_words () -. w0 in
  let fns =
    List.concat_map
      (fun (file, s, (t : Driver.t)) ->
        List.map
          (fun (r : Driver.check_result) ->
            match r.outcome with
            | Ok res -> (file ^ ":" ^ r.name, s, res)
            | Error _ -> Alcotest.failf "%s: %s failed" file r.name)
          t.results)
      checked
  in
  (words, fns)

let judgment_tests =
  [
    Alcotest.test_case "default allocates at most 60% of --deriv" `Quick
      (fun () ->
        let on_words, on = check_engine_inputs ~judgments:true in
        let off_words, off = check_engine_inputs ~judgments:false in
        let stats =
          List.map (fun (fn, _, res) -> (fn, res.Rc_refinedc.Lang.E.stats))
        in
        Alcotest.(check (list (pair string Testutil.stats)))
          "same stats with and without judgments" (stats on) (stats off);
        List.iter
          (fun (fn, s, res) ->
            let rep =
              Rc_cert.Checker.check ~session:s res.Rc_refinedc.Lang.E.deriv
            in
            if not (Rc_cert.Checker.ok rep) then
              Alcotest.failf "certificate for %s: %a" fn
                Rc_cert.Checker.pp_report rep)
          off;
        let ratio = off_words /. on_words in
        if ratio > 0.6 then
          Alcotest.failf
            "default checks allocated %.0f%% of the judgments run's minor \
             words (%.0f / %.0f)"
            (100. *. ratio) off_words on_words);
  ]

let () =
  Alcotest.run "case-studies"
    [
      ("verify", verify_tests);
      ("certificates", cert_tests);
      ("semantic-soundness", semtest_tests);
      ("mutations-rejected", mutation_tests @ [ fnptr_test ]);
      ("figure7", figure7_tests);
      ("struct-nest", struct_nest_tests);
      ("judgments", judgment_tests);
    ]
