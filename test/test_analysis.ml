(* The pre-verification static-analysis subsystem (lib/analysis):
   - the constant-folding CFG construction and the worklist dataflow
     framework, on hand-built Caesium functions;
   - one positive and one negative fixture per lint pass, driven
     end-to-end through parse → elaborate → lint;
   - rule-set sanity on purpose-built bad rule sets and on the stock
     session (which must be clean);
   - the whole §7 case-study corpus must lint clean, and enabling the
     lint pre-pass must not change any study's verdicts or statistics. *)

module Syntax = Rc_caesium.Syntax
module Layout = Rc_caesium.Layout
module Int_type = Rc_caesium.Int_type
module Cfg = Rc_analysis.Cfg
module Dataflow = Rc_analysis.Dataflow
module Lint = Rc_analysis.Lint
module Diagnostic = Rc_util.Diagnostic
module Driver = Rc_frontend.Driver
module Api = Rc_session.Refinedc_api

let i32 = Int_type.i32
let cint n = Syntax.IntConst (n, i32)
let use x = Syntax.Use { atomic = false; layout = Layout.Int i32; arg = Syntax.VarLoc x }

let assign x e =
  Syntax.Assign
    { atomic = false; layout = Layout.Int i32; lhs = Syntax.VarLoc x; rhs = e }

let mk_func ?(args = []) ?(locals = []) ?(ret = Layout.Int i32) blocks entry =
  {
    Syntax.fname = "f";
    args;
    locals;
    ret_layout = ret;
    blocks;
    entry;
  }

(* --------------------------------------------------------------- *)
(* CFG construction                                                  *)
(* --------------------------------------------------------------- *)

let cfg_tests =
  [
    Alcotest.test_case "constant CondGoto folds to one edge" `Quick (fun () ->
        (* while (1): the false edge must not count as reachable *)
        let f =
          mk_func ~ret:Layout.Void
            [
              ( "entry",
                {
                  Syntax.stmts = [];
                  term =
                    Syntax.CondGoto
                      {
                        ot = Syntax.OInt i32;
                        cond = cint 1;
                        if_true = "body";
                        if_false = "exit";
                      };
                } );
              ("body", { Syntax.stmts = []; term = Syntax.Goto "entry" });
              ("exit", { Syntax.stmts = []; term = Syntax.Return None });
            ]
            "entry"
        in
        let cfg = Cfg.build f in
        Alcotest.(check (list string))
          "succs of entry" [ "body" ]
          (Cfg.succs_of cfg "entry");
        Alcotest.(check bool) "exit unreachable" false
          (Cfg.is_reachable cfg "exit");
        Alcotest.(check (list string))
          "unreachable blocks" [ "exit" ]
          (List.map fst (Cfg.unreachable_blocks cfg)));
    Alcotest.test_case "constant Switch folds to the matching case" `Quick
      (fun () ->
        let term cases default =
          Syntax.Switch
            { ot = Syntax.OInt i32; scrut = cint 2; cases; default }
        in
        let blocks t =
          [
            ("entry", { Syntax.stmts = []; term = t });
            ("a", { Syntax.stmts = []; term = Syntax.Return (Some (cint 0)) });
            ("b", { Syntax.stmts = []; term = Syntax.Return (Some (cint 0)) });
            ("d", { Syntax.stmts = []; term = Syntax.Return (Some (cint 0)) });
          ]
        in
        let cfg =
          Cfg.build (mk_func (blocks (term [ (1, "a"); (2, "b") ] "d")) "entry")
        in
        Alcotest.(check (list string))
          "matching case" [ "b" ]
          (Cfg.succs_of cfg "entry");
        (* no case matches: only the default is a successor *)
        let cfg = Cfg.build (mk_func (blocks (term [ (1, "a") ] "d")) "entry") in
        Alcotest.(check (list string))
          "default" [ "d" ]
          (Cfg.succs_of cfg "entry"));
    Alcotest.test_case "reachable is in reverse postorder" `Quick (fun () ->
        let goto l = { Syntax.stmts = []; term = Syntax.Goto l } in
        let f =
          mk_func
            [
              ("entry", goto "mid");
              ("mid", goto "last");
              ("last", { Syntax.stmts = []; term = Syntax.Return None });
              ("island", goto "island");
            ]
            "entry"
        in
        let cfg = Cfg.build f in
        Alcotest.(check (list string))
          "order" [ "entry"; "mid"; "last" ] cfg.Cfg.reachable;
        Alcotest.(check (list string))
          "preds of last" [ "mid" ]
          (Cfg.preds_of cfg "last"));
  ]

(* --------------------------------------------------------------- *)
(* Worklist dataflow                                                 *)
(* --------------------------------------------------------------- *)

let dataflow_tests =
  [
    Alcotest.test_case "must-analysis meets over a diamond" `Quick (fun () ->
        (* entry defines x; only the left branch defines y; the join's
           input must be {x} — y is not definite *)
        let cond l r =
          Syntax.CondGoto
            { ot = Syntax.OInt i32; cond = use "c"; if_true = l; if_false = r }
        in
        let f =
          mk_func ~locals:[ ("x", Layout.Int i32); ("y", Layout.Int i32) ]
            [
              ("entry", { Syntax.stmts = [ assign "x" (cint 1) ]; term = cond "l" "r" });
              ("l", { Syntax.stmts = [ assign "y" (cint 2) ]; term = Syntax.Goto "join" });
              ("r", { Syntax.stmts = []; term = Syntax.Goto "join" });
              ("join", { Syntax.stmts = []; term = Syntax.Return (Some (use "x")) });
            ]
            "entry"
        in
        let cfg = Cfg.build f in
        let transfer _ (b : Syntax.block) st =
          List.fold_left
            (fun st s ->
              match s with
              | Syntax.Assign { lhs = Syntax.VarLoc x; _ } ->
                  Dataflow.StringSet.add x st
              | _ -> st)
            st b.Syntax.stmts
        in
        let inputs =
          Dataflow.Must_vars.run cfg ~entry:Dataflow.StringSet.empty ~transfer
        in
        let at l = Dataflow.StringSet.elements (List.assoc l inputs) in
        Alcotest.(check (list string)) "entry input" [] (at "entry");
        Alcotest.(check (list string)) "left input" [ "x" ] (at "l");
        Alcotest.(check (list string)) "join input" [ "x" ] (at "join"));
    Alcotest.test_case "loop reaches a fixpoint" `Quick (fun () ->
        (* back edge carries {x}; the loop head's input must stabilize
           at the meet of the entry edge ({x}) and the back edge *)
        let cond l r =
          Syntax.CondGoto
            { ot = Syntax.OInt i32; cond = use "c"; if_true = l; if_false = r }
        in
        let f =
          mk_func ~locals:[ ("x", Layout.Int i32); ("y", Layout.Int i32) ]
            [
              ("entry", { Syntax.stmts = [ assign "x" (cint 0) ]; term = Syntax.Goto "head" });
              ("head", { Syntax.stmts = []; term = cond "body" "exit" });
              ("body", { Syntax.stmts = [ assign "y" (cint 1) ]; term = Syntax.Goto "head" });
              ("exit", { Syntax.stmts = []; term = Syntax.Return (Some (use "x")) });
            ]
            "entry"
        in
        let cfg = Cfg.build f in
        let transfer _ (b : Syntax.block) st =
          List.fold_left
            (fun st s ->
              match s with
              | Syntax.Assign { lhs = Syntax.VarLoc x; _ } ->
                  Dataflow.StringSet.add x st
              | _ -> st)
            st b.Syntax.stmts
        in
        let inputs =
          Dataflow.Must_vars.run cfg ~entry:Dataflow.StringSet.empty ~transfer
        in
        let at l = Dataflow.StringSet.elements (List.assoc l inputs) in
        (* y is defined on the back edge but not the entry edge: must
           not be definite at the head *)
        Alcotest.(check (list string)) "head input" [ "x" ] (at "head");
        Alcotest.(check (list string)) "exit input" [ "x" ] (at "exit"));
  ]

(* --------------------------------------------------------------- *)
(* Lint passes, end to end on source fixtures                        *)
(* --------------------------------------------------------------- *)

let session () = Api.create_session ~case_studies:true ()

let lint ?passes src =
  let session = session () in
  let elaborated =
    Driver.parse_and_elab ~session ~file:"lint_test.c" src
  in
  Driver.lint_elaborated ?passes ~session ~file:"lint_test.c" elaborated

let has_code c ds =
  List.exists (fun (d : Diagnostic.t) -> d.code = c) ds

let count_code c ds =
  List.length (List.filter (fun (d : Diagnostic.t) -> d.code = c) ds)

let init_pos =
  {|
[[rc::parameters("n: int")]]
[[rc::args("n @ int<int>")]]
[[rc::returns("int<int>")]]
int f(int n) {
  int x;
  if (n > 0) { x = 1; }
  return x;
}
|}

let init_neg =
  {|
[[rc::parameters("n: int")]]
[[rc::args("n @ int<int>")]]
[[rc::returns("int<int>")]]
int f(int n) {
  int x = 0;
  if (n > 0) { x = 1; }
  return x;
}
|}

let deref_pos =
  {|
[[rc::parameters("p: loc")]]
[[rc::args("p @ ptr")]]
[[rc::returns("int<int>")]]
int f(int* q) {
  return *q;
}
|}

let deref_neg =
  {|
[[rc::parameters("n: int")]]
[[rc::args("&own<n @ int<int>>")]]
[[rc::returns("n @ int<int>")]]
int f(int* q) {
  return *q;
}
|}

let reach_pos =
  {|
[[rc::parameters("n: int")]]
[[rc::args("n @ int<int>")]]
[[rc::returns("int<int>")]]
int f(int n) {
  if (n > 0) { return 1; } else { return 2; }
  n = 3;
  return n;
}
|}

let missing_return_pos =
  {|
[[rc::parameters("n: int")]]
[[rc::args("n @ int<int>")]]
[[rc::returns("int<int>")]]
int f(int n) {
  if (n > 0) { return 1; }
}
|}

(* the spinlock shape: an infinite loop that returns from its body in a
   void function — the synthesized loop-exit block must not be flagged *)
let reach_neg =
  {|
[[rc::parameters("n: int")]]
[[rc::args("n @ int<int>")]]
void f(int n) {
  while (1) {
    if (n > 0)
      return;
  }
}
|}

let unused_param_pos =
  {|
[[rc::parameters("n: int", "m: int")]]
[[rc::args("n @ int<int>")]]
[[rc::returns("n @ int<int>")]]
int f(int n) { return n; }
|}

(* a parameter used *only* in a loop invariant is used *)
let unused_param_neg =
  {|
[[rc::parameters("n: int")]]
[[rc::args("n @ int<int>")]]
[[rc::returns("int<int>")]]
int f(int n) {
  int i = 0;
  [[rc::inv_vars("i: int<int>")]]
  [[rc::constraints("{0 <= n}")]]
  while (i < n) { i = i + 1; }
  return i;
}
|}

let dup_annot_pos =
  {|
[[rc::parameters("n: int")]]
[[rc::args("n @ int<int>")]]
[[rc::requires("{0 < n}", "{0 < n}")]]
[[rc::returns("n @ int<int>")]]
int f(int n) { return n; }
|}

let unsat_pre_pos =
  {|
[[rc::parameters("n: int")]]
[[rc::args("n @ int<int>")]]
[[rc::requires("{n < 0}", "{0 < n}")]]
[[rc::returns("n @ int<int>")]]
int f(int n) { return n; }
|}

let unsat_pre_neg =
  {|
[[rc::parameters("n: int")]]
[[rc::args("n @ int<int>")]]
[[rc::requires("{0 < n}", "{n < 10}")]]
[[rc::returns("n @ int<int>")]]
int f(int n) { return n; }
|}

let pass_tests =
  [
    Alcotest.test_case "init: guarded write flags the read" `Quick (fun () ->
        let ds = lint init_pos in
        Alcotest.(check bool) "RC-L001 fires" true (has_code "RC-L001" ds);
        Alcotest.(check int) "exactly once" 1 (count_code "RC-L001" ds));
    Alcotest.test_case "init: initialized local is clean" `Quick (fun () ->
        Alcotest.(check bool)
          "no RC-L001" false
          (has_code "RC-L001" (lint init_neg)));
    Alcotest.test_case "deref: ownership-less pointer arg is hinted" `Quick
      (fun () ->
        let ds = lint deref_pos in
        Alcotest.(check bool) "RC-L002 fires" true (has_code "RC-L002" ds);
        (* a hint, not a problem: the corpus gate ignores it *)
        Alcotest.(check bool)
          "not a problem" false
          (List.exists Diagnostic.is_problem
             (List.filter (fun (d : Diagnostic.t) -> d.code = "RC-L002") ds)));
    Alcotest.test_case "deref: owned pointer arg is clean" `Quick (fun () ->
        Alcotest.(check bool)
          "no RC-L002" false
          (has_code "RC-L002" (lint deref_neg)));
    Alcotest.test_case "reach: code after if/else-return is dead" `Quick
      (fun () ->
        Alcotest.(check bool)
          "RC-L003 fires" true
          (has_code "RC-L003" (lint reach_pos)));
    Alcotest.test_case "reach: missing return on a path" `Quick (fun () ->
        Alcotest.(check bool)
          "RC-L004 fires" true
          (has_code "RC-L004" (lint missing_return_pos)));
    Alcotest.test_case "reach: while(1) exit block is not flagged" `Quick
      (fun () ->
        let ds = lint reach_neg in
        Alcotest.(check bool) "no RC-L003" false (has_code "RC-L003" ds);
        Alcotest.(check bool) "no RC-L004" false (has_code "RC-L004" ds));
    Alcotest.test_case "spec: unused parameter" `Quick (fun () ->
        let ds = lint unused_param_pos in
        Alcotest.(check bool) "RC-L010 fires" true (has_code "RC-L010" ds);
        Alcotest.(check bool)
          "message names m" true
          (List.exists
             (fun (d : Diagnostic.t) ->
               d.code = "RC-L010"
               &&
               try
                 ignore
                   (Str.search_forward (Str.regexp_string "'m'") d.message 0);
                 true
               with Not_found -> false)
             ds));
    Alcotest.test_case "spec: invariant-only use counts as used" `Quick
      (fun () ->
        Alcotest.(check bool)
          "no RC-L010" false
          (has_code "RC-L010" (lint unused_param_neg)));
    Alcotest.test_case "spec: duplicate precondition" `Quick (fun () ->
        Alcotest.(check bool)
          "RC-L011 fires" true
          (has_code "RC-L011" (lint dup_annot_pos)));
    Alcotest.test_case "spec: unsatisfiable precondition" `Quick (fun () ->
        Alcotest.(check bool)
          "RC-L012 fires" true
          (has_code "RC-L012" (lint unsat_pre_pos)));
    Alcotest.test_case "spec: satisfiable precondition is clean" `Quick
      (fun () ->
        Alcotest.(check bool)
          "no RC-L012" false
          (has_code "RC-L012" (lint unsat_pre_neg)));
    Alcotest.test_case "unspecified function gets a note" `Quick (fun () ->
        let ds = lint "int plain(int n) { return n; }" in
        Alcotest.(check bool) "RC-L014 fires" true (has_code "RC-L014" ds);
        Alcotest.(check bool)
          "note, not a problem" false
          (List.exists Diagnostic.is_problem ds));
    Alcotest.test_case "pass selection runs only the named pass" `Quick
      (fun () ->
        let ds = lint ~passes:[ "reach" ] init_pos in
        Alcotest.(check bool) "no RC-L001" false (has_code "RC-L001" ds));
    Alcotest.test_case "unknown pass name raises" `Quick (fun () ->
        match lint ~passes:[ "bogus" ] init_pos with
        | _ -> Alcotest.fail "expected Unknown_pass"
        | exception Lint.Unknown_pass p ->
            Alcotest.(check string) "name" "bogus" p);
  ]

(* --------------------------------------------------------------- *)
(* Rule-set sanity                                                   *)
(* --------------------------------------------------------------- *)

let rule name prio heads =
  { Rc_refinedc.Lang.E.rname = name; prio; heads; apply = (fun _ _ -> None) }

let rules_tests =
  [
    Alcotest.test_case "stock session is clean" `Quick (fun () ->
        Alcotest.(check (list string))
          "no findings" []
          (List.map
             (fun (d : Diagnostic.t) -> d.message)
             (Rc_analysis.Pass_rules.run (session ()))));
    Alcotest.test_case "unknown head is a dead rule" `Quick (fun () ->
        let s =
          Api.create_session ~rules:[ rule "T-TYPO" 900 (Some [ "exprs" ]) ] ()
        in
        let ds = Rc_analysis.Pass_rules.run s in
        Alcotest.(check int) "one finding" 1 (count_code "RC-L021" ds));
    Alcotest.test_case "empty head list is a dead rule" `Quick (fun () ->
        let s = Api.create_session ~rules:[ rule "T-EMPTY" 900 (Some []) ] () in
        Alcotest.(check int) "one finding" 1
          (count_code "RC-L021" (Rc_analysis.Pass_rules.run s)));
    Alcotest.test_case "duplicate rule name" `Quick (fun () ->
        let s =
          Api.create_session
            ~rules:
              [
                rule "T-DUP" 900 (Some [ "expr" ]);
                rule "T-DUP" 901 (Some [ "stmt" ]);
              ]
            ()
        in
        Alcotest.(check int) "one finding" 1
          (count_code "RC-L020" (Rc_analysis.Pass_rules.run s)));
    Alcotest.test_case "equal priority in one bucket" `Quick (fun () ->
        let s =
          Api.create_session
            ~rules:
              [
                rule "T-A" 900 (Some [ "expr" ]);
                rule "T-B" 900 (Some [ "expr" ]);
              ]
            ()
        in
        Alcotest.(check int) "one finding" 1
          (count_code "RC-L022" (Rc_analysis.Pass_rules.run s)));
  ]

(* --------------------------------------------------------------- *)
(* Corpus: clean lints, unchanged verdicts                           *)
(* --------------------------------------------------------------- *)

let case_dir =
  List.find Sys.file_exists
    [
      "case_studies"; "../case_studies"; "../../case_studies";
      "../../../case_studies";
    ]

let corpus =
  [
    "linked_list.c"; "queue.c"; "binary_search.c"; "talloc.c";
    "page_alloc.c"; "bst_layered.c"; "bst_direct.c"; "hashmap.c";
    "mpool.c"; "spinlock.c"; "barrier.c";
  ]

let corpus_tests =
  List.map
    (fun file ->
      Alcotest.test_case (file ^ " lints clean") `Quick (fun () ->
          let path = Filename.concat case_dir file in
          let session = session () in
          let elaborated =
            Driver.parse_and_elab ~session ~file:path
              (In_channel.with_open_bin path In_channel.input_all)
          in
          let ds = Driver.lint_elaborated ~session ~file:path elaborated in
          Alcotest.(check (list string))
            "no problems" []
            (List.filter_map
               (fun (d : Diagnostic.t) ->
                 if Diagnostic.is_problem d then
                   Some (Diagnostic.to_string d)
                 else None)
               ds)))
    corpus

(* the stress-corpus generators: every family must survive the full
   lint registry (all passes, including the concurrency ones) without
   reporting a problem — the generated programs verify, so any problem
   diagnostic would be a false positive at generator scale *)
let stress_corpus_tests =
  [
    Alcotest.test_case "stress corpus lints clean under all passes" `Slow
      (fun () ->
        List.iter
          (fun (p : Rc_benchgen.Corpus.program) ->
            let session = session () in
            let elaborated =
              Driver.parse_and_elab ~session ~file:p.p_name p.p_src
            in
            let ds =
              Driver.lint_elaborated ~session ~file:p.p_name elaborated
            in
            Alcotest.(check (list string))
              (p.p_name ^ " no problems")
              []
              (List.filter_map
                 (fun (d : Diagnostic.t) ->
                   if Diagnostic.is_problem d then
                     Some (Diagnostic.to_string d)
                   else None)
                 ds))
          (Rc_benchgen.Corpus.stress_corpus ~scale:1));
    Alcotest.test_case "race diagnostics identical under -j 1 and -j 4"
      `Slow (fun () ->
        let src =
          Rc_benchgen.Corpus.lock_farm ~functions:3 ~racy:2 ~hoisted:1 ()
        in
        let diags jobs =
          let t =
            Testutil.with_jobs ~jobs (session ()) (fun session ->
                Driver.check_source ~session ~file:"lock_farm_jobs.c" src)
          in
          List.map Diagnostic.to_string t.Driver.diagnostics
        in
        let d1 = diags 1 in
        Alcotest.(check bool) "RC-L030 present" true
          (List.exists
             (fun s ->
               Str.string_match (Str.regexp ".*RC-L030.*") s 0)
             d1);
        Alcotest.(check (list string)) "byte-identical" d1 (diags 4));
    Alcotest.test_case "each pass alone reports what the full run does"
      `Slow (fun () ->
        (* the passes share one CFG per function and one lockset summary
           per unit; whichever runs first builds them, so no pass may
           depend on another having run *)
        let studies =
          Sys.readdir case_dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".c")
          |> List.sort compare
          |> List.map (fun f ->
                 let path = Filename.concat case_dir f in
                 (path, In_channel.with_open_bin path In_channel.input_all))
        in
        let generated =
          List.map
            (fun (p : Rc_benchgen.Corpus.program) -> (p.p_name, p.p_src))
            (Rc_benchgen.Corpus.stress_corpus ~scale:1)
          @ [
              ( "lock_farm_racy.c",
                Rc_benchgen.Corpus.lock_farm ~functions:3 ~racy:2 ~hoisted:1
                  () );
              ( "lock_farm_clean.c",
                Rc_benchgen.Corpus.lock_farm ~functions:3 () );
              (* the pass fixtures, so init and reach report something *)
              ("init_pos.c", init_pos);
              ("deref_pos.c", deref_pos);
              ("reach_pos.c", reach_pos);
              ("missing_return_pos.c", missing_return_pos);
            ]
        in
        Alcotest.(check int) "studies" 13 (List.length studies);
        let seen = Hashtbl.create 16 in
        List.iter
          (fun (file, src) ->
            let session = session () in
            let elaborated = Driver.parse_and_elab ~session ~file src in
            let of_codes codes ds =
              List.filter_map
                (fun (d : Diagnostic.t) ->
                  if List.mem d.code codes then begin
                    Hashtbl.replace seen d.code ();
                    Some (Diagnostic.to_string d)
                  end
                  else None)
                ds
            in
            let full = Driver.lint_elaborated ~session ~file elaborated in
            List.iter
              (fun (p : Rc_analysis.Lint.pass) ->
                Alcotest.(check (list string))
                  (file ^ ": " ^ p.p_name)
                  (of_codes p.p_codes full)
                  (of_codes p.p_codes
                     (Driver.lint_elaborated ~passes:[ p.p_name ] ~session
                        ~file elaborated)))
              Rc_analysis.Lint.passes)
          (studies @ generated);
        (* the inputs make the CFG and lockset users report *)
        List.iter
          (fun code ->
            Alcotest.(check bool) (code ^ " reported") true
              (Hashtbl.mem seen code))
          [ "RC-L001"; "RC-L002"; "RC-L003"; "RC-L004"; "RC-L030" ]);
  ]

let verdict_tests =
  [
    Alcotest.test_case "verdicts unchanged by linting" `Quick (fun () ->
        let outcome (t : Driver.t) =
          List.map
            (fun (r : Driver.check_result) ->
              match r.outcome with
              | Ok res ->
                  Fmt.str "%s:ok:%d" r.name
                    res.Rc_refinedc.Lang.E.stats.Rc_lithium.Stats.rule_apps
              | Error e ->
                  Fmt.str "%s:error:%s" r.name
                    (Rc_lithium.Report.to_string e))
            t.Driver.results
        in
        List.iter
          (fun file ->
            let path = Filename.concat case_dir file in
            let on = Driver.check_file ~session:(session ()) path in
            let off =
              Driver.check_file
                ~session:
                  (Rc_refinedc.Session.with_lint (session ())
                     {
                       Rc_refinedc.Session.l_enabled = false;
                       l_passes = None;
                       l_werror = false;
                     })
                path
            in
            Alcotest.(check (list string))
              (file ^ " outcomes") (outcome off) (outcome on);
            Alcotest.(check int)
              (file ^ " exit code")
              (Driver.exit_code off) (Driver.exit_code on))
          [ "binary_search.c"; "spinlock.c"; "linked_list.c" ]);
  ]

(* --------------------------------------------------------------- *)
(* Diagnostic type                                                   *)
(* --------------------------------------------------------------- *)

let diagnostic_tests =
  [
    Alcotest.test_case "sort orders by file, loc, code and dedups" `Quick
      (fun () ->
        let loc line =
          Rc_util.Srcloc.make ~file:"a.c" ~start_line:line ~start_col:1
            ~end_line:line ~end_col:2
        in
        let d code line = Diagnostic.make ~code ~loc:(loc line) "m" in
        let ds = [ d "RC-L003" 5; d "RC-L001" 2; d "RC-L001" 2; d "RC-L002" 2 ] in
        let sorted = Diagnostic.sort ds in
        Alcotest.(check (list string))
          "order and dedup"
          [ "RC-L001"; "RC-L002"; "RC-L003" ]
          (List.map (fun (d : Diagnostic.t) -> d.code) sorted);
        Alcotest.(check bool) "is_sorted" true (Diagnostic.is_sorted sorted));
    Alcotest.test_case "severity ranks errors first" `Quick (fun () ->
        Alcotest.(check bool)
          "error < warning" true
          (Diagnostic.severity_rank Diagnostic.Error
          < Diagnostic.severity_rank Diagnostic.Warning);
        Alcotest.(check bool) "error is a problem" true
          (Diagnostic.is_problem
             (Diagnostic.make ~severity:Diagnostic.Error ~code:"X"
                ~loc:Rc_util.Srcloc.dummy "m"));
        Alcotest.(check bool) "hint is not" false
          (Diagnostic.is_problem
             (Diagnostic.make ~severity:Diagnostic.Hint ~code:"X"
                ~loc:Rc_util.Srcloc.dummy "m")));
  ]

let () =
  Alcotest.run "analysis"
    [
      ("cfg", cfg_tests);
      ("dataflow", dataflow_tests);
      ("passes", pass_tests);
      ("rules", rules_tests);
      ("diagnostic", diagnostic_tests);
      ("corpus", corpus_tests);
      ("stress_corpus", stress_corpus_tests);
      ("verdicts", verdict_tests);
    ]
