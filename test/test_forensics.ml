(* Proof-failure forensics: when a session enables forensics, every
   failure report carries a bounded derivation snapshot — the goal stack
   from the function's root goal to the stuck goal, the stuck goal's
   candidate rules with per-rule rejection reasons, the evar state and
   the trailing rule applications.

   Contracts under test, per failure kind:
   - the forensic is present and names the right stuck judgment;
   - the committed candidate's rejection reason reflects the kind
     (guard rejections read "guard failed", the committed rule carries
     the side-condition/evar/ownership explanation);
   - capture is bounded (depth caps with explicit elision counts);
   - determinism: -j1 and -j4 serialize to byte-identical JSON
     (forensics contain no wall-clock data);
   - zero-cost when off: a default session's reports have no forensics,
     and its JSON is byte-identical to a forensics-free run. *)

module Driver = Rc_frontend.Driver
module Api = Rc_session.Refinedc_api
module Report = Rc_lithium.Report

let case_dir =
  List.find Sys.file_exists
    [
      "case_studies"; "../case_studies"; "../../case_studies";
      "../../../case_studies";
    ]

let fx_session () = Api.create_session ~case_studies:true ~forensics:true ()

let check ?session ?jobs ~file src =
  let session =
    match session with Some s -> s | None -> fx_session ()
  in
  Driver.check_source ~session ?jobs ~file src

(* The committed rule's side condition (x + 2) ≤ max_int is unprovable
   for an unbounded refinement x. *)
let unsolved_src =
  {|
[[rc::parameters("x: int")]]
[[rc::args("x @ int<int>")]]
[[rc::returns("(x + 1) @ int<int>")]]
int bump(int n) {
  return n + 2;
}
|}

(* The existential r is pinned by nothing: the ensures side condition
   still contains the sealed evar after the heuristics. *)
let evar_stuck_src =
  {|
[[rc::parameters("x: int")]]
[[rc::args("x @ int<int>")]]
[[rc::exists("r: int")]]
[[rc::returns("x @ int<int>")]]
[[rc::ensures("{r * r == x + x}")]]
int pick(int n) {
  return n;
}
|}

(* No typing rule covers xor: the binop bucket rejects every candidate. *)
let no_rule_src =
  {|
[[rc::parameters("x: int")]]
[[rc::args("x @ int<int>")]]
[[rc::returns("x @ int<int>")]]
int weird(int n) {
  return n ^ 1;
}
|}

let sole_failure (t : Driver.t) : Report.t =
  match t.Driver.results with
  | [ { outcome = Error e; _ } ] -> e
  | [ { outcome = Ok _; _ } ] -> Alcotest.fail "fixture unexpectedly verified"
  | _ -> Alcotest.fail "expected exactly one function"

(* the failure report of function [name] in a file with several *)
let sole_failure_in (t : Driver.t) name : Report.t =
  match
    List.filter_map
      (fun (r : Driver.check_result) ->
        match r.outcome with
        | Error e when r.name = name -> Some e
        | _ -> None)
      t.Driver.results
  with
  | [ e ] -> e
  | _ -> Alcotest.failf "expected %s to fail" name

let forensics_of (e : Report.t) : Report.forensics =
  match e.Report.forensics with
  | Some fx -> fx
  | None -> Alcotest.fail "failure report carries no forensics"

let contains ~sub s =
  try
    ignore (Str.search_forward (Str.regexp_string sub) s 0);
    true
  with Not_found -> false

let kind_tests =
  [
    Alcotest.test_case "unsolved side condition forensic" `Quick (fun () ->
        let e = sole_failure (check ~file:"bump.c" unsolved_src) in
        Alcotest.(check string)
          "kind" "unsolved_side_condition"
          (Report.kind_label e.Report.kind);
        let fx = forensics_of e in
        Alcotest.(check bool)
          "goal stack nonempty" true
          (fx.Report.fx_goal_stack <> []);
        Alcotest.(check (option string))
          "stuck head" (Some "binop") fx.Report.fx_stuck_head;
        (* first-match-commits: the committed arithmetic rule is listed
           with the unsolved side condition as its rejection reason *)
        Alcotest.(check bool)
          "a candidate explains the unsolved side condition" true
          (List.exists
             (fun (_, reason) ->
               contains ~sub:"side condition unsolved" reason
               && contains ~sub:"solver verdict: unsolved" reason)
             fx.Report.fx_candidates);
        Alcotest.(check bool)
          "recent rules recorded" true
          (fx.Report.fx_recent_rules <> []);
        (* the human rendering includes every section header *)
        let printed = Fmt.str "%a" Report.pp_forensics fx in
        List.iter
          (fun sub ->
            Alcotest.(check bool) ("pp mentions " ^ sub) true
              (contains ~sub printed))
          [ "goal stack"; "stuck judgment head"; "candidate rules" ]);
    Alcotest.test_case "evar-stuck forensic shows the evar state" `Quick
      (fun () ->
        let e = sole_failure (check ~file:"pick.c" evar_stuck_src) in
        Alcotest.(check string)
          "kind" "evar_stuck"
          (Report.kind_label e.Report.kind);
        let fx = forensics_of e in
        Alcotest.(check bool)
          "evar section lists an uninstantiated evar" true
          (List.exists
             (fun line ->
               contains ~sub:"?r#" line && contains ~sub:"uninstantiated" line)
             fx.Report.fx_evars);
        Alcotest.(check bool)
          "a candidate explains the stuck evars" true
          (List.exists
             (fun (_, reason) -> contains ~sub:"evars" reason)
             fx.Report.fx_candidates));
    Alcotest.test_case "no-rule-applies forensic lists guard rejections"
      `Quick (fun () ->
        let e = sole_failure (check ~file:"weird.c" no_rule_src) in
        Alcotest.(check string)
          "kind" "no_rule_applies"
          (Report.kind_label e.Report.kind);
        let fx = forensics_of e in
        Alcotest.(check bool)
          "every candidate was rejected by its guard" true
          (fx.Report.fx_candidates <> []
          && List.for_all
               (fun (_, reason) -> reason = "guard failed")
               fx.Report.fx_candidates);
        Alcotest.(check (option string))
          "stuck head" (Some "binop") fx.Report.fx_stuck_head);
  ]

(* A deeply right-nested expression keeps > fxl_depth basic-goal frames
   open at the failure point, so the stack must elide its middle while
   keeping the root and the stuck frontier. *)
let deep_src =
  let rec nest n = if n = 0 then "(n ^ 1)" else "(n + " ^ nest (n - 1) ^ ")" in
  Printf.sprintf
    {|
[[rc::parameters("x: int")]]
[[rc::args("x @ int<int>")]]
[[rc::returns("x @ int<int>")]]
int deep(int n) {
  return %s;
}
|}
    (nest 30)

let bounding_tests =
  [
    Alcotest.test_case "goal stack is depth-bounded with elision" `Quick
      (fun () ->
        let e = sole_failure (check ~file:"deep.c" deep_src) in
        let fx = forensics_of e in
        let lim = Report.default_fx_limits in
        Alcotest.(check int)
          "stack capped at fxl_depth" lim.Report.fxl_depth
          (List.length fx.Report.fx_goal_stack);
        Alcotest.(check bool)
          "elision counted" true
          (fx.Report.fx_goal_stack_elided > 0);
        (* the stuck frontier stays visible after elision *)
        Alcotest.(check bool)
          "last entry is the stuck goal" true
          (match List.rev fx.Report.fx_goal_stack with
          | last :: _ -> contains ~sub:"BINOP" last || contains ~sub:"^" last
          | [] -> false));
  ]

let json_of t = Rc_util.Jsonout.to_string (Driver.to_json ~timings:false t)

let determinism_tests =
  [
    Alcotest.test_case "forensics are byte-identical across -j" `Quick
      (fun () ->
        (* one file, several failing functions, so -j4 actually forks *)
        let src =
          String.concat "\n"
            [ unsolved_src; evar_stuck_src; no_rule_src; deep_src ]
        in
        let seq = check ~session:(fx_session ()) ~jobs:1 ~file:"all.c" src in
        let par = check ~session:(fx_session ()) ~jobs:4 ~file:"all.c" src in
        Alcotest.(check string) "JSON reports" (json_of seq) (json_of par));
    Alcotest.test_case "forensics JSON block is present under --json" `Quick
      (fun () ->
        let t = check ~file:"bump.c" unsolved_src in
        let json = json_of t in
        List.iter
          (fun sub ->
            Alcotest.(check bool) ("json mentions " ^ sub) true
              (contains ~sub json))
          [
            "\"forensics\"";
            "\"goal_stack\"";
            "\"stuck_head\"";
            "\"candidates\"";
            (* satellite: the existing trail/context diagnostics are part
               of the same per-function failure record *)
            "\"trail\"";
            "\"context\"";
          ]);
  ]

let off_tests =
  [
    Alcotest.test_case "disabled forensics leave reports untouched" `Quick
      (fun () ->
        let plain () = Api.create_session ~case_studies:true () in
        let off = check ~session:(plain ()) ~file:"bump.c" unsolved_src in
        let e = sole_failure off in
        Alcotest.(check bool)
          "no forensic captured" true
          (e.Report.forensics = None);
        Alcotest.(check bool)
          "no forensics key in JSON" false
          (contains ~sub:"\"forensics\"" (json_of off));
        (* same verdict, same Figure-7 statistics, same JSON as another
           forensics-free run: the default path is unchanged *)
        let off' = check ~session:(plain ()) ~file:"bump.c" unsolved_src in
        Alcotest.(check string)
          "byte-identical to a forensics-free run" (json_of off')
          (json_of off);
        (* and forensics-on changes nothing but the forensics block:
           verdict kind and exit code agree *)
        let on = check ~session:(fx_session ()) ~file:"bump.c" unsolved_src in
        Alcotest.(check string)
          "same kind with forensics on"
          (Report.kind_label e.Report.kind)
          (Report.kind_label (sole_failure on).Report.kind);
        Alcotest.(check int)
          "same exit code" (Driver.exit_code off) (Driver.exit_code on));
    Alcotest.test_case "forensics do not change verified outcomes" `Quick
      (fun () ->
        let file = Filename.concat case_dir "binary_search.c" in
        let src = In_channel.with_open_bin file In_channel.input_all in
        let off =
          check
            ~session:(Api.create_session ~case_studies:true ())
            ~file:"binary_search.c" src
        in
        let on =
          check ~session:(fx_session ()) ~file:"binary_search.c" src
        in
        Alcotest.(check string)
          "identical reports" (json_of off) (json_of on));
  ]

(* The §2.1 buggy allocator: [alloc] promises a block only when n < a.
   Its forensic passes through ⊢EXPR goals over struct field accesses,
   which once printed the whole [mem_t] layout on several lines. *)
let mem_alloc_bug_src () =
  let src =
    In_channel.with_open_bin
      (Filename.concat case_dir "mem_alloc.c")
      In_channel.input_all
  in
  Rc_util.Xstring.replace_first src
    ~sub:"[[rc::returns(\"{n <= a} @ optional"
    ~by:"[[rc::returns(\"{n < a} @ optional"

let golden_tests =
  [
    Alcotest.test_case "mem_alloc_bug forensic matches the golden" `Quick
      (fun () ->
        let t = check ~file:"mem_alloc_bug.c" (mem_alloc_bug_src ()) in
        let fx = forensics_of (sole_failure_in t "alloc") in
        let exprs =
          List.filter
            (fun g -> contains ~sub:"⊢EXPR" g)
            fx.Report.fx_goal_stack
        in
        Alcotest.(check bool) "the goal stack has ⊢EXPR goals" true
          (exprs <> []);
        List.iter
          (fun g ->
            Alcotest.(check bool) ("one line: " ^ g) false
              (String.contains g '\n');
            Alcotest.(check bool) ("no printed layout: " ^ g) false
              (contains ~sub:"sl_fields" g))
          exprs;
        let expected =
          In_channel.with_open_bin "mem_alloc_bug.forensics.expected"
            In_channel.input_all
        in
        Alcotest.(check string) "--explain-failure --json report" expected
          (json_of t ^ "\n"));
  ]

let () =
  Alcotest.run "forensics"
    [
      ("failure kinds", kind_tests);
      ("bounding", bounding_tests);
      ("determinism", determinism_tests);
      ("disabled", off_tests);
      ("golden", golden_tests);
    ]
