(* End-to-end pipeline tests: annotated C text → parse → elaborate →
   verify, plus interpreter cross-checks of the elaborated code. *)

open Rc_frontend
module Value = Rc_caesium.Value
module Int_type = Rc_caesium.Int_type

let case_dir =
  (* robust against being run via `dune runtest` (cwd = build dir) or
     `dune exec` (cwd = workspace root) *)
  List.find Sys.file_exists
    [
      "case_studies"; "../case_studies"; "../../case_studies";
      "../../../case_studies";
    ]

let read path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let simple_src =
  {|
int min_int(int a, int b) { return a; }

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
[[rc::returns("(x * (x + 1) / 2) @ int<int>")]]
int sum_to(int n) {
  int acc = 0;
  int i = 0;
  [[rc::exists("j: nat", "s: nat")]]
  [[rc::inv_vars("i: j @ int<int>")]]
  [[rc::inv_vars("acc: s @ int<int>")]]
  [[rc::constraints("{j <= x}", "{s = j * (j + 1) / 2}", "{s <= j * 1001}")]]
  while (i < n) {
    i += 1;
    acc += i;
  }
  return acc;
}
|}

let pipeline_tests =
  [
    Alcotest.test_case "parse + verify simple functions" `Quick (fun () ->
        let t = Driver.check_source ~file:"simple.c" simple_src in
        (* imin must verify *)
        List.iter
          (fun (r : Driver.check_result) ->
            if r.name = "imin" then
              match r.outcome with
              | Ok _ -> ()
              | Error e ->
                  Alcotest.failf "imin failed:@.%s"
                    (Rc_lithium.Report.to_string e))
          t.results);
    Alcotest.test_case "interpreter agrees with spec on imin" `Quick
      (fun () ->
        let t = Driver.check_source ~file:"simple.c" simple_src in
        match
          Driver.run t "imin"
            [ Value.of_int Int_type.i32 7; Value.of_int Int_type.i32 3 ]
        with
        | Rc_caesium.Eval.Finished (Some v) ->
            Alcotest.(check (option int))
              "min" (Some 3)
              (Value.to_int Int_type.i32 v)
        | _ -> Alcotest.fail "expected termination");
  ]

let mem_alloc_tests =
  [
    Alcotest.test_case "mem_alloc.c verifies (both variants)" `Quick
      (fun () ->
        let t =
          Driver.check_source ~file:"mem_alloc.c"
            (read (Filename.concat case_dir "mem_alloc.c"))
        in
        match Driver.errors t with
        | [] -> ()
        | (fn, e) :: _ ->
            Alcotest.failf "%s failed:@.%s" fn (Rc_lithium.Report.to_string e));
    Alcotest.test_case "buggy spec (n < a) fails with located error" `Quick
      (fun () ->
        let src = read (Filename.concat case_dir "mem_alloc.c") in
        (* §2.1: replace n <= a by n < a in the returns annotation *)
        let buggy =
          Str.global_replace (Str.regexp_string "{n <= a} @ optional")
            "{n < a} @ optional" src
        in
        let t = Driver.check_source ~file:"mem_alloc_bug.c" buggy in
        match Driver.errors t with
        | [] -> Alcotest.fail "buggy spec verified"
        | (_, e) :: _ ->
            (* the error should point into the C source *)
            Alcotest.(check bool)
              "has location" true
              (e.Rc_lithium.Report.loc <> None));
  ]

let switch_src = {|
[[rc::parameters("x: int")]]
[[rc::args("x @ int<int>")]]
[[rc::returns("(x = 1 ? 10 : (x = 2 ? 20 : 0)) @ int<int>")]]
int classify(int v) {
  switch (v) {
    case 1:
      return 10;
    case 2:
      return 20;
    default:
      return 0;
  }
}
|}

let while_break_src = {|
[[rc::parameters("x: nat")]]
[[rc::args("x @ int<int>")]]
[[rc::requires("{x <= 100}")]]
[[rc::returns("(min(x, 10)) @ int<int>")]]
int clamp10(int v) {
  int i = 0;
  [[rc::exists("j: nat")]]
  [[rc::inv_vars("i: j @ int<int>")]]
  [[rc::constraints("{j <= x}", "{j <= 10}")]]
  while (i < v) {
    if (i >= 10)
      break;
    i = i + 1;
  }
  return i;
}
|}

let more_tests =
  [
    Alcotest.test_case "switch statements verify" `Quick (fun () ->
        match
          (Driver.check_source ~file:"switch.c" switch_src).results
        with
        | [ { outcome = Ok _; _ } ] -> ()
        | [ { outcome = Error e; _ } ] ->
            Alcotest.failf "classify failed:@.%s"
              (Rc_lithium.Report.to_string e)
        | _ -> Alcotest.fail "unexpected results");
    Alcotest.test_case "switch executes correctly" `Quick (fun () ->
        let t = Driver.check_source ~file:"switch.c" switch_src in
        List.iter
          (fun (input, expect) ->
            match Driver.run t "classify" [ Value.of_int Int_type.i32 input ] with
            | Rc_caesium.Eval.Finished (Some v) ->
                Alcotest.(check (option int))
                  (string_of_int input) (Some expect)
                  (Value.to_int Int_type.i32 v)
            | _ -> Alcotest.fail "expected termination")
          [ (1, 10); (2, 20); (3, 0); (-5, 0) ]);
    Alcotest.test_case "break with loop invariant verifies" `Quick (fun () ->
        match
          (Driver.check_source ~file:"clamp.c" while_break_src).results
        with
        | [ { outcome = Ok _; _ } ] -> ()
        | [ { outcome = Error e; _ } ] ->
            Alcotest.failf "clamp10 failed:@.%s"
              (Rc_lithium.Report.to_string e)
        | _ -> Alcotest.fail "unexpected results");
    Alcotest.test_case "escape warning fires" `Quick (fun () ->
        let t =
          Driver.check_source ~file:"escape.c"
            "int* bad(void) { int x = 5; return &x; }"
        in
        Alcotest.(check bool)
          "has escape warning" true
          (List.exists
             (fun (d : Rc_util.Diagnostic.t) ->
               d.code = "RC-W002"
               &&
               try
                 ignore
                   (Str.search_forward (Str.regexp_string "escape") d.message
                      0);
                 true
               with Not_found -> false)
             t.elaborated.Rc_frontend.Elab.warnings));
  ]

(* --------------------------------------------------------------- *)
(* Error paths: malformed input in every frontend stage must yield   *)
(* a located Frontend_error, never a crash                           *)
(* --------------------------------------------------------------- *)

let error_path_tests =
  let expect_located name ~category src =
    Alcotest.test_case name `Quick (fun () ->
        match Driver.check_source ~file:"err.c" src with
        | exception Driver.Frontend_error msg ->
            let contains what =
              try
                ignore (Str.search_forward (Str.regexp_string what) msg 0);
                true
              with Not_found -> false
            in
            if not (contains category) then
              Alcotest.failf "expected a %s error, got: %s" category msg;
            (* the message must point into the source: "err.c:LINE:..." *)
            if not (Str.string_match (Str.regexp ".*err\\.c:[0-9]+:") msg 0)
            then Alcotest.failf "no source location in: %s" msg
        | exception e ->
            Alcotest.failf "expected Frontend_error, got %s"
              (Printexc.to_string e)
        | _ -> Alcotest.fail "malformed input verified")
  in
  [
    expect_located "parse error is located" ~category:"parse error"
      "int f(int x { return x; }";
    expect_located "lexical error is located" ~category:"lexical error"
      "int f(void) { return `1; }";
    expect_located "unterminated comment is located" ~category:"lexical error"
      "int f(void) { return 0; } /* oops";
    expect_located "elaboration error is located"
      ~category:"elaboration error" "int f(void) { return g(1); }";
    expect_located "spec error is located" ~category:"specification error"
      {|
[[rc::parameters("x: int")]]
[[rc::args("x @@@ bad")]]
[[rc::returns("x @ int<int>")]]
int id(int a) { return a; }
|};
    expect_located "spec error in loop annotation is located"
      ~category:"specification error"
      {|
[[rc::parameters("x: nat")]]
[[rc::args("x @ int<int>")]]
[[rc::returns("x @ int<int>")]]
int spin(int a) {
  [[rc::exists("j: notasort!!")]]
  [[rc::constraints("{j <= x}")]]
  while (a > 0) { a -= 1; }
  return a;
}
|};
    expect_located "out-of-range literal is located" ~category:"lexical error"
      "int f(void) {\n  return 99999999999999999999;\n}";
    expect_located "hex prefix without digits is located"
      ~category:"lexical error" "int f(void) {\n  return 0x;\n}";
    expect_located "out-of-range case label is located"
      ~category:"lexical error"
      "int f(int x) {\n  switch (x) {\n  case 4611686018427387904:\n    \
       return 1;\n  }\n  return 0;\n}";
    expect_located "out-of-range spec literal is located"
      ~category:"specification error"
      {|
[[rc::parameters("n: int")]]
[[rc::args("n @ int<int>")]]
[[rc::returns("{n + 99999999999999999999} @ int<int>")]]
int f(int x) { return x; }
|};
    Alcotest.test_case "the largest int literal still lexes" `Quick (fun () ->
        let toks =
          Rc_frontend.Clexer.tokenize ~file:"max.c"
            "return 4611686018427387903; 0x3FFFFFFFFFFFFFFF"
        in
        Alcotest.(check (list int)) "literals" [ max_int; max_int ]
          (List.filter_map
             (fun (l : Rc_frontend.Clexer.lexed) ->
               match l.tok with Rc_frontend.Clexer.TInt n -> Some n | _ -> None)
             toks));
  ]

let () =
  Alcotest.run "frontend"
    [
      ("pipeline", pipeline_tests);
      ("mem_alloc", mem_alloc_tests);
      ("more-c-features", more_tests);
      ("error-paths", error_path_tests);
    ]
