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

(* the tokens of a table, read forward, up to [TEof] *)
let all_tokens (t : Clexer.tokens) =
  let rec go i =
    match Clexer.token t i with
    | Clexer.TEof -> [ Clexer.TEof ]
    | tok -> tok :: go (i + 1)
  in
  go 0

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
             (function Rc_frontend.Clexer.TInt n -> Some n | _ -> None)
             (all_tokens toks)));
  ]

(* --------------------------------------------------------------- *)
(* Lexical errors keep their exact message and location              *)
(* --------------------------------------------------------------- *)

let lexical_error_tests =
  let exact name src expected =
    Alcotest.test_case name `Quick (fun () ->
        match Driver.check_source ~file:"err.c" src with
        | exception Driver.Frontend_error msg ->
            Alcotest.(check string) "diagnostic" expected msg
        | _ -> Alcotest.fail "malformed input verified")
  in
  [
    exact "unterminated comment" "int f(void) {\n  return 0;\n}\n/* never\n   closed\n"
      "err.c:6:1-1: lexical error: unterminated comment";
    exact "unterminated string"
      "[[rc::parameters(\"n : int\")]]\n[[rc::args(\"n @ int<int>)]]\nint f(int n) {\n  return n;\n}\n"
      "err.c:6:1-1: lexical error: unterminated string";
    exact "unterminated attribute"
      "[[rc::parameters(\"n : int\")]]\n[[rc::args(\"n @ int<int>\")\nint f(int n) {\n  return n;\n}\n"
      "err.c:3:1-1: lexical error: expected ]] to close attribute";
    exact "stray character" "int f(void) {\n\treturn 1 @ 2;\n}\n"
      "err.c:2:11-11: lexical error: unexpected character '@'";
    (* tokens are lexed as the parser reads them, yet a lexical error
       hundreds of tokens after a parse error is still the one reported *)
    exact "a later lexical error wins over a parse error"
      ("int f(int x {\n  return x;\n}\n"
      ^ String.concat ""
          (List.init 40 (fun i ->
               Printf.sprintf "int g%d(void) { return %d; }\n" i i))
      ^ "int h(void) { return 1 @ 2; }\n")
      "err.c:44:24-24: lexical error: unexpected character '@'";
  ]

(* --------------------------------------------------------------- *)
(* Token locations: lines, byte columns, tabs, CRLF, comments and a  *)
(* multi-line attribute with a UTF-8 payload                         *)
(* --------------------------------------------------------------- *)

let token_text : Clexer.token -> string = function
  | TId s -> "id " ^ s
  | TInt n -> "int " ^ string_of_int n
  | TKw k -> "kw " ^ Clexer.kw_text k
  | TPunct p -> "punct " ^ Clexer.punct_text p
  | TString s -> "string " ^ s
  | TAttr (n, a) -> Printf.sprintf "attr %s %d" n (List.length a)
  | TEof -> "eof"

let located_src =
  "/* header\r\n   comment */\r\nstruct [[rc::refined_by(\"a: nat\")]] s {\r\n\tint v; \
   // tab-indented\r\n};\n\n[[rc::args(\"p @ &own<a @ s>\",\n           \"{a \
   \xe2\x89\xa4 n} \xe2\x88\xa7 \xe2\x88\x85 = \xe2\x88\x85\")]]\nint f(struct s *p) \
   {\n\t\treturn p->v<=0x1F?-1:p->v;\n}\n"

let located_tokens =
  [
    "3:1-3:7 kw struct"; "3:8-3:36 attr rc::refined_by 1"; "3:37-3:38 id s";
    "3:39-3:40 punct {"; "4:2-4:5 kw int"; "4:6-4:7 id v"; "4:7-4:8 punct ;";
    "5:1-5:2 punct }"; "5:2-5:3 punct ;"; "7:1-8:40 attr rc::args 2";
    "9:1-9:4 kw int"; "9:5-9:6 id f"; "9:6-9:7 punct ("; "9:7-9:13 kw struct";
    "9:14-9:15 id s"; "9:16-9:17 punct *"; "9:17-9:18 id p";
    "9:18-9:19 punct )"; "9:20-9:21 punct {"; "10:3-10:9 kw return";
    "10:10-10:11 id p"; "10:11-10:13 punct ->"; "10:13-10:14 id v";
    "10:14-10:16 punct <="; "10:16-10:20 int 31"; "10:20-10:21 punct ?";
    "10:21-10:22 punct -"; "10:22-10:23 int 1"; "10:23-10:24 punct :";
    "10:24-10:25 id p"; "10:25-10:27 punct ->"; "10:27-10:28 id v";
    "10:28-10:29 punct ;"; "11:1-11:2 punct }"; "12:1-12:1 eof";
  ]

let location_tests =
  [
    Alcotest.test_case "token start and end positions" `Quick (fun () ->
        let t = Clexer.tokenize ~file:"t.c" located_src in
        let rec shown i =
          let tok = Clexer.token t i and l = Clexer.loc t i in
          Printf.sprintf "%d:%d-%d:%d %s" l.start_p.line l.start_p.col
            l.end_p.line l.end_p.col (token_text tok)
          :: (match tok with TEof -> [] | _ -> shown (i + 1))
        in
        let shown = shown 0 in
        Alcotest.(check (list string)) "tokens" located_tokens shown);
    Alcotest.test_case "attribute payloads pass through" `Quick (fun () ->
        let t = Clexer.tokenize ~file:"t.c" located_src in
        let args =
          List.concat_map
            (function Clexer.TAttr (_, a) -> a | _ -> [])
            (all_tokens t)
        in
        Alcotest.(check (list string)) "args"
          [
            "a: nat"; "p @ &own<a @ s>";
            "{a \xe2\x89\xa4 n} \xe2\x88\xa7 \xe2\x88\x85 = \xe2\x88\x85";
          ]
          args);
  ]

(* --------------------------------------------------------------- *)
(* Precedence and associativity: random expressions printed with     *)
(* minimal parentheses parse back to the same tree, each node        *)
(* located at the first token of its own text                        *)
(* --------------------------------------------------------------- *)

let binops =
  Cabs.
    [
      BOr; BAnd; BBitOr; BBitXor; BBitAnd; BEq; BNe; BLt; BLe; BGt; BGe;
      BShl; BShr; BAdd; BSub; BMul; BDiv; BMod;
    ]

let binop_text : Cabs.binop -> string * int = function
  | BOr -> ("||", 0) | BAnd -> ("&&", 1) | BBitOr -> ("|", 2)
  | BBitXor -> ("^", 3) | BBitAnd -> ("&", 4) | BEq -> ("==", 5)
  | BNe -> ("!=", 5) | BLt -> ("<", 6) | BLe -> ("<=", 6) | BGt -> (">", 6)
  | BGe -> (">=", 6) | BShl -> ("<<", 7) | BShr -> (">>", 7)
  | BAdd -> ("+", 8) | BSub -> ("-", 8) | BMul -> ("*", 9) | BDiv -> ("/", 9)
  | BMod -> ("%", 9)

let cast_types = Cabs.[ CInt "int"; CInt "unsigned long"; CPtr (CInt "char"); CBool ]

let gen_expr : Cabs.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let mk e = { Cabs.e; eloc = Rc_util.Srcloc.dummy } in
  let leaf =
    oneof
      [
        map (fun x -> mk (Cabs.EId x)) (oneofl [ "a"; "b"; "p"; "xs" ]);
        map (fun n -> mk (Cabs.EConst n)) (int_range 0 99);
      ]
  in
  fix
    (fun self depth ->
      if depth <= 0 then leaf
      else
        let sub = self (depth - 1) in
        frequency
          [
            (2, leaf);
            (6, map3 (fun op a b -> mk (Cabs.EBin (op, a, b))) (oneofl binops) sub sub);
            ( 2,
              map2
                (fun k a ->
                  mk
                    (match k with
                    | 0 -> Cabs.EUn (UNeg, a)
                    | 1 -> EUn (UNot, a)
                    | 2 -> EUn (UBitNot, a)
                    | 3 -> EDeref a
                    | _ -> EAddr a))
                (int_range 0 4) sub );
            (1, map2 (fun t a -> mk (Cabs.ECast (t, a))) (oneofl cast_types) sub);
            ( 2,
              map3
                (fun k a i ->
                  mk
                    (match k with
                    | 0 -> Cabs.EMember (a, "f")
                    | 1 -> EArrow (a, "next")
                    | _ -> EIndex (a, i)))
                (int_range 0 2) sub sub );
            ( 1,
              map (fun args -> mk (Cabs.ECall ("g", args))) (list_size (int_range 0 2) sub) );
          ])
    4

let rec ctype_text : Cabs.ctype -> string = function
  | CPtr t -> ctype_text t ^ " *"
  | CBool -> "_Bool"
  | CInt n -> n
  | _ -> assert false

(* The text of [e] with the fewest parentheses (tokens separated by
   spaces, so "- -" never lexes as "--"), and the offset at which each
   node's own text starts, in pre-order. *)
let print_expr (e : Cabs.expr) : string * int list =
  let b = Buffer.create 64 and starts = ref [] in
  let tok s =
    if Buffer.length b > 0 then Buffer.add_char b ' ';
    Buffer.add_string b s
  in
  (* binary operators bind at 0..9, unary 10, postfix 11, atoms 12 *)
  let level (e : Cabs.expr) =
    match e.e with
    | EBin (op, _, _) -> snd (binop_text op)
    | EUn _ | EDeref _ | EAddr _ | ECast _ -> 10
    | EMember _ | EArrow _ | EIndex _ | ECall _ -> 11
    | _ -> 12
  in
  let rec go ctx (e : Cabs.expr) =
    let paren = level e < ctx in
    if paren then tok "(";
    starts := (if Buffer.length b = 0 then 0 else Buffer.length b + 1) :: !starts;
    (match e.e with
    | EId x -> tok x
    | EConst n -> tok (string_of_int n)
    | EBin (op, l, r) ->
        let s, p = binop_text op in
        go p l;
        tok s;
        go (p + 1) r
    | EUn (op, a) ->
        tok (match op with UNeg -> "-" | UNot -> "!" | UBitNot -> "~");
        go 10 a
    | EDeref a -> tok "*"; go 10 a
    | EAddr a -> tok "&"; go 10 a
    | ECast (t, a) -> tok "("; tok (ctype_text t); tok ")"; go 10 a
    | EMember (a, f) -> go 11 a; tok "."; tok f
    | EArrow (a, f) -> go 11 a; tok "->"; tok f
    | EIndex (a, i) -> go 11 a; tok "["; go 0 i; tok "]"
    | ECall (f, args) ->
        tok f;
        tok "(";
        List.iteri (fun k a -> if k > 0 then tok ","; go 0 a) args;
        tok ")"
    | _ -> assert false);
    if paren then tok ")"
  in
  go 0 e;
  (Buffer.contents b, List.rev !starts)

(* [e] without locations, and its nodes' start columns in pre-order *)
let rec strip (e : Cabs.expr) : Cabs.expr =
  let s = strip in
  let d : Cabs.expr_desc =
    match e.e with
    | EBin (op, a, b) -> EBin (op, s a, s b)
    | EUn (op, a) -> EUn (op, s a)
    | EDeref a -> EDeref (s a)
    | EAddr a -> EAddr (s a)
    | ECast (t, a) -> ECast (t, s a)
    | EMember (a, f) -> EMember (s a, f)
    | EArrow (a, f) -> EArrow (s a, f)
    | EIndex (a, i) -> EIndex (s a, s i)
    | ECall (f, args) -> ECall (f, List.map s args)
    | d -> d
  in
  { e = d; eloc = Rc_util.Srcloc.dummy }

let rec start_cols (e : Cabs.expr) : int list =
  (e.eloc.start_p.col - 1)
  ::
  (match e.e with
  | EBin (_, a, b) | EIndex (a, b) -> start_cols a @ start_cols b
  | EUn (_, a) | EDeref a | EAddr a | ECast (_, a) | EMember (a, _)
  | EArrow (a, _) ->
      start_cols a
  | ECall (_, args) -> List.concat_map start_cols args
  | _ -> [])

let parse_expr_text text =
  let st =
    {
      Cparser.t = Clexer.tokenize ~file:"e.c" text;
      i = 0;
      typedefs = Hashtbl.create 1;
    }
  in
  let e = Cparser.parse_expr st in
  if Cparser.peek st <> Clexer.TEof then failwith ("trailing tokens in " ^ text);
  e

let precedence_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:1000
        ~name:"minimally parenthesised expressions parse back"
        (QCheck.make ~print:(fun e -> fst (print_expr e)) gen_expr)
        (fun e ->
          let text, starts = print_expr e in
          let parsed = parse_expr_text text in
          strip parsed = e && start_cols parsed = starts);
    ]

(* [refinedc cfg] exits 0, and its headers and block labels are each
   function's [== f ==] followed by the labels of all its blocks. *)
let cli_tests =
  [
    Alcotest.test_case "cfg prints every block of every function" `Quick
      (fun () ->
        match Testutil.refinedc_exe with
        | None -> () (* exe not built in this sandbox; covered by CI *)
        | Some exe ->
            Sys.readdir case_dir |> Array.to_list
            |> List.filter (fun f -> Filename.check_suffix f ".c")
            |> List.iter (fun study ->
                   let path = Filename.concat case_dir study in
                   let out = Testutil.scratch_dir "cfg" in
                   Alcotest.(check int) (study ^ ": exit") 0
                     (Sys.command
                        (Filename.quote_command exe [ "cfg"; path ] ~stdout:out));
                   let session =
                     Rc_session.Refinedc_api.create_session ~case_studies:true ()
                   in
                   let el = Driver.parse_and_elab ~session ~file:path (read path) in
                   Alcotest.(check (list string)) (study ^ ": labels")
                     (List.concat_map
                        (fun (name, (f : Rc_caesium.Syntax.func)) ->
                          ("== " ^ name ^ " ==")
                          :: List.map (fun (l, _) -> l ^ ":") f.blocks)
                        el.Elab.program.funcs)
                     (String.split_on_char '\n' (read out)
                     |> List.filter (fun l ->
                            String.starts_with ~prefix:"== " l
                            || (l <> "" && l.[0] <> ' '
                               && String.ends_with ~suffix:":" l)))));
  ]

let () =
  Alcotest.run "frontend"
    [
      ("pipeline", pipeline_tests);
      ("mem_alloc", mem_alloc_tests);
      ("more-c-features", more_tests);
      ("error-paths", error_path_tests);
      ("lexical-errors", lexical_error_tests);
      ("locations", location_tests);
      ("precedence", precedence_tests);
      ("cli", cli_tests);
    ]
