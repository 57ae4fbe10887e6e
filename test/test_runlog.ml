(* The persistent run ledger and its query layer.

   Contracts under test:
   - the JSON reader round-trips everything the printer emits (the
     toolchain is now a reader of its own records);
   - appends are atomic at the line level: concurrent appenders — one
     ledger handle per domain, as with concurrent CLI invocations —
     interleave whole lines, never fragments;
   - the reader skips corrupt lines instead of aborting, and counts
     them for diagnostics;
   - an unusable directory degrades to a disabled ledger (never an
     abort);
   - the trailing-window median-of-ratios regression check flags real
     slowdowns and tolerates a noisy baseline;
   - [Driver.runlog_record] carries the fields [refinedc stats] reads,
     and with metrics on its [metrics] field is the [--json] report's
     [metrics] block. *)

module J = Rc_util.Jsonout
module Runlog = Rc_util.Runlog

let json = Alcotest.testable (Fmt.of_to_string J.to_string) ( = )

let parse_ok s =
  match J.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "parse failed on %s: %s" s msg

let sample_record i =
  J.Obj
    [
      ("schema", J.Str Runlog.schema_version);
      ("kind", J.Str "check");
      ("seq", J.Int i);
      ("wall_s", J.Float (0.25 +. (0.01 *. float_of_int i)));
      ("nested", J.Obj [ ("xs", J.List [ J.Int 1; J.Null; J.Bool true ]) ]);
      ("label", J.Str "quote\" slash\\ tab\tnewline\n");
    ]

let parser_tests =
  [
    Alcotest.test_case "parse round-trips printer output" `Quick (fun () ->
        List.iter
          (fun v ->
            Alcotest.check json "to_string round-trip" v
              (parse_ok (J.to_string v));
            Alcotest.check json "to_line round-trip" v
              (parse_ok (J.to_line v)))
          [
            J.Null;
            J.Bool false;
            J.Int (-42);
            J.Str "päivää \x01 ok";
            J.List [];
            J.Obj [];
            sample_record 7;
          ]);
    Alcotest.test_case "to_line never wraps" `Quick (fun () ->
        let wide =
          J.Obj
            (List.init 64 (fun i ->
                 (Printf.sprintf "field_%02d" i, sample_record i)))
        in
        Alcotest.(check bool)
          "single line" false
          (String.contains (J.to_line wide) '\n'));
    Alcotest.test_case "parse rejects garbage" `Quick (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check bool) ("rejects " ^ s) true
              (Result.is_error (J.parse s)))
          [ "{"; "[1,"; "tru"; "\"unterminated"; "{} trailing"; "" ]);
    Alcotest.test_case "numbers split int/float like the printer" `Quick
      (fun () ->
        Alcotest.check json "int" (J.Int 5) (parse_ok "5");
        Alcotest.check json "float" (J.Float 5.5) (parse_ok "5.5");
        Alcotest.check json "exponent is float" (J.Float 1e3) (parse_ok "1e3"));
  ]

(* ---- the layout oracle ---------------------------------------------

   The Format printer the writer replaced: [to_string] must equal
   [Fmt.str "%a" pp] and [to_line] the same printer at margin 10^9, byte
   for byte. *)

let rec pp ppf (v : J.t) =
  match v with
  | J.Null -> Fmt.string ppf "null"
  | J.Bool b -> Fmt.bool ppf b
  | J.Int i -> Fmt.int ppf i
  | J.Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then Fmt.pf ppf "%.1f" f
      else Fmt.pf ppf "%.6g" f
  | J.Str s -> Fmt.pf ppf "\"%s\"" (J.escape s)
  | J.List vs ->
      Fmt.pf ppf "[@[<hv>%a@]]" (Fmt.list ~sep:(Fmt.any ",@ ") pp) vs
  | J.Obj fields ->
      let field ppf (k, v) = Fmt.pf ppf "\"%s\":%a" (J.escape k) pp v in
      Fmt.pf ppf "{@[<hv>%a@]}" (Fmt.list ~sep:(Fmt.any ",@ ") field) fields

let oracle_string v = Fmt.str "%a" pp v

let oracle_line v =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_set_margin ppf 1_000_000_000;
  pp ppf v;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* Random trees whose lines land near the 68/78 columns: strings and
   keys from 0 to 90 bytes (escapes and UTF-8 bytes included), extreme
   ints and floats, and single-child chains up to 14 deep. *)
let gen_tree : J.t QCheck.Gen.t =
  let open QCheck.Gen in
  let odd =
    [| '"'; '\\'; '\n'; '\r'; '\t'; '\x01'; '\x1f'; ' ';
       '\xc3'; '\xa4'; '\xe2'; '\x89' |]
  in
  let str =
    let* len =
      frequency
        [ (4, int_range 0 8); (3, int_range 9 40); (2, int_range 40 90) ]
    in
    let+ cs =
      list_repeat len (frequency [ (9, char_range 'a' 'z'); (2, oneofa odd) ])
    in
    String.of_seq (List.to_seq cs)
  in
  let leaf =
    frequency
      [
        (1, pure J.Null);
        (1, map (fun b -> J.Bool b) bool);
        ( 2,
          map
            (fun i -> J.Int i)
            (oneof
               [ small_signed_int; int; oneofl [ min_int; max_int; 0; -1 ] ])
        );
        ( 1,
          map
            (fun f -> J.Float f)
            (oneof
               [
                 float;
                 map float_of_int small_signed_int;
                 oneofl
                   [ 0.5; -0.; 1e15; -1e15; 1e20; 123456.789; nan; infinity ];
               ]) );
        (4, map (fun s -> J.Str s) str);
      ]
  in
  let rec tree budget depth st =
    if budget <= 1 || depth >= 14 then leaf st
    else
      let sub k = tree ((budget - 1) / max 1 k) (depth + 1) in
      frequency
        [
          (2, leaf);
          ( 2,
            let* k = int_range 0 6 in
            map (fun vs -> J.List vs) (list_repeat k (sub k)) );
          ( 2,
            let* k = int_range 0 6 in
            map (fun fs -> J.Obj fs) (list_repeat k (pair str (sub k))) );
          (1, map (fun v -> J.List [ v ]) (tree (budget - 1) (depth + 1)));
          ( 1,
            map2
              (fun k v -> J.Obj [ (k, v) ])
              str
              (tree (budget - 1) (depth + 1)) );
        ]
        st
  in
  let* budget = int_range 1 80 in
  tree budget 0

let arb_tree =
  QCheck.make ~print:(fun v -> String.escaped (oracle_line v)) gen_tree

let layout_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:3000 ~name:"to_string equals the Format printer"
        arb_tree (fun v -> J.to_string v = oracle_string v);
      QCheck.Test.make ~count:1000 ~name:"to_line equals the Format printer"
        arb_tree (fun v -> J.to_line v = oracle_line v);
    ]
  @ [
      Alcotest.test_case "boundary widths around columns 68 and 78" `Quick
        (fun () ->
          (* one string padded to every width that straddles the fit
             test, alone, as a field value, and nested past column 68 *)
          for pad = 0 to 90 do
            let s = J.Str (String.make pad 'x') in
            List.iter
              (fun v ->
                Alcotest.(check string)
                  (Printf.sprintf "pad %d" pad) (oracle_string v)
                  (J.to_string v))
              [
                J.List [ s; J.Int 1 ];
                J.Obj [ ("k", s); ("l", J.List [ s ]) ];
                J.Obj [ (String.make pad 'k', J.List [ J.Null; J.List [] ]) ];
                J.List [ J.List [ s; J.Obj [ ("key", J.List [ s; s ]) ] ]; s ];
              ]
          done);
    ]

let ledger_tests =
  [
    Alcotest.test_case "append/load preserves order" `Quick (fun () ->
        let lg = Runlog.create (Testutil.scratch_dir "runlog") in
        List.iter (fun i -> Runlog.append lg (sample_record i)) [ 1; 2; 3 ];
        let seqs =
          List.filter_map
            (fun r -> Option.bind (J.member "seq" r) J.to_int)
            (fst (Runlog.load lg))
        in
        Alcotest.(check (list int)) "chronological" [ 1; 2; 3 ] seqs);
    Alcotest.test_case "corrupt lines are skipped and counted" `Quick
      (fun () ->
        let lg = Runlog.create (Testutil.scratch_dir "runlog") in
        Runlog.append lg (sample_record 1);
        Out_channel.with_open_gen
          [ Open_append; Open_creat ] 0o644 (Runlog.path lg)
          (fun oc -> Out_channel.output_string oc "{torn writ\n");
        Runlog.append lg (sample_record 2);
        let records, corrupt = Runlog.load lg in
        Alcotest.(check int) "records" 2 (List.length records);
        Alcotest.(check int) "corrupt" 1 corrupt);
    Alcotest.test_case "unusable directory degrades to disabled" `Quick
      (fun () ->
        let file = Filename.temp_file "rc-runlog-notadir" "" in
        let lg = Runlog.create file in
        Alcotest.(check bool) "disabled" true (Runlog.disabled lg);
        Runlog.append lg (sample_record 1);
        Alcotest.(check int)
          "load empty" 0 (List.length (fst (Runlog.load lg)));
        Sys.remove file);
    Alcotest.test_case "concurrent creators of one directory all succeed"
      `Quick (fun () ->
        (* every store handle of a fresh cache directory races on its
           creation; losing the race must not disable the handle *)
        let domains = 8 and rounds = 50 in
        for _ = 1 to rounds do
          let dir = Filename.concat (Testutil.scratch_dir "mkdir") "cache" in
          let open_all () =
            let lg = Runlog.create dir in
            ignore (Rc_util.Vercache.create dir);
            Runlog.disabled lg
          in
          let disabled =
            List.init domains (fun _ -> Domain.spawn open_all)
            |> List.map Domain.join
          in
          Alcotest.(check (list bool))
            "no handle disabled"
            (List.init domains (fun _ -> false))
            disabled
        done);
    Alcotest.test_case "concurrent appenders interleave whole lines" `Quick
      (fun () ->
        let dir = Testutil.scratch_dir "runlog" in
        let per_worker = 25 and workers = 4 in
        let work w () =
          (* one handle per appender, as with concurrent CLI runs *)
          let lg = Runlog.create dir in
          for i = 1 to per_worker do
            Runlog.append lg (sample_record ((w * 1000) + i))
          done
        in
        List.init workers (fun w -> Domain.spawn (work w))
        |> List.iter Domain.join;
        let records, corrupt = Runlog.load (Runlog.create dir) in
        Alcotest.(check int) "no torn lines" 0 corrupt;
        Alcotest.(check int)
          "every record present" (workers * per_worker)
          (List.length records));
  ]

let regression_tests =
  let reg ?window ?threshold series =
    Runlog.regression ?window ?threshold series
  in
  [
    Alcotest.test_case "flat series does not regress" `Quick (fun () ->
        match reg [ 100.; 101.; 99.; 100.; 100. ] with
        | Some g ->
            Alcotest.(check bool) "not regressed" false g.Runlog.r_regressed
        | None -> Alcotest.fail "expected a verdict");
    Alcotest.test_case "a real slowdown is flagged" `Quick (fun () ->
        match reg [ 100.; 101.; 99.; 100.; 20. ] with
        | Some g ->
            Alcotest.(check bool) "regressed" true g.Runlog.r_regressed;
            Alcotest.(check int) "window" 4 g.Runlog.r_window
        | None -> Alcotest.fail "expected a verdict");
    Alcotest.test_case "one noisy baseline run does not mask" `Quick
      (fun () ->
        (* median-of-ratios: a single absurdly slow baseline point must
           not excuse a 5x slowdown *)
        match reg [ 100.; 5.; 100.; 100.; 20. ] with
        | Some g ->
            Alcotest.(check bool) "regressed" true g.Runlog.r_regressed
        | None -> Alcotest.fail "expected a verdict");
    Alcotest.test_case "speedups never flag" `Quick (fun () ->
        match reg [ 100.; 100.; 300. ] with
        | Some g ->
            Alcotest.(check bool) "not regressed" false g.Runlog.r_regressed
        | None -> Alcotest.fail "expected a verdict");
    Alcotest.test_case "short or empty series yield no verdict" `Quick
      (fun () ->
        Alcotest.(check bool) "empty" true (reg [] = None);
        Alcotest.(check bool) "singleton" true (reg [ 100. ] = None);
        (* non-positive points (absent data) are ignored, not ratios *)
        Alcotest.(check bool) "zeros only" true (reg [ 0.; 0. ] = None));
    Alcotest.test_case "percentiles interpolate" `Quick (fun () ->
        let xs = [ 1.; 2.; 3.; 4. ] in
        Alcotest.(check (option (float 1e-9)))
          "median" (Some 2.5) (Runlog.median xs);
        Alcotest.(check (option (float 1e-9)))
          "p95" (Some 3.85)
          (Runlog.percentile 0.95 xs);
        Alcotest.(check (option (float 1e-9)))
          "empty" None (Runlog.median []));
  ]

let imin_src =
  {|
[[rc::parameters("x: int", "y: int")]]
[[rc::args("x @ int<int>", "y @ int<int>")]]
[[rc::returns("(x <= y ? x : y) @ int<int>")]]
int imin(int a, int b) {
  if (a <= b) return a;
  return b;
}
|}

let metrics_on session =
  Rc_refinedc.Session.with_obs session
    { Rc_util.Obs.c_trace = false; c_metrics = true }

(* The driver-level record: the fields [refinedc stats] trends on must
   be present and consistent with the run. *)
let record_tests =
  [
    Alcotest.test_case "runlog_record carries the stats surface" `Quick
      (fun () ->
        let module Driver = Rc_frontend.Driver in
        let session = Rc_session.Refinedc_api.create_session ~case_studies:true () in
        let t = Driver.check_source ~session ~file:"imin.c" imin_src in
        let r = Driver.runlog_record ~session ~wall_s:0.5 t in
        let get k = J.member k r in
        Alcotest.(check (option string))
          "schema" (Some Runlog.schema_version)
          (Option.bind (get "schema") J.to_str);
        Alcotest.(check (option string))
          "kind" (Some "check")
          (Option.bind (get "kind") J.to_str);
        let apps =
          Option.get (Option.bind (get "rule_apps") J.to_int)
        in
        Alcotest.(check bool) "rule apps positive" true (apps > 0);
        Alcotest.(check (option (float 1e-6)))
          "apps/sec = apps ÷ wall"
          (Some (float_of_int apps /. 0.5))
          (J.number_member "apps_per_sec" r);
        let verdicts = Option.get (get "verdicts") in
        Alcotest.(check (option int))
          "verified count" (Some 1)
          (Option.bind (J.member "verified" verdicts) J.to_int);
        (* the record parses back from its NDJSON line form *)
        Alcotest.check json "line round-trip" r (parse_ok (J.to_line r));
        (* with metrics on, the linear-arithmetic counters ride along:
           a query either reuses a stacked hypothesis or pushes it *)
        let session = metrics_on session in
        let t = Driver.check_source ~session ~file:"imin.c" imin_src in
        let r = Driver.runlog_record ~session ~wall_s:0.5 t in
        let counters =
          Option.get
            (Option.bind (J.member "metrics" r) (J.member "counters"))
        in
        let count k =
          Option.bind (J.member ("solver.lia." ^ k) counters) J.to_int
        in
        let queries = Option.get (count "queries") in
        Alcotest.(check bool) "lia queries counted" true (queries > 0);
        Alcotest.(check bool) "hypotheses pushed" true
          (Option.value ~default:0 (count "pushed") > 0);
        Alcotest.(check (option int))
          "the record's counters are the run's"
          (Some queries)
          (Some
             (Rc_util.Metrics.counter
                (Rc_util.Obs.mx t.Driver.obs)
                "solver.lia.queries")));
    Alcotest.test_case "the record's metrics are the report's" `Quick
      (fun () ->
        let module Driver = Rc_frontend.Driver in
        let base =
          Rc_session.Refinedc_api.create_session ~case_studies:true ()
        in
        (* one encoder: the same run's registry, timings included, in
           the ledger record and in the --json report *)
        let session = metrics_on base in
        let t = Driver.check_source ~session ~file:"imin.c" imin_src in
        let metrics =
          J.member "metrics" (Driver.runlog_record ~session ~wall_s:0.5 t)
        in
        Alcotest.(check bool) "record has metrics" true (metrics <> None);
        Alcotest.(check (option json))
          "record metrics = report metrics"
          (J.member "metrics" (Driver.to_json t))
          metrics;
        let t = Driver.check_source ~session:base ~file:"imin.c" imin_src in
        Alcotest.(check (option json))
          "metrics off: no metrics key" None
          (J.member "metrics"
             (Driver.runlog_record ~session:base ~wall_s:0.5 t)));
  ]

let () =
  Alcotest.run "runlog"
    [
      ("json parser", parser_tests);
      ("json layout", layout_tests);
      ("ledger", ledger_tests);
      ("regression", regression_tests);
      ("driver record", record_tests);
    ]
