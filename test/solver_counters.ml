(* Prints the golden of the default solver's work over the real corpus:
   for each case study, and for mem_alloc_bug (mem_alloc.c with the
   §2.1 buggy spec [n < a]), the verdict of every function and the
   [solver.lia.*] counters of [refinedc check --json --profile].

     solver_counters.exe REFINEDC_EXE CASE_STUDY_DIR

   The counts do not depend on the host, so solver_counters.expected
   pins them exactly: a change to the solver's work shows as a diff in
   [dune runtest], and [dune promote] takes the new counts. *)

module Json = Rc_util.Jsonout

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let report exe path =
  let out = Filename.temp_file "solver-counters" ".json" in
  let cmd =
    Printf.sprintf "%s check --json --profile %s > %s 2> /dev/null"
      (Filename.quote exe) (Filename.quote path) (Filename.quote out)
  in
  ignore (Sys.command cmd);
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  match Json.parse text with
  | Ok j -> j
  | Error e -> fail "%s: no JSON report (%s)" path e

let print name j =
  let field k v =
    match Json.member k v with Some x -> x | None -> fail "%s: no %s" name k
  in
  let str k v = Option.value ~default:"?" (Json.to_str (field k v)) in
  print_endline name;
  List.iter
    (fun f -> Printf.printf "  %s %s\n" (str "name" f) (str "status" f))
    (Option.value ~default:[] (Json.to_list (field "functions" j)));
  match field "counters" (field "metrics" j) with
  | Json.Obj counters ->
      List.iter
        (fun (k, v) ->
          if String.starts_with ~prefix:"solver.lia." k then
            Printf.printf "  %s %d\n" k (Option.value ~default:0 (Json.to_int v)))
        (List.sort compare counters)
  | _ -> fail "%s: counters are not an object" name

let () =
  if Array.length Sys.argv <> 3 then
    fail "usage: solver_counters.exe REFINEDC_EXE CASE_STUDY_DIR";
  let exe = Sys.argv.(1) and dir = Sys.argv.(2) in
  let studies =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare
  in
  List.iter (fun f -> print f (report exe (Filename.concat dir f))) studies;
  let src =
    In_channel.with_open_bin (Filename.concat dir "mem_alloc.c")
      In_channel.input_all
  in
  let sub = "[[rc::returns(\"{n <= a} @ optional" in
  if not (Rc_util.Xstring.contains_sub src ~sub) then
    fail "mem_alloc.c no longer has the alloc spec to mutate";
  let bug = Filename.temp_file "mem_alloc_bug" ".c" in
  Out_channel.with_open_bin bug (fun oc ->
      output_string oc
        (Rc_util.Xstring.replace_first src ~sub
           ~by:"[[rc::returns(\"{n < a} @ optional"));
  let j = report exe bug in
  Sys.remove bug;
  print "mem_alloc_bug.c" j
