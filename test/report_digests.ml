(* Prints the golden of the [--json] report's identity: for each input
   and run configuration, one MD5 of [Driver.to_json ~timings:false].

     report_digests.exe CASE_STUDY_DIR

   Inputs: the case studies, mem_alloc_bug (mem_alloc.c with the §2.1
   buggy spec [n < a]) and [Corpus.stress_corpus ~scale:1].
   Configurations: metrics off and on; no pool ([j1]) and a 2-worker
   pool ([j2]); no cache, a cold cache and a warm cache.

   Before printing, the program checks what must hold whatever the
   golden says, and exits 2 on a violation: a pool's report equals the
   [j1] report, and a cached run's report equals the uncached one once
   the [cache] block, each function's [cached] and [cache_why], and the
   [metrics] block are removed (metrics count the cache's own events
   and leave out the work a hit skips).  The digests do not depend on
   the host, so report_digests.expected pins them exactly: a change to
   any report shows as a diff in [dune runtest], and [dune promote]
   takes it. *)

module Json = Rc_util.Jsonout
module Driver = Rc_frontend.Driver
module Supervisor = Rc_util.Supervisor
module Vercache = Rc_util.Vercache

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let inputs dir =
  let read f =
    In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all
  in
  let studies =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare
    |> List.map (fun f -> (f, read f))
  in
  let src = List.assoc "mem_alloc.c" studies in
  let sub = "[[rc::returns(\"{n <= a} @ optional" in
  if not (Rc_util.Xstring.contains_sub src ~sub) then
    fail "mem_alloc.c no longer has the alloc spec to mutate";
  let bug =
    Rc_util.Xstring.replace_first src ~sub
      ~by:"[[rc::returns(\"{n < a} @ optional"
  in
  studies
  @ [ ("mem_alloc_bug.c", bug) ]
  @ List.map
      (fun (p : Rc_benchgen.Corpus.program) -> (p.p_name, p.p_src))
      (Rc_benchgen.Corpus.stress_corpus ~scale:1)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let report ~metrics ~pool ?cache (file, src) =
  let session =
    Rc_session.Refinedc_api.create_session ~case_studies:true
      ~obs:{ Rc_util.Obs.c_trace = false; c_metrics = metrics }
      ?pool ()
  in
  Driver.to_json ~timings:false (Driver.check_source ~session ?cache ~file src)

let drop keys = function
  | Json.Obj fields ->
      Json.Obj (List.filter (fun (k, _) -> not (List.mem k keys)) fields)
  | v -> v

(* the report without what a cache changes *)
let uncached (j : Json.t) : Json.t =
  match drop [ "cache"; "metrics" ] j with
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "functions", Json.List fs ->
                 let fs = List.map (drop [ "cached"; "cache_why" ]) fs in
                 ("functions", Json.List fs)
             | kv -> kv)
           fields)
  | v -> v

(* [input]'s labelled reports under one metrics setting and pool:
   uncached, then cold and warm in a fresh cache directory *)
let runs ~root ~metrics ~pool ~j ((file, _) as input) =
  let m = if metrics then "on" else "off" in
  let dir = Filename.concat root (Printf.sprintf "%s_%s_%s" file m j) in
  let run c cache =
    ( Printf.sprintf "metrics=%s %s cache=%s" m j c,
      report ~metrics ~pool ?cache input )
  in
  let none = run "none" None in
  let cold = run "cold" (Some (Vercache.create dir)) in
  let warm = run "warm" (Some (Vercache.create dir)) in
  [ none; cold; warm ]

let () =
  if Array.length Sys.argv <> 2 then
    fail "usage: report_digests.exe CASE_STUDY_DIR";
  let inputs = inputs Sys.argv.(1) in
  let root = Filename.temp_dir "report-digests" "" in
  let pool = Supervisor.create ~jobs:2 () in
  Fun.protect
    ~finally:(fun () ->
      Supervisor.shutdown pool;
      rm_rf root)
    (fun () ->
      List.concat_map
        (fun ((file, _) as input) ->
          List.concat_map
            (fun metrics ->
              let j1 = runs ~root ~metrics ~pool:None ~j:"j1" input in
              let j2 = runs ~root ~metrics ~pool:(Some pool) ~j:"j2" input in
              let plain = uncached (snd (List.hd j1)) in
              List.iter2
                (fun (label, r1) (_, r2) ->
                  if r1 <> r2 then
                    fail "%s %s: the pool's report differs from -j1" file
                      label;
                  if uncached r1 <> plain then
                    fail "%s %s: the report differs from the uncached one"
                      file label)
                j1 j2;
              List.map
                (fun (label, r) ->
                  Printf.sprintf "%s %s %s" file label
                    (Digest.to_hex (Digest.string (Json.to_string r))))
                (j1 @ j2))
            [ false; true ])
        inputs)
  |> List.iter print_endline
