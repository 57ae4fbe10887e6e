(** The on-disk store behind the driver's per-function cost model.

    A store is a directory (the verification cache's) holding one small
    text file, [costs.prof], mapping ["file:function"] keys to the
    latest measured wall-clock of that function's check, in
    microseconds.  The driver schedules its dirty set longest-job-first
    from these samples and writes this run's measurements back
    afterwards; a new sample replaces the stored one.

    The robustness contract mirrors {!Vercache}: writes go to a temp
    file in the cache's {!Vercache.tmp_dir} and are [Sys.rename]d into
    place, a corrupt or unreadable store degrades to no samples
    (topological order), and a failed write is dropped silently — the
    store only orders work, it never touches a verdict. *)

type t = {
  dir : string;
  mutable disabled : bool;  (** set when the directory is unusable *)
}

let file_name = "costs.prof"
let path (t : t) = Filename.concat t.dir file_name

let create (dir : string) : t =
  match
    Vercache.mkdir_p (Vercache.tmp_dir dir);
    if not (Sys.is_directory dir) then failwith "not a directory"
  with
  | () -> { dir; disabled = false }
  | exception _ -> { dir; disabled = true }

let disabled (t : t) = t.disabled

(* One line per key: "<count> <name>".  The name may contain any
   character but a newline (a file path, then a function name), so the
   count comes first and the name is the rest of the line. *)
let parse_line (l : string) : (string * int) option =
  match String.index_opt l ' ' with
  | None -> None
  | Some i -> (
      match int_of_string_opt (String.sub l 0 i) with
      | Some n when n >= 0 && i + 1 <= String.length l ->
          let name = String.sub l (i + 1) (String.length l - i - 1) in
          if name = "" then None else Some (name, n)
      | _ -> None)

(** Load the stored samples; an absent, corrupt or unreadable store
    has none. *)
let load (t : t) : (string * int) list =
  if t.disabled then []
  else
    match In_channel.with_open_bin (path t) In_channel.input_all with
    | contents ->
        String.split_on_char '\n' contents |> List.filter_map parse_line
    | exception _ -> []

(** Merge [counts] into the store, each replacing the stored sample of
    its key, and write the result atomically.  Failures disable the
    store for the rest of the run — a cost-model write must never abort
    a verification run. *)
let update (t : t) (counts : (string * int) list) : unit =
  if (not t.disabled) && counts <> [] then begin
    let tbl = Hashtbl.create 64 in
    List.iter (fun (k, v) -> Hashtbl.replace tbl k v) (load t);
    List.iter
      (fun (k, v) -> if v > 0 then Hashtbl.replace tbl k v)
      counts;
    let lines =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort compare
      |> List.map (fun (k, v) -> Printf.sprintf "%d %s" v k)
    in
    let tmp = ref None in
    match
      let tf =
        Filename.temp_file ~temp_dir:(Vercache.tmp_dir t.dir) "prof" ".tmp"
      in
      tmp := Some tf;
      Out_channel.with_open_bin tf (fun oc ->
          Out_channel.output_string oc (String.concat "\n" lines);
          Out_channel.output_string oc "\n");
      Sys.rename tf (path t)
    with
    | () -> ()
    | exception _ ->
        (match !tmp with
        | Some tf -> ( try Sys.remove tf with Sys_error _ -> ())
        | None -> ());
        t.disabled <- true
  end
