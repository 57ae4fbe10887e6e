(** The known-answer table ([perfbench/answers.txt]): the expected
    verdict of every function of every benchmark input, written by hand
    from how each input was built, never from the checker's output.

    A row is [<input> <function> <verdict>].  [<input>] and [<function>]
    are exact names or patterns with one [*] (any substring); the first
    matching row wins.  The function name [@broken] stands for the
    function that the current edit-loop edit broke on purpose. *)

type verdict = Verified | Failed
type row = { input : string; fn : string; verdict : verdict }
type t = row list

let broken = "@broken"

let glob_match (pat : string) (s : string) : bool =
  match String.index_opt pat '*' with
  | None -> String.equal pat s
  | Some i ->
      let pre = String.sub pat 0 i in
      let post = String.sub pat (i + 1) (String.length pat - i - 1) in
      String.length s >= String.length pre + String.length post
      && String.starts_with ~prefix:pre s
      && String.ends_with ~suffix:post s

let parse (text : string) : t =
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter_map (fun (lineno, line) ->
         if line = "" || line.[0] = '#' then None
         else
           match
             String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
           with
           | [ input; fn; "verified" ] -> Some { input; fn; verdict = Verified }
           | [ input; fn; "failed" ] -> Some { input; fn; verdict = Failed }
           | _ -> failwith (Printf.sprintf "answers.txt:%d: malformed row" lineno))

let load (path : string) : t =
  parse (In_channel.with_open_bin path In_channel.input_all)

(** The expected verdict of [fn] in [input]; [?broken] names the
    function the current edit broke. *)
let expect (t : t) ?broken:b ~input fn : verdict option =
  let key = if b = Some fn then broken else fn in
  List.find_map
    (fun r ->
      if glob_match r.input input && glob_match r.fn key then Some r.verdict
      else None)
    t

(** Rows naming one function of one input exactly: each must be matched
    by a function the checker reports, so a vanished function shows. *)
let exact_rows (t : t) ~input : string list =
  List.filter_map
    (fun r ->
      if
        String.equal r.input input
        && (not (String.contains r.fn '*'))
        && r.fn <> broken
      then Some r.fn
      else None)
    t
