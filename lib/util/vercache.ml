(** Content-addressed on-disk verification cache.

    The checker's results are a pure function of (function body, its
    specification, the sibling specifications it may call, the rule-set
    and solver fingerprint, the resource budget).  The driver digests
    each of those into a named component; this module maps a function's
    component list to an opaque byte payload on disk so an unchanged
    function can be verdict-replayed instead of re-proved — the
    Foundational-VeriFast-style "certify once, re-check cheaply"
    economy, applied at the toolchain level.

    One store creates one file: the entry — the line {!magic}, then the
    marshalled [(id, components, payload)] — written to a temp file
    under [<dir>/tmp/] ({!tmp_dir}) and [Sys.rename]d to the MD5 of its
    key ({!keyed_key}), so concurrent writers (checker domains) cannot
    expose a torn entry.  The id's manifest is a hard link to its newest
    entry.  A read checks the header before unmarshalling and recomputes
    the key from the stored id and components, so another layout or a
    digest collision degrades to a miss, never to a wrong verdict.  A
    rename over a file costs more than onto a fresh name, as it drops
    the replaced inode; a manifest's lives on as the previous entry.

    Degradation contract: the cache is an accelerator, never an
    authority.  Every failure mode — unreadable entry, unwritable
    directory, an injected ["cache.read"]/["cache.write"] fault from a
    chaos campaign — degrades to a miss or a skipped store.  After
    {!max_write_failures} consecutive store failures the cache disables
    its writes entirely (the directory is evidently unwritable; there is
    no point paying the syscalls), which a driver can surface as a
    diagnostic via {!disabled}.

    The store keeps no hit/miss counters: a driver counts hits from its
    own per-item results. *)

type t = {
  dir : string;
  max_bytes : int option;  (** size cap enforced by pruning on open *)
  mutable corrupt_skips : int;  (** unreadable/mismatched entries skipped *)
  mutable pruned : int;  (** entries evicted by the size cap this run *)
  write_failures : int Atomic.t;  (** consecutive; reset on success *)
  disabled : bool Atomic.t;
      (** both atomic: pool workers store concurrently *)
}

(** Every entry's first line: bump it when the layout or payloads change. *)
let magic = "rc-vercache-2\n"

(** Consecutive store failures after which writes shut off. *)
let max_write_failures = 8

(** Create [dir] and its missing parents.  Tolerates losing a race:
    another process or domain creating the same directory between the
    existence check and the [mkdir] is success, not an error.  Raises
    [Sys_error] when the path cannot be created. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()
  end

(** Where the cache writes its temp files (entries and manifest links): a
    subdirectory, so that sweeping orphans on open lists only them and
    not every entry ever stored. *)
let tmp_dir (dir : string) = Filename.concat dir "tmp"

(* A [store_keyed] interrupted between temp-file creation and rename
   (crash, injected fault) leaves an orphan [*.tmp]; collect them on
   open.  A concurrent writer's live temp file could in principle be
   swept too — that store then fails and is skipped, which the
   degradation contract already allows — but in practice pools share
   one handle created before any checking starts. *)
let sweep_stale_tmp (dir : string) : unit =
  let dir = tmp_dir dir in
  match Sys.readdir dir with
  | files ->
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".tmp" then
            try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        files
  | exception Sys_error _ -> ()

(* Store files — [*.vc] entries and [*.mf] manifests, second names of
   entries — oldest first by mtime, ties broken by name so the order is
   stable: the candidates for size-capped pruning. *)
let store_files (dir : string) : (string * Unix.stats) list =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
      Array.to_list files
      |> List.filter_map (fun f ->
             if Filename.check_suffix f ".vc" || Filename.check_suffix f ".mf"
             then
               match Unix.stat (Filename.concat dir f) with
               | st -> Some (f, st)
               | exception Unix.Unix_error _ -> None
             else None)
      |> List.sort (fun (fa, (a : Unix.stats)) (fb, (b : Unix.stats)) ->
             compare (a.st_mtime, fa) (b.st_mtime, fb))

(* Each inode's number of names in [files], and the distinct inodes'
   bytes: a linked entry counts once. *)
let inodes files =
  let names = Hashtbl.create 64 and bytes = ref 0 in
  List.iter
    (fun (_, (st : Unix.stats)) ->
      let ino = (st.st_dev, st.st_ino) in
      let n = Option.value ~default:0 (Hashtbl.find_opt names ino) in
      if n = 0 then bytes := !bytes + st.st_size;
      Hashtbl.replace names ino (n + 1))
    files;
  (names, !bytes)

(** Evict oldest names until the store fits in [max_bytes]; returns
    the number of files removed.  An inode's bytes count as freed only
    when its last name goes.  A removal that fails (concurrent
    eviction, permissions) is skipped — pruning is best-effort, like
    every other maintenance path here. *)
let prune_to (t : t) ~(max_bytes : int) : int =
  let files = store_files t.dir in
  let names, total = inodes files in
  let removed = ref 0 in
  let excess = ref (total - max_bytes) in
  List.iter
    (fun (f, (st : Unix.stats)) ->
      if !excess > 0 then
        match Sys.remove (Filename.concat t.dir f) with
        | () ->
            incr removed;
            let left = Hashtbl.find names (st.st_dev, st.st_ino) - 1 in
            Hashtbl.replace names (st.st_dev, st.st_ino) left;
            if left = 0 then excess := !excess - st.st_size
        | exception Sys_error _ -> ())
    files;
  t.pruned <- t.pruned + !removed;
  !removed

(** Open (creating if needed) a cache rooted at [dir].  Raises
    [Sys_error] if the path cannot be created at all — callers that must
    not abort (the CLI) catch this and run uncached.  Opening lists only
    {!tmp_dir}, whatever the number of entries.  [?max_bytes] size-caps
    the store: on open, after the stale-temp sweep, the oldest entries
    are pruned until the on-disk footprint fits (the moral extension of
    the temp sweep — the store cleans up after itself). *)
let create ?max_bytes (dir : string) : t =
  mkdir_p (tmp_dir dir);
  sweep_stale_tmp dir;
  let t =
    {
      dir;
      max_bytes;
      corrupt_skips = 0;
      pruned = 0;
      write_failures = Atomic.make 0;
      disabled = Atomic.make false;
    }
  in
  (match max_bytes with
  | Some cap when cap >= 0 -> ignore (prune_to t ~max_bytes:cap)
  | _ -> ());
  t

let disabled (t : t) = Atomic.get t.disabled

let entry_path t (key : string) =
  Filename.concat t.dir (Digest.to_hex (Digest.string key) ^ ".vc")

(** Number of entries currently on disk. *)
let entries (t : t) : int =
  match Sys.readdir t.dir with
  | files ->
      Array.fold_left
        (fun n f -> if Filename.check_suffix f ".vc" then n + 1 else n)
        0 files
  | exception Sys_error _ -> 0

(* ------------------------------------------------------------------ *)
(* Keyed (dependency-cone) entries                                     *)
(* ------------------------------------------------------------------ *)

(* Each keyed store also links its entry as the *manifest* of the
   entry's stable identity [id] (for the driver: one per (file,
   function)).  A later miss is *explained* by diffing the manifest's
   components against the incoming ones, naming exactly the inputs
   that moved (the body, the spec, one callee's spec, the session
   configuration, …).  Manifests are advisory — losing, corrupting or
   failing to link one never changes what hits, only how a miss is
   reported. *)

(** Why a keyed lookup missed. *)
type reason =
  | Fresh  (** no manifest: this identity was never verified here *)
  | Changed of string list
      (** names of the components that differ from the last stored
          verify (e.g. ["body"], ["spec"; "callee:f3"]) *)
  | Evicted
      (** the manifest matches the incoming components exactly but the
          payload is gone — the entry was pruned or swept *)
  | Collision  (** a corrupt or key-mismatched entry sits at the slot *)

type keyed_lookup = KHit of string | KMiss of reason

let reason_label = function
  | Fresh -> "new"
  | Evicted -> "evicted"
  | Collision -> "collision"
  | Changed cs -> "changed:" ^ String.concat "+" cs

(** The full content-addressed key of a component list: component names
    are part of the digested material, so adding or removing a component
    (a callee appearing or disappearing) changes the key even when every
    shared component is unchanged. *)
let keyed_key ~(id : string) (components : (string * string) list) : string =
  String.concat "\x00"
    (("keyed:" ^ id)
    :: List.concat_map (fun (name, digest) -> [ name; digest ]) components)

let manifest_path (t : t) (id : string) =
  Filename.concat t.dir (Digest.to_hex (Digest.string id) ^ ".mf")

(* An entry's contents, or [None] for another layout, which is never
   unmarshalled.  Raises on a truncated or unreadable file. *)
let read_entry ic : (string * (string * string) list * string) option =
  match In_channel.really_input_string ic (String.length magic) with
  | Some h when String.equal h magic -> Some (Marshal.from_channel ic)
  | Some _ | None -> None

let read_manifest (t : t) (id : string) : (string * string) list option =
  match In_channel.with_open_bin (manifest_path t id) read_entry with
  | Some (i, components, _) when String.equal i id -> Some components
  | Some _ | None | (exception _) -> None

(** Diff two component lists; returns the names whose digests differ,
    plus names present on only one side, in first-list order (then any
    right-only names). *)
let diff_components (old_cs : (string * string) list)
    (new_cs : (string * string) list) : string list =
  let changed =
    List.filter_map
      (fun (name, digest) ->
        match List.assoc_opt name old_cs with
        | Some d when String.equal d digest -> None
        | Some _ | None -> Some name)
      new_cs
  in
  let removed =
    List.filter_map
      (fun (name, _) ->
        if List.mem_assoc name new_cs then None else Some name)
      old_cs
  in
  changed @ removed

(** [find_keyed t ~id ~components] looks up the entry whose key is the
    digest of [components]; on a miss, the manifest for [id] explains
    *why* (which components moved since the last verify stored here).
    An unreadable, truncated or mismatched entry (another layout,
    digest collision) is a [Collision] miss and counts as a corrupt
    skip.  [?fault] arms the ["cache.read"] chaos site: an injection is
    absorbed here as a [Collision] — by contract the cache never lets a
    fault escape. *)
let find_keyed ?fault (t : t) ~(id : string)
    ~(components : (string * string) list) : keyed_lookup =
  let key = keyed_key ~id components in
  let path = entry_path t key in
  let outcome =
    match Faultsim.point fault "cache.read" with
    | exception Faultsim.Injected _ -> KMiss Collision
    | () -> (
        (* open first: a missing entry is the common miss, and an open
           that fails says so without a separate [stat] on every hit; an
           entry that exists but cannot be opened is corrupt, as before *)
        match In_channel.open_bin path with
        | exception Sys_error _ when not (Sys.file_exists path) -> (
            match read_manifest t id with
            | None -> KMiss Fresh
            | Some old_cs -> (
                match diff_components old_cs components with
                | [] -> KMiss Evicted
                | changed -> KMiss (Changed changed)))
        | exception _ -> KMiss Collision
        | ic -> (
            match
              Fun.protect
                ~finally:(fun () -> In_channel.close_noerr ic)
                (fun () -> read_entry ic)
            with
            | Some (i, cs, v) when String.equal (keyed_key ~id:i cs) key ->
                KHit v
            | Some _ | None | (exception _) -> KMiss Collision))
  in
  (match outcome with
  | KMiss Collision -> t.corrupt_skips <- t.corrupt_skips + 1
  | KHit _ | KMiss _ -> ());
  outcome

(** [unreadable t] counts the last lookup, a hit, as a corrupt skip:
    the caller could not decode its payload (e.g. one written by a
    different compiler), so the entry is re-proved and overwritten like
    any other corrupt entry. *)
let unreadable (t : t) : unit = t.corrupt_skips <- t.corrupt_skips + 1

(** [store_keyed t ~id ~components payload] persists the entry
    atomically, then makes it [id]'s manifest.  I/O errors (and injected
    ["cache.write"] faults) are swallowed: a cache that cannot write is
    merely cold, never fatal.  Temp files are removed on any failure so
    an unwritable directory cannot accumulate orphans, and after
    {!max_write_failures} consecutive failures writes stop altogether.
    Only a persisted entry becomes the manifest; a failed link (no hard
    links, a concurrent prune) keeps the old one and is no failure. *)
let store_keyed ?fault (t : t) ~(id : string)
    ~(components : (string * string) list) (payload : string) : unit =
  if not (Atomic.get t.disabled) then begin
    let key = keyed_key ~id components in
    let temps = ref [] in
    let remove f = try Sys.remove f with Sys_error _ -> () in
    match
      Faultsim.point fault "cache.write";
      let tf, oc =
        Filename.open_temp_file ~mode:[ Open_binary ]
          ~temp_dir:(tmp_dir t.dir) "entry" ".tmp"
      in
      temps := [ tf ];
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc magic;
          Marshal.to_channel oc (id, components, payload) [];
          close_out oc);
      (* a name no other writer makes while [tf], created O_EXCL, exists *)
      let lf = Filename.chop_suffix tf ".tmp" ^ ".mf.tmp" in
      (try Unix.link tf lf; temps := [ lf; tf ] with Unix.Unix_error _ -> ());
      Sys.rename tf (entry_path t key)
    with
    | () -> (
        Atomic.set t.write_failures 0;
        match !temps with
        | [ lf; _ ] -> (
            try Sys.rename lf (manifest_path t id)
            with Sys_error _ -> remove lf)
        | _ -> ())
    | exception (Sys_error _ | Faultsim.Injected _) ->
        List.iter remove !temps;
        if Atomic.fetch_and_add t.write_failures 1 + 1 >= max_write_failures
        then Atomic.set t.disabled true
  end

(* ------------------------------------------------------------------ *)
(* Store statistics (--cache-stats)                                    *)
(* ------------------------------------------------------------------ *)

type store_stats = {
  st_entries : int;  (** payload entries on disk *)
  st_manifests : int;  (** manifests on disk *)
  st_bytes : int;  (** on-disk footprint, each linked inode once *)
  st_corrupt_skips : int;  (** corrupt entries skipped this run *)
  st_pruned : int;  (** entries evicted by the size cap this run *)
}

let stats (t : t) : store_stats =
  let files = store_files t.dir in
  let count suffix =
    List.length
      (List.filter (fun (f, _) -> Filename.check_suffix f suffix) files)
  in
  {
    st_entries = count ".vc";
    st_manifests = count ".mf";
    st_bytes = snd (inodes files);
    st_corrupt_skips = t.corrupt_skips;
    st_pruned = t.pruned;
  }

(** Digest a list of fingerprint components into a stable hex string. *)
let fingerprint (parts : string list) : string =
  Digest.to_hex (Digest.string (String.concat "\x00" parts))
