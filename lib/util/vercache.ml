(** Content-addressed on-disk verification cache.

    The checker's results are a pure function of (function body, its
    specification, the sibling specifications it may call, the rule-set
    and solver fingerprint, the resource budget).  The driver digests
    each of those into a named component; this module maps a function's
    component list to an opaque byte payload on disk so an unchanged
    function can be verdict-replayed instead of re-proved — the
    Foundational-VeriFast-style "certify once, re-check cheaply"
    economy, applied at the toolchain level.

    Entries are write-once: a file named by the MD5 of its key (the
    concatenated components, see {!keyed_key}), written to a temp file
    under [<dir>/tmp/] ({!tmp_dir}) and [Sys.rename]d into place, so
    concurrent writers (checker domains) cannot expose a torn entry.
    The full key is stored inside the entry and compared on read, so a
    digest collision degrades to a miss, never to a wrong verdict.

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
  mutable write_failures : int;  (** consecutive; reset on success *)
  mutable disabled : bool;
}

(** Bump when the entry layout (or the meaning of payloads) changes. *)
let format_version = "rc-vercache-1"

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

(** Where the cache writes its temp files (entries and manifests): a
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

(* Store files, oldest first by mtime (ties broken by name so the order
   is stable): the candidates for size-capped pruning.  Both entry kinds
   count — content-addressed [*.vc] payloads and [*.mf] manifests. *)
let store_files (dir : string) : (string * float * int) list =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
      Array.to_list files
      |> List.filter_map (fun f ->
             if Filename.check_suffix f ".vc" || Filename.check_suffix f ".mf"
             then
               let path = Filename.concat dir f in
               match Unix.stat path with
               | st -> Some (f, st.Unix.st_mtime, st.Unix.st_size)
               | exception Unix.Unix_error _ -> None
             else None)
      |> List.sort (fun (fa, ta, _) (fb, tb, _) ->
             match Float.compare ta tb with 0 -> compare fa fb | c -> c)

(** Evict oldest entries until the store fits in [max_bytes]; returns
    the number of files removed.  A removal that fails (concurrent
    eviction, permissions) is skipped — pruning is best-effort, like
    every other maintenance path here. *)
let prune_to (t : t) ~(max_bytes : int) : int =
  let files = store_files t.dir in
  let total =
    List.fold_left (fun acc (_, _, size) -> acc + size) 0 files
  in
  let removed = ref 0 in
  let excess = ref (total - max_bytes) in
  List.iter
    (fun (f, _, size) ->
      if !excess > 0 then
        match Sys.remove (Filename.concat t.dir f) with
        | () ->
            excess := !excess - size;
            incr removed
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
      write_failures = 0;
      disabled = false;
    }
  in
  (match max_bytes with
  | Some cap when cap >= 0 -> ignore (prune_to t ~max_bytes:cap)
  | _ -> ());
  t

let disabled (t : t) = t.disabled

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

(* A keyed entry is a content-addressed, write-once [*.vc] file —
   its key is the concatenation of named component digests — but each
   store also records a *manifest* for the entry's stable identity [id]
   (for the driver: one id per (file, function)).  The manifest holds
   the component list of the last successful store, so a later miss can
   be *explained*: diffing the stored components against the incoming
   ones names exactly which inputs moved (the function's own body, its
   spec, one callee's spec, the session configuration, …).  Manifests
   are advisory — losing or corrupting one never changes what hits, only
   how a miss is reported. *)

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

let read_manifest (t : t) (id : string) : (string * string) list option =
  let path = manifest_path t id in
  if not (Sys.file_exists path) then None
  else
    match
      In_channel.with_open_bin path (fun ic ->
          (Marshal.from_channel ic : string * string * (string * string) list))
    with
    | v, i, components when v = format_version && i = id -> Some components
    | _ | (exception _) -> None

(* Manifests are overwritten on every store (they track the *latest*
   verify), so unlike payload entries they are not write-once — but the
   write is still temp-file + rename, so readers never see a torn one. *)
let write_manifest (t : t) (id : string) (components : (string * string) list)
    : unit =
  let tmp = ref None in
  match
    let tf = Filename.temp_file ~temp_dir:(tmp_dir t.dir) "manifest" ".tmp" in
    tmp := Some tf;
    Out_channel.with_open_bin tf (fun oc ->
        Marshal.to_channel oc (format_version, id, components) []);
    Sys.rename tf (manifest_path t id)
  with
  | () -> ()
  | exception Sys_error _ -> (
      match !tmp with
      | Some tf -> ( try Sys.remove tf with Sys_error _ -> ())
      | None -> ())

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
    An unreadable, truncated or mismatched entry (wrong format version,
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
        if not (Sys.file_exists path) then
          match read_manifest t id with
          | None -> KMiss Fresh
          | Some old_cs -> (
              match diff_components old_cs components with
              | [] -> KMiss Evicted
              | changed -> KMiss (Changed changed))
        else
          match
            In_channel.with_open_bin path (fun ic ->
                (Marshal.from_channel ic : string * string * string))
          with
          | v, k, payload when v = format_version && k = key -> KHit payload
          | _ | (exception _) -> KMiss Collision)
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
    atomically, then its manifest.  I/O errors (and injected
    ["cache.write"] faults) are swallowed: a cache that cannot write is
    merely cold, never fatal.  The temp file is removed on any failure
    so an unwritable target directory cannot accumulate orphans, and
    after {!max_write_failures} consecutive failures the cache stops
    attempting writes altogether.  The manifest is only written when the
    payload store succeeded, so a manifest never describes an entry that
    was not persisted. *)
let store_keyed ?fault (t : t) ~(id : string)
    ~(components : (string * string) list) (payload : string) : unit =
  if not t.disabled then begin
    let key = keyed_key ~id components in
    let tmp = ref None in
    match
      Faultsim.point fault "cache.write";
      let tf = Filename.temp_file ~temp_dir:(tmp_dir t.dir) "entry" ".tmp" in
      tmp := Some tf;
      Out_channel.with_open_bin tf (fun oc ->
          Marshal.to_channel oc (format_version, key, payload) []);
      Sys.rename tf (entry_path t key)
    with
    | () ->
        t.write_failures <- 0;
        write_manifest t id components
    | exception (Sys_error _ | Faultsim.Injected _) ->
        (match !tmp with
        | Some tf -> ( try Sys.remove tf with Sys_error _ -> ())
        | None -> ());
        t.write_failures <- t.write_failures + 1;
        if t.write_failures >= max_write_failures then t.disabled <- true
  end

(* ------------------------------------------------------------------ *)
(* Store statistics (--cache-stats)                                    *)
(* ------------------------------------------------------------------ *)

type store_stats = {
  st_entries : int;  (** payload entries on disk *)
  st_manifests : int;  (** manifests on disk *)
  st_bytes : int;  (** total on-disk footprint (entries + manifests) *)
  st_corrupt_skips : int;  (** corrupt entries skipped this run *)
  st_pruned : int;  (** entries evicted by the size cap this run *)
}

let stats (t : t) : store_stats =
  let files = store_files t.dir in
  let count suffix =
    List.length (List.filter (fun (f, _, _) -> Filename.check_suffix f suffix) files)
  in
  {
    st_entries = count ".vc";
    st_manifests = count ".mf";
    st_bytes = List.fold_left (fun acc (_, _, s) -> acc + s) 0 files;
    st_corrupt_skips = t.corrupt_skips;
    st_pruned = t.pruned;
  }

(** Digest a list of fingerprint components into a stable hex string. *)
let fingerprint (parts : string list) : string =
  Digest.to_hex (Digest.string (String.concat "\x00" parts))
