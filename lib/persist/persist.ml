(* Durable ForkBase database: append-only chunk log (§4.4) + write-ahead
   branch journal for the §4.5 branch tables + checkpointed online
   compaction.

   Write path ordering (one db operation):
     1. chunks appended to the chunk log (buffered),
     2. chunk log flushed to the OS,
     3. the operation's branch records appended to the journal as one
        atomic entry and flushed,
     4. every [journal_sync_every] operations, chunk log then journal are
        fsynced (in that order).
   A journal entry therefore never refers to a chunk the OS has not seen,
   for both process crashes (flush order) and power loss (fsync order). *)

module Cid = Fbchunk.Cid
module Store = Fbchunk.Chunk_store
module Log_store = Fbchunk.Log_store
module Db = Forkbase.Db

type corruption =
  | Missing_head of { key : string; branch : string option; uid : Cid.t }
  | Bad_journal of { path : string; reason : string }
  | Bad_chunk_log of { path : string; off : int; reason : string }

exception Corrupt_db of corruption

let pp_corruption fmt = function
  | Missing_head { key; branch; uid } ->
      Format.fprintf fmt
        "recovered head %a of key %S%s is missing from the chunk store" Cid.pp
        uid key
        (match branch with Some b -> " (branch " ^ b ^ ")" | None -> " (untagged)")
  | Bad_journal { path; reason } ->
      Format.fprintf fmt "branch journal %s is corrupt: %s" path reason
  | Bad_chunk_log { path; off; reason } ->
      Format.fprintf fmt
        "chunk log %s has a corrupt record at byte %d: %s" path off reason

let corruption_to_string c = Format.asprintf "%a" pp_corruption c

type t = {
  dir : string;
  db : Db.t;
  set_store : Store.t -> unit;
  mutable log : Log_store.t;
  mutable journal : Journal.t;
  chunk_sync_every : int;
  journal_sync_every : int;
  mutable deferred_sync : bool;
  mutable unsynced_ops : int;
  mutable seq : int;  (* sequence of the last committed journal entry *)
}

(* Renames only become durable once the containing directory's entry list
   is on disk: fsync the directory after every tmp-over-live rename, or a
   power failure can resurrect the pre-rename file (and with it, state the
   caller believed replaced). *)
let dir_fsyncs = ref 0

let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.fsync fd;
      incr dir_fsyncs)

let dir_fsync_count () = !dir_fsyncs

let chunk_file dir = Filename.concat dir "chunks.log"
let journal_file dir = Filename.concat dir "branches.journal"
let tmp_suffix = ".tmp"

let db t = t.db

let sync t =
  Log_store.sync t.log;
  Journal.sync t.journal;
  t.unsynced_ops <- 0

let on_mutation t muts =
  (* Chunk bytes referenced by these records must reach the OS before the
     journal entry does. *)
  Log_store.flush t.log;
  t.seq <- t.seq + 1;
  Journal.append t.journal ~seq:t.seq
    (List.map (fun m -> Journal.Mutation m) muts);
  t.unsynced_ops <- t.unsynced_ops + 1;
  if
    (not t.deferred_sync)
    && t.journal_sync_every > 0
    && t.unsynced_ops >= t.journal_sync_every
  then sync t

let validate_heads db =
  let store = Db.store db in
  let check ~key ~branch uid =
    match Forkbase.Fobject.load store uid with
    | Some obj when obj.Forkbase.Fobject.key = key -> ()
    | Some _ | None -> raise (Corrupt_db (Missing_head { key; branch; uid }))
  in
  List.iter
    (fun key ->
      List.iter
        (fun (b, uid) -> check ~key ~branch:(Some b) uid)
        (Db.list_tagged_branches db ~key);
      List.iter
        (fun uid -> check ~key ~branch:None uid)
        (Db.list_untagged_branches db ~key))
    (Db.list_keys db)

let replay_records db records =
  List.iter
    (function
      | Journal.Checkpoint snaps -> Db.import_tables db snaps
      | Journal.Mutation m -> Db.apply_mutation db m)
    records

let replay db entries = List.iter (fun (_, records) -> replay_records db records) entries

let open_db ?cfg ?(sync_every = 512) ?(journal_sync_every = 1) ?wrap_store
    ?recovery_check dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  (* Leftovers from a compaction or checkpoint that crashed before its
     atomic rename are dead weight: remove them. *)
  List.iter
    (fun f ->
      let p = f dir ^ tmp_suffix in
      if Sys.file_exists p then Sys.remove p)
    [ chunk_file; journal_file ];
  let log =
    try Log_store.open_ ~sync_every (chunk_file dir)
    with Log_store.Corrupt_log { file; off; reason } ->
      raise (Corrupt_db (Bad_chunk_log { path = file; off; reason }))
  in
  let store, set_store = Store.redirectable (Log_store.store log) in
  (* Fault-injection / instrumentation wrappers go outside the redirectable
     store so compaction can still swap the backing log underneath them. *)
  let store = match wrap_store with None -> store | Some w -> w store in
  let db = Db.create ?cfg store in
  let journal, entries =
    try Journal.open_ (journal_file dir)
    with Fbutil.Codec.Corrupt reason ->
      Log_store.close log;
      raise (Corrupt_db (Bad_journal { path = journal_file dir; reason }))
  in
  (* Any recovery failure from here on must release both files, or every
     failed open leaks the journal and chunk-log descriptors. *)
  (try
     replay db entries;
     validate_heads db;
     (* Optional deep post-recovery verification (e.g. Fbcheck.Fsck).  Runs
        before the mutation hook is installed, so a checker that reads
        through the store cannot journal anything. *)
     match recovery_check with None -> () | Some check -> check db
   with e ->
     Journal.close journal;
     Log_store.close log;
     raise e);
  let t =
    {
      dir;
      db;
      set_store;
      log;
      journal;
      chunk_sync_every = sync_every;
      journal_sync_every;
      deferred_sync = false;
      unsynced_ops = 0;
      (* sequences are assigned monotonically, so the last entry holds the
         store's current sequence *)
      seq = (match List.rev entries with (s, _) :: _ -> s | [] -> 0);
    }
  in
  Db.set_on_mutation db (fun muts -> on_mutation t muts);
  t

(* Snapshot every branch table into a single Checkpoint entry, written as
   a fresh journal and renamed over the live one: the journal shrinks to
   O(live state) and recovery stops depending on the full history. *)
let checkpoint t =
  let snaps = Db.export_tables t.db in
  Log_store.sync t.log;
  let tmp = journal_file t.dir ^ tmp_suffix in
  (* The snapshot is stamped with the sequence of the last operation it
     covers, so the sequence counter survives rotation and a replication
     pull from an older position receives this entry first. *)
  Journal.write_fresh tmp [ (t.seq, [ Journal.Checkpoint snaps ]) ];
  Journal.close t.journal;
  Unix.rename tmp (journal_file t.dir);
  fsync_dir t.dir;
  let journal, _ = Journal.open_ (journal_file t.dir) in
  t.journal <- journal;
  t.unsynced_ops <- 0

let garbage_stats t = Forkbase.Gc.garbage_stats t.db

(* Online compaction: sweep live chunks into a fresh log, atomically swap
   the files, redirect the db's store, then checkpoint the journal so no
   record refers to collected state.  Returns reclaimed (chunks, bytes). *)
let compact t =
  Log_store.sync t.log;
  let old_stats = (Db.store t.db).Store.stats () in
  let old_chunks = old_stats.Store.chunks and old_bytes = old_stats.Store.bytes in
  let tmp = chunk_file t.dir ^ tmp_suffix in
  if Sys.file_exists tmp then Sys.remove tmp;
  let fresh = Log_store.open_ ~sync_every:0 tmp in
  let live_chunks, live_bytes =
    Forkbase.Gc.sweep t.db ~into:(Log_store.store fresh)
  in
  Log_store.close fresh;
  Log_store.close t.log;
  Unix.rename tmp (chunk_file t.dir);
  fsync_dir t.dir;
  t.log <- Log_store.open_ ~sync_every:t.chunk_sync_every (chunk_file t.dir);
  t.set_store (Log_store.store t.log);
  checkpoint t;
  (old_chunks - live_chunks, old_bytes - live_bytes)

let journal_size t = Journal.file_size t.journal
let chunk_log_size t = Log_store.file_size t.log
let journal_seq t = t.seq

(* Serve a replication pull from the on-disk journal.  [Journal.append]
   flushes per entry, so a read-only scan of the live file sees every
   committed entry; the journal is checkpoint-bounded, so the scan is
   O(live state + recent tail), not O(history). *)
let pull_entries t ~from_seq ~max_entries =
  Journal.entries_from (Journal.path t.journal) ~from_seq ~max_entries

(* Apply one shipped entry: journal first (chunks flushed ahead of it, the
   same write-path ordering as [on_mutation]), then replay the records into
   the in-memory tables.  [Db.apply_mutation] / [Db.import_tables] do not
   fire the mutation hook, so nothing is double-journaled. *)
let apply_replicated t ~seq records =
  if seq > t.seq then begin
    let is_snapshot =
      List.exists (function Journal.Checkpoint _ -> true | _ -> false) records
    in
    if (not is_snapshot) && seq <> t.seq + 1 then
      invalid_arg
        (Printf.sprintf
           "Persist.apply_replicated: mutation entry %d does not follow %d"
           seq t.seq);
    Log_store.flush t.log;
    Journal.append t.journal ~seq records;
    replay_records t.db records;
    t.seq <- seq;
    t.unsynced_ops <- t.unsynced_ops + 1;
    if
      (not t.deferred_sync)
      && t.journal_sync_every > 0
      && t.unsynced_ops >= t.journal_sync_every
    then sync t
  end

(* Group-commit support: with deferred sync on, [on_mutation] /
   [apply_replicated] stop fsyncing on their own; the caller (the server's
   event loop) batches many operations behind one explicit [sync] and only
   acknowledges them after it.  Per-ack durability is unchanged — acks
   just wait for the shared fsync instead of paying one each. *)
let set_deferred_sync t v = t.deferred_sync <- v
let unsynced_ops t = t.unsynced_ops

let close t =
  sync t;
  Journal.close t.journal;
  Log_store.close t.log

(* Deterministic crash: drop the files as a SIGKILL at an operation
   boundary would — no final sync, no checkpoint.  Acked operations are
   already flushed per [on_mutation], so a subsequent [open_db] recovers
   exactly the acknowledged state. *)
let crash t =
  Journal.crash t.journal;
  Log_store.crash t.log
