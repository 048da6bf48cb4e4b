(* The persistence subsystem (lib/persist): branch journal + recovery +
   checkpointed compaction, including byte-level torn-tail properties for
   both on-disk files. *)

module Cid = Fbchunk.Cid
module Chunk = Fbchunk.Chunk
module Store = Fbchunk.Chunk_store
module Log_store = Fbchunk.Log_store
module Db = Forkbase.Db
module Persist = Fbpersist.Persist
module Journal = Fbpersist.Journal
module Procs = Fbremote.Procs

(* Branch-table state of a db as a comparable value. *)
let state_of db =
  List.map
    (fun key ->
      ( key,
        Db.list_tagged_branches db ~key,
        List.map Cid.to_hex (Db.list_untagged_branches db ~key) ))
    (Db.list_keys db)

let history db ~key ~branch =
  match Db.track ~branch db ~key ~dist_range:(0, max_int) with
  | Ok h -> List.map (fun (d, uid, _) -> (d, Cid.to_hex uid)) h
  | Error e -> Alcotest.fail (Db.error_to_string e)

(* A small workload touching every journaled mutation type. *)
let workload db =
  let (_ : Cid.t) = Db.put db ~key:"page" (Db.str "v1") in
  let v2 = Db.put db ~key:"page" ~context:"second" (Db.str "v2") in
  let (_ : Cid.t) = Db.put db ~key:"page" (Db.blob db (String.make 4096 'x')) in
  (match Db.fork db ~key:"page" ~from_branch:"master" ~new_branch:"draft" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  let (_ : Cid.t) = Db.put ~branch:"draft" db ~key:"page" (Db.str "draft-edit") in
  (match Db.rename_branch db ~key:"page" ~target:"draft" ~new_name:"review" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  let (_ : Cid.t) = Db.put db ~key:"counts" (Db.map db [ ("a", "1"); ("b", "2") ]) in
  (* untagged branches via fork-on-conflict puts against the same base *)
  let a =
    match Db.put_at db ~key:"counts" ~base:(Result.get_ok (Db.head db ~key:"counts"))
            (Db.map db [ ("a", "9"); ("b", "2") ])
    with
    | Ok uid -> uid
    | Error e -> Alcotest.fail (Db.error_to_string e)
  in
  let b =
    match Db.put_at db ~key:"counts" ~base:(Result.get_ok (Db.head db ~key:"counts"))
            (Db.map db [ ("a", "1"); ("b", "7") ])
    with
    | Ok uid -> uid
    | Error e -> Alcotest.fail (Db.error_to_string e)
  in
  (match Db.merge_untagged ~resolver:Forkbase.Merge.Aggregate db ~key:"counts" [ a; b ] with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  (match Db.fork db ~key:"page" ~from_branch:"master" ~new_branch:"scratch" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  (match Db.remove_branch db ~key:"page" ~target:"scratch" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  v2

let test_reopen_roundtrip () =
  Procs.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  let db = Persist.db p in
  let v2 = workload db in
  let before = state_of db in
  let hist_before = history db ~key:"page" ~branch:"master" in
  Persist.close p;
  let p2 = Persist.open_db dir in
  let db2 = Persist.db p2 in
  Alcotest.(check bool) "tables recovered" true (state_of db2 = before);
  Alcotest.(check bool) "history recovered" true
    (history db2 ~key:"page" ~branch:"master" = hist_before);
  (* restore_branch round trip: journaled like everything else *)
  (match Db.restore_branch db2 ~key:"page" ~branch:"rollback" v2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  (match Db.get ~branch:"rollback" db2 ~key:"page" with
  | Ok v -> Alcotest.(check bool) "rollback content" true (v = Db.str "v2")
  | Error e -> Alcotest.fail (Db.error_to_string e));
  Persist.close p2;
  let p3 = Persist.open_db dir in
  (match Db.get ~branch:"rollback" (Persist.db p3) ~key:"page" with
  | Ok v -> Alcotest.(check bool) "rollback survives reopen" true (v = Db.str "v2")
  | Error e -> Alcotest.fail (Db.error_to_string e));
  Persist.close p3

let test_checkpoint_and_reopen () =
  Procs.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  let db = Persist.db p in
  let (_ : Cid.t) = workload db in
  let size_before = Persist.journal_size p in
  Persist.checkpoint p;
  Alcotest.(check bool) "journal shrank" true
    (Persist.journal_size p < size_before);
  let before = state_of db in
  (* writes after a checkpoint land after the snapshot entry *)
  let (_ : Cid.t) = Db.put db ~key:"page" (Db.str "post-checkpoint") in
  let after = state_of db in
  Alcotest.(check bool) "state advanced" true (before <> after);
  Persist.close p;
  let p2 = Persist.open_db dir in
  Alcotest.(check bool) "checkpoint + tail replayed" true
    (state_of (Persist.db p2) = after);
  Persist.close p2

let test_compaction_reclaims_garbage () =
  Procs.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  let db = Persist.db p in
  (* every version reachable from a head stays live (the derivation DAG
     is retained), so garbage = value trees chunked into the store but
     never committed to a version — aborted operations *)
  let (_ : Cid.t) = Db.put db ~key:"big" (Db.blob db (String.make 8192 'k')) in
  for i = 1 to 10 do
    let payload = String.init 8192 (fun j -> Char.chr ((i * 7 + j * 13) land 0xff)) in
    let (_ : Fbtypes.Value.t) = Db.blob db payload in
    ()
  done;
  let (_ : Cid.t) = Db.put db ~key:"keep" (Db.str "kept") in
  let garbage_chunks, garbage_bytes = Persist.garbage_stats p in
  Alcotest.(check bool) "orphaned values are garbage" true (garbage_chunks > 0);
  let before = state_of db in
  let log_before = Persist.chunk_log_size p in
  let reclaimed_chunks, reclaimed_bytes = Persist.compact p in
  Alcotest.(check int) "reclaims garbage chunks" garbage_chunks reclaimed_chunks;
  Alcotest.(check bool) "reclaims at least garbage bytes" true
    (reclaimed_bytes >= garbage_bytes);
  Alcotest.(check bool) "chunk log shrank" true
    (Persist.chunk_log_size p < log_before);
  (* the live db keeps working against the swapped store *)
  Alcotest.(check bool) "state preserved" true (state_of db = before);
  (match Db.get db ~key:"keep" with
  | Ok v -> Alcotest.(check bool) "content readable" true (v = Db.str "kept")
  | Error e -> Alcotest.fail (Db.error_to_string e));
  let head = Result.get_ok (Db.head db ~key:"big") in
  Alcotest.(check bool) "head verifies after compaction" true
    (Db.verify_version db head);
  Alcotest.(check int) "no garbage left" 0 (fst (Persist.garbage_stats p));
  (* and everything survives a reopen of the swapped files *)
  let (_ : Cid.t) = Db.put db ~key:"big" (Db.str "after-compact") in
  let final = state_of db in
  Persist.close p;
  let p2 = Persist.open_db dir in
  Alcotest.(check bool) "reopen after compaction" true
    (state_of (Persist.db p2) = final);
  Alcotest.(check bool) "old version still readable" true
    (Db.verify_version (Persist.db p2) head);
  Persist.close p2

let test_missing_head_is_corruption () =
  Procs.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  let (_ : Cid.t) = Db.put (Persist.db p) ~key:"k" (Db.str "v") in
  Persist.close p;
  (* forge a head that no chunk backs *)
  let j, _ = Journal.open_ (Filename.concat dir "branches.journal") in
  Journal.append j ~seq:3
    [
      Journal.Mutation
        (Db.Set_head
           { key = "k"; branch = "master"; uid = Cid.digest "no such chunk" });
    ];
  Journal.close j;
  match Persist.open_db dir with
  | exception Persist.Corrupt_db (Persist.Missing_head { key = "k"; _ }) -> ()
  | exception e -> Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e)
  | p ->
      Persist.close p;
      Alcotest.fail "dangling head accepted"

let test_garbled_journal_is_corruption () =
  Procs.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  let (_ : Cid.t) = Db.put (Persist.db p) ~key:"k" (Db.str "v") in
  Persist.close p;
  let path = Filename.concat dir "branches.journal" in
  (* a complete, well-framed entry whose body is garbage is corruption,
     not a torn tail *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\x03zzz";
  close_out oc;
  match Persist.open_db dir with
  | exception Persist.Corrupt_db (Persist.Bad_journal _) -> ()
  | exception e -> Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e)
  | p ->
      Persist.close p;
      Alcotest.fail "garbled journal accepted"

(* --- torn-tail properties: every byte offset of the final record --- *)

let copy_file src dst =
  let ic = open_in_bin src and oc = open_out_bin dst in
  let len = in_channel_length ic in
  let buf = Bytes.create len in
  really_input ic buf 0 len;
  output_bytes oc buf;
  close_in ic;
  close_out oc

(* Chunk log: appending [n] chunks then truncating anywhere inside the
   final record recovers exactly the first [n - 1] chunks. *)
let test_log_store_torn_tail_every_offset () =
  Procs.with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "chunks.log" in
  let chunk i = Chunk.v Chunk.Blob (Printf.sprintf "payload-%d-%s" i (String.make (50 + i) 'p')) in
  let log = Log_store.open_ path in
  let s = Log_store.store log in
  let cids = List.init 8 (fun i -> s.Store.put (chunk i)) in
  Log_store.close log;
  let full = (Unix.stat path).Unix.st_size in
  let body_len = Chunk.byte_size (chunk 7) in
  let header_len = if body_len < 0x80 then 1 else 2 in
  let record_start = full - body_len - header_len in
  let committed = List.filteri (fun i _ -> i < 7) cids in
  let torn = List.nth cids 7 in
  let scratch = Filename.concat dir "scratch.log" in
  for cut = record_start to full - 1 do
    copy_file path scratch;
    Unix.truncate scratch cut;
    let log2 = Log_store.open_ scratch in
    let s2 = Log_store.store log2 in
    List.iteri
      (fun i cid ->
        match s2.Store.get cid with
        | Some c -> Alcotest.(check bool) "committed chunk content" true (c = chunk i)
        | None -> Alcotest.fail (Printf.sprintf "chunk %d lost at cut %d" i cut))
      committed;
    Alcotest.(check int)
      (Printf.sprintf "exactly the committed prefix at cut %d" cut)
      7
      (s2.Store.stats ()).Store.chunks;
    Alcotest.(check bool) "torn chunk dropped" true (s2.Store.get torn = None);
    Log_store.close log2
  done

(* Branch journal: truncating anywhere inside the final entry makes
   reopen recover exactly the state before the final operation. *)
let test_journal_torn_tail_every_offset () =
  Procs.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  let db = Persist.db p in
  let (_ : Cid.t) = workload db in
  let committed_state = state_of db in
  let size_before_last = Persist.journal_size p in
  (* the final operation: a put that both records an object and moves a
     branch head *)
  let (_ : Cid.t) = Db.put db ~key:"page" (Db.str "final-op") in
  let final_state = state_of db in
  Persist.close p;
  let jpath = Filename.concat dir "branches.journal" in
  let full = (Unix.stat jpath).Unix.st_size in
  Alcotest.(check bool) "final entry appended" true (full > size_before_last);
  let jcopy = Filename.concat dir "journal.orig" in
  let ccopy = Filename.concat dir "chunks.orig" in
  copy_file jpath jcopy;
  copy_file (Filename.concat dir "chunks.log") ccopy;
  for cut = size_before_last to full do
    copy_file jcopy jpath;
    copy_file ccopy (Filename.concat dir "chunks.log");
    Unix.truncate jpath cut;
    let p2 = Persist.open_db dir in
    let got = state_of (Persist.db p2) in
    let expect = if cut = full then final_state else committed_state in
    Alcotest.(check bool)
      (Printf.sprintf "committed prefix at cut %d" cut)
      true (got = expect);
    Persist.close p2
  done

(* --- regression: a failed open must release both descriptors --- *)

let count_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_failed_open_leaks_no_fds () =
  Procs.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  let (_ : Cid.t) = Db.put (Persist.db p) ~key:"k" (Db.str "v") in
  Persist.close p;
  (* forge a dangling head so every reopen fails inside validate_heads,
     after both the chunk log and the journal are already open *)
  let j, _ = Journal.open_ (Filename.concat dir "branches.journal") in
  Journal.append j ~seq:3
    [
      Journal.Mutation
        (Db.Set_head
           { key = "k"; branch = "master"; uid = Cid.digest "no such chunk" });
    ];
  Journal.close j;
  let baseline = count_fds () in
  for _ = 1 to 100 do
    match Persist.open_db dir with
    | exception Persist.Corrupt_db _ -> ()
    | p ->
        Persist.close p;
        Alcotest.fail "corrupt db accepted"
  done;
  Alcotest.(check int) "fd count stable across 100 failed opens" baseline
    (count_fds ())

(* --- regression: rename durability requires fsyncing the directory --- *)

let test_rename_fsyncs_directory () =
  Procs.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  let db = Persist.db p in
  let (_ : Cid.t) = workload db in
  let before = Persist.dir_fsync_count () in
  Persist.checkpoint p;
  let after_ckpt = Persist.dir_fsync_count () in
  Alcotest.(check bool) "checkpoint fsyncs the directory" true
    (after_ckpt > before);
  let (_ : int * int) = Persist.compact p in
  Alcotest.(check bool) "compact fsyncs the directory" true
    (Persist.dir_fsync_count () > after_ckpt);
  (* crash-release (no close-time fsync): the renamed files must already
     be durable on their own *)
  let state = state_of db in
  Persist.crash p;
  let p2 = Persist.open_db dir in
  Alcotest.(check bool) "state survives crash right after checkpoint+compact"
    true
    (state_of (Persist.db p2) = state);
  Persist.close p2

(* --- regression: hostile varint lengths are typed corruption --- *)

let append_bytes path s =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

(* 8 continuation bytes then 0x7f lands bit 62 — negative on 63-bit
   ints; 10 continuation bytes overruns the 56-bit shift bound.  Both
   used to reach Bytes.create and die with Invalid_argument (or worse,
   attempt a giant allocation); they must surface as the same typed
   corruption a garbled body does. *)
let poisons =
  [
    ("negative length", String.make 8 '\xff' ^ "\x7f");
    ("overlong varint", String.make 10 '\xff');
  ]

let test_log_store_bad_varint_is_corruption () =
  Procs.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  let (_ : Cid.t) = Db.put (Persist.db p) ~key:"k" (Db.str "v") in
  Persist.close p;
  let log = Filename.concat dir "chunks.log" in
  let orig = Filename.concat dir "chunks.orig" in
  copy_file log orig;
  List.iter
    (fun (label, poison) ->
      copy_file orig log;
      append_bytes log poison;
      match Persist.open_db dir with
      | exception Persist.Corrupt_db (Persist.Bad_chunk_log _) -> ()
      | exception e ->
          Alcotest.failf "%s: unexpected exception %s" label
            (Printexc.to_string e)
      | p ->
          Persist.close p;
          Alcotest.failf "%s: poisoned chunk log accepted" label)
    poisons

let test_journal_bad_varint_is_corruption () =
  Procs.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  let (_ : Cid.t) = Db.put (Persist.db p) ~key:"k" (Db.str "v") in
  Persist.close p;
  let jpath = Filename.concat dir "branches.journal" in
  let orig = Filename.concat dir "journal.orig" in
  copy_file jpath orig;
  List.iter
    (fun (label, poison) ->
      copy_file orig jpath;
      append_bytes jpath poison;
      match Persist.open_db dir with
      | exception Persist.Corrupt_db (Persist.Bad_journal _) -> ()
      | exception e ->
          Alcotest.failf "%s: unexpected exception %s" label
            (Printexc.to_string e)
      | p ->
          Persist.close p;
          Alcotest.failf "%s: poisoned journal accepted" label)
    poisons

(* --- deferred sync (the group-commit hook): no per-op fsync, explicit
   sync drains, clean close still recovers --- *)

let test_deferred_sync () =
  Procs.with_temp_dir @@ fun dir ->
  let p = Persist.open_db ~journal_sync_every:1 dir in
  Persist.set_deferred_sync p true;
  let db = Persist.db p in
  for i = 1 to 5 do
    let (_ : Cid.t) = Db.put db ~key:"k" (Db.str (string_of_int i)) in
    ()
  done;
  Alcotest.(check bool) "per-op auto-fsync suppressed" true
    (Persist.unsynced_ops p >= 5);
  Persist.sync p;
  Alcotest.(check int) "explicit sync drains the batch" 0
    (Persist.unsynced_ops p);
  let final = state_of db in
  Persist.close p;
  let p2 = Persist.open_db dir in
  Alcotest.(check bool) "deferred-sync db recovers after clean close" true
    (state_of (Persist.db p2) = final);
  Persist.close p2

let test_db_level_sync_every () =
  Procs.with_temp_dir @@ fun dir ->
  (* exposed knobs accepted and still safe on close *)
  let p = Persist.open_db ~sync_every:1 ~journal_sync_every:64 dir in
  let db = Persist.db p in
  for i = 1 to 10 do
    let (_ : Cid.t) = Db.put db ~key:"k" (Db.str (string_of_int i)) in
    ()
  done;
  let final = state_of db in
  Persist.close p;
  let p2 = Persist.open_db dir in
  Alcotest.(check bool) "batched journal still recovers on clean close" true
    (state_of (Persist.db p2) = final);
  Persist.close p2

let () =
  Random.self_init ();
  Alcotest.run "persist"
    [
      ( "recovery",
        [
          Alcotest.test_case "reopen round trip" `Quick test_reopen_roundtrip;
          Alcotest.test_case "checkpoint + reopen" `Quick test_checkpoint_and_reopen;
          Alcotest.test_case "missing head" `Quick test_missing_head_is_corruption;
          Alcotest.test_case "garbled journal" `Quick test_garbled_journal_is_corruption;
          Alcotest.test_case "db-level sync_every" `Quick test_db_level_sync_every;
          Alcotest.test_case "failed open leaks no fds" `Quick
            test_failed_open_leaks_no_fds;
          Alcotest.test_case "bad chunk-log varint" `Quick
            test_log_store_bad_varint_is_corruption;
          Alcotest.test_case "bad journal varint" `Quick
            test_journal_bad_varint_is_corruption;
        ] );
      ( "durability",
        [
          Alcotest.test_case "renames fsync the directory" `Quick
            test_rename_fsyncs_directory;
          Alcotest.test_case "deferred sync" `Quick test_deferred_sync;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "reclaims garbage" `Quick
            test_compaction_reclaims_garbage;
        ] );
      ( "torn-tail",
        [
          Alcotest.test_case "chunk log, every offset" `Quick
            test_log_store_torn_tail_every_offset;
          Alcotest.test_case "branch journal, every offset" `Quick
            test_journal_torn_tail_every_offset;
        ] );
    ]
