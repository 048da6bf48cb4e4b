(* Crash harness: run a deterministic workload against a durable store,
   abandon it with [Persist.crash] — byte-identical on disk to a SIGKILL
   at an operation boundary, because the write path flushes both files
   before each operation returns — then recover and check the state is
   EXACTLY the replay of the acknowledged operations.

   The old harness forked a child writer and SIGKILLed it mid-workload;
   that only bounded the answer (replay n or replay n+1, depending on
   where the signal landed) and depended on scheduler timing, so it could
   not run reliably on every platform.  Failpoints make each scenario a
   pure function of its parameters:

   - crash after exactly n ops  -> recovered state = replay n;
   - tear the journal mid-entry -> the torn entry is dropped, state =
     replay of the ops before it;
   - tear the chunk log under a journaled head -> typed Corrupt_db
     (Missing_head), never a raw exception.

   Every recovery is additionally fsck'd: zero invariant violations. *)

module Cid = Fbchunk.Cid
module Db = Forkbase.Db
module Persist = Fbpersist.Persist
module Failpoint = Fbcheck.Failpoint
module Fsck = Fbcheck.Fsck
module Procs = Fbremote.Procs

let keys = [| "alpha"; "beta"; "gamma" |]

(* One deterministic operation per index: the workload and the in-memory
   replay derive the exact same op from [i] alone. *)
let apply_op db i =
  let h = Hashtbl.hash (0xC0FFEE, i) in
  let key = keys.(h mod Array.length keys) in
  let branch = Printf.sprintf "b%d" ((h / 13) mod 4) in
  match (h / 7) mod 10 with
  | 0 | 1 ->
      let (_ : Cid.t) =
        Db.put db ~key ~context:(string_of_int i)
          (Db.str (Printf.sprintf "v%d" i))
      in
      ()
  | 2 ->
      let (_ : Cid.t) =
        Db.put db ~key ~context:(string_of_int i)
          (Db.map db
             [
               (Printf.sprintf "f%d" (h mod 7), string_of_int i);
               ("g", Printf.sprintf "w%d" (i mod 11));
             ])
      in
      ()
  | 3 -> (
      match Db.fork db ~key ~from_branch:"master" ~new_branch:branch with
      | Ok () | Error _ -> ())
  | 4 -> (
      match Db.remove_branch db ~key ~target:branch with
      | Ok () | Error _ -> ())
  | 5 -> (
      match Db.rename_branch db ~key ~target:branch ~new_name:(branch ^ "x") with
      | Ok () | Error _ -> ())
  | 6 -> (
      match Db.head db ~key with
      | Ok base -> (
          match Db.put_at db ~key ~base (Db.str (Printf.sprintf "u%d" i)) with
          | Ok _ | Error _ -> ())
      | Error _ -> ())
  | 7 ->
      (* a chunked value large enough to split into several leaves *)
      let rng = Fbutil.Splitmix.create (Int64.of_int (0xB10B + i)) in
      let b = Bytes.create (2048 + (h mod 4096)) in
      for k = 0 to Bytes.length b - 1 do
        Bytes.set b k (Char.chr (Fbutil.Splitmix.int rng 256))
      done;
      let (_ : Cid.t) =
        Db.put db ~key ~context:(string_of_int i)
          (Db.blob db (Bytes.unsafe_to_string b))
      in
      ()
  | _ -> (
      let heads = Db.list_untagged_branches db ~key in
      if List.length heads >= 2 then
        match
          Db.merge_untagged ~resolver:Forkbase.Merge.Choose_left db ~key heads
        with
        | Ok _ | Error _ -> ())

(* Branch-table state as a comparable value. *)
let state_of db =
  List.map
    (fun key ->
      ( key,
        Db.list_tagged_branches db ~key,
        List.map Cid.to_hex (Db.list_untagged_branches db ~key) ))
    (Db.list_keys db)

let replay n =
  let db = Db.create (Fbchunk.Chunk_store.mem_store ()) in
  for i = 0 to n - 1 do
    apply_op db i
  done;
  state_of db

let check_fsck_clean db =
  let report = Fsck.check_db db in
  if not (Fsck.ok report) then
    Alcotest.fail
      (Format.asprintf "fsck after recovery: %a" Fsck.pp_report report)

(* Crash at an operation boundary: recovery must reproduce the acked state
   exactly — no "or one more" slack, every acked op is durable. *)
let run_cycle n () =
  Procs.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  let db = Persist.db p in
  for i = 0 to n - 1 do
    apply_op db i
  done;
  Persist.crash p;
  let p = Persist.open_db dir in
  let recovered = state_of (Persist.db p) in
  if recovered <> replay n then begin
    let show st =
      String.concat "\n"
        (List.map
           (fun (k, tagged, unt) ->
             Printf.sprintf "  %s tagged=[%s] untagged=[%s]" k
               (String.concat ";"
                  (List.map (fun (b, u) -> b ^ "=" ^ Cid.short_hex u) tagged))
               (String.concat ";" (List.map (fun h -> String.sub h 0 8) unt)))
           st)
    in
    Alcotest.fail
      (Printf.sprintf
         "recovered state is not exactly replay(%d)\nrecovered:\n%s\nreplay:\n%s"
         n
         (show recovered)
         (show (replay n)))
  end;
  check_fsck_clean (Persist.db p);
  (* post-recovery health: compaction still works and every surviving
     head still passes the tamper check *)
  let (_ : int * int) = Persist.compact p in
  let db = Persist.db p in
  List.iter
    (fun key ->
      List.iter
        (fun (_, uid) ->
          Alcotest.(check bool) "head verifies after crash + compact" true
            (Db.verify_version db uid))
        (Db.list_tagged_branches db ~key))
    (Db.list_keys db);
  check_fsck_clean db;
  Persist.close p

(* Tear the branch journal strictly inside its final entry — the torn
   record a crash mid-append leaves.  Recovery must drop exactly that
   entry: the state is the replay of the ops before the last mutating
   one, and fsck still finds nothing (chunks for the dropped op become
   mere garbage). *)
let run_torn_journal n () =
  Procs.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  let db = Persist.db p in
  let sizes = Array.make (n + 1) (Persist.journal_size p) in
  for i = 0 to n - 1 do
    apply_op db i;
    sizes.(i + 1) <- Persist.journal_size p
  done;
  Persist.crash p;
  (* last op that journaled anything; its entry spans (sizes m, sizes m+1] *)
  let m = ref (n - 1) in
  while !m >= 0 && sizes.(!m + 1) = sizes.(!m) do
    decr m
  done;
  let m = !m in
  Alcotest.(check bool) "workload journaled something" true (m >= 0);
  Alcotest.(check bool) "journal entries are at least 2 bytes" true
    (sizes.(m + 1) - sizes.(m) >= 2);
  let journal = Filename.concat dir "branches.journal" in
  Failpoint.tear_file journal ~drop:(sizes.(m + 1) - sizes.(m) - 1);
  let p = Persist.open_db dir in
  let recovered = state_of (Persist.db p) in
  if recovered <> replay m then
    Alcotest.fail
      (Printf.sprintf
         "state after torn journal entry is not exactly replay(%d)" m);
  check_fsck_clean (Persist.db p);
  Persist.close p

(* Tear the chunk log so a journaled head loses its meta chunk: recovery
   must refuse with a typed Corrupt_db, not a raw exception or a silently
   wrong state. *)
let run_torn_chunk_log () =
  Procs.with_temp_dir @@ fun dir ->
  let p = Persist.open_db dir in
  let db = Persist.db p in
  for i = 0 to 19 do
    apply_op db i
  done;
  (* a final put whose meta chunk is the last chunk-log record *)
  let (_ : Cid.t) = Db.put db ~key:"tail" ~context:"tail-op" (Db.str "end") in
  Persist.crash p;
  Failpoint.tear_file (Filename.concat dir "chunks.log") ~drop:1;
  (match Persist.open_db dir with
  | exception Persist.Corrupt_db (Persist.Missing_head { key; _ }) ->
      Alcotest.(check string) "the torn head is the tail put" "tail" key
  | exception e ->
      Alcotest.fail ("expected Corrupt_db, got " ^ Printexc.to_string e)
  | p ->
      Persist.close p;
      Alcotest.fail "open_db accepted a store missing a journaled head");
  (* the same store opened through fsck reports the damage instead of
     raising *)
  let report = Fsck.check_dir dir in
  Alcotest.(check bool) "fsck reports the bad head" false (Fsck.ok report)

let () =
  Alcotest.run "crash-harness"
    [
      ( "crash at op boundary",
        List.map
          (fun n ->
            Alcotest.test_case
              (Printf.sprintf "recover exactly replay(%d)" n)
              `Quick (run_cycle n))
          [ 1; 5; 25; 100; 400 ] );
      ( "torn files",
        [
          Alcotest.test_case "journal torn mid-entry (25 ops)" `Quick
            (run_torn_journal 25);
          Alcotest.test_case "journal torn mid-entry (120 ops)" `Quick
            (run_torn_journal 120);
          Alcotest.test_case "chunk log torn under a journaled head" `Quick
            run_torn_chunk_log;
        ] );
    ]
