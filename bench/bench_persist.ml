(* Durability experiments (lib/persist): the cost of journaled puts
   against the in-memory engine, recovery (reopen) time with and without a
   checkpoint, and online compaction throughput.  Not a paper figure —
   ForkBase's evaluation runs on a durable store throughout; this isolates
   what that durability costs in our reproduction. *)

module Cid = Fbchunk.Cid
module Db = Forkbase.Db
module Persist = Fbpersist.Persist
module U = Bench_util
module Procs = Fbremote.Procs

let fill db n =
  for i = 1 to n do
    let (_ : Cid.t) =
      Db.put db
        ~key:(Printf.sprintf "k%d" (i mod 16))
        (Db.str (Printf.sprintf "value-%d" i))
    in
    ()
  done

let durability scale =
  let n = U.pick scale 2_000 50_000 in

  U.section "Durable put throughput";
  U.row_header [ "backend"; "puts/s" ];
  let elapsed, () =
    U.time_it (fun () ->
        let db = Db.create (Fbchunk.Chunk_store.mem_store ()) in
        fill db n)
  in
  U.row [ "in-memory"; Printf.sprintf "%.0f" (float_of_int n /. elapsed) ];
  Bench_json.metric ~name:"in_memory_puts_per_sec"
    ~value:(float_of_int n /. elapsed) ~unit:"ops/s";
  List.iter
    (fun (label, metric_name, journal_sync_every) ->
      Procs.with_temp_dir @@ fun dir ->
      let p = Persist.open_db ~journal_sync_every dir in
      let elapsed, () = U.time_it (fun () -> fill (Persist.db p) n) in
      U.row [ label; Printf.sprintf "%.0f" (float_of_int n /. elapsed) ];
      Bench_json.metric ~name:metric_name
        ~value:(float_of_int n /. elapsed) ~unit:"ops/s";
      Persist.close p)
    [
      ("journal, fsync per op", "journal_fsync_per_op_puts_per_sec", 1);
      ("journal, fsync per 64 ops", "journal_fsync_per_64_puts_per_sec", 64);
    ];

  U.section "Recovery time (reopen + journal replay)";
  Procs.with_temp_dir @@ fun dir ->
  let p = Persist.open_db ~journal_sync_every:64 dir in
  fill (Persist.db p) n;
  Persist.close p;
  U.row_header [ "journal"; "size"; "reopen" ];
  let t_replay, p2 = U.time_it (fun () -> Persist.open_db dir) in
  U.row
    [
      Printf.sprintf "%d entries" n;
      U.human_bytes (Persist.journal_size p2);
      U.ms t_replay ^ "ms";
    ];
  Bench_json.metric ~name:"reopen_replay" ~value:(t_replay *. 1000.) ~unit:"ms";
  Bench_json.metric ~name:"journal_bytes"
    ~value:(float_of_int (Persist.journal_size p2))
    ~unit:"bytes";
  Persist.checkpoint p2;
  Persist.close p2;
  let t_ckpt, p3 = U.time_it (fun () -> Persist.open_db dir) in
  U.row
    [
      "checkpointed";
      U.human_bytes (Persist.journal_size p3);
      U.ms t_ckpt ^ "ms";
    ];
  Bench_json.metric ~name:"reopen_after_checkpoint" ~value:(t_ckpt *. 1000.)
    ~unit:"ms";

  U.section "Online compaction";
  (* orphan value trees (aborted operations) to create garbage *)
  let db = Persist.db p3 in
  for i = 1 to U.pick scale 50 500 do
    let (_ : Fbtypes.Value.t) = Db.blob db (String.make 8192 (Char.chr (i land 0xff))) in
    ()
  done;
  let garbage_chunks, garbage_bytes = Persist.garbage_stats p3 in
  let log_before = Persist.chunk_log_size p3 in
  let t_compact, (reclaimed_chunks, reclaimed_bytes) =
    U.time_it (fun () -> Persist.compact p3)
  in
  U.row_header
    [ "garbage"; "reclaimed"; "log before"; "log after"; "compact" ];
  U.row
    [
      Printf.sprintf "%d chunks (%s)" garbage_chunks (U.human_bytes garbage_bytes);
      Printf.sprintf "%d chunks (%s)" reclaimed_chunks (U.human_bytes reclaimed_bytes);
      U.human_bytes log_before;
      U.human_bytes (Persist.chunk_log_size p3);
      U.ms t_compact ^ "ms";
    ];
  Bench_json.metric ~name:"compact_time" ~value:(t_compact *. 1000.) ~unit:"ms";
  Bench_json.metric ~name:"compact_reclaimed_bytes"
    ~value:(float_of_int reclaimed_bytes) ~unit:"bytes";
  Persist.close p3
