(* Replication benchmarks (lib/replica):

   1. Follower catch-up throughput — a primary commits N journaled
      operations; a cold follower then tails the whole journal over a
      real socket (pull + chunk backfill + apply).  Reported as applied
      entries/s, with the chunk-backfill volume.

   2. Read scaling — a fixed read workload against one primary alone,
      then split across the primary plus a caught-up serving follower.
      The paper's motivation for followers is exactly this: reads scale
      out while the primary keeps exclusive ownership of writes. *)

module Cid = Fbchunk.Cid
module Client = Fbremote.Client
module Wire = Fbremote.Wire
module Replica = Fbreplica.Replica
module Procs = Fbremote.Procs

(* Commit [ops] writes on the primary: small strings plus periodic
   multi-chunk blobs, so catch-up pays for real chunk backfill. *)
let load_primary c ~ops ~blob_every ~blob_size =
  for i = 1 to ops do
    let key = Printf.sprintf "k%d" (i mod 50) in
    let (_ : Cid.t) =
      if i mod blob_every = 0 then
        Client.put c ~key
          (Wire.Blob (String.init blob_size (fun j -> Char.chr ((i + j) land 0xff))))
      else Client.put c ~key (Wire.Str (Printf.sprintf "value-%d" i))
    in
    ()
  done

let catch_up scale =
  Bench_util.section "Replication: cold-follower catch-up throughput";
  let ops = Bench_util.pick scale 2_000 20_000 in
  Bench_util.row_header
    [ "ops"; "entries/s"; "chunks_fetched"; "pulls"; "elapsed(s)" ];
  Procs.with_temp_dir @@ fun pdir ->
  Procs.with_temp_dir @@ fun fdir ->
  let primary = Fbreplica.Proc.spawn_primary ~dir:pdir () in
  Fun.protect ~finally:(fun () -> Procs.kill primary) @@ fun () ->
  let port = Procs.port primary in
  let c = Client.connect ~retries:20 ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  load_primary c ~ops ~blob_every:20 ~blob_size:40_000;
  let f = Replica.open_follower ~dir:fdir ~host:"127.0.0.1" ~port () in
  Fun.protect ~finally:(fun () -> Replica.close f) @@ fun () ->
  let elapsed, () =
    Bench_util.time_it (fun () ->
        Replica.sync_until_caught_up ~max_rounds:100_000 f)
  in
  let k = Replica.counters f in
  Bench_json.metric ~name:"catch_up_entries_per_sec"
    ~value:(float_of_int k.Replica.entries_applied /. elapsed)
    ~unit:"entries/s";
  Bench_json.metric ~name:"catch_up_chunks_fetched"
    ~value:(float_of_int k.Replica.chunks_fetched)
    ~unit:"chunks";
  Bench_util.row
    [
      string_of_int ops;
      Printf.sprintf "%.0f" (float_of_int k.Replica.entries_applied /. elapsed);
      string_of_int k.Replica.chunks_fetched;
      string_of_int k.Replica.pulls;
      Printf.sprintf "%.2f" elapsed;
    ];
  Client.quit_server c

let read_scaling scale =
  Bench_util.section
    "Replication: read scaling, primary alone vs primary + follower";
  let total_ops = Bench_util.pick scale 4_000 40_000 in
  let readers = 4 in
  Bench_util.row_header
    [ "servers"; "readers"; "reads"; "throughput(Kops/s)" ];
  Procs.with_temp_dir @@ fun pdir ->
  Procs.with_temp_dir @@ fun fdir ->
  let primary = Fbreplica.Proc.spawn_primary ~dir:pdir () in
  Fun.protect ~finally:(fun () -> Procs.kill primary) @@ fun () ->
  let pport = Procs.port primary in
  let c = Client.connect ~retries:20 ~port:pport () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  load_primary c ~ops:200 ~blob_every:50 ~blob_size:20_000;
  let primary_seq = (Client.stats c).Wire.journal_seq in
  let follower =
    Fbreplica.Proc.spawn_follower ~dir:fdir ~host:"127.0.0.1"
      ~primary_port:pport ()
  in
  Fun.protect ~finally:(fun () -> Procs.kill follower) @@ fun () ->
  let fport = Procs.port follower in
  (* wait for the follower to drain its lag before measuring *)
  let fc = Client.connect ~retries:20 ~port:fport () in
  let deadline = Unix.gettimeofday () +. 30. in
  let rec await () =
    if (Client.stats fc).Wire.journal_seq >= primary_seq then ()
    else if Unix.gettimeofday () > deadline then
      failwith "bench_replica: follower never caught up"
    else begin
      Unix.sleepf 0.05;
      await ()
    end
  in
  await ();
  Client.close fc;
  List.iter
    (fun ports ->
      (* reader [w] reads from server [w mod #servers] *)
      let throughput =
        Bench_util.closed_loop ~workers:readers ~ops:(total_ops / readers)
          ~connect:(fun w ->
            Bench_util.connect (List.nth ports (w mod List.length ports)))
          (fun c _ i ->
            ignore
              (Client.get c ~key:(Printf.sprintf "k%d" (i mod 50))
                : Wire.value))
      in
      Bench_json.metric
        ~name:
          (Printf.sprintf "read_scaling_%d_servers_tput" (List.length ports))
        ~value:throughput ~unit:"ops/s";
      Bench_util.row
        [
          string_of_int (List.length ports);
          string_of_int readers;
          string_of_int total_ops;
          Printf.sprintf "%.1f" (throughput /. 1000.0);
        ])
    [ [ pport ]; [ pport; fport ] ];
  let qc = Client.connect ~retries:5 ~port:fport () in
  Client.quit_server qc;
  Client.close qc;
  Client.quit_server c

let replica scale =
  catch_up scale;
  read_scaling scale
