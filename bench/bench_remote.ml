(* Multi-client serving throughput over the real TCP server: the baseline
   for future sharded/replicated serving work.  One server process runs
   the select event loop over an in-memory db; 1/4/16 concurrent client
   processes each run a closed-loop put+get workload on private keys. *)

module Server = Fbremote.Server
module Client = Fbremote.Client
module Wire = Fbremote.Wire
module Persist = Fbpersist.Persist
module Procs = Fbremote.Procs

(* Server children over a wide backlog, so 16 clients connecting at once
   never wait on a dropped SYN. *)
let spawn serve =
  let listen_fd = Server.listen ~backlog:64 ~port:0 () in
  Procs.spawn_on (listen_fd, Server.bound_port listen_fd) serve

let spawn_server () =
  spawn (fun listen_fd ->
      let db = Forkbase.Db.create (Fbchunk.Chunk_store.mem_store ()) in
      ignore (Server.serve db listen_fd : Server.counters))

(* A server over a durable store with per-op journal fsyncs, optionally
   batching them via the event loop's group commit.  Either way every
   acknowledged put is power-loss durable before its ack leaves. *)
let spawn_durable_server ~dir ~group_commit () =
  spawn (fun listen_fd ->
      let p = Persist.open_db ~journal_sync_every:1 dir in
      let gc =
        if group_commit then begin
          Persist.set_deferred_sync p true;
          Some (fun () -> Persist.sync p)
        end
        else None
      in
      Fun.protect ~finally:(fun () -> Persist.close p) @@ fun () ->
      ignore (Server.serve ?group_commit:gc (Persist.db p) listen_fd
              : Server.counters))

(* [clients] client processes, each running [ops] round trips of [op] on
   its own key; the throughput credits only work every child finished. *)
let drive ~server ~clients ~ops op =
  let port = Procs.port server in
  let elapsed, () =
    Bench_util.time_it (fun () ->
        Bench_util.fork_workers clients (fun id ->
            let c = Client.connect ~retries:20 ~port () in
            let key = Printf.sprintf "bench-%d" id in
            for i = 1 to ops do
              op c ~key i
            done;
            Client.close c)
          ())
  in
  (* orderly teardown so the next round starts from a fresh server *)
  let c = Client.connect ~retries:20 ~port () in
  let stats = Client.stats c in
  Client.quit_server c;
  Client.close c;
  Procs.reap server;
  (float_of_int (clients * ops) /. elapsed, stats)

(* Alternating put and get round trips on an in-memory server. *)
let run_experiment ~clients ~total_ops ~value_size =
  let payload = String.make value_size 'x' in
  drive ~server:(spawn_server ()) ~clients ~ops:(total_ops / clients)
    (fun c ~key i ->
      if i land 1 = 1 then
        ignore
          (Client.put c ~key (Wire.Str (payload ^ string_of_int i))
            : Fbchunk.Cid.t)
      else ignore (Client.get c ~key : Wire.value))

(* Durable-write throughput: [clients] concurrent writers, every put
   journaled and fsynced before its ack.  Compares per-op fsync against
   group commit (one fsync per event-loop round, shared by the round's
   writers). *)
let run_durable ~clients ~total_ops ~value_size ~group_commit =
  Procs.with_temp_dir @@ fun dir ->
  let payload = String.make value_size 'x' in
  drive
    ~server:(spawn_durable_server ~dir ~group_commit ())
    ~clients ~ops:(total_ops / clients)
    (fun c ~key i ->
      ignore
        (Client.put c ~key (Wire.Str (payload ^ string_of_int i))
          : Fbchunk.Cid.t))

let remote scale =
  Bench_util.section
    "Remote serving: multi-client throughput (select event loop)";
  let total_ops = Bench_util.pick scale 8_000 80_000 in
  let value_size = 128 in
  Bench_util.row_header
    [ "#clients"; "ops"; "throughput(Kops/s)"; "frames_in"; "closed_err" ];
  List.iter
    (fun clients ->
      let throughput, s = run_experiment ~clients ~total_ops ~value_size in
      Bench_json.metric
        ~name:(Printf.sprintf "in_memory_%d_clients_tput" clients)
        ~value:throughput ~unit:"ops/s";
      Bench_util.row
        [
          string_of_int clients;
          string_of_int total_ops;
          Printf.sprintf "%.1f" (throughput /. 1000.0);
          string_of_int s.Wire.frames_in;
          string_of_int s.Wire.closed_err;
        ])
    [ 1; 4; 16 ];

  Bench_util.section
    "Durable writes: per-op fsync vs group commit (8 concurrent writers)";
  let clients = 8 in
  let durable_ops = Bench_util.pick scale 2_000 16_000 in
  Bench_util.row_header
    [ "mode"; "puts/s"; "group_commits"; "acks/sync" ];
  let baseline, _ =
    run_durable ~clients ~total_ops:durable_ops ~value_size
      ~group_commit:false
  in
  Bench_util.row
    [ "fsync per op"; Printf.sprintf "%.0f" baseline; "0"; "-" ];
  Bench_json.metric ~name:"durable_8_clients_per_op_fsync_tput"
    ~value:baseline ~unit:"ops/s";
  let grouped, s =
    run_durable ~clients ~total_ops:durable_ops ~value_size ~group_commit:true
  in
  let acks_per_sync =
    if s.Wire.group_commits = 0 then 0.
    else float_of_int s.Wire.acks_released /. float_of_int s.Wire.group_commits
  in
  Bench_util.row
    [
      "group commit";
      Printf.sprintf "%.0f" grouped;
      string_of_int s.Wire.group_commits;
      Printf.sprintf "%.2f" acks_per_sync;
    ];
  Bench_json.metric ~name:"durable_8_clients_group_commit_tput" ~value:grouped
    ~unit:"ops/s";
  Bench_json.metric ~name:"group_commit_speedup" ~value:(grouped /. baseline)
    ~unit:"x";
  Bench_json.metric ~name:"group_commit_acks_per_sync" ~value:acks_per_sync
    ~unit:"acks/fsync";
  Printf.printf "group commit speedup over per-op fsync: %.2fx\n%!"
    (grouped /. baseline)
