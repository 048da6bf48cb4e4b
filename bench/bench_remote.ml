(* Multi-client serving throughput over the real TCP server: the baseline
   for future sharded/replicated serving work.  One server process runs
   the select event loop over an in-memory db; 1/4/16 concurrent client
   processes each run a closed-loop put+get workload on private keys.
   Then the durable path: 8 writers against a `forkbase serve` primary. *)

module Server = Fbremote.Server
module Client = Fbremote.Client
module Wire = Fbremote.Wire
module Procs = Fbremote.Procs

let spawn_server () =
  Procs.spawn (fun listen_fd ->
      let db = Forkbase.Db.create (Fbchunk.Chunk_store.mem_store ()) in
      ignore (Server.serve db listen_fd : Server.counters))

(* [clients] closed-loop client processes against [server], each running
   [ops] round trips of [op] on its own key; then an orderly teardown
   (so the next round starts from a fresh server) that returns the
   server's final counters beside the throughput. *)
let measure server ~clients ~ops op =
  Fun.protect ~finally:(fun () -> Procs.kill server) @@ fun () ->
  let port = Procs.port server in
  let throughput =
    Bench_util.closed_loop ~workers:clients ~ops
      ~connect:(fun _ -> Bench_util.connect port)
      (fun c w i -> op c ~key:(Printf.sprintf "bench-%d" w) i)
  in
  let c, close = Bench_util.connect port in
  let stats = Client.stats c in
  Client.quit_server c;
  close ();
  Procs.reap server;
  (throughput, stats)

let put c ~key payload i =
  ignore
    (Client.put c ~key (Wire.Str (payload ^ string_of_int i)) : Fbchunk.Cid.t)

(* Alternating put and get round trips on an in-memory server. *)
let run_experiment ~clients ~total_ops ~value_size =
  let payload = String.make value_size 'x' in
  measure (spawn_server ()) ~clients ~ops:(total_ops / clients)
    (fun c ~key i ->
      if i land 1 = 1 then put c ~key payload i
      else ignore (Client.get c ~key : Wire.value))

(* Durable-write throughput: [clients] concurrent writers against the
   durable serving path, every put journaled and group-committed (one
   fsync per event-loop round, shared by the round's writers) before its
   ack. *)
let run_durable ~clients ~total_ops ~value_size =
  Procs.with_temp_dir @@ fun dir ->
  let payload = String.make value_size 'x' in
  measure
    (Fbreplica.Proc.spawn_primary ~dir ())
    ~clients ~ops:(total_ops / clients)
    (fun c ~key i -> put c ~key payload i)

let remote scale =
  Bench_util.section
    "Remote serving: multi-client throughput (select event loop)";
  Bench_json.metric ~name:"host_cores"
    ~value:(float_of_int (Domain.recommended_domain_count ()))
    ~unit:"cores";
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

  Bench_util.section "Durable writes: group commit (8 concurrent writers)";
  let clients = 8 in
  let durable_ops = Bench_util.pick scale 2_000 16_000 in
  Bench_util.row_header [ "puts/s"; "group_commits"; "acks/sync" ];
  let grouped, s = run_durable ~clients ~total_ops:durable_ops ~value_size in
  let acks_per_sync =
    if s.Wire.group_commits = 0 then 0.
    else float_of_int s.Wire.acks_released /. float_of_int s.Wire.group_commits
  in
  Bench_util.row
    [
      Printf.sprintf "%.0f" grouped;
      string_of_int s.Wire.group_commits;
      Printf.sprintf "%.2f" acks_per_sync;
    ];
  Bench_json.metric ~name:"durable_8_clients_group_commit_tput" ~value:grouped
    ~unit:"ops/s";
  Bench_json.metric ~name:"group_commit_acks_per_sync" ~value:acks_per_sync
    ~unit:"acks/fsync"
