(* Figure 8 (scalability with multiple servlets) and Figure 15 (storage
   distribution under skew). *)

module Db = Forkbase.Db
module Store = Fbchunk.Chunk_store

(* Figure 8: near-linear scaling, projected.  Per-request service times
   are measured on the real single-servlet code path, then fed to the
   discrete-event cluster simulator (see DESIGN.md §1.3 for the
   substitution argument) — so every throughput here is a projection,
   and its metrics carry a [projected_] prefix. *)
let fig8 scale =
  Bench_util.section
    "Figure 8: Scalability with multiple servlets (projected by Event_sim)";
  let requests_per_node = Bench_util.pick scale 20_000 100_000 in
  let sizes = [ 256; 2_560 ] in
  let measure_service size =
    let db = Db.create (Store.mem_store ()) in
    let content = Workload.Text_edit.initial_page ~seed:5L ~size in
    let n = ref 0 in
    let put_ns =
      Bench_util.time_avg ~runs:2000 (fun () ->
          incr n;
          Db.put db ~key:(Printf.sprintf "k%d" (!n mod 1024)) (Db.blob db content))
    in
    let get_ns =
      Bench_util.time_avg ~runs:2000 (fun () ->
          incr n;
          Db.get db ~key:(Printf.sprintf "k%d" (!n mod 1024)))
    in
    (get_ns, put_ns)
  in
  Bench_util.row_header [ "#nodes"; "op"; "size"; "throughput(Kops/s)" ];
  List.iter
    (fun size ->
      let get_s, put_s = measure_service size in
      List.iter
        (fun (op, service) ->
          List.iter
            (fun nodes ->
              let r =
                Fbcluster.Event_sim.run
                  {
                    Fbcluster.Event_sim.servlets = nodes;
                    (* the paper's 32 load clients saturate a servlet;
                       keep offered load proportional to cluster size *)
                    clients = 32 * nodes;
                    requests = requests_per_node * nodes / 4;
                    service_time = (fun () -> service);
                    network_delay = 0.0001;
                    route =
                      (fun i ->
                        Fbcluster.Partition.servlet_of_key ~servlets:nodes
                          (Printf.sprintf "key-%d" i));
                  }
              in
              Bench_json.metric
                ~name:
                  (Printf.sprintf "projected_%s_%dB_%d_nodes_tput" op size
                     nodes)
                ~value:r.Fbcluster.Event_sim.throughput ~unit:"ops/s";
              Bench_util.row
                [
                  string_of_int nodes;
                  op;
                  string_of_int size;
                  Printf.sprintf "%.1f" (r.Fbcluster.Event_sim.throughput /. 1000.0);
                ])
            [ 1; 2; 4; 8; 12; 16 ])
        [ ("Get", get_s); ("Put", put_s) ])
    sizes

(* Figure 15: storage distribution across 16 nodes under a zipf(0.5)
   workload, one-layer vs two-layer partitioning. *)
let fig15 scale =
  Bench_util.section "Figure 15: Storage distribution in skewed workloads (zipf 0.5)";
  let nodes = 16 in
  let pages = Bench_util.pick scale 400 3_200 in
  let requests = Bench_util.pick scale 3_000 120_000 in
  let run mode label metric_prefix =
    let cluster = Fbcluster.Cluster.create ~n:nodes mode in
    let rng = Fbutil.Splitmix.create 41L in
    let zipf = Workload.Zipf.create ~n:pages ~theta:0.5 in
    let contents = Hashtbl.create pages in
    for _ = 1 to requests do
      let p = Workload.Zipf.sample zipf rng in
      let page = Printf.sprintf "page%05d" p in
      let current =
        match Hashtbl.find_opt contents p with
        | Some c -> c
        | None -> Workload.Text_edit.initial_page ~seed:(Int64.of_int p) ~size:(15 * 1024)
      in
      let edit =
        Workload.Text_edit.random_edit rng ~page_len:(String.length current)
          ~update_ratio:0.9 ~edit_size:200
      in
      let next = Workload.Text_edit.apply current edit in
      Hashtbl.replace contents p next;
      let db = Fbcluster.Cluster.db_for_key cluster page in
      ignore (Db.put db ~key:page (Db.blob db next))
    done;
    let dist = Fbcluster.Cluster.storage_distribution cluster in
    Bench_util.subsection label;
    Bench_util.row_header [ "node"; "bytes" ];
    Array.iteri
      (fun i b -> Bench_util.row [ string_of_int i; Bench_util.human_bytes b ])
      dist;
    Bench_json.metric
      ~name:(metric_prefix ^ "_imbalance")
      ~value:(Fbcluster.Cluster.imbalance cluster)
      ~unit:"max/mean";
    Printf.printf "imbalance (max/mean): %.2f\n%!" (Fbcluster.Cluster.imbalance cluster)
  in
  run Fbcluster.Cluster.One_layer "ForkBase_1LP (page content stored locally)"
    "one_layer";
  run Fbcluster.Cluster.Two_layer "ForkBase_2LP (chunks partitioned by cid)"
    "two_layer"

(* The real thing, de-simulated: put throughput over 1/2/4 actual shard
   processes (each a lib/persist store behind a lib/remote server,
   group commit on), driven by forked client workers through the
   map-caching dispatcher — plus a chaos pass on the 4-shard cluster:
   one shard SIGKILLed and respawned and one live fence/copy/lift
   rebalance under a concurrent writer, with every acknowledged write
   verified afterwards and every store fsck'd. *)

module Shard = Fbshard.Shard
module Shard_map = Fbshard.Shard_map
module Dispatch = Fbshard.Dispatch
module Procs = Fbremote.Procs
module Wire = Fbremote.Wire
module Fsck = Fbcheck.Fsck

let shard_dirs scratch n =
  List.init n (fun i -> Filename.concat scratch (Printf.sprintf "shard-%d" i))

let put_throughput ~shards ~workers ~ops_per_worker ~value_bytes =
  Procs.with_temp_dir @@ fun scratch ->
  let procs, map = Shard.spawn_cluster ~dirs:(shard_dirs scratch shards) () in
  Fun.protect ~finally:(fun () -> List.iter Procs.kill procs) @@ fun () ->
  let value = Wire.Str (String.make value_bytes 'x') in
  (* each worker drives its own dispatcher: real multi-process load *)
  Bench_util.closed_loop ~workers ~ops:ops_per_worker
    ~connect:(fun _ ->
      let d = Dispatch.of_map map in
      (Dispatch.client d, fun () -> Dispatch.close d))
    (fun c w i ->
      ignore
        (Fbremote.Client.put c ~key:(Printf.sprintf "w%d-key-%d" w i) value
          : Fbchunk.Cid.t))

(* The chaos pass: a writer child appends every acknowledged write to a
   log; the parent SIGKILLs + respawns one shard, then live-adds a
   fifth, and finally replays the log against the cluster — every line
   was acked, so every line must read back. *)
let chaos_pass ~ops =
  Procs.with_temp_dir @@ fun scratch ->
  let shards = 4 in
  let dirs = shard_dirs scratch shards in
  let procs, map = Shard.spawn_cluster ~dirs () in
  let procs = ref procs in
  let extra = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter Procs.kill !procs;
      List.iter Procs.kill !extra)
  @@ fun () ->
  let ack_log = Filename.concat scratch "acked.log" in
  let join =
    Bench_util.fork_workers 1 (fun _ ->
        let d = Dispatch.of_map map in
        let oc = open_out ack_log in
        for i = 1 to ops do
          let key = Printf.sprintf "key-%d" (i mod 512) in
          let value = Printf.sprintf "v%d" i in
          ignore (Dispatch.put d ~key (Wire.Str value) : Fbchunk.Cid.t);
          (* the write is acknowledged; log it before the next op so a
             lost ack is provable from the file *)
          Printf.fprintf oc "%s %s\n" key value;
          flush oc
        done;
        close_out oc;
        Dispatch.close d)
  in
  let lines_logged () =
    match open_in ack_log with
    | exception Sys_error _ -> 0
    | ic ->
        let n = ref 0 in
        (try
           while true do
             ignore (input_line ic);
             incr n
           done
         with End_of_file -> ());
        close_in ic;
        !n
  in
  let wait_for_lines n =
    while lines_logged () < n do
      Unix.sleepf 0.02
    done
  in
  (* at 1/3 of the writer's run: SIGKILL shard 0 and respawn it on its
     port over its surviving store *)
  wait_for_lines (ops / 3);
  let victim = List.nth !procs 0 in
  let port0 = Procs.port victim in
  Procs.kill victim;
  let revived =
    Shard.spawn ~port:port0 ~dir:(List.nth dirs 0) ~self:0 ~map ()
  in
  procs := revived :: List.tl !procs;
  (* at 2/3: grow the cluster live while the writer keeps writing *)
  wait_for_lines (2 * ops / 3);
  let dir4 = Filename.concat scratch "shard-4" in
  let joiner = Shard.spawn ~dir:dir4 ~self:shards ~map () in
  extra := [ joiner ];
  let d = Dispatch.of_map map in
  let moved = Dispatch.add_shard d ~host:"127.0.0.1" ~port:(Procs.port joiner) in
  join ();
  (* replay the ack log: last value per key must read back *)
  let expected = Hashtbl.create 512 in
  let acked = ref 0 in
  let ic = open_in ack_log in
  (try
     while true do
       let line = input_line ic in
       match String.index_opt line ' ' with
       | Some sp ->
           incr acked;
           Hashtbl.replace expected
             (String.sub line 0 sp)
             (String.sub line (sp + 1) (String.length line - sp - 1))
       | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  let lost = ref 0 in
  Hashtbl.iter
    (fun key value ->
      match Dispatch.get d ~key with
      | Wire.Str got when got = value -> ()
      | _ -> incr lost
      | exception _ -> incr lost)
    expected;
  Dispatch.quit_all d;
  List.iter Procs.reap !procs;
  List.iter Procs.reap !extra;
  let fsck_violations =
    List.fold_left
      (fun acc dir ->
        acc + List.length (Fsck.check_dir dir).Fsck.violations)
      0
      (dirs @ [ dir4 ])
  in
  (!acked, !lost, moved, fsck_violations)

let sharded scale =
  Bench_util.section
    "Sharded serving: real processes, dispatcher routing, rebalance";
  let workers = 16 in
  let value_bytes = 64 in
  (* The headline curve [sharded_put_tput_N], measured end to end
     (dispatcher -> shard process -> journal -> group commit -> ack) with
     every shard and client process sharing one host's [host_cores]
     cores.  A single server already amortizes one fsync over every
     connection, so sharding on one host mostly splits the batch.
     Measured, not projected. *)
  Bench_json.metric ~name:"host_cores"
    ~value:(float_of_int (Domain.recommended_domain_count ()))
    ~unit:"cores";
  let ops_per_worker = Bench_util.pick scale 1_500 10_000 in
  Bench_util.subsection "one host, group commit";
  Bench_util.row_header [ "#shards"; "put throughput (Kops/s)"; "speedup" ];
  let base = ref 0.0 in
  List.iter
    (fun shards ->
      let tput =
        put_throughput ~shards ~workers ~ops_per_worker ~value_bytes
      in
      if shards = 1 then base := tput;
      Bench_json.metric
        ~name:(Printf.sprintf "sharded_put_tput_%d" shards)
        ~value:tput ~unit:"ops/s";
      Bench_json.metric
        ~name:(Printf.sprintf "sharded_put_speedup_%d" shards)
        ~value:(tput /. !base) ~unit:"x";
      Bench_util.row
        [
          string_of_int shards;
          Printf.sprintf "%.1f" (tput /. 1000.0);
          Printf.sprintf "%.2fx" (tput /. !base);
        ])
    [ 1; 2; 4 ];
  Bench_util.subsection
    "chaos: SIGKILL+respawn and a live rebalance under a writer";
  let ops = Bench_util.pick scale 3_000 12_000 in
  let acked, lost, moved, fsck_violations = chaos_pass ~ops in
  Printf.printf
    "acked=%d lost=%d keys_moved=%d fsck_violations=%d\n%!" acked lost moved
    fsck_violations;
  Bench_json.metric ~name:"chaos_acked_writes" ~value:(float_of_int acked)
    ~unit:"ops";
  Bench_json.metric ~name:"chaos_lost_acked_writes" ~value:(float_of_int lost)
    ~unit:"ops";
  Bench_json.metric ~name:"chaos_keys_moved" ~value:(float_of_int moved)
    ~unit:"keys";
  Bench_json.metric ~name:"chaos_fsck_violations"
    ~value:(float_of_int fsck_violations) ~unit:"violations"
