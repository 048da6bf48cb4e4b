(* The repository's benchmark.  One command spawns real server processes
   (lib/remote, lib/persist, lib/shard), drives one seeded workload from
   this single load-generator process in a closed loop, checks every
   reply, and prints its metrics; the last line of standard output is a
   JSON object.  README.md says why each workload exists and which layer
   each per-layer metric stands for.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
   run and prints the per-layer metrics. *)

module Wire = Fbremote.Wire
module Client = Fbremote.Client
module Server = Fbremote.Server
module Persist = Fbpersist.Persist
module Dispatch = Fbshard.Dispatch
module Db = Forkbase.Db

let now = Spans.now

(* ------------------------------------------------------------------ *)
(* Server children                                                      *)

let child = function
  | [ "mem" ] ->
      let db = Db.create (Fbchunk.Chunk_store.mem_store ()) in
      let fd = Server.listen ~port:0 () in
      Children.hello ~ports:[ Server.bound_port fd ] ~pids:[ Unix.getpid () ];
      ignore (Server.serve db fd : Server.counters)
  | [ "durable"; dir ] ->
      (* opened as `forkbase serve` opens its store: journal fsync per
         operation, deferred to one group commit per event-loop round *)
      let p = Persist.open_db ~journal_sync_every:1 dir in
      Persist.set_deferred_sync p true;
      let fd = Server.listen ~port:0 () in
      Children.hello ~ports:[ Server.bound_port fd ] ~pids:[ Unix.getpid () ];
      ignore
        (Server.serve
           ~checkpoint:(fun () -> Persist.compact p)
           ~journal:(Fbreplica.Replica.journal_hooks p)
           ~group_commit:(fun () -> Persist.sync p)
           (Persist.db p) fd
          : Server.counters);
      Persist.close p
  | [ "cluster" ] ->
      (* in-memory shards under the ownership gating Shard.spawn_cluster
         sets up, so that routing, not fsync, is what dispatch-kv adds to
         kv-small *)
      let listeners = List.init 2 (fun _ -> Fbremote.Procs.listener ()) in
      let map =
        Fbshard.Shard_map.create ~version:1
          (List.map (fun (_, port) -> ("127.0.0.1", port)) listeners)
      in
      let procs =
        List.mapi
          (fun self l ->
            Fbremote.Procs.spawn_on l (fun fd ->
                let shard =
                  Server.shard_role ~self ~route:Fbcluster.Partition.servlet_of_key
                    ~persist_map:ignore map
                in
                let db = Db.create (Fbchunk.Chunk_store.mem_store ()) in
                ignore (Server.serve ~shard db fd : Server.counters)))
          listeners
      in
      Children.hello
        ~ports:(List.map snd listeners)
        ~pids:(List.map Fbremote.Procs.pid procs);
      let bad =
        List.filter_map
          (fun p ->
            match Unix.waitpid [] (Fbremote.Procs.pid p) with
            | _, Unix.WEXITED 0 -> None
            | _, st -> Some (Children.describe st))
          procs
      in
      if bad <> [] then failwith ("shard exited abnormally: " ^ String.concat ", " bad)
  | args -> failwith ("unknown child mode: " ^ String.concat " " args)

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

type server = Memory | Durable | Cluster

type workload = {
  name : string;
  server : server;
  streams : int;  (** connections the generator drives *)
  make_gens : seed:int -> Gen.t array;  (** one generator per connection *)
  warmup : int;  (** ops per connection before timing *)
  replay : int;  (** ops replayed in-process by the traced run *)
}

let kv_small =
  { name = "kv-small"; server = Memory; streams = 1;
    make_gens = (fun ~seed -> [| Gen.kv ~seed |]); warmup = 4000; replay = 20_000 }

(* kv-small's stream through one dispatcher onto 2 in-memory shard
   processes: routing, ownership gating and one connection per shard. *)
let dispatch_kv =
  { kv_small with name = "dispatch-kv"; server = Cluster; warmup = 2000 }

let workloads =
  [
    kv_small;
    { name = "wiki-blob"; server = Memory; streams = 1;
      make_gens = (fun ~seed -> [| Gen.wiki ~seed |]); warmup = 1200; replay = 1000 };
    dispatch_kv;
  ]

(* durable-commit is not an end-to-end workload: every put in it waits
   for an fsync, and on the disk this benchmark was built on, whose fsync
   latency drifts by 20% from minute to minute, its throughput and
   latencies moved by up to 30% between seeds, beyond the largest bound
   the benchmark may set.  kv-small's traced run drives it, and it gives
   the persist layer's per-layer metrics. *)

(* 2 connections of 64 B writes on a durable server with group commit. *)
let durable_commit =
  { name = "durable-commit"; server = Durable; streams = 2;
    make_gens = (fun ~seed -> Array.init 2 (fun conn -> Gen.accounts ~seed ~conn ~conns:2));
    warmup = 1000; replay = 10_000 }

let flush_policy = function
  | Memory | Cluster -> "none (in-memory store)"
  | Durable ->
      "journal fsync per op (journal_sync_every 1), deferred into one group commit per event-loop round"

(* ------------------------------------------------------------------ *)
(* Connections                                                          *)

type target = { call : Wire.request -> Wire.response; close : unit -> unit }

let client_target port =
  let c = Client.connect ~retries:100 ~port () in
  { call = Client.call c; close = (fun () -> Client.close c) }

(* The traced client: the same round trip as [Client.call], with the
   codec and the network wait timed apart. *)
let raw_target sp port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let call req =
    let body = Spans.with_span sp "client.encode" (fun () -> Wire.encode_request req) in
    let frame =
      Spans.with_span sp "net.roundtrip" (fun () ->
          Wire.write_frame fd body;
          Wire.read_frame fd)
    in
    match frame with
    | Some f -> Spans.with_span sp "client.decode" (fun () -> Wire.decode_response f)
    | None -> raise Client.Disconnected
  in
  { call; close = (fun () -> Unix.close fd) }

let dispatch_call d = function
  | Wire.Put { key; branch; context; value } ->
      Wire.Uid (Dispatch.put ~branch ~context d ~key value)
  | Wire.Get { key; branch } -> Wire.Value (Dispatch.get ~branch d ~key)
  | Wire.Fork { key; from_branch; new_branch } ->
      Dispatch.fork d ~key ~from_branch ~new_branch;
      Wire.Ok_unit
  | Wire.Merge { key; target; ref_branch; resolver } ->
      Wire.Uid (Dispatch.merge ~resolver d ~key ~target ~ref_branch)
  | _ -> invalid_arg "dispatch_call"

let dispatch_target d = { call = dispatch_call d; close = ignore }

type session = {
  child : Children.t;
  gens : Gen.t array;
  targets : target array;
  stats : unit -> Wire.stats list;  (** one per server process *)
  quit : unit -> unit;
  store : string option;  (** the durable store, for the crash check *)
}

let server_stats t =
  match t.call Wire.Stats with
  | Wire.Stats_r s -> [ s ]
  | _ -> failwith "Stats: unexpected response"

let spawn_session wl ~seed ~dir =
  let gens = wl.make_gens ~seed in
  let single child store =
    let port = List.hd child.Children.ports in
    let targets = Array.init wl.streams (fun _ -> client_target port) in
    { child; gens; targets; store;
      stats = (fun () -> server_stats targets.(0));
      quit = (fun () -> ignore (targets.(0).call Wire.Quit : Wire.response)) }
  in
  match wl.server with
  | Memory -> single (Children.spawn ~label:"in-memory server" [ "--child"; "mem" ]) None
  | Durable ->
      let store = Filename.concat dir "store" in
      single
        (Children.spawn ~label:"durable server" [ "--child"; "durable"; store ])
        (Some store)
  | Cluster ->
      let child = Children.spawn ~label:"shard cluster" [ "--child"; "cluster" ] in
      let map =
        Fbshard.Shard_map.create ~version:1
          (List.map (fun p -> ("127.0.0.1", p)) child.Children.ports)
      in
      let d = Dispatch.of_map map in
      { child; gens; targets = [| dispatch_target d |]; store = None;
        stats = (fun () -> Dispatch.stats d);
        quit = (fun () -> Dispatch.quit_all d) }

(* Graceful teardown: Quit, then every server must exit cleanly. *)
let close_session s =
  s.quit ();
  Array.iter (fun t -> t.close ()) s.targets;
  Children.expect_clean_exit s.child

(* ------------------------------------------------------------------ *)
(* The closed loop                                                      *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable user_bytes : int;
  mutable writes : int;
  lat : Stats.buf array;  (** seconds, by {!Gen.kind_index} *)
  done_at : Stats.buf;  (** completion times *)
}

let new_tally () =
  { attempted = 0; failed = 0; user_bytes = 0; writes = 0;
    lat = Array.init 4 (fun _ -> Stats.create ()); done_at = Stats.create () }

let merge_tallies ts =
  let m = new_tally () in
  Array.iter
    (fun t ->
      m.attempted <- m.attempted + t.attempted;
      m.failed <- m.failed + t.failed;
      m.user_bytes <- m.user_bytes + t.user_bytes;
      m.writes <- m.writes + t.writes;
      Array.iteri (fun i b -> Stats.append m.lat.(i) b) t.lat;
      Stats.append m.done_at t.done_at)
    ts;
  m

let describe_response = function
  | Wire.Error e -> "error: " ^ e
  | Wire.Redirect { host; port } -> Printf.sprintf "redirected to %s:%d" host port
  | Wire.Retry { reason } -> "refused (retry): " ^ reason
  | Wire.Value _ -> "a value that does not match the generator's copy"
  | _ -> "an unexpected response"

(* One operation.  It fails if it raises, is refused, or answers
   differently from the generator's copy; a failure counts as an
   infinite latency. *)
let exec tally target (op : Gen.op) =
  let t0 = now () in
  let resp = match target.call op.req with r -> Ok r | exception e -> Error e in
  let t1 = now () in
  tally.attempted <- tally.attempted + 1;
  tally.user_bytes <- tally.user_bytes + op.user_bytes;
  if op.kind <> Gen.Get then tally.writes <- tally.writes + 1;
  let ok = match resp with Ok r -> Gen.check op r | Error _ -> false in
  if ok then Stats.add tally.lat.(Gen.kind_index op.kind) (t1 -. t0)
  else begin
    tally.failed <- tally.failed + 1;
    Stats.add tally.lat.(Gen.kind_index op.kind) Float.infinity;
    if tally.failed <= 5 then
      Printf.eprintf "perfbench: %s failed: %s\n%!" (Gen.kind_name op.kind)
        (match resp with Error e -> Printexc.to_string e | Ok r -> describe_response r)
  end;
  Stats.add tally.done_at t1

(* Run [f i] for every connection, each in its own thread when there are
   several, so that each keeps one request outstanding. *)
let each_stream n f =
  if n = 1 then f 0
  else List.iter Thread.join (List.init n (fun i -> Thread.create f i))

let run_for s ~seconds tallies =
  let t0 = now () in
  let stop = t0 +. seconds in
  each_stream (Array.length s.targets) (fun i ->
      while now () < stop do
        exec tallies.(i) s.targets.(i) (s.gens.(i).next ())
      done);
  (t0, stop)

(* Completed ops per second over the phase. *)
let ops_per_s (t0, stop) (t : tally) = float_of_int (Stats.count t.done_at) /. (stop -. t0)

(* ... and in each of 20 equal windows of it, to show how steady the
   phase ran. *)
let window_rates (t0, stop) (t : tally) =
  let w = 20 in
  let len = (stop -. t0) /. float_of_int w in
  let counts = Array.make w 0 in
  for i = 0 to Stats.count t.done_at - 1 do
    let k = max 0 (min (w - 1) (int_of_float ((t.done_at.Stats.a.(i) -. t0) /. len))) in
    counts.(k) <- counts.(k) + 1
  done;
  Array.to_list (Array.map (fun c -> float_of_int c /. len) counts)

let total f stats = List.fold_left (fun a s -> a + f s) 0 stats

(* ------------------------------------------------------------------ *)
(* Set-up: spawn, preload, warm up                                      *)

type prepared = {
  session : session;
  setup_s : float;
  tally : tally;  (** preload and warm-up *)
  bytes_per_user_byte : float;  (** chunk-store growth over the warm-up *)
  rss_mb : float;  (** servers' peak RSS after the warm-up *)
}

let prepare wl ~seed ~dir =
  let t0 = now () in
  let s = spawn_session wl ~seed ~dir in
  let tallies = Array.init wl.streams (fun _ -> new_tally ()) in
  each_stream wl.streams (fun i -> List.iter (exec tallies.(i) s.targets.(i)) s.gens.(i).preload);
  let bytes0 = total (fun st -> st.Wire.bytes) (s.stats ()) in
  let user0 = Array.fold_left (fun a t -> a + t.user_bytes) 0 tallies in
  each_stream wl.streams (fun i ->
      for _ = 1 to wl.warmup do
        exec tallies.(i) s.targets.(i) (s.gens.(i).next ())
      done);
  let setup_s = now () -. t0 in
  let bytes1 = total (fun st -> st.Wire.bytes) (s.stats ()) in
  let user1 = Array.fold_left (fun a t -> a + t.user_bytes) 0 tallies in
  let rss_mb =
    List.fold_left (fun a pid -> a +. Children.peak_rss_mb pid) 0. s.child.server_pids
  in
  { session = s; setup_s; tally = merge_tallies tallies;
    bytes_per_user_byte =
      Stats.ratio (float_of_int (bytes1 - bytes0)) (float_of_int (user1 - user0));
    rss_mb }

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)

type metric = { mname : string; value : float; unit_ : string }

let metrics : metric list ref = ref []

let report ?(note = "") mname value unit_ =
  metrics := { mname; value; unit_ } :: !metrics;
  Printf.printf "metric %-34s %14.4f %-6s %s\n" mname value unit_ note

let us x = 1e6 *. x

type latency = { n : int; p50 : float; p90 : float; p99 : float }

(* Percentiles in microseconds; 0 when there are no samples. *)
let latency tally kind =
  let b = tally.lat.(Gen.kind_index kind) in
  let s = Stats.sorted b and n = Stats.count b in
  let q x = if n = 0 then 0. else us (Stats.quantile s x) in
  { n; p50 = q 0.5; p90 = q 0.9; p99 = q 0.99 }

let p99_note l =
  Printf.sprintf "(n=%d%s)" l.n
    (if Stats.supports l.n 0.99 then "" else "; fewer than 10 samples beyond p99")

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "1e300"

let print_result ~correct ~attempted ~failed =
  let ms =
    List.rev_map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.mname (json_number m.value) m.unit_)
      !metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

let git_rev () =
  let read f = String.trim (In_channel.with_open_text f In_channel.input_all) in
  match read ".git/HEAD" with
  | head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      try read (Filename.concat ".git" r) with Sys_error _ -> r)
  | head -> head
  | exception Sys_error _ -> "unknown (not a git checkout)"

(* Online CPUs of the machine ("0-1" in /sys), whatever this process's
   affinity. *)
let cpus_online () =
  match In_channel.with_open_text "/sys/devices/system/cpu/online" In_channel.input_all with
  | s ->
      String.split_on_char ',' (String.trim s)
      |> List.fold_left
           (fun n r ->
             match String.split_on_char '-' r with
             | [ a; b ] -> n + int_of_string b - int_of_string a + 1
             | _ -> n + 1)
           0
  | exception Sys_error _ -> Domain.recommended_domain_count ()

(* The CPUs this process may run on (its affinity), as /proc lists them. *)
let cpus_allowed () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_lines with
  | lines ->
      List.find_map
        (fun l ->
          match String.split_on_char ':' l with
          | [ "Cpus_allowed_list"; v ] -> Some (String.trim v)
          | _ -> None)
        lines
      |> Option.value ~default:"unknown"
  | exception Sys_error _ -> "unknown"

let host_facts () =
  Printf.printf "host nproc=%d ocaml=%s git=%s cpus_allowed=%s\n" (cpus_online ())
    Sys.ocaml_version (git_rev ()) (cpus_allowed ())

let run_facts wl ~dir =
  let device =
    match wl.server with
    | Memory | Cluster -> "memory"
    | Durable -> Children.fs_type dir
  in
  Printf.printf "run workload=%s connections=%d store=%s flush=%s\n" wl.name
    (if wl.server = Cluster then 2 else wl.streams) device (flush_policy wl.server)

(* ------------------------------------------------------------------ *)
(* Untraced run: the end-to-end metrics                                 *)

let setups = 3

(* A SIGKILLed durable server must leave every acknowledged write
   readable.  Process-crash durability only: the OS page cache survives
   the kill, so this does not show power-loss durability. *)
let crash_check s =
  Array.iter (fun t -> t.close ()) s.targets;
  Children.kill s.child;
  let dir = Option.get s.store in
  let p = Persist.open_db dir in
  let db = Persist.db p in
  let heads = Array.to_list s.gens |> List.concat_map (fun (g : Gen.t) -> g.heads ()) in
  let lost =
    List.fold_left
      (fun lost (key, branch, v) ->
        match Db.get ~branch db ~key with
        | Ok got when Server.to_wire_value got = v -> lost
        | Ok _ | Error _ -> lost + 1)
      0 heads
  in
  Persist.close p;
  Printf.printf
    "crash check (SIGKILL, then Persist.open_db; process crash only, the OS cache survives): %d heads, %d lost\n"
    (List.length heads) lost;
  lost

let run_untraced wl ~seed ~seconds ~dir =
  let preps = ref [] in
  for k = 1 to setups do
    let d = Filename.concat dir (Printf.sprintf "setup%d" k) in
    Children.mkdir_p d;
    let p = prepare wl ~seed ~dir:d in
    preps := p :: !preps;
    if k < setups then begin
      close_session p.session;
      Children.rm_rf d
    end
  done;
  let last = List.hd !preps in
  let s = last.session in
  let tallies = Array.init wl.streams (fun _ -> new_tally ()) in
  let window = run_for s ~seconds tallies in
  let timed = merge_tallies tallies in
  Printf.printf "info   window ops/s: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.0f") (window_rates window timed)));
  close_session s;
  Printf.printf "setups=%d setup_s each: %s\n" setups
    (String.concat " " (List.rev_map (fun p -> Printf.sprintf "%.4f" p.setup_s) !preps));
  report "setup_s" (Stats.median_list (List.map (fun p -> p.setup_s) !preps)) "s"
    ~note:(Printf.sprintf "(median of %d set-ups)" setups);
  report "ops_per_s" (ops_per_s window timed) "1/s"
    ~note:(Printf.sprintf "(%d ops in %.1fs)" timed.attempted seconds);
  (* p90 is the bounded tail: across seeds p99 moved by 13% to 85% (GC
     pauses, the host), beyond the largest bound allowed.  p99 is
     printed. *)
  List.iter
    (fun kind ->
      let l = latency timed kind and name = Gen.kind_name kind in
      let note = Printf.sprintf "(n=%d)" l.n in
      match kind with
      | Gen.Put | Gen.Get ->
          report (name ^ "_p50_us") l.p50 "us" ~note;
          report (name ^ "_p90_us") l.p90 "us" ~note;
          Printf.printf "info   %s_p99_us %.4f us %s\n" name l.p99 (p99_note l)
      | Gen.Merge | Gen.Fork when l.n > 0 ->
          Printf.printf "info   %s_p50_us %.4f us %s\ninfo   %s_p99_us %.4f us %s\n" name l.p50
            note name l.p99 (p99_note l)
      | Gen.Merge | Gen.Fork -> ())
    Gen.kinds;
  report "bytes_stored_per_user_byte" last.bytes_per_user_byte "ratio"
    ~note:(Printf.sprintf "(chunk-store growth over the %d warm-up ops per connection)" wl.warmup);
  report "server_rss_mb" last.rss_mb "MiB" ~note:"(VmHWM after the warm-up, all server processes)";
  let all = merge_tallies (Array.of_list (timed :: List.map (fun p -> p.tally) !preps)) in
  Printf.printf "info   failed_frac %.6f (%d of %d ops)\n"
    (Stats.ratio (float_of_int all.failed) (float_of_int all.attempted)) all.failed all.attempted;
  (all.attempted, all.failed)

(* ------------------------------------------------------------------ *)
(* Traced run: the per-layer metrics                                    *)

(* Sum of span durations per op, over spans whose name is in [names]. *)
let per_op spans names =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun (s : Spans.span) ->
      if List.mem s.name names then
        Hashtbl.replace tbl s.op
          ((s.t1 -. s.t0) +. Option.value ~default:0. (Hashtbl.find_opt tbl s.op)))
    spans;
  tbl

(* Median over the ops of [kind] (all when [None]) of a per-op sum;
   ops with no such span count as 0. *)
let median_per_op ?kind (r : Replay.result) tbl =
  let b = Stats.create () in
  Array.iteri
    (fun op k ->
      if Option.fold ~none:true ~some:(( = ) k) kind then
        Stats.add b (Option.value ~default:0. (Hashtbl.find_opt tbl op)))
    r.kinds;
  if Stats.count b = 0 then 0. else us (Stats.quantile (Stats.sorted b) 0.5)

let count_kind (r : Replay.result) k =
  Array.fold_left (fun n k' -> if k' = k then n + 1 else n) 0 r.kinds

let out_dir = ".perfbench_out"

(* A stream that is not an end-to-end workload: one set-up, then a
   quarter of the run untraced, with the servers' counters around it. *)
type side = {
  tally : tally;
  rate : float;  (** ops/s *)
  before : Wire.stats list;
  after : Wire.stats list;
}

let run_side wl ~seed ~seconds ~dir =
  let d = Filename.concat dir wl.name in
  Children.mkdir_p d;
  run_facts wl ~dir:d;
  let p = prepare wl ~seed ~dir:d in
  let s = p.session in
  let before = s.stats () in
  let ts = Array.init wl.streams (fun _ -> new_tally ()) in
  let window = run_for s ~seconds:(seconds /. 4.) ts in
  let after = s.stats () in
  let t = merge_tallies ts in
  let lost = if wl.server = Durable then crash_check s else (close_session s; 0) in
  let all = merge_tallies [| p.tally; t |] in
  all.failed <- all.failed + lost;
  ({ tally = t; rate = ops_per_s window t; before; after }, all)

let delta f side = total f side.after - total f side.before

let run_traced wl ~seed ~seconds ~dir =
  Children.mkdir_p out_dir;
  let file part = Filename.concat out_dir (Printf.sprintf "%s-seed%d-%s.jsonl" wl.name seed part) in
  let failed = ref 0 and attempted = ref 0 in
  let count t =
    attempted := !attempted + t.attempted;
    failed := !failed + t.failed
  in
  let d = Filename.concat dir "served" in
  Children.mkdir_p d;
  let p = prepare wl ~seed ~dir:d in
  count p.tally;
  let s = p.session in
  let ut = Array.init wl.streams (fun _ -> new_tally ()) in
  let stats0 = s.stats () in
  let uw = run_for s ~seconds:(seconds /. 2.) ut in
  let stats1 = s.stats () in
  let untraced = merge_tallies ut in
  let sps = Array.init wl.streams (fun _ -> Spans.create ()) in
  let traced_targets =
    Array.init wl.streams (fun i ->
        match wl.server with
        | Cluster ->
            (* the dispatcher's calls are timed whole *)
            let t = s.targets.(i) in
            { call = (fun r -> Spans.with_span sps.(i) "dispatch.call" (fun () -> t.call r));
              close = ignore }
        | Memory | Durable -> raw_target sps.(i) (List.hd s.child.ports))
  in
  (* every op is a root span "op.<kind>" around its client-side spans *)
  let tt = Array.init wl.streams (fun _ -> new_tally ()) in
  let t0 = now () in
  let stop = t0 +. (seconds /. 2.) in
  each_stream wl.streams (fun i ->
      let sp = sps.(i) and n = ref 0 in
      sp.Spans.on <- true;
      while now () < stop do
        let op = s.gens.(i).next () in
        Spans.set_op sp ((i * 100_000_000) + !n);
        incr n;
        Spans.with_span sp ("op." ^ Gen.kind_name op.kind) (fun () ->
            exec tt.(i) traced_targets.(i) op)
      done);
  Array.iter (fun sp -> sp.Spans.on <- false) sps;
  let traced = merge_tallies tt in
  Array.iter (fun t -> t.close ()) traced_targets;
  close_session s;
  count untraced;
  count traced;
  let served_spans = Array.to_list sps |> List.concat_map Spans.spans in
  Spans.dump ~path:(file "served") ~label:"served" served_spans;
  (* in-process replays on identically built dbs *)
  let replay (w : workload) mode name =
    let store =
      match w.server with
      | Memory | Cluster -> Replay.Memory
      | Durable -> Replay.Durable (Filename.concat dir name)
    in
    let r =
      Replay.run ~mode ~store ~streams:(w.make_gens ~seed) ~warmup:w.warmup ~count:w.replay
    in
    Spans.dump ~path:(file name) ~label:name r.spans;
    attempted := !attempted + w.replay;
    failed := !failed + r.failed;
    r
  in
  let ra = replay wl Replay.Served "replay-served" in
  let rb = replay wl Replay.Decomposed "replay-layers" in
  let sa = Spans.summarize ra.spans and sb = Spans.summarize rb.spans in
  let side w =
    let sd, all = run_side w ~seed ~seconds ~dir in
    count all;
    sd
  in
  (* kv-small's traced run drives the durable-commit stream *)
  let durable =
    if wl.name = kv_small.name then
      let dc = side durable_commit in
      Some (dc, replay durable_commit Replay.Served "durable-replay")
    else None
  in
  (* dispatch-kv's drives kv-small's stream, served directly, as the
     base of the dispatcher's overhead *)
  let direct = if wl.server = Cluster then Some (side kv_small) else None in
  (* -- metrics -- *)
  let e2e_ops = ops_per_s uw untraced in
  let traced_ops = ops_per_s (t0, stop) traced in
  report "trace_overhead" (1. -. Stats.ratio traced_ops e2e_ops) "frac"
    ~note:(Printf.sprintf "(traced %.1f vs untraced %.1f ops/s, same run)" traced_ops e2e_ops);
  report "e2e.ops_per_s" e2e_ops "1/s" ~note:"(untraced phase of this run)";
  report "e2e.traced_ops_per_s" traced_ops "1/s";
  let put50 = (latency untraced Gen.Put).p50 and get50 = (latency untraced Gen.Get).p50 in
  report "e2e.put_p50_us" put50 "us" ~note:"(base of the put shares)";
  report "e2e.get_p50_us" get50 "us" ~note:"(base of the get shares)";
  let m = latency untraced Gen.Merge in
  report "e2e.merge_p50_us" m.p50 "us" ~note:(Printf.sprintf "(n=%d)" m.n);
  report "e2e.merge_p99_us" (if Stats.supports m.n 0.99 then m.p99 else 0.) "us"
    ~note:(p99_note m ^ if Stats.supports m.n 0.99 then "" else " (so reported as 0)");
  (* wire *)
  let enc = per_op ra.spans [ "wire.encode_request"; "wire.encode_response" ] in
  let dec = per_op ra.spans [ "wire.decode_request"; "wire.decode_response" ] in
  let codec = per_op ra.spans
      [ "wire.encode_request"; "wire.encode_response"; "wire.decode_request"; "wire.decode_response" ]
  in
  report "wire.encode_us" (median_per_op ra enc) "us" ~note:"(request + response, per op)";
  report "wire.decode_us" (median_per_op ra dec) "us" ~note:"(request + response, per op)";
  report "wire.bytes_per_op" (Stats.ratio (float_of_int ra.wire_bytes) (float_of_int wl.replay))
    "count" ~note:(Printf.sprintf "(%d bytes / %d ops)" ra.wire_bytes wl.replay);
  (* server *)
  List.iter
    (fun k ->
      let name = Gen.kind_name k in
      report ("server.handle_us." ^ name) (Spans.median_dur_us sa ("server.handle." ^ name)) "us"
        ~note:(Printf.sprintf "(n=%d)" (count_kind ra k)))
    Gen.kinds;
  let loop k e2e =
    if e2e = 0. then 0.
    else
      e2e
      -. median_per_op ~kind:k ra codec
      -. Spans.median_dur_us sa ("server.handle." ^ Gen.kind_name k)
  in
  let loop_put = loop Gen.Put put50 and loop_get = loop Gen.Get get50 in
  report "server.loop_us.put" loop_put "us" ~note:"(by difference: e2e p50 - codec - handle)";
  report "server.loop_us.get" loop_get "us" ~note:"(by difference: e2e p50 - codec - handle)";
  report "server.loop_share.get" (Stats.ratio loop_get get50) "frac"
    ~note:(Printf.sprintf "(of get p50 %.2f us)" get50);
  (* db and pos_tree *)
  report "db.commit_us" (Spans.median_self_us sb "db.commit") "us" ~note:"(self time)";
  report "db.merge_us" (Spans.median_self_us sb "db.merge") "us" ~note:"(self time)";
  let build = Spans.median_self_us sb "pos_tree.build" in
  report "pos_tree.build_us" build "us" ~note:"(self time)";
  report "pos_tree.build_share.put" (Stats.ratio build put50) "frac"
    ~note:(Printf.sprintf "(of put p50 %.2f us)" put50);
  report "pos_tree.read_us" (Spans.median_self_us sb "pos_tree.read") "us" ~note:"(self time)";
  let names = Hashtbl.create 4096 in
  List.iter (fun (sp : Spans.span) -> Hashtbl.replace names sp.id sp.name) rb.spans;
  let tree_chunks =
    List.length
      (List.filter
         (fun (sp : Spans.span) ->
           sp.name = "chunk_store.put" && Hashtbl.find_opt names sp.parent = Some "pos_tree.build")
         rb.spans)
  in
  let puts_b = count_kind rb Gen.Put in
  report "pos_tree.chunks_per_put" (Stats.ratio (float_of_int tree_chunks) (float_of_int puts_b))
    "count" ~note:(Printf.sprintf "(%d chunks / %d puts)" tree_chunks puts_b);
  (* sha256 and rolling *)
  let time_of name =
    match Hashtbl.find_opt sb name with Some sm -> Stats.sum sm.Spans.dur | None -> 0.
  in
  let mbps bytes t = if t = 0. then 0. else float_of_int bytes /. t /. 1e6 in
  report "sha256.us_per_op" (median_per_op ~kind:Gen.Put rb (per_op rb.spans [ "sha256.digest" ]))
    "us" ~note:"(per put: every chunk the put handed the store)";
  report "sha256.mb_per_s" (mbps rb.hashed_bytes (time_of "sha256.digest")) "MB/s"
    ~note:(Printf.sprintf "(%d bytes)" rb.hashed_bytes);
  report "rolling.us_per_op" (median_per_op ~kind:Gen.Put rb (per_op rb.spans [ "rolling.scan" ]))
    "us" ~note:"(per put: boundary scan of the put's blob bytes)";
  report "rolling.mb_per_s" (mbps rb.scanned_bytes (time_of "rolling.scan")) "MB/s"
    ~note:(Printf.sprintf "(%d bytes)" rb.scanned_bytes);
  (* chunk store *)
  report "chunk_store.put_us" (Spans.median_dur_us sa "chunk_store.put") "us"
    ~note:"(per call; includes the SHA-256 that derives the cid)";
  report "chunk_store.get_us" (Spans.median_dur_us sa "chunk_store.get") "us" ~note:"(per call)";
  report "chunk_store.puts_per_op" (Stats.ratio (float_of_int ra.store_puts) (float_of_int wl.replay))
    "count" ~note:(Printf.sprintf "(%d puts / %d ops)" ra.store_puts wl.replay);
  let gets_in_gets =
    List.length
      (List.filter
         (fun (sp : Spans.span) -> sp.name = "chunk_store.get" && ra.kinds.(sp.op) = Gen.Get)
         ra.spans)
  in
  let n_gets = count_kind ra Gen.Get in
  report "chunk_store.gets_per_get" (Stats.ratio (float_of_int gets_in_gets) (float_of_int n_gets))
    "count" ~note:(Printf.sprintf "(%d store gets / %d get ops)" gets_in_gets n_gets);
  report "chunk_store.dedup_ratio"
    (Stats.ratio (float_of_int ra.store_dedup_hits) (float_of_int ra.store_puts)) "frac"
    ~note:(Printf.sprintf "(%d hits / %d puts)" ra.store_dedup_hits ra.store_puts);
  (* persist: the durable-commit stream *)
  let on_durable f = match durable with None -> 0. | Some d -> f d in
  let gcs, acks, writes =
    match durable with
    | None -> (0, 0, 0)
    | Some (dc, _) ->
        ( delta (fun st -> st.Wire.group_commits) dc,
          delta (fun st -> st.Wire.acks_released) dc,
          dc.tally.writes )
  in
  let durable_replay =
    match durable with None -> Hashtbl.create 1 | Some (_, rd) -> Spans.summarize rd.Replay.spans
  in
  report "durable.ops_per_s" (on_durable (fun (dc, _) -> dc.rate)) "1/s"
    ~note:"(durable-commit stream, 2 connections)";
  report "durable.put_p50_us" (on_durable (fun (dc, _) -> (latency dc.tally Gen.Put).p50)) "us";
  report "durable.get_p50_us" (on_durable (fun (dc, _) -> (latency dc.tally Gen.Get).p50)) "us";
  report "server.acks_per_sync" (Stats.ratio (float_of_int acks) (float_of_int gcs)) "count"
    ~note:(Printf.sprintf "(%d acks / %d group commits, durable-commit stream)" acks gcs);
  report "persist.syncs_per_put" (Stats.ratio (float_of_int gcs) (float_of_int writes)) "count"
    ~note:(Printf.sprintf "(%d group commits / %d writes, durable-commit stream)" gcs writes);
  report "persist.sync_us" (Spans.median_dur_us durable_replay "persist.sync") "us"
    ~note:"(Persist.sync after each replayed write of the durable-commit stream)";
  report "durable.chunk_store.get_us" (Spans.median_dur_us durable_replay "chunk_store.get") "us"
    ~note:"(store get through the chunk log, replayed durable-commit stream)";
  let jb, lb, ub =
    match durable with
    | None -> (0, 0, 0)
    | Some (_, rd) -> (rd.Replay.journal_bytes, rd.log_bytes, rd.user_bytes)
  in
  report "journal.bytes_per_op"
    (on_durable (fun _ -> Stats.ratio (float_of_int jb) (float_of_int durable_commit.replay)))
    "count" ~note:(Printf.sprintf "(%d bytes / %d replayed ops, durable-commit stream)" jb
                     durable_commit.replay);
  report "log_store.bytes_per_user_byte" (Stats.ratio (float_of_int lb) (float_of_int ub)) "ratio"
    ~note:(Printf.sprintf "(%d chunk-log bytes / %d user bytes, durable-commit stream)" lb ub);
  (* dispatch: this run's untraced phase against kv-small's stream
     served directly *)
  let over k =
    match direct with
    | None -> 0.
    | Some kv -> (latency untraced k).p50 -. (latency kv.tally k).p50
  in
  report "dispatch.overhead_us.put" (over Gen.Put) "us"
    ~note:"(by difference: dispatch-kv p50 - kv-small p50)";
  report "dispatch.overhead_us.get" (over Gen.Get) "us"
    ~note:"(by difference: dispatch-kv p50 - kv-small p50)";
  let frames =
    if wl.server = Cluster then
      List.map2 (fun a b -> b.Wire.frames_in - a.Wire.frames_in) stats0 stats1
    else []
  in
  let fsum = List.fold_left ( + ) 0 frames in
  report "dispatch.shard_share_max"
    (Stats.ratio (float_of_int (List.fold_left max 0 frames)) (float_of_int fsum)) "frac"
    ~note:(Printf.sprintf "(busiest shard's frames of %d)" fsum);
  (* the span table: self time per span name *)
  List.iter
    (fun (label, spans) ->
      let tbl = Spans.summarize spans in
      Hashtbl.fold (fun name sm acc -> (name, sm) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (name, sm) ->
             Printf.printf "span %-14s %-26s calls=%-7d median_dur_us=%.3f median_self_us=%.3f\n"
               label name (Stats.count sm.Spans.dur) (Spans.median_dur_us tbl name)
               (Spans.median_self_us tbl name)))
    [ ("served", served_spans); ("replay-served", ra.spans); ("replay-layers", rb.spans) ];
  (!attempted, !failed)

(* ------------------------------------------------------------------ *)

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME kv-small | wiki-blob");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced run (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  let tmp = ".perfbench_tmp" in
  let dir = Filename.concat tmp (Printf.sprintf "run-%d" (Unix.getpid ())) in
  let cleanup () =
    Children.rm_rf dir;
    try Unix.rmdir tmp with Unix.Unix_error _ -> () (* other runs still use it *)
  in
  Children.mkdir_p dir;
  Wire.ignore_sigpipe ();
  host_facts ();
  run_facts wl ~dir;
  let seconds = float_of_int !seconds in
  match
    if !trace = 0 then run_untraced wl ~seed:!seed ~seconds ~dir
    else run_traced wl ~seed:!seed ~seconds ~dir
  with
  | attempted, failed ->
      cleanup ();
      let correct = failed = 0 in
      print_result ~correct ~attempted ~failed;
      exit (if correct then 0 else 1)
  | exception e ->
      Children.kill_all ();
      cleanup ();
      Printf.eprintf "perfbench: run failed: %s\n%!" (Printexc.to_string e);
      exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: "--child" :: args -> child args
  | _ -> main ()
