(* The network service: wire codecs (property-tested), a real TCP round
   trip against a forked server process, and fault isolation of the
   multiplexed event loop — concurrent clients, a client SIGKILLed
   mid-request, oversized/truncated frames, idle timeouts. *)

module Wire = Fbremote.Wire
module Server = Fbremote.Server
module Client = Fbremote.Client
module Cid = Fbchunk.Cid
module Persist = Fbpersist.Persist
module Procs = Fbremote.Procs

(* --- codecs --- *)

let gen_value =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Wire.Str s) string;
        map (fun s -> Wire.Blob s) string;
        map (fun l -> Wire.List l) (small_list string);
        map (fun l -> Wire.Map l) (small_list (pair string string));
        map (fun l -> Wire.Set l) (small_list string);
      ])

let gen_cid = QCheck.Gen.map (fun s -> Cid.digest s) QCheck.Gen.string

let gen_shard_map =
  QCheck.Gen.(
    map
      (fun (version, shards, pending) ->
        { Wire.version; shards = Array.of_list shards; pending })
      (triple small_nat (small_list (pair string small_nat)) (small_list string)))

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun (key, branch) value ->
            Wire.Put { key; branch; context = "ctx"; value })
          (pair string string) gen_value;
        map (fun (key, branch) -> Wire.Get { key; branch }) (pair string string);
        map (fun uid -> Wire.Get_version { uid }) gen_cid;
        map
          (fun (key, a, b) -> Wire.Fork { key; from_branch = a; new_branch = b })
          (triple string string string);
        map
          (fun (key, t, r) -> Wire.Merge { key; target = t; ref_branch = r; resolver = "left" })
          (triple string string string);
        map
          (fun (key, lo, hi) -> Wire.Track { key; branch = "master"; lo; hi })
          (triple string small_nat small_nat);
        return Wire.List_keys;
        map (fun key -> Wire.List_branches { key }) string;
        map (fun uid -> Wire.Verify { uid }) gen_cid;
        return Wire.Stats;
        return Wire.Checkpoint;
        map (fun from_seq -> Wire.Pull_journal { from_seq }) small_nat;
        map (fun cids -> Wire.Fetch_chunks { cids }) (small_list gen_cid);
        return Wire.Get_map;
        map (fun map -> Wire.Set_map { map }) gen_shard_map;
        map (fun chunks -> Wire.Push_chunks { chunks }) (small_list string);
        map
          (fun ((key, branch), uid) -> Wire.Restore_branch { key; branch; uid })
          (pair (pair string string) gen_cid);
        map (fun key -> Wire.Export_key { key }) string;
        return Wire.Quit;
      ])

let gen_stats =
  QCheck.Gen.(
    map
      (function
        | [ chunks; bytes; puts; dedup_hits; gets; misses; keys; branches;
            journal_seq; journal_bytes;
            accepted; active; closed_ok; closed_err; frames_in; frames_out;
            timeouts; group_commits; acks_released; shard_index; map_version ] ->
            Wire.Stats_r
              { chunks; bytes; puts; dedup_hits; gets; misses; keys; branches;
                journal_seq; journal_bytes;
                accepted; active; closed_ok; closed_err; frames_in; frames_out;
                timeouts; group_commits; acks_released;
                (* -1 = "not a shard" is a legal wire value *)
                shard_index = shard_index - 1; map_version }
        | _ -> assert false)
      (list_repeat 21 small_nat))

let gen_response =
  QCheck.Gen.(
    oneof
      [
        map (fun uid -> Wire.Uid uid) gen_cid;
        map (fun v -> Wire.Value v) gen_value;
        return Wire.Ok_unit;
        map (fun ks -> Wire.Keys ks) (small_list string);
        map (fun bs -> Wire.Branches bs) (small_list (pair string gen_cid));
        map (fun hs -> Wire.History hs) (small_list (pair small_nat gen_cid));
        map (fun b -> Wire.Bool b) bool;
        gen_stats;
        map (fun (chunks, bytes) -> Wire.Reclaimed { chunks; bytes })
          (pair small_nat small_nat);
        map
          (fun (primary_seq, entries) -> Wire.Journal_batch { primary_seq; entries })
          (pair small_nat (small_list string));
        map (fun cs -> Wire.Chunks cs) (small_list string);
        map (fun (host, port) -> Wire.Redirect { host; port })
          (pair string small_nat);
        map (fun m -> Wire.Map_r m) gen_shard_map;
        map (fun reason -> Wire.Retry { reason }) string;
        map (fun m -> Wire.Error m) string;
      ])

let prop_request_roundtrip =
  QCheck.Test.make ~name:"wire request round-trip" ~count:300
    (QCheck.make gen_request)
    (fun req -> Wire.decode_request (Wire.encode_request req) = req)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"wire response round-trip" ~count:300
    (QCheck.make gen_response)
    (fun resp -> Wire.decode_response (Wire.encode_response resp) = resp)

(* --- framing hardening --- *)

let header_of n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.unsafe_to_string b

let test_read_frame_limit () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> List.iter (fun fd -> try Unix.close fd with _ -> ()) [ a; b ])
    (fun () ->
      (* a hostile header announcing ~3.9 GiB must be rejected before the
         body buffer is allocated *)
      let huge = 0xF000_0000 in
      ignore (Unix.write_substring a (header_of huge) 0 4);
      match Wire.read_frame ~max_frame_bytes:(1 lsl 20) b with
      | exception Fbutil.Codec.Corrupt _ -> ()
      | _ -> Alcotest.fail "oversized frame accepted")

(* --- handler semantics without sockets --- *)

let test_handle () =
  let db = Forkbase.Db.create (Fbchunk.Chunk_store.mem_store ()) in
  (match
     Server.handle db
       (Wire.Put { key = "k"; branch = "master"; context = ""; value = Wire.Str "v" })
   with
  | Wire.Uid _ -> ()
  | _ -> Alcotest.fail "put");
  (match Server.handle db (Wire.Get { key = "k"; branch = "master" }) with
  | Wire.Value (Wire.Str "v") -> ()
  | _ -> Alcotest.fail "get");
  (match Server.handle db (Wire.Get { key = "nope"; branch = "master" }) with
  | Wire.Error _ -> ()
  | _ -> Alcotest.fail "unknown key should error");
  (match Server.handle db Wire.List_keys with
  | Wire.Keys [ "k" ] -> ()
  | _ -> Alcotest.fail "keys");
  (match Server.handle db Wire.Stats with
  | Wire.Stats_r s ->
      Alcotest.(check int) "one key" 1 s.Wire.keys;
      Alcotest.(check int) "one branch" 1 s.Wire.branches;
      Alcotest.(check bool) "chunks counted" true (s.Wire.chunks > 0)
  | _ -> Alcotest.fail "stats");
  (* no durable store behind this db: checkpoint must refuse, not crash *)
  match Server.handle db Wire.Checkpoint with
  | Wire.Error _ -> ()
  | _ -> Alcotest.fail "checkpoint on volatile store should error"

(* 512 distinct max-size blob leaves: the most a [Fetch_chunks] request
   may name, each as large as a leaf gets ([max_leaf_bytes], 16 KiB).
   Answering all of them would be an 8 MiB frame; the byte budget cuts
   the answer to a request-order prefix that fits the frame limit. *)
let test_fetch_answer_bounded () =
  let db = Forkbase.Db.create (Fbchunk.Chunk_store.mem_store ()) in
  let store = Forkbase.Db.store db in
  let leaf_bytes = Fbtree.Tree_config.default.Fbtree.Tree_config.max_leaf_bytes in
  let cids =
    List.init Server.max_fetch_chunks (fun i ->
        store.Fbchunk.Chunk_store.put
          (Fbchunk.Chunk.v Fbchunk.Chunk.Blob
             (String.init leaf_bytes (fun j -> Char.chr ((i * 131 + j) land 0xff)))))
  in
  match Server.handle db (Wire.Fetch_chunks { cids }) with
  | Wire.Chunks encs as resp ->
      let frame = String.length (Wire.encode_response resp) in
      Alcotest.(check bool)
        (Printf.sprintf "answer frame %d <= %d" frame Wire.default_max_frame_bytes)
        true
        (frame <= Wire.default_max_frame_bytes);
      Alcotest.(check bool) "at least one chunk" true (encs <> []);
      Alcotest.(check (list string))
        "a request-order prefix"
        (List.filteri (fun i _ -> i < List.length encs) cids |> List.map Cid.to_hex)
        (List.map (fun enc -> Cid.to_hex (Fbchunk.Chunk.cid (Fbchunk.Chunk.decode enc))) encs)
  | _ -> Alcotest.fail "fetch_chunks"

(* A peer whose answer header announces a frame over the limit: the
   client reports a typed protocol error, not a codec exception. *)
let test_bad_response_frame () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close listener) @@ fun () ->
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 1;
  let port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let peer, _ = Unix.accept listener in
  Fun.protect ~finally:(fun () -> Unix.close peer) @@ fun () ->
  ignore (Unix.write_substring peer (header_of (5 * 1024 * 1024)) 0 4);
  match Client.stats c with
  | exception Client.Protocol_error _ -> ()
  | exception e -> Alcotest.failf "untyped failure: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "oversized answer accepted"

(* --- server-process plumbing --- *)

(* A server child on an ephemeral port serving a fresh in-memory db
   until Quit — shared plumbing in Testnet (which also SIGKILLs and
   reaps the child if the test fails before Quit). *)
let with_server ?config f = Testnet.with_mem_server ?config f

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* --- full TCP round trip --- *)

let test_tcp_session () =
  with_server @@ fun port ->
  let c = Client.connect ~retries:5 ~port () in
  (* a realistic session: put, fork, edit, merge, track, verify *)
  let v1 = Client.put c ~key:"page" (Wire.Blob "hello network") in
  Client.fork c ~key:"page" ~from_branch:"master" ~new_branch:"draft";
  let (_ : Cid.t) =
    Client.put ~branch:"draft" c ~key:"page" (Wire.Blob "hello network, edited")
  in
  (match Client.get ~branch:"draft" c ~key:"page" with
  | Wire.Blob "hello network, edited" -> ()
  | _ -> Alcotest.fail "draft content");
  (match Client.get c ~key:"page" with
  | Wire.Blob "hello network" -> ()
  | _ -> Alcotest.fail "master isolated");
  let merged =
    Client.merge ~resolver:"right" c ~key:"page" ~target:"master"
      ~ref_branch:"draft"
  in
  (match Client.get c ~key:"page" with
  | Wire.Blob "hello network, edited" -> ()
  | _ -> Alcotest.fail "merged content");
  let history = Client.track c ~key:"page" ~lo:0 ~hi:10 in
  Alcotest.(check bool) "history reaches v1" true
    (List.exists (fun (_, uid) -> Cid.equal uid v1) history);
  Alcotest.(check bool) "verify over the wire" true (Client.verify c merged);
  Alcotest.(check (list string)) "keys" [ "page" ] (Client.list_keys c);
  (* maps over the wire *)
  let (_ : Cid.t) =
    Client.put c ~key:"scores" (Wire.Map [ ("a", "1"); ("b", "2") ])
  in
  (match Client.get c ~key:"scores" with
  | Wire.Map [ ("a", "1"); ("b", "2") ] -> ()
  | _ -> Alcotest.fail "map round trip");
  Client.quit_server c;
  Client.close c

(* --- concurrent serving & fault isolation --- *)

let test_two_interleaved_clients () =
  with_server @@ fun port ->
  let c1 = Client.connect ~retries:5 ~port () in
  let c2 = Client.connect ~retries:5 ~port () in
  (* interleave requests request-by-request on the same server *)
  for i = 1 to 10 do
    let v = Printf.sprintf "v%d" i in
    let (_ : Cid.t) = Client.put c1 ~key:"alpha" (Wire.Str ("a" ^ v)) in
    let (_ : Cid.t) = Client.put c2 ~key:"beta" (Wire.Str ("b" ^ v)) in
    (match Client.get c1 ~key:"beta" with
    | Wire.Str s -> Alcotest.(check string) "c1 sees c2 writes" ("b" ^ v) s
    | _ -> Alcotest.fail "beta type");
    match Client.get c2 ~key:"alpha" with
    | Wire.Str s -> Alcotest.(check string) "c2 sees c1 writes" ("a" ^ v) s
    | _ -> Alcotest.fail "alpha type"
  done;
  let s = Client.stats c1 in
  Alcotest.(check int) "both connections accepted" 2 s.Wire.accepted;
  Alcotest.(check int) "both connections active" 2 s.Wire.active;
  Alcotest.(check bool) "frames counted" true (s.Wire.frames_in >= 40);
  Client.quit_server c1;
  Client.close c1;
  Client.close c2

let test_killed_client_is_isolated () =
  with_server @@ fun port ->
  let survivor = Client.connect ~retries:5 ~port () in
  let (_ : Cid.t) = Client.put survivor ~key:"k" (Wire.Str "before") in
  (* a second client sends half a request frame and is then SIGKILLed *)
  let victim =
    match Unix.fork () with
    | 0 ->
        (try
           let fd = raw_connect port in
           (* header announces 64 bytes; send only 7 *)
           ignore (Unix.write_substring fd (header_of 64) 0 4);
           ignore (Unix.write_substring fd "partial" 0 7);
           Unix.sleepf 30.
         with _ -> ());
        Unix._exit 0
    | pid -> pid
  in
  Unix.sleepf 0.3 (* let the partial frame reach the server *);
  Unix.kill victim Sys.sigkill;
  ignore (Unix.waitpid [] victim);
  Unix.sleepf 0.3 (* let the server observe the EOF *);
  (* the survivor completes all its operations against the same process *)
  for i = 1 to 5 do
    let v = Printf.sprintf "after%d" i in
    let (_ : Cid.t) = Client.put survivor ~key:"k" (Wire.Str v) in
    match Client.get survivor ~key:"k" with
    | Wire.Str s -> Alcotest.(check string) "survivor round trip" v s
    | _ -> Alcotest.fail "survivor value type"
  done;
  let s = Client.stats survivor in
  Alcotest.(check int) "one errored close" 1 s.Wire.closed_err;
  Alcotest.(check int) "survivor still active" 1 s.Wire.active;
  Client.quit_server survivor;
  Client.close survivor

let test_oversized_frame_rejected () =
  let config = { Server.default_config with Server.max_frame_bytes = 1024 } in
  with_server ~config @@ fun port ->
  let witness = Client.connect ~retries:5 ~port () in
  let fd = raw_connect port in
  (* announce far more than the limit; send no body at all *)
  ignore (Unix.write_substring fd (header_of 10_000_000) 0 4);
  (match Wire.read_frame fd with
  | Some frame -> (
      match Wire.decode_response frame with
      | Wire.Error msg ->
          Alcotest.(check bool) "error names the limit" true
            (String.length msg > 0)
      | _ -> Alcotest.fail "expected an Error response")
  | None -> Alcotest.fail "expected an error frame before the close");
  Alcotest.(check bool) "connection then closed" true (Wire.read_frame fd = None);
  Unix.close fd;
  (* the server survives and keeps serving others *)
  let (_ : Cid.t) = Client.put witness ~key:"w" (Wire.Str "alive") in
  let s = Client.stats witness in
  Alcotest.(check int) "oversized close recorded as error" 1 s.Wire.closed_err;
  Client.quit_server witness;
  Client.close witness

let test_truncated_frame_close () =
  with_server @@ fun port ->
  let witness = Client.connect ~retries:5 ~port () in
  let fd = raw_connect port in
  (* claim 50 bytes, deliver 5, vanish *)
  ignore (Unix.write_substring fd (header_of 50) 0 4);
  ignore (Unix.write_substring fd "stub!" 0 5);
  Unix.close fd;
  Unix.sleepf 0.3;
  let (_ : Cid.t) = Client.put witness ~key:"w" (Wire.Str "alive") in
  let s = Client.stats witness in
  Alcotest.(check int) "truncated close recorded as error" 1 s.Wire.closed_err;
  Client.quit_server witness;
  Client.close witness

let test_idle_timeout () =
  let config = { Server.default_config with Server.idle_timeout = 0.3 } in
  with_server ~config @@ fun port ->
  let idle = Client.connect ~retries:5 ~port () in
  let (_ : Cid.t) = Client.put idle ~key:"k" (Wire.Str "v") in
  Unix.sleepf 0.9;
  (* the idle connection was reaped server-side *)
  (match Client.get idle ~key:"k" with
  | exception Client.Disconnected -> ()
  | _ -> Alcotest.fail "idle connection should be closed");
  Client.close idle;
  let fresh = Client.connect ~retries:5 ~port () in
  let s = Client.stats fresh in
  Alcotest.(check int) "timeout recorded" 1 s.Wire.timeouts;
  Client.quit_server fresh;
  Client.close fresh

(* --- the event loop's clock is injected, not wall time --- *)

let with_server_now ?config ~now f =
  Testnet.with_proc
    (Procs.spawn (fun listen_fd ->
         let db = Forkbase.Db.create (Fbchunk.Chunk_store.mem_store ()) in
         ignore (Server.serve ~now ?config db listen_fd : Server.counters)))
    f

(* With a frozen clock, no amount of real elapsed time ages a
   connection: idle reaping must be driven by the injected time source
   alone.  (Before the clock was injectable the loop read
   Unix.gettimeofday directly, so a wall-clock step — NTP, manual reset —
   could reap every connection at once; this test would hang on the old
   code only by freezing the wall clock itself.) *)
let test_frozen_clock_never_reaps () =
  let config = { Server.default_config with Server.idle_timeout = 0.2 } in
  with_server_now ~config ~now:(fun () -> 42.0) @@ fun port ->
  let c = Client.connect ~retries:5 ~port () in
  let (_ : Cid.t) = Client.put c ~key:"k" (Wire.Str "v") in
  Unix.sleepf 0.8 (* 4x the idle timeout in real time *);
  (match Client.get c ~key:"k" with
  | (_ : Wire.value) -> ()
  | exception Client.Disconnected ->
      Alcotest.fail "conn reaped under frozen clock");
  let s = Client.stats c in
  Alcotest.(check int) "no timeouts under frozen clock" 0 s.Wire.timeouts;
  Client.quit_server c;
  Client.close c

(* The converse: a fake clock that leaps forward on every reading
   reaps the idle connection after a fraction of the real idle timeout,
   proving timeouts come from [now] and nowhere else. *)
let test_stepping_clock_reaps () =
  let config = { Server.default_config with Server.idle_timeout = 0.3 } in
  let now =
    let t = ref 0.0 in
    fun () ->
      t := !t +. 0.2;
      !t
  in
  with_server_now ~config ~now @@ fun port ->
  let idle = Client.connect ~retries:5 ~port () in
  let (_ : Cid.t) = Client.put idle ~key:"k" (Wire.Str "v") in
  Unix.sleepf 1.0;
  (match Client.get idle ~key:"k" with
  | exception Client.Disconnected -> ()
  | _ -> Alcotest.fail "stepping clock should have reaped the idle conn");
  Client.close idle;
  let fresh = Client.connect ~retries:5 ~port () in
  let s = Client.stats fresh in
  Alcotest.(check bool) "timeout recorded" true (s.Wire.timeouts >= 1);
  (* the leaping clock can reap this connection too before Quit lands;
     with_server_now kills the server either way *)
  (try Client.quit_server fresh with Client.Disconnected -> ());
  Client.close fresh

(* --- group commit: batched acks over a durable store --- *)

(* Concurrent writers against the primary `forkbase serve` runs
   ([Replica.serve_primary]): every ack is released by a shared fsync,
   and every acknowledged write survives a reopen. *)
let test_group_commit () =
  Procs.with_temp_dir @@ fun dir ->
  let server = Fbreplica.Proc.spawn_primary ~dir () in
  Fun.protect ~finally:(fun () -> Procs.kill server) @@ fun () ->
  let port = Procs.port server in
  let writers = 4 and puts_each = 25 in
  Bench_util.fork_workers writers
    (fun id ->
      let c = Client.connect ~retries:20 ~port () in
      for i = 1 to puts_each do
        let (_ : Cid.t) =
          Client.put c
            ~key:(Printf.sprintf "w%d" id)
            (Wire.Str (Printf.sprintf "v%d" i))
        in
        ()
      done;
      Client.close c)
    ();
  let c = Client.connect ~retries:20 ~port () in
  let s = Client.stats c in
  let total = writers * puts_each in
  Alcotest.(check bool) "at least one group commit" true
    (s.Wire.group_commits >= 1);
  Alcotest.(check int) "every durable write's ack went through the batch"
    total s.Wire.acks_released;
  Alcotest.(check bool) "syncs never exceed released acks" true
    (s.Wire.group_commits <= s.Wire.acks_released);
  Client.quit_server c;
  Client.close c;
  Procs.reap server;
  (* every acknowledged write is on disk *)
  let p = Persist.open_db dir in
  let db = Persist.db p in
  for id = 0 to writers - 1 do
    match Forkbase.Db.get db ~key:(Printf.sprintf "w%d" id) with
    | Ok v ->
        Alcotest.(check bool)
          (Printf.sprintf "writer %d's last put recovered" id)
          true
          (v = Forkbase.Db.str (Printf.sprintf "v%d" puts_each))
    | Error e -> Alcotest.fail (Forkbase.Db.error_to_string e)
  done;
  Persist.close p

(* --- scratch directories: a nested tree never masks the body's failure --- *)

let test_temp_dir_nested () =
  let kept = ref "" in
  (match
     Procs.with_temp_dir (fun dir ->
         kept := dir;
         let sub = Filename.concat dir "a" in
         Unix.mkdir sub 0o755;
         Unix.mkdir (Filename.concat sub "b") 0o755;
         Out_channel.with_open_bin (Filename.concat sub "f") (fun oc ->
             output_string oc "x");
         raise Exit)
   with
  | () -> Alcotest.fail "the body's exception must propagate"
  | exception Exit -> ());
  Alcotest.(check bool) "nested tree removed" false (Sys.file_exists !kept);
  (* an absent path is not an error *)
  Procs.rm_rf !kept

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "remote"
    [
      ( "wire",
        [
          q prop_request_roundtrip;
          q prop_response_roundtrip;
          Alcotest.test_case "frame size limit" `Quick test_read_frame_limit;
        ] );
      ( "server",
        [
          Alcotest.test_case "handler" `Quick test_handle;
          Alcotest.test_case "fetch answer bounded by bytes" `Quick
            test_fetch_answer_bounded;
          Alcotest.test_case "bad response frame is a protocol error" `Quick
            test_bad_response_frame;
          Alcotest.test_case "tcp session" `Quick test_tcp_session;
          Alcotest.test_case "two interleaved clients" `Quick
            test_two_interleaved_clients;
          Alcotest.test_case "killed client is isolated" `Quick
            test_killed_client_is_isolated;
          Alcotest.test_case "oversized frame rejected" `Quick
            test_oversized_frame_rejected;
          Alcotest.test_case "truncated frame close" `Quick
            test_truncated_frame_close;
          Alcotest.test_case "idle timeout" `Quick test_idle_timeout;
          Alcotest.test_case "frozen clock never reaps" `Quick
            test_frozen_clock_never_reaps;
          Alcotest.test_case "stepping clock reaps" `Quick
            test_stepping_clock_reaps;
          Alcotest.test_case "group commit" `Quick test_group_commit;
        ] );
      ( "procs",
        [
          Alcotest.test_case "temp dir: nested tree, body failure kept"
            `Quick test_temp_dir_nested;
        ] );
    ]
