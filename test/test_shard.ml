(* Sharded serving (lib/shard): the partition map as a versioned
   artifact, per-shard ownership enforcement, dispatcher routing (heads
   identical to an embedded db's), crash/restart, and the
   fence/copy/lift rebalance — all over real forked shard processes on kernel-assigned
   ephemeral ports (testnet's port discipline), so `dune build @cluster`
   is a deterministic multi-process smoke that never collides with
   concurrent test binaries. *)

module Wire = Fbremote.Wire
module Client = Fbremote.Client
module Procs = Fbremote.Procs
module Shard = Fbshard.Shard
module Shard_map = Fbshard.Shard_map
module Dispatch = Fbshard.Dispatch
module Db = Forkbase.Db
module Fsck = Fbcheck.Fsck

(* A key owned by shard [i] under [map], for targeting specific shards. *)
let key_owned_by map i =
  let rec go k =
    let key = Printf.sprintf "key-%d" k in
    if Shard_map.owner map key = i then key else go (k + 1)
  in
  go 0

let check_fsck_clean dir =
  let report = Fsck.check_dir dir in
  if not (Fsck.ok report) then
    Alcotest.failf "%s not fsck-clean: %a" dir Fsck.pp_report report

(* --- the map artifact --- *)

let test_map_codec_roundtrip () =
  let map =
    {
      Wire.version = 7;
      shards = [| ("127.0.0.1", 4001); ("10.0.0.2", 4002) |];
      pending = [ "moving-a"; "moving-b" ];
    }
  in
  let decoded = Wire.decode_shard_map (Wire.encode_shard_map map) in
  Alcotest.(check int) "version" map.Wire.version decoded.Wire.version;
  Alcotest.(check (list (pair string int)))
    "shards"
    (Array.to_list map.Wire.shards)
    (Array.to_list decoded.Wire.shards);
  Alcotest.(check (list string)) "pending" map.Wire.pending decoded.Wire.pending

let test_map_file_roundtrip () =
  Procs.with_temp_dir (fun dir ->
      Alcotest.(check bool) "no map yet" true (Shard_map.load ~dir = None);
      let map =
        Shard_map.create ~version:3 [ ("127.0.0.1", 5000); ("127.0.0.1", 5001) ]
      in
      let dir_fsyncs = Fbpersist.Persist.dir_fsync_count () in
      Shard_map.save ~dir map;
      Alcotest.(check bool) "the rename is made durable" true
        (Fbpersist.Persist.dir_fsync_count () > dir_fsyncs);
      match Shard_map.load ~dir with
      | None -> Alcotest.fail "saved map did not load"
      | Some loaded ->
          Alcotest.(check int) "version" 3 loaded.Wire.version;
          Alcotest.(check int) "shards" 2 (Shard_map.n loaded))

let test_map_parse_addrs () =
  Alcotest.(check (list (pair string int)))
    "parse"
    [ ("127.0.0.1", 4000); ("host-b", 4001) ]
    (Shard_map.parse_addrs "127.0.0.1:4000,host-b:4001");
  List.iter
    (fun bad ->
      Alcotest.(check bool) (bad ^ " raises") true
        (match Shard_map.parse_addrs bad with
        | exception Shard_map.Bad_map _ -> true
        | _ -> false))
    [ "no-port"; "h:0"; "h:-1"; "h:70000" ]

(* --- ownership enforcement on real shards --- *)

let test_ownership_redirect () =
  Testnet.with_cluster 2 (fun _dirs _procs map ->
      let host, port = Shard_map.addr map 0 in
      let c = Client.connect ~host ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* shard 0 reports itself and the installed map *)
          let served = Client.get_map c in
          Alcotest.(check int) "map version" 1 served.Wire.version;
          let s = Client.stats c in
          Alcotest.(check int) "shard_index" 0 s.Wire.shard_index;
          Alcotest.(check int) "stats map_version" 1 s.Wire.map_version;
          (* a key homed here is served *)
          let mine = key_owned_by map 0 in
          let (_ : Fbchunk.Cid.t) =
            Client.put c ~key:mine (Wire.Str "owned")
          in
          (* a key homed on shard 1 answers Redirect with the owner's
             address — the client's stale-map signal *)
          let theirs = key_owned_by map 1 in
          let h1, p1 = Shard_map.addr map 1 in
          match Client.put c ~key:theirs (Wire.Str "not-owned") with
          | (_ : Fbchunk.Cid.t) -> Alcotest.fail "foreign key accepted"
          | exception Client.Redirected (h, p) ->
              Alcotest.(check string) "redirect host" h1 h;
              Alcotest.(check int) "redirect port" p1 p))

let test_stale_map_rejected () =
  Testnet.with_cluster 2 (fun _dirs _procs map ->
      let host, port = Shard_map.addr map 0 in
      let c = Client.connect ~host ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* installing version <= served version is refused: map
             versions only move forward *)
          match Client.set_map c map with
          | () -> Alcotest.fail "stale map install accepted"
          | exception Client.Remote_failure _ -> ()))

(* --- dispatcher end to end --- *)

let test_dispatcher_basic_ops () =
  Testnet.with_cluster 2 (fun _dirs _procs map ->
      Testnet.with_dispatcher map (fun d ->
          let keys = List.init 40 (Printf.sprintf "key-%d") in
          List.iter
            (fun key ->
              let (_ : Fbchunk.Cid.t) =
                Dispatch.put d ~key (Wire.Str ("v:" ^ key))
              in
              ())
            keys;
          List.iter
            (fun key ->
              match Dispatch.get d ~key with
              | Wire.Str s -> Alcotest.(check string) key ("v:" ^ key) s
              | _ -> Alcotest.failf "%s: wrong value shape" key)
            keys;
          (* cross-branch ops route like everything else *)
          Dispatch.fork d ~key:"key-3" ~from_branch:"master"
            ~new_branch:"feature";
          let (_ : Fbchunk.Cid.t) =
            Dispatch.put d ~branch:"feature" ~key:"key-3" (Wire.Str "forked")
          in
          let (_ : Fbchunk.Cid.t) =
            Dispatch.merge d ~key:"key-3" ~target:"master"
              ~ref_branch:"feature"
          in
          (match Dispatch.get d ~key:"key-3" with
          | Wire.Str s -> Alcotest.(check string) "merged" "forked" s
          | _ -> Alcotest.fail "merge result shape");
          (* list_keys is the union over shards *)
          Alcotest.(check (list string))
            "all keys listed" (List.sort compare keys)
            (Client.list_keys (Dispatch.client d));
          (* both shards hold some keys, and stats identify them *)
          let stats = Dispatch.stats d in
          Alcotest.(check int) "two shards" 2 (List.length stats);
          List.iteri
            (fun i s ->
              Alcotest.(check int) "identifies itself" i s.Wire.shard_index;
              Alcotest.(check bool)
                (Printf.sprintf "shard %d holds keys" i)
                true (s.Wire.keys > 0))
            stats;
          (* a multi-chunk blob routed to its home shard mints the same
             head uid as an embedded put of the same key and content:
             sharding changes where a version lives, never what it is *)
          let content =
            Fbutil.Splitmix.alphanum (Fbutil.Splitmix.create 77L) 9_000
          in
          let routed = Dispatch.put d ~key:"page-00" (Wire.Blob content) in
          let db = Db.create (Fbchunk.Chunk_store.mem_store ()) in
          let embedded = Db.put db ~key:"page-00" (Db.blob db content) in
          Alcotest.(check string) "head identical to embedded"
            (Fbchunk.Cid.to_hex embedded) (Fbchunk.Cid.to_hex routed);
          match Dispatch.get d ~key:"page-00" with
          | Wire.Blob b -> Alcotest.(check string) "blob reads back" content b
          | _ -> Alcotest.fail "page-00: wrong value shape"))

(* --- crash / restart --- *)

(* Every shard serves through the durable primary path, so concurrent
   durable writes are group-committed: summed over the shards, each
   put's ack was released by a shared fsync, and no more fsyncs ran
   than acks were released. *)
let test_shard_group_commit () =
  Testnet.with_cluster 2 (fun _dirs _procs map ->
      let writers = 4 and puts_each = 25 in
      Bench_util.fork_workers writers
        (fun w ->
          let d = Dispatch.of_map map in
          for i = 1 to puts_each do
            let (_ : Fbchunk.Cid.t) =
              Dispatch.put d
                ~key:(Printf.sprintf "w%d-key-%d" w i)
                (Wire.Str (string_of_int i))
            in
            ()
          done;
          Dispatch.close d)
        ();
      Testnet.with_dispatcher map (fun d ->
          let stats = Dispatch.stats d in
          let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
          let acks = sum (fun s -> s.Wire.acks_released) in
          let syncs = sum (fun s -> s.Wire.group_commits) in
          Alcotest.(check int) "every put's ack released by a group commit"
            (writers * puts_each) acks;
          Alcotest.(check bool) "1 <= group_commits <= acks_released" true
            (1 <= syncs && syncs <= acks)))

let test_shard_kill_restart () =
  Testnet.with_cluster 2 (fun dirs procs map ->
      Testnet.with_dispatcher map (fun d ->
          let keys = List.init 20 (Printf.sprintf "key-%d") in
          List.iter
            (fun key ->
              ignore (Dispatch.put d ~key (Wire.Str ("v1:" ^ key)) : Fbchunk.Cid.t))
            keys;
          (* SIGKILL shard 0 mid-flight, then respawn it on the same
             port over the same dir — the supervisor-restart shape *)
          let victim = List.nth procs 0 in
          let port0 = Procs.port victim in
          Procs.kill victim;
          let dir0 = List.nth dirs 0 in
          let revived = Shard.spawn ~port:port0 ~dir:dir0 ~self:0 ~map () in
          Fun.protect
            ~finally:(fun () -> Procs.kill revived)
            (fun () ->
              (* all pre-crash writes survive, and writes continue *)
              List.iter
                (fun key ->
                  match Dispatch.get d ~key with
                  | Wire.Str s ->
                      Alcotest.(check string) key ("v1:" ^ key) s
                  | _ -> Alcotest.failf "%s lost across restart" key)
                keys;
              List.iter
                (fun key ->
                  ignore
                    (Dispatch.put d ~key (Wire.Str ("v2:" ^ key))
                      : Fbchunk.Cid.t))
                keys;
              Dispatch.quit_all d;
              List.iter check_fsck_clean dirs)))

(* --- live rebalance: fence / copy / lift --- *)

let test_live_rebalance () =
  Testnet.with_cluster 2 (fun dirs procs map ->
      Testnet.with_dispatcher map (fun d ->
          (* acked[key] is the oracle: the last value whose put returned.
             Anything acknowledged before, during, or after the rebalance
             must be readable afterwards — zero lost acknowledged
             writes. *)
          let acked = Hashtbl.create 64 in
          let put key value =
            ignore (Dispatch.put d ~key (Wire.Str value) : Fbchunk.Cid.t);
            Hashtbl.replace acked key value
          in
          for i = 0 to 39 do
            put (Printf.sprintf "key-%d" i) (Printf.sprintf "pre-%d" i)
          done;
          (* grow 2 -> 3: spawn the new shard over a fresh store (its
             [self] is outside the current map, so it owns nothing and
             serves nothing until the rebalance installs the grown
             map), then drive fence / copy / lift while writing *)
          Procs.with_temp_dir (fun dir2 ->
              let extra = Shard.spawn ~dir:dir2 ~self:2 ~map () in
              Fun.protect
                ~finally:(fun () -> Procs.kill extra)
                (fun () ->
                  let host, port =
                    ("127.0.0.1", Procs.port extra)
                  in
                  let moved = Dispatch.add_shard d ~host ~port in
                  Alcotest.(check bool)
                    (Printf.sprintf "keys moved (%d)" moved)
                    true (moved > 0);
                  Alcotest.(check int) "map grew" 3
                    (Shard_map.n (Dispatch.map d));
                  Alcotest.(check (list string)) "fence lifted" []
                    (Dispatch.map d).Wire.pending;
                  (* writes keep landing under the new map *)
                  for i = 0 to 39 do
                    if i mod 3 = 0 then
                      put
                        (Printf.sprintf "key-%d" i)
                        (Printf.sprintf "post-%d" i)
                  done;
                  (* the oracle: every acknowledged write is readable *)
                  Hashtbl.iter
                    (fun key value ->
                      match Dispatch.get d ~key with
                      | Wire.Str s ->
                          Alcotest.(check string) key value s
                      | _ -> Alcotest.failf "%s lost in rebalance" key)
                    acked;
                  (* the new shard really serves its slice *)
                  let stats = Dispatch.stats d in
                  Alcotest.(check int) "three shards" 3 (List.length stats);
                  List.iter
                    (fun s ->
                      Alcotest.(check int) "served map version"
                        (Dispatch.map d).Wire.version s.Wire.map_version)
                    stats;
                  Dispatch.quit_all d;
                  Procs.kill extra;
                  List.iter Procs.kill procs;
                  List.iter check_fsck_clean (dirs @ [ dir2 ])))))

(* Rebalance keys whose versions are pages of maximum-size leaves: the
   copy must move them in answers the frame limit can carry, and every
   key must be writable again once the fence lifts. *)
let test_rebalance_large_leaves () =
  Testnet.with_cluster 2 (fun _dirs _procs map ->
      Testnet.with_dispatcher map (fun d ->
          let keys = List.init 6 (Printf.sprintf "page-%d") in
          List.iteri
            (fun j key ->
              for v = 0 to 1 do
                ignore
                  (Dispatch.put d ~key
                     (Wire.Blob (Testnet.max_leaf_page ((2 * j) + v)))
                    : Fbchunk.Cid.t)
              done)
            keys;
          Procs.with_temp_dir (fun dir2 ->
              let extra = Shard.spawn ~dir:dir2 ~self:2 ~map () in
              Fun.protect
                ~finally:(fun () -> Procs.kill extra)
                (fun () ->
                  let moved =
                    Dispatch.add_shard d ~host:"127.0.0.1"
                      ~port:(Procs.port extra)
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "keys moved (%d)" moved)
                    true (moved > 0);
                  List.iteri
                    (fun j key ->
                      (match Dispatch.get d ~key with
                      | Wire.Blob b ->
                          Alcotest.(check bool) (key ^ " reads back") true
                            (b = Testnet.max_leaf_page ((2 * j) + 1))
                      | _ -> Alcotest.failf "%s: wrong value shape" key);
                      ignore
                        (Dispatch.put d ~key (Wire.Str "after") : Fbchunk.Cid.t);
                      match Dispatch.get d ~key with
                      | Wire.Str s -> Alcotest.(check string) key "after" s
                      | _ -> Alcotest.failf "%s: write lost" key)
                    keys;
                  Dispatch.quit_all d))))

let () =
  Alcotest.run "shard"
    [
      ( "map",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_map_codec_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_map_file_roundtrip;
          Alcotest.test_case "parse addrs" `Quick test_map_parse_addrs;
        ] );
      ( "ownership",
        [
          Alcotest.test_case "redirect" `Quick test_ownership_redirect;
          Alcotest.test_case "stale map rejected" `Quick
            test_stale_map_rejected;
        ] );
      ( "dispatcher",
        [
          Alcotest.test_case "basic ops" `Quick test_dispatcher_basic_ops;
          Alcotest.test_case "group commit" `Quick test_shard_group_commit;
        ] );
      ( "faults",
        [
          Alcotest.test_case "kill and restart" `Quick test_shard_kill_restart;
          Alcotest.test_case "live rebalance" `Quick test_live_rebalance;
          Alcotest.test_case "rebalance over maximum-size leaves" `Quick
            test_rebalance_large_leaves;
        ] );
    ]
