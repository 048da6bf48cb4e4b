(* Shared plumbing for the socket suites (test_remote, test_replica,
   test_shard, test_handle): child-process servers and shard clusters on
   kernel-assigned ephemeral ports.  The port discipline lives in
   Fbremote.Procs — bind port 0 in the parent, read the real port back,
   then fork — so concurrent test binaries never collide on a fixed
   port, and a killed server can respawn on the same one. *)

module Procs = Fbremote.Procs
module Proc = Fbreplica.Proc
module Server = Fbremote.Server

let with_temp_dirs2 f =
  Procs.with_temp_dir (fun a -> Procs.with_temp_dir (fun b -> f a b))

let with_proc t f =
  Fun.protect ~finally:(fun () -> Procs.kill t) (fun () -> f (Procs.port t))

(* An in-memory (volatile) server child, as test_remote drives: enough
   for protocol-level tests that never reopen the store. *)
let with_mem_server ?config f =
  with_proc
    (Procs.spawn (fun listen_fd ->
         let db = Forkbase.Db.create (Fbchunk.Chunk_store.mem_store ()) in
         ignore (Server.serve ?config db listen_fd : Server.counters)))
    f

(* A durable primary child serving [dir], as `forkbase serve` runs it
   (journal hooks, compaction trigger, group commit). *)
let with_primary ?port dir f = with_proc (Proc.spawn_primary ?port ~dir ()) f

(* A serving catch-up follower child, as `forkbase follow` runs it. *)
let with_follower_server ~fdir ~primary_port f =
  with_proc
    (Proc.spawn_follower ~dir:fdir ~host:"127.0.0.1" ~primary_port ())
    f

let with_temp_dirs n f =
  let rec go acc = function
    | 0 -> f (List.rev acc)
    | n -> Procs.with_temp_dir (fun d -> go (d :: acc) (n - 1))
  in
  go [] n

(* Spawn [n] real shard processes over fresh store dirs; kill them all
   on the way out (Procs.kill is idempotent, so tests that already
   killed or quit a shard are fine). *)
let with_cluster n f =
  with_temp_dirs n (fun dirs ->
      let procs, map = Fbshard.Shard.spawn_cluster ~dirs () in
      Fun.protect
        ~finally:(fun () -> List.iter Procs.kill procs)
        (fun () -> f dirs procs map))

let with_dispatcher map f =
  let d = Fbshard.Dispatch.of_map map in
  Fun.protect ~finally:(fun () -> Fbshard.Dispatch.close d) (fun () -> f d)

(* A 3 MiB page of distinct maximum-size leaves under
   [Tree_config.default]: every 4096-byte stretch opens with a 4-byte
   counter unique to page [k] (so no two leaves dedup), and the rest is
   a pattern the rolling hash never cuts inside, so leaves run to
   [max_leaf_bytes] (195 leaves per page, 16,134 B on average).  A
   512-cid [Fetch_chunks] over such leaves would answer ~8 MiB, twice
   the frame limit. *)
let max_leaf_page k =
  String.init (3 * 1024 * 1024) (fun i ->
      let j = i mod 4096 in
      if j < 4 then Char.chr (((i / 4096) + (k * 100_000)) lsr (8 * j) land 0xff)
      else Char.chr ((i * 7) land 0xff))
