(* forkbase — a command-line client for a durable, file-backed ForkBase
   store (lib/persist): an append-only chunk log plus a write-ahead branch
   journal in FORKBASE_DIR (default ./forkbase-data), so the CLI is
   stateless and crash-safe across invocations.  The data verbs also
   reach a sharded cluster: with --via HOST:PORT they go through a
   dispatcher bootstrapped from that shard instead of the local store.

     forkbase put  <key> <value> [--branch b] [--blob] [--via HOST:PORT]
     forkbase get  <key> [--branch b] [--via HOST:PORT]
     forkbase fork <key> <from> <new> [--via HOST:PORT]
     forkbase branches <key> [--via HOST:PORT]
     forkbase log  <key> [--branch b]
     forkbase merge <key> <target> <ref-branch> [--resolver r] [--via HOST:PORT]
     forkbase keys [--via HOST:PORT]
     forkbase verify <key> [--branch b]
     forkbase fsck
     forkbase stats
     forkbase checkpoint
     forkbase gc [--dry-run]
     forkbase serve [--port p]
     forkbase follow --of HOST:PORT [--port p]
     forkbase replication-status [--of HOST:PORT] [--port p]
     forkbase shard --index i --map HOST:PORT,... [--port p]
     forkbase cluster-status --via HOST:PORT
     forkbase cluster-add HOST:PORT --via HOST:PORT *)

module Db = Forkbase.Db
module Persist = Fbpersist.Persist
module Cid = Fbchunk.Cid
module Client = Fbremote.Client
module Wire = Fbremote.Wire
module Shard = Fbshard.Shard
module Shard_map = Fbshard.Shard_map
module Dispatch = Fbshard.Dispatch

let data_dir () =
  match Sys.getenv_opt "FORKBASE_DIR" with
  | Some d -> d
  | None -> "./forkbase-data"

(* Pre-journal layouts kept branch heads in heads.tsv
   (key<TAB>branch<TAB>uid-hex).  Restoring them through the db journals
   them; the old file is then renamed away so migration runs once. *)
let migrate_legacy_heads db dir =
  let path = Filename.concat dir "heads.tsv" in
  if Sys.file_exists path then begin
    let ic = open_in path in
    (try
       while true do
         match String.split_on_char '\t' (input_line ic) with
         | [ key; branch; uid_hex ] -> (
             match Db.restore_branch db ~key ~branch (Cid.of_hex uid_hex) with
             | Ok () -> ()
             | Error _ -> ())
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic;
    Sys.rename path (path ^ ".migrated")
  end

let with_store f =
  let dir = data_dir () in
  match Persist.open_db dir with
  | exception Persist.Corrupt_db c ->
      Printf.eprintf "error: %s\n" (Persist.corruption_to_string c);
      exit 1
  | p ->
      migrate_legacy_heads (Persist.db p) dir;
      Fun.protect ~finally:(fun () -> Persist.close p) (fun () -> f p)

let with_db f = with_store (fun p -> f (Persist.db p))

let or_die = function
  | Ok v -> v
  | Error e ->
      Printf.eprintf "error: %s\n" (Db.error_to_string e);
      exit 1

let die_bad_map f =
  match f () with
  | v -> v
  | exception Shard_map.Bad_map reason ->
      Printf.eprintf "error: %s\n" reason;
      exit 2

let with_dispatcher via f =
  let host, port = die_bad_map (fun () -> Shard_map.parse_addr via) in
  match Dispatch.connect ~host ~port () with
  | exception Dispatch.Unroutable reason ->
      Printf.eprintf "error: %s\n" reason;
      exit 1
  | d -> Fun.protect ~finally:(fun () -> Dispatch.close d) (fun () -> f d)

(* The data verbs run on one access handle: the local store, or the
   cluster behind a dispatcher when --via names a shard. *)
let with_handle via f =
  match
    match via with
    | None -> with_db (fun db -> f (Client.local db))
    | Some via -> with_dispatcher via (fun d -> f (Dispatch.client d))
  with
  | () -> ()
  | exception (Client.Remote_failure reason | Dispatch.Unroutable reason) ->
      Printf.eprintf "error: %s\n" reason;
      exit 1

let print_value = function
  | Wire.Str s | Wire.Blob s -> print_endline s
  | Wire.List l | Wire.Set l -> List.iter print_endline l
  | Wire.Map m -> List.iter (fun (k, v) -> Printf.printf "%s\t%s\n" k v) m

open Cmdliner

let branch_arg =
  Arg.(value & opt string Db.default_branch & info [ "b"; "branch" ] ~docv:"BRANCH")

let key_pos = Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY")

let via_info =
  Arg.info [ "via" ] ~docv:"HOST:PORT"
    ~doc:
      "Any live shard of a cluster; its partition map bootstraps a \
       dispatcher, which then routes by key."

let via_opt = Arg.(value & opt (some string) None & via_info)

let put_cmd =
  let run via branch key value as_blob context =
    with_handle via @@ fun c ->
    let v = if as_blob then Wire.Blob value else Wire.Str value in
    print_endline (Cid.to_hex (Client.put ~branch ~context c ~key v))
  in
  let value_pos = Arg.(required & pos 1 (some string) None & info [] ~docv:"VALUE") in
  let blob_flag = Arg.(value & flag & info [ "blob" ] ~doc:"Store as a chunked Blob.") in
  let context_arg = Arg.(value & opt string "" & info [ "m"; "message" ] ~docv:"MSG") in
  Cmd.v (Cmd.info "put" ~doc:"write a value to a branch head")
    Term.(const run $ via_opt $ branch_arg $ key_pos $ value_pos $ blob_flag
          $ context_arg)

let get_cmd =
  let run via branch key =
    with_handle via @@ fun c -> print_value (Client.get ~branch c ~key)
  in
  Cmd.v (Cmd.info "get" ~doc:"read a branch head")
    Term.(const run $ via_opt $ branch_arg $ key_pos)

let fork_cmd =
  let run via key from_branch new_branch =
    with_handle via @@ fun c ->
    Client.fork c ~key ~from_branch ~new_branch;
    Printf.printf "forked %s: %s -> %s\n" key from_branch new_branch
  in
  let from_pos = Arg.(required & pos 1 (some string) None & info [] ~docv:"FROM") in
  let new_pos = Arg.(required & pos 2 (some string) None & info [] ~docv:"NEW") in
  Cmd.v (Cmd.info "fork" ~doc:"fork a new branch")
    Term.(const run $ via_opt $ key_pos $ from_pos $ new_pos)

let branches_cmd =
  let run via key =
    with_handle via @@ fun c ->
    List.iter
      (fun (name, uid) -> Printf.printf "%s\t%s\n" name (Cid.to_hex uid))
      (Client.list_branches c ~key)
  in
  Cmd.v (Cmd.info "branches" ~doc:"list tagged branches of a key")
    Term.(const run $ via_opt $ key_pos)

let log_cmd =
  let run branch key =
    with_db @@ fun db ->
    let history = or_die (Db.track ~branch db ~key ~dist_range:(0, max_int)) in
    List.iter
      (fun (dist, uid, obj) ->
        Printf.printf "%-3d %s depth=%d%s\n" dist (Cid.to_hex uid)
          obj.Forkbase.Fobject.depth
          (if obj.Forkbase.Fobject.context = "" then ""
           else "  (" ^ obj.Forkbase.Fobject.context ^ ")"))
      history
  in
  Cmd.v (Cmd.info "log" ~doc:"show a branch's version history")
    Term.(const run $ branch_arg $ key_pos)

let merge_cmd =
  let run via key target ref_branch resolver =
    with_handle via @@ fun c ->
    let uid = Client.merge ~resolver c ~key ~target ~ref_branch in
    Printf.printf "merged -> %s\n" (Cid.to_hex uid)
  in
  let target_pos = Arg.(required & pos 1 (some string) None & info [] ~docv:"TARGET") in
  let ref_pos = Arg.(required & pos 2 (some string) None & info [] ~docv:"REF") in
  let resolver_arg =
    Arg.(value & opt string "manual" & info [ "resolver" ] ~docv:"RESOLVER"
           ~doc:"manual|left|right|append|aggregate")
  in
  Cmd.v (Cmd.info "merge" ~doc:"three-way merge REF into TARGET")
    Term.(const run $ via_opt $ key_pos $ target_pos $ ref_pos $ resolver_arg)

let keys_cmd =
  let run via = with_handle via @@ fun c -> List.iter print_endline (Client.list_keys c) in
  Cmd.v (Cmd.info "keys" ~doc:"list all keys") Term.(const run $ via_opt)

let verify_cmd =
  let run branch key =
    with_db @@ fun db ->
    let head = or_die (Db.head ~branch db ~key) in
    Printf.printf "%s %s\n"
      (Cid.to_hex head)
      (if Db.verify_version db head then "OK" else "TAMPERED")
  in
  Cmd.v (Cmd.info "verify" ~doc:"re-hash a head version and its chunks")
    Term.(const run $ branch_arg $ key_pos)

let fsck_cmd =
  let run quiet =
    let report = Fbcheck.Fsck.check_dir (data_dir ()) in
    if not quiet then Format.printf "%a@." Fbcheck.Fsck.pp_report report;
    if not (Fbcheck.Fsck.ok report) then exit 1
  in
  let quiet_flag =
    Arg.(
      value & flag
      & info [ "q"; "quiet" ] ~doc:"Print nothing; exit status only.")
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "deep integrity check: re-hash every reachable chunk, re-verify \
          POS-Tree split boundaries and ordering, and walk every branch \
          head's derivation graph (exit 1 on any violation)")
    Term.(const run $ quiet_flag)

let print_conn_counters ~accepted ~active ~closed_ok ~closed_err ~frames_in
    ~frames_out ~timeouts ~group_commits ~acks_released =
  Printf.printf
    "connections: accepted=%d active=%d closed_ok=%d closed_err=%d\n\
     frames: in=%d out=%d  idle timeouts: %d\n"
    accepted active closed_ok closed_err frames_in frames_out timeouts;
  if group_commits > 0 then
    Printf.printf "group commit: %d fsyncs, %d acks released (%.1f acks/sync)\n"
      group_commits acks_released
      (float_of_int acks_released /. float_of_int group_commits)

(* The serving knobs serve and follow take, as one [Server.config]
   term. *)
let server_config =
  let max_conns =
    Arg.(
      value
      & opt int Fbremote.Server.default_config.Fbremote.Server.max_conns
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Serve at most $(docv) concurrent connections; further \
                clients wait in the listen backlog.")
  in
  let idle_timeout =
    Arg.(
      value
      & opt float Fbremote.Server.default_config.Fbremote.Server.idle_timeout
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Close connections idle for more than $(docv) (0 disables).")
  in
  let max_frame_bytes =
    Arg.(
      value
      & opt int
          Fbremote.Server.default_config.Fbremote.Server.max_frame_bytes
      & info [ "max-frame-bytes" ] ~docv:"BYTES"
          ~doc:"Reject request frames larger than $(docv) without \
                allocating them.")
  in
  let make max_conns idle_timeout max_frame_bytes =
    { Fbremote.Server.max_conns; idle_timeout; max_frame_bytes }
  in
  Term.(const make $ max_conns $ idle_timeout $ max_frame_bytes)

let serve_cmd =
  let run port config =
    with_store @@ fun p ->
    let listen_fd = Fbremote.Server.listen ~port () in
    Printf.printf "forkbase server listening on 127.0.0.1:%d (data in %s)\n%!"
      (Fbremote.Server.bound_port listen_fd)
      (data_dir ());
    let k = Fbreplica.Replica.serve_primary ~config p listen_fd in
    Printf.printf "server stopped.\n";
    print_conn_counters ~accepted:k.Fbremote.Server.accepted ~active:k.active
      ~closed_ok:k.closed_ok ~closed_err:k.closed_err ~frames_in:k.frames_in
      ~frames_out:k.frames_out ~timeouts:k.timeouts
      ~group_commits:k.group_commits ~acks_released:k.acks_released
  in
  let port_arg =
    Arg.(value & opt int 7878 & info [ "p"; "port" ] ~docv:"PORT")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"run a network server over this store (stops on a Quit request)")
    Term.(const run $ port_arg $ server_config)

let stats_cmd =
  let run port =
    match port with
    | Some port ->
        (* query a running server over the wire instead of opening the
           store files (which the server holds) *)
        let c = Fbremote.Client.connect ~port () in
        Fun.protect ~finally:(fun () -> Fbremote.Client.close c) @@ fun () ->
        let s = Fbremote.Client.stats c in
        Printf.printf
          "chunks=%d bytes=%d puts=%d dedup=%d gets=%d misses=%d\n\
           keys=%d branches=%d\n\
           journal: seq=%d bytes=%d\n"
          s.Fbremote.Wire.chunks s.Fbremote.Wire.bytes s.Fbremote.Wire.puts
          s.Fbremote.Wire.dedup_hits s.Fbremote.Wire.gets
          s.Fbremote.Wire.misses s.Fbremote.Wire.keys s.Fbremote.Wire.branches
          s.Fbremote.Wire.journal_seq s.Fbremote.Wire.journal_bytes;
        print_conn_counters ~accepted:s.Fbremote.Wire.accepted
          ~active:s.Fbremote.Wire.active ~closed_ok:s.Fbremote.Wire.closed_ok
          ~closed_err:s.Fbremote.Wire.closed_err
          ~frames_in:s.Fbremote.Wire.frames_in
          ~frames_out:s.Fbremote.Wire.frames_out
          ~timeouts:s.Fbremote.Wire.timeouts
          ~group_commits:s.Fbremote.Wire.group_commits
          ~acks_released:s.Fbremote.Wire.acks_released
    | None ->
        with_store @@ fun p ->
        let db = Persist.db p in
        let s = (Db.store db).Fbchunk.Chunk_store.stats () in
        Format.printf "%a@." Fbchunk.Chunk_store.pp_stats s;
        let garbage_chunks, garbage_bytes = Persist.garbage_stats p in
        Format.printf "garbage: %d chunks, %d bytes (run 'forkbase checkpoint')@."
          garbage_chunks garbage_bytes;
        Format.printf "files: chunk log %d bytes, branch journal %d bytes@."
          (Persist.chunk_log_size p) (Persist.journal_size p);
        Format.printf "journal seq: %d@." (Persist.journal_seq p)
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"Query a running server on 127.0.0.1:$(docv) over the wire \
                (includes its connection counters) instead of opening the \
                store files.")
  in
  Cmd.v (Cmd.info "stats" ~doc:"chunk store statistics") Term.(const run $ port_arg)

let gc_cmd =
  let run dry_run =
    with_store @@ fun p ->
    if dry_run then begin
      let chunks, bytes = Persist.garbage_stats p in
      Printf.printf "would reclaim %d chunks (%d bytes)\n" chunks bytes
    end
    else begin
      let chunks, bytes = Persist.compact p in
      Printf.printf "reclaimed %d chunks (%d bytes)\n" chunks bytes
    end
  in
  let dry_run_flag =
    Arg.(
      value & flag
      & info [ "n"; "dry-run" ]
          ~doc:"Only measure what a sweep would reclaim; change nothing.")
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:
         "garbage-collect the chunk log: sweep every chunk reachable from \
          a branch head into a fresh log, atomically swap it in, and \
          report what was reclaimed")
    Term.(const run $ dry_run_flag)

let of_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "of" ] ~docv:"HOST:PORT" ~doc:"The primary to replicate from.")

let follow_cmd =
  let run primary port config =
    let host, primary_port =
      die_bad_map (fun () -> Shard_map.parse_addr primary)
    in
    let f =
      Fbreplica.Replica.open_follower ~dir:(data_dir ()) ~host
        ~port:primary_port ()
    in
    Fun.protect ~finally:(fun () -> Fbreplica.Replica.close f) @@ fun () ->
    let listen_fd = Fbremote.Server.listen ~port () in
    Printf.printf
      "forkbase follower listening on 127.0.0.1:%d (data in %s), \
       replicating from %s:%d\n\
       %!"
      (Fbremote.Server.bound_port listen_fd)
      (data_dir ()) host primary_port;
    let k = Fbreplica.Replica.serve ~config f listen_fd in
    let c = Fbreplica.Replica.counters f in
    Printf.printf
      "follower stopped at seq %d (lag %d): %d pulls, %d entries applied, \
       %d chunks fetched\n"
      (Fbreplica.Replica.seq f) (Fbreplica.Replica.lag f)
      c.Fbreplica.Replica.pulls c.Fbreplica.Replica.entries_applied
      c.Fbreplica.Replica.chunks_fetched;
    print_conn_counters ~accepted:k.Fbremote.Server.accepted ~active:k.active
      ~closed_ok:k.closed_ok ~closed_err:k.closed_err ~frames_in:k.frames_in
      ~frames_out:k.frames_out ~timeouts:k.timeouts
      ~group_commits:k.group_commits ~acks_released:k.acks_released
  in
  let port_arg =
    Arg.(value & opt int 7879 & info [ "p"; "port" ] ~docv:"PORT")
  in
  Cmd.v
    (Cmd.info "follow"
       ~doc:
         "run a read-only follower of a primary server: tail its journal \
          into this store, serve reads, redirect writes (stops on a Quit \
          request; this store is then promotable with 'forkbase serve')")
    Term.(const run $ of_arg $ port_arg $ server_config)

let replication_status_cmd =
  let run primary port =
    let local_seq =
      match port with
      | Some port ->
          let c = Fbremote.Client.connect ~port () in
          Fun.protect ~finally:(fun () -> Fbremote.Client.close c)
          @@ fun () -> (Fbremote.Client.stats c).Fbremote.Wire.journal_seq
      | None -> with_store (fun p -> Persist.journal_seq p)
    in
    Printf.printf "local:   seq %d\n" local_seq;
    match primary with
    | None -> ()
    | Some primary ->
        let host, pport =
          die_bad_map (fun () -> Shard_map.parse_addr primary)
        in
        let c = Fbremote.Client.connect ~host ~port:pport () in
        Fun.protect ~finally:(fun () -> Fbremote.Client.close c) @@ fun () ->
        let seq = (Fbremote.Client.stats c).Fbremote.Wire.journal_seq in
        Printf.printf "primary: seq %d\nlag:     %d\n" seq
          (max 0 (seq - local_seq))
  in
  let of_opt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "of" ] ~docv:"HOST:PORT"
          ~doc:"Also query the primary and print the replication lag.")
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"Read the local sequence from a running server on \
                127.0.0.1:$(docv) instead of opening the store files.")
  in
  Cmd.v
    (Cmd.info "replication-status"
       ~doc:"show the local journal sequence and the lag behind a primary")
    Term.(const run $ of_opt_arg $ port_arg)

let lint_cmd =
  let run baseline_path write_baseline json paths =
    let paths =
      match paths with
      | [] -> Fblint.Finding.source_roots
      | ps -> ps
    in
    if write_baseline then begin
      let findings = Fblint.Lint.collect paths in
      Out_channel.with_open_bin baseline_path (fun oc ->
          Out_channel.output_string oc (Fblint.Baseline.render findings));
      Printf.printf "wrote %s (%d grandfathered findings)\n" baseline_path
        (List.length findings)
    end
    else begin
      let baseline = Fblint.Baseline.load baseline_path in
      let { Fblint.Lint.fresh; tolerated } =
        Fblint.Lint.run_report ~baseline paths
      in
      let status = Fblint.Report.status ~tolerated fresh in
      if json then print_string (Fblint.Report.to_json ~tolerated fresh)
      else begin
        (match status with
        | Fblint.Report.Clean -> print_endline "lint: clean"
        | Fblint.Report.Baseline_tolerated ->
            Printf.printf "lint: clean (%d baseline-tolerated)\n" tolerated
        | Fblint.Report.New_findings ->
            List.iter
              (fun f -> print_endline (Fblint.Finding.to_string f))
              fresh;
            Printf.eprintf "lint: %d new finding(s)\n" (List.length fresh))
      end;
      match Fblint.Report.exit_code status with 0 -> () | code -> exit code
    end
  in
  let baseline_arg =
    Arg.(
      value
      & opt string "lint-baseline.txt"
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:"Baseline of grandfathered findings (count-matched per rule \
                and file); only findings beyond its budget fail.")
  in
  let write_flag =
    Arg.(
      value & flag
      & info [ "write-baseline" ]
          ~doc:"Regenerate $(b,--baseline) from the current findings \
                instead of failing on them.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the findings as a JSON document (rule/file/line/message \
                per finding plus an overall status) instead of the \
                line-oriented report.")
  in
  let paths_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"PATHS")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "static analysis of the repository's own OCaml sources: cid \
          discipline, EINTR-safe syscalls, no partial functions, typed \
          errors, no swallowed exceptions, dune hygiene, plus the \
          call-graph analyses (event-loop blocking, wire-protocol \
          exhaustiveness, fd discipline, dead exports) (default paths: \
          lib bin bench test perfbench examples; exits 0 when clean, 2 \
          when findings were all baseline-tolerated, 1 on new findings)")
    Term.(const run $ baseline_arg $ write_flag $ json_flag $ paths_arg)

(* --- sharded serving: shard processes and rebalance --- *)

let shard_cmd =
  let run index map_str port =
    let addrs = die_bad_map (fun () -> Shard_map.parse_addrs map_str) in
    let map = Shard_map.create ~version:1 addrs in
    if index < 0 then begin
      Printf.eprintf "error: --index must be >= 0\n";
      exit 2
    end;
    (* an index beyond the map is a joining shard: it owns nothing (and
       answers redirects) until 'forkbase cluster-add' installs the
       grown map, and it must be given --port since the map has no
       entry for it *)
    let port =
      match (port, index < Shard_map.n map) with
      | Some p, _ -> p
      | None, true -> snd (Shard_map.addr map index)
      | None, false ->
          Printf.eprintf
            "error: --index %d is outside the %d-shard map; a joining shard \
             needs an explicit --port\n"
            index (Shard_map.n map);
          exit 2
    in
    let listen_fd = Fbremote.Server.listen ~port () in
    Printf.printf
      "forkbase shard %d/%d listening on 127.0.0.1:%d (data in %s)\n%!" index
      (Shard_map.n map)
      (Fbremote.Server.bound_port listen_fd)
      (data_dir ());
    let k =
      Shard.serve ~dir:(data_dir ()) ~self:index ~map listen_fd
    in
    Printf.printf "shard stopped.\n";
    print_conn_counters ~accepted:k.Fbremote.Server.accepted ~active:k.active
      ~closed_ok:k.closed_ok ~closed_err:k.closed_err ~frames_in:k.frames_in
      ~frames_out:k.frames_out ~timeouts:k.timeouts
      ~group_commits:k.group_commits ~acks_released:k.acks_released
  in
  let index_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "i"; "index" ] ~docv:"I"
          ~doc:"This process's shard index in the partition map.")
  in
  let map_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "map" ] ~docv:"HOST:PORT,..."
          ~doc:
            "The version-1 partition map, one address per shard in index \
             order.  A map already installed in the store directory (by a \
             rebalance before a restart) wins if newer.")
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"Listen port (default: this shard's port in --map).")
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "serve this store as one shard of a partitioned cluster: only keys \
          the partition map homes here are served (others are redirected to \
          their owner; keys fenced mid-rebalance answer retry), and the map \
          itself is served, installed, and persisted as a versioned artifact")
    Term.(const run $ index_arg $ map_arg $ port_arg)

let via_arg = Arg.(required & opt (some string) None & via_info)

let cluster_status_cmd =
  let run via =
    with_dispatcher via @@ fun d ->
    let map = Dispatch.map d in
    Printf.printf "%s\n" (Shard_map.to_string map);
    List.iteri
      (fun i s ->
        let host, port = Shard_map.addr map i in
        Printf.printf
          "shard %d @ %s:%d  map v%d  keys=%d branches=%d chunks=%d \
           bytes=%d journal seq=%d\n"
          s.Fbremote.Wire.shard_index host port s.Fbremote.Wire.map_version
          s.Fbremote.Wire.keys s.Fbremote.Wire.branches
          s.Fbremote.Wire.chunks s.Fbremote.Wire.bytes
          s.Fbremote.Wire.journal_seq)
      (Dispatch.stats d)
  in
  Cmd.v
    (Cmd.info "cluster-status"
       ~doc:
         "show the partition map (version, addresses, any rebalance fence) \
          and every shard's stats")
    Term.(const run $ via_arg)

let cluster_add_cmd =
  let run via addr =
    let host, port = die_bad_map (fun () -> Shard_map.parse_addr addr) in
    with_dispatcher via @@ fun d ->
    match Dispatch.add_shard d ~host ~port with
    | moved ->
        let map = Dispatch.map d in
        Printf.printf "added %s:%d as shard %d; %d keys moved (map now v%d)\n"
          host port
          (Shard_map.n map - 1)
          moved map.Fbremote.Wire.version
    | exception Dispatch.Rebalance_failed reason ->
        Printf.eprintf "error: %s\n" reason;
        exit 1
  in
  let addr_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"HOST:PORT"
          ~doc:
            "The new shard, already running (e.g. 'forkbase shard' with the \
             current map and an out-of-range --index: it owns nothing until \
             the rebalance installs the grown map).")
  in
  Cmd.v
    (Cmd.info "cluster-add"
       ~doc:
         "grow the cluster by one running shard: fence the moving keys on \
          every shard, copy their branches and chunk closures to the new \
          owner, then lift the fence — writers only ever see bounded \
          redirect/retry windows, never a lost acknowledged write")
    Term.(const run $ via_arg $ addr_pos)

let checkpoint_cmd =
  let run () =
    with_store @@ fun p ->
    let chunks, bytes = Persist.compact p in
    Printf.printf "checkpointed; reclaimed %d chunks (%d bytes)\n" chunks bytes
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:"snapshot branch tables and compact the chunk log")
    Term.(const run $ const ())

let soak_cmd =
  let run profile seconds ops seed quiet shards =
    let seed =
      match seed with
      | None -> None
      | Some s -> (
          match Int64.of_string_opt s with
          | Some v -> Some v
          | None ->
              Printf.eprintf
                "error: --seed expects an integer (0x-hex ok), got %S\n" s;
              exit 2)
    in
    let log = if quiet then ignore else fun l -> Printf.printf "%s\n%!" l in
    let cfg =
      match profile with
      | "short" -> Fbsoak.Soak.short_config ?seed ?ops ~log ()
      | "long" -> Fbsoak.Soak.long_config ?seed ?seconds ?ops ~log ()
      | p ->
          Printf.eprintf "error: --profile expects short or long, got %S\n" p;
          exit 2
    in
    let run_cfg cfg =
      match shards with
      | Some n -> Fbsoak.Soak.run_sharded ~shards:n cfg
      | None -> Fbsoak.Soak.run cfg
    in
    match run_cfg cfg with
    | o ->
        let open Fbsoak.Soak in
        Printf.printf
          "soak ok: %d ops (%s)%s — %d inline checks, %d full verifies, %d \
           fscks, %d convergence checks, %d model diffs, %d faults injected\n\
           chaos events fired: %s\n"
          o.ops_done
          (String.concat ", "
             (List.map (fun (a, n) -> Printf.sprintf "%s %d" a n) o.ops_by_app))
          (if o.timed_out then " [deadline reached]" else "")
          o.inline_checks o.full_verifies o.stores_fscked o.convergence_checks
          o.model_checks o.faults_injected
          (String.concat ", "
             (List.map
                (fun (k, n) -> Printf.sprintf "%s ×%d" k n)
                o.events_fired))
    | exception Fbsoak.Soak.Soak_failed f ->
        prerr_string (Fbsoak.Soak.failure_report f);
        exit 1
  in
  let profile_arg =
    Arg.(
      value & opt string "short"
      & info [ "profile" ] ~docv:"short|long"
          ~doc:
            "$(b,short): the deterministic, clock-free profile dune runtest \
             uses; $(b,long): bigger keyspaces bounded by $(b,--seconds).")
  in
  let seconds_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "seconds" ] ~docv:"S"
          ~env:(Cmd.Env.info "FORKBASE_SOAK_SECONDS")
          ~doc:"Wall-clock budget for the long profile (default 60).")
  in
  let ops_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "ops" ] ~docv:"N"
          ~env:(Cmd.Env.info "FORKBASE_SOAK_OPS")
          ~doc:"Driver operations (the chaos schedule's time axis).")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "seed" ] ~docv:"SEED"
          ~env:(Cmd.Env.info "FORKBASE_SOAK_SEED")
          ~doc:
            "Run seed (decimal or 0x-hex).  Replaying the seed printed in a \
             failure report reproduces the run, chaos events included.")
  in
  let quiet_flag =
    Arg.(
      value & flag
      & info [ "q"; "quiet" ] ~doc:"Only print the final summary line.")
  in
  let shards_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Soak a sharded topology instead: the same three-app workload \
             through a dispatcher over $(docv) real shard processes, with \
             one shard SIGKILLed and respawned and one live rebalance \
             mid-run — the application models must hold throughout, and \
             every shard store must fsck clean at shutdown.")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "run the mixed-workload chaos soak: wiki + redis-style + ledger \
          traffic against a real primary process with followers, under \
          seed-replayable fault injection, crash/restart, compaction and \
          promotion chaos, with continuous invariant checking (fsck, \
          application models, replication convergence); --shards N soaks \
          a sharded cluster instead")
    Term.(
      const run $ profile_arg $ seconds_arg $ ops_arg $ seed_arg $ quiet_flag
      $ shards_arg)

let () =
  let doc = "a tamper-evident, forkable key-value store (ForkBase)" in
  let info = Cmd.info "forkbase" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            put_cmd; get_cmd; fork_cmd; branches_cmd; log_cmd; merge_cmd;
            keys_cmd; verify_cmd; fsck_cmd; lint_cmd; stats_cmd;
            checkpoint_cmd; gc_cmd; serve_cmd; follow_cmd;
            replication_status_cmd; soak_cmd; shard_cmd;
            cluster_status_cmd; cluster_add_cmd;
          ]))
