module Db = Forkbase.Db
module Value = Fbtypes.Value

let listen ~port () =
  Wire.ignore_sigpipe ();
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

let bound_port fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> invalid_arg "Server.bound_port: not a TCP socket"

let to_wire_value value =
  match value with
  | Value.Prim p -> Wire.Str (Fbtypes.Prim.to_string p)
  | Value.Blob b -> Wire.Blob (Fbtypes.Fblob.to_string b)
  | Value.List l -> Wire.List (Fbtypes.Flist.to_list l)
  | Value.Map m -> Wire.Map (Fbtypes.Fmap.bindings m)
  | Value.Set s -> Wire.Set (Fbtypes.Fset.elements s)

(* The value a Put stores.  A blob put onto a branch whose head is a blob
   is rebased onto that head: only the chunks around the changed bytes are
   re-chunked and hashed, and the tree is the one [Db.blob] would build.
   A new key or branch, a head of another type, or a head whose chunks
   cannot be read takes the full build. *)
let put_value db ~key ~branch = function
  | Wire.Str s -> Db.str s
  | Wire.Blob s -> (
      try
        match Db.get ~branch db ~key with
        | Ok (Value.Blob head) -> Value.Blob (Fbtypes.Fblob.rebase head s)
        | Ok _ | Error _ -> Db.blob db s
      with Fbchunk.Chunk_store.(Missing_chunk _ | Corrupt_chunk _) -> Db.blob db s)
  | Wire.List l -> Db.list db l
  | Wire.Map kvs -> Db.map db kvs
  | Wire.Set ms -> Db.set db ms

let resolver_of_string = function
  | "" | "manual" -> Forkbase.Merge.Manual
  | "left" -> Forkbase.Merge.Choose_left
  | "right" -> Forkbase.Merge.Choose_right
  | "append" -> Forkbase.Merge.Append
  | "aggregate" -> Forkbase.Merge.Aggregate
  | r -> invalid_arg (Printf.sprintf "unknown resolver %S" r)

let of_db_result to_resp = function
  | Ok v -> to_resp v
  | Error e -> Wire.Error (Db.error_to_string e)

let stats_of_db db =
  let s = (Db.store db).Fbchunk.Chunk_store.stats () in
  let keys = Db.list_keys db in
  {
    Wire.chunks = s.Fbchunk.Chunk_store.chunks;
    bytes = s.Fbchunk.Chunk_store.bytes;
    puts = s.Fbchunk.Chunk_store.puts;
    dedup_hits = s.Fbchunk.Chunk_store.dedup_hits;
    gets = s.Fbchunk.Chunk_store.gets;
    misses = s.Fbchunk.Chunk_store.misses;
    keys = List.length keys;
    branches =
      List.fold_left
        (fun n key -> n + List.length (Db.list_tagged_branches db ~key))
        0 keys;
    journal_seq = 0;
    journal_bytes = 0;
    accepted = 0;
    active = 0;
    closed_ok = 0;
    closed_err = 0;
    frames_in = 0;
    frames_out = 0;
    timeouts = 0;
    group_commits = 0;
    acks_released = 0;
    shard_index = -1;
    map_version = 0;
  }

(* Sharded serving (lib/shard): the server owns the slice of the keyspace
   that [route] maps to [self] under the installed partition map, redirects
   everything else to its home shard, and fences keys that are mid-rebalance
   ([pending] in the map) with Retry.  [route] is injected (rather than
   calling Fbcluster.Partition directly) to keep fbremote free of a
   dependency on fbcluster. *)
type shard_role = {
  mutable smap : Wire.shard_map;
  mutable fenced : (string, unit) Hashtbl.t;
  self : int;
  route : servlets:int -> string -> int;
  persist_map : Wire.shard_map -> unit;
}

let fence_table pending =
  let t = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace t k ()) pending;
  t

let shard_role ~self ~route ~persist_map map =
  { smap = map; fenced = fence_table map.Wire.pending; self; route; persist_map }

(* Journal access for replication, provided when the db is backed by a
   journaled durable store (lib/persist; constructed by
   Fbreplica.Replica.journal_hooks). *)
type journal_hooks = {
  j_seq : unit -> int;
  j_bytes : unit -> int;
  j_pull : from_seq:int -> string list;
      (* encoded entries after from_seq, batch-bounded by the provider *)
}

let max_fetch_chunks = Forkbase.Closure.max_batch
let max_fetch_bytes = 1 lsl 20

(* [checkpoint] is provided when the db is backed by a durable store
   (lib/persist): it runs checkpoint + compaction and returns the
   reclaimed (chunks, bytes).  [journal] makes the server a replication
   source (Pull_journal).  [redirect] puts the server in follower mode:
   write requests are answered with the primary's address instead of
   executing. *)
let execute ?checkpoint ?journal ?redirect ?shard db (req : Wire.request) :
    Wire.response =
  let write k =
    match redirect with
    | Some (host, port) -> Wire.Redirect { host; port }
    | None -> k ()
  in
  (* Ownership gate for key-addressed client requests on a shard.  Admin /
     replication requests (Fetch_chunks, Push_chunks, Restore_branch,
     Export_key, Pull_journal, map exchange) bypass it: the rebalance
     driver must read from the losing shard and write to the gaining one
     while neither "owns" the key for clients. *)
  let owned key k =
    match shard with
    | None -> k ()
    | Some r ->
        let n = Array.length r.smap.Wire.shards in
        if n = 0 then Wire.Retry { reason = "shard: no partition map installed" }
        else
          let owner = r.route ~servlets:n key in
          if owner <> r.self then
            let host, port = r.smap.Wire.shards.(owner) in
            Wire.Redirect { host; port }
          else if Hashtbl.mem r.fenced key then
            Wire.Retry { reason = "shard: key is migrating" }
          else k ()
  in
  match req with
  | Wire.Put { key; branch; context; value } ->
      owned key @@ fun () ->
      write @@ fun () ->
      Wire.Uid (Db.put ~branch ~context db ~key (put_value db ~key ~branch value))
  | Wire.Get { key; branch } ->
      owned key @@ fun () ->
      of_db_result (fun v -> Wire.Value (to_wire_value v)) (Db.get ~branch db ~key)
  | Wire.Get_version { uid } ->
      of_db_result (fun v -> Wire.Value (to_wire_value v)) (Db.get_version db uid)
  | Wire.Fork { key; from_branch; new_branch } ->
      owned key @@ fun () ->
      write @@ fun () ->
      of_db_result (fun () -> Wire.Ok_unit) (Db.fork db ~key ~from_branch ~new_branch)
  | Wire.Merge { key; target; ref_branch; resolver } ->
      owned key @@ fun () ->
      write @@ fun () ->
      let resolver = resolver_of_string resolver in
      of_db_result
        (fun uid -> Wire.Uid uid)
        (Db.merge ~resolver db ~key ~target ~ref_:(`Branch ref_branch))
  | Wire.Track { key; branch; lo; hi } ->
      owned key @@ fun () ->
      of_db_result
        (fun history -> Wire.History (List.map (fun (d, uid, _) -> (d, uid)) history))
        (Db.track ~branch db ~key ~dist_range:(lo, hi))
  | Wire.List_keys -> Wire.Keys (Db.list_keys db)
  | Wire.List_branches { key } ->
      owned key @@ fun () -> Wire.Branches (Db.list_tagged_branches db ~key)
  | Wire.Verify { uid } -> Wire.Bool (Db.verify_version db uid)
  | Wire.Stats ->
      let s = stats_of_db db in
      let s =
        match journal with
        | None -> s
        | Some j ->
            { s with Wire.journal_seq = j.j_seq (); journal_bytes = j.j_bytes () }
      in
      Wire.Stats_r
        (match shard with
        | None -> s
        | Some r ->
            { s with Wire.shard_index = r.self;
              map_version = r.smap.Wire.version })
  | Wire.Checkpoint -> (
      write @@ fun () ->
      match checkpoint with
      | None -> Wire.Error "checkpoint: server store is not durable"
      | Some run ->
          let chunks, bytes = run () in
          Wire.Reclaimed { chunks; bytes })
  | Wire.Pull_journal { from_seq } -> (
      match journal with
      | None -> Wire.Error "pull_journal: server store is not journaled"
      | Some j ->
          Wire.Journal_batch
            { primary_seq = j.j_seq (); entries = j.j_pull ~from_seq })
  | Wire.Fetch_chunks { cids } ->
      (* Answer with what the store holds, in request order; absent cids
         are silently omitted (they may have been compacted away — the
         puller re-pulls and bootstraps from the checkpoint instead).  The
         answer stops growing once it passes [max_fetch_bytes], so it
         stays far under the frame limit; the puller's closure walk asks
         again for what was left out. *)
      if List.length cids > max_fetch_chunks then
        Wire.Error
          (Printf.sprintf "fetch_chunks: at most %d cids per request"
             max_fetch_chunks)
      else
        let store = Db.store db in
        let rec answer bytes acc = function
          | cid :: rest when bytes < max_fetch_bytes -> (
              match store.Fbchunk.Chunk_store.get cid with
              | Some chunk ->
                  let enc = Fbchunk.Chunk.encode chunk in
                  answer (bytes + String.length enc) (enc :: acc) rest
              | None -> answer bytes acc rest)
          | _ -> List.rev acc
        in
        Wire.Chunks (answer 0 [] cids)
  | Wire.Get_map -> (
      match shard with
      | None -> Wire.Error "get_map: server is not a shard"
      | Some r -> Wire.Map_r r.smap)
  | Wire.Set_map { map } -> (
      match shard with
      | None -> Wire.Error "set_map: server is not a shard"
      | Some r ->
          if map.Wire.version <= r.smap.Wire.version then
            Wire.Error
              (Printf.sprintf "set_map: stale version %d (installed %d)"
                 map.Wire.version r.smap.Wire.version)
          else begin
            r.smap <- map;
            r.fenced <- fence_table map.Wire.pending;
            r.persist_map map;
            Wire.Ok_unit
          end)
  | Wire.Push_chunks { chunks } ->
      write @@ fun () ->
      if List.length chunks > max_fetch_chunks then
        Wire.Error
          (Printf.sprintf "push_chunks: at most %d chunks per request"
             max_fetch_chunks)
      else begin
        (* a chunk that does not decode is answered by [handle]'s catch *)
        let store = Db.store db in
        List.iter
          (fun enc ->
            ignore (store.Fbchunk.Chunk_store.put (Fbchunk.Chunk.decode enc)))
          chunks;
        Wire.Ok_unit
      end
  | Wire.Restore_branch { key; branch; uid } ->
      write @@ fun () ->
      of_db_result (fun () -> Wire.Ok_unit) (Db.restore_branch db ~key ~branch uid)
  | Wire.Export_key { key } -> Wire.Branches (Db.list_tagged_branches db ~key)
  | Wire.Quit -> Wire.Ok_unit

(* Whatever a request makes the store raise (a reversed track range, a
   cid naming no meta chunk, ...) is answered as [Error]: one failure
   path, whether the caller is the event loop or {!Client.local}. *)
let handle ?checkpoint ?journal ?redirect ?shard db req =
  match execute ?checkpoint ?journal ?redirect ?shard db req with
  | resp -> resp
  | exception Invalid_argument msg -> Wire.Error msg
  | exception e -> Wire.Error (Printexc.to_string e)

(* --- the event loop --- *)

type counters = {
  mutable accepted : int;
  mutable active : int;
  mutable closed_ok : int;
  mutable closed_err : int;
  mutable frames_in : int;
  mutable frames_out : int;
  mutable timeouts : int;
  mutable group_commits : int;
  mutable acks_released : int;
}

let fresh_counters () =
  {
    accepted = 0;
    active = 0;
    closed_ok = 0;
    closed_err = 0;
    frames_in = 0;
    frames_out = 0;
    timeouts = 0;
    group_commits = 0;
    acks_released = 0;
  }

type config = {
  max_conns : int;
  idle_timeout : float;  (* seconds; <= 0. disables the reaper *)
  max_frame_bytes : int;
}

let default_config =
  {
    max_conns = 64;
    idle_timeout = 0.;
    max_frame_bytes = Wire.default_max_frame_bytes;
  }

(* Seconds a graceful shutdown waits for in-flight responses to flush. *)
let drain_timeout = 5.

(* What a finished connection should be counted as. *)
type close_reason = Ok_close | Err_close | Timeout_close

(* One client connection.  [rbuf] holds received-but-unparsed bytes (frames
   are reassembled across partial reads); [wcur]/[wpos] plus [wqueue] hold
   encoded response frames awaiting the socket, resumed across partial
   writes.  A [draining] connection takes no further input and is closed —
   counted as [drain_reason] — once its queued output is flushed. *)
type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;
  wqueue : string Queue.t;
  mutable wcur : Bytes.t;
  mutable wpos : int;
  mutable last_active : float;
  mutable draining : bool;
  mutable drain_reason : close_reason;
  mutable holding : bool;
      (* a response of this connection sits in the group-commit pending
         queue this round; later responses must queue behind it to keep
         per-connection request/response order *)
}

let has_output c = c.wpos < Bytes.length c.wcur || not (Queue.is_empty c.wqueue)
let mid_frame c = Buffer.length c.rbuf > 0

let drain c reason =
  c.draining <- true;
  c.drain_reason <- reason

(* Is this request a durable write whose acknowledgement group commit may
   hold back until the batched fsync? *)
let durable_write = function
  | Wire.Put _ | Wire.Fork _ | Wire.Merge _
  | Wire.Push_chunks _ | Wire.Restore_branch _ ->
      true
  | _ -> false

(* Seconds between [?tick] runs. *)
let tick_every = 0.05

let serve ?checkpoint ?journal ?redirect ?shard ?group_commit ?tick
    ?(now = Clock.monotonic) ?(config = default_config) db listen_fd =
  Wire.ignore_sigpipe ();
  Unix.set_nonblock listen_fd;
  (* Periodic work multiplexed into the event loop (a follower's
     replication sync step runs here, between request rounds, so reads
     never observe a half-applied journal entry). *)
  let next_tick =
    ref (match tick with None -> infinity | Some _ -> now ())
  in
  let k = fresh_counters () in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let shutting_down = ref false in
  let shutdown_deadline = ref infinity in
  let close_conn c reason =
    (match reason with
    | Ok_close -> k.closed_ok <- k.closed_ok + 1
    | Err_close -> k.closed_err <- k.closed_err + 1
    | Timeout_close ->
        k.timeouts <- k.timeouts + 1;
        k.closed_ok <- k.closed_ok + 1);
    k.active <- k.active - 1;
    Hashtbl.remove conns c.fd;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let enqueue_response c resp =
    k.frames_out <- k.frames_out + 1;
    Queue.push (Wire.encode_frame (Wire.encode_response resp)) c.wqueue
  in
  (* Group commit: responses to durable writes are parked here instead of
     being queued on their sockets; once per event-loop round a single
     [group_commit] fsync makes the whole batch durable and every parked
     acknowledgement is released at once.  N concurrent writers pay one
     fsync per round instead of one each, with unchanged per-ack
     durability (no ack leaves before its entry is on disk). *)
  let pending : (conn * Wire.response) Queue.t = Queue.create () in
  let release_pending () =
    if not (Queue.is_empty pending) then begin
      (match group_commit with Some sync -> sync () | None -> ());
      k.group_commits <- k.group_commits + 1;
      k.acks_released <- k.acks_released + Queue.length pending;
      Queue.iter
        (fun ((c : conn), resp) ->
          c.holding <- false;
          (* The connection may have died between park and release (reaped,
             faulted on its write side); only enqueue on the live struct
             still registered under this fd, not a successor that reused
             the descriptor number. *)
          match Hashtbl.find_opt conns c.fd with
          | Some c' when c' == c -> enqueue_response c resp
          | Some _ | None -> ())
        pending;
      Queue.clear pending
    end
  in
  let park_or_respond c ~held resp =
    if held then begin
      c.holding <- true;
      Queue.push (c, resp) pending
    end
    else enqueue_response c resp
  in
  (* A [Stats] answer carries the live connection counters alongside the
     db-level ones. *)
  let with_counters = function
    | Wire.Stats_r s ->
        Wire.Stats_r
          {
            s with
            Wire.accepted = k.accepted;
            active = k.active;
            closed_ok = k.closed_ok;
            closed_err = k.closed_err;
            frames_in = k.frames_in;
            frames_out = k.frames_out;
            timeouts = k.timeouts;
            group_commits = k.group_commits;
            acks_released = k.acks_released;
          }
    | resp -> resp
  in
  let begin_shutdown () =
    if not !shutting_down then begin
      shutting_down := true;
      shutdown_deadline := now () +. drain_timeout;
      (* stop taking input everywhere; in-flight responses still flush *)
      Hashtbl.iter (fun _ c -> if not c.draining then drain c Ok_close) conns
    end
  in
  (* Parse every complete frame sitting in [c.rbuf]. *)
  let process_frames c =
    let consumed = ref 0 in
    let len () = Buffer.length c.rbuf - !consumed in
    let byte i = Buffer.nth c.rbuf (!consumed + i) in
    (try
       while (not c.draining) && len () >= Wire.header_bytes do
         let n = Wire.frame_length (byte 0) (byte 1) (byte 2) (byte 3) in
         (* Oversized announcement: protocol violation.  Reply with an
            error (never allocating the announced body) and drop the
            connection — the stream position is unrecoverable. *)
         match Wire.check_frame_length ~max_frame_bytes:config.max_frame_bytes n with
         | exception Fbutil.Codec.Corrupt msg ->
             enqueue_response c (Wire.Error ("bad request: " ^ msg));
             drain c Err_close
         | () ->
             if len () < Wire.header_bytes + n then raise Exit (* incomplete *);
             let frame = Buffer.sub c.rbuf (!consumed + Wire.header_bytes) n in
             consumed := !consumed + Wire.header_bytes + n;
             k.frames_in <- k.frames_in + 1;
             let held, response =
               match Wire.decode_request frame with
               | exception Fbutil.Codec.Corrupt msg ->
                   (c.holding, Wire.Error ("bad request: " ^ msg))
               | Wire.Quit ->
                   drain c Ok_close;
                   begin_shutdown ();
                   (c.holding, Wire.Ok_unit)
               | req ->
                   (* Once one response of this connection is parked, every
                      later one this round queues behind it, whatever its
                      request type, to preserve response order. *)
                   let held =
                     c.holding
                     || Option.is_some group_commit
                        && Option.is_none redirect && durable_write req
                   in
                   ( held,
                     with_counters
                       (handle ?checkpoint ?journal ?redirect ?shard db req) )
             in
             park_or_respond c ~held response
       done
     with Exit -> ());
    if !consumed > 0 then begin
      let rest = Buffer.sub c.rbuf !consumed (Buffer.length c.rbuf - !consumed) in
      Buffer.clear c.rbuf;
      Buffer.add_string c.rbuf rest
    end
  in
  let scratch = Bytes.create 65536 in
  let handle_readable c =
    match Wire.read_nb c.fd scratch with
    | Wire.Nb_nothing -> None
    | Wire.Nb_read_error -> Some Err_close
    | Wire.Nb_eof ->
        (* Peer closed.  A half-received frame means it vanished
           mid-request; pending output still gets a flush attempt. *)
        if mid_frame c then Some Err_close
        else if has_output c then begin
          drain c Ok_close;
          None
        end
        else Some Ok_close
    | Wire.Nb_read n ->
        c.last_active <- now ();
        Buffer.add_subbytes c.rbuf scratch 0 n;
        process_frames c;
        None
  in
  let handle_writable c =
    let result = ref None in
    let continue = ref true in
    while !continue do
      if c.wpos >= Bytes.length c.wcur then
        match Queue.take_opt c.wqueue with
        | None ->
            continue := false;
            if c.draining then result := Some c.drain_reason
        | Some frame ->
            c.wcur <- Bytes.of_string frame;
            c.wpos <- 0
      else
        match
          Wire.write_nb c.fd c.wcur ~pos:c.wpos
            ~len:(Bytes.length c.wcur - c.wpos)
        with
        | Wire.Nb_wrote n ->
            c.wpos <- c.wpos + n;
            c.last_active <- now ()
        | Wire.Nb_blocked -> continue := false
        | Wire.Nb_write_error ->
            continue := false;
            result := Some Err_close
    done;
    !result
  in
  let accept_new () =
    let continue = ref true in
    while !continue && (not !shutting_down) && k.active < config.max_conns do
      match Wire.accept_nb listen_fd with
      | None -> continue := false
      | Some (fd, _peer) ->
          Unix.set_nonblock fd;
          k.accepted <- k.accepted + 1;
          k.active <- k.active + 1;
          Hashtbl.replace conns fd
            {
              fd;
              rbuf = Buffer.create 256;
              wqueue = Queue.create ();
              wcur = Bytes.create 0;
              wpos = 0;
              last_active = now ();
              draining = false;
              drain_reason = Ok_close;
              holding = false;
            }
    done
  in
  let finished () =
    !shutting_down
    && (Hashtbl.length conns = 0 || now () > !shutdown_deadline)
  in
  while not (finished ()) do
    (* During shutdown a connection with nothing left to flush is done —
       close it now rather than waiting out the drain deadline. *)
    if !shutting_down then begin
      let done_ =
        Hashtbl.fold
          (fun _ c acc -> if has_output c then acc else c :: acc)
          conns []
      in
      List.iter (fun c -> close_conn c c.drain_reason) done_
    end;
    let t_now = now () in
    (* While shutting down or at the connection cap, leave the listener out
       of the read set: new clients wait in the backlog instead of being
       multiplexed. *)
    let accepting = (not !shutting_down) && k.active < config.max_conns in
    let read_fds = ref (if accepting then [ listen_fd ] else []) in
    let write_fds = ref [] in
    Hashtbl.iter
      (fun fd c ->
        if not c.draining then read_fds := fd :: !read_fds;
        if has_output c then write_fds := fd :: !write_fds)
      conns;
    let timeout =
      let idle =
        if config.idle_timeout <= 0. then infinity
        else
          Hashtbl.fold
            (fun _ c acc ->
              Float.min acc (c.last_active +. config.idle_timeout -. t_now))
            conns infinity
      in
      let drain =
        if !shutting_down then !shutdown_deadline -. t_now else infinity
      in
      let tick_in =
        if !shutting_down then infinity else !next_tick -. t_now
      in
      match Float.min (Float.min idle drain) tick_in with
      | t when t = infinity -> -1. (* block until a descriptor is ready *)
      | t -> Float.max 0.01 t
    in
    match Wire.select_nb !read_fds !write_fds timeout with
    | readable, writable ->
        (* Each connection's events are fault-isolated: any error closes
           that connection only and lands in the counters. *)
        List.iter
          (fun fd ->
            if fd = listen_fd then accept_new ()
            else
              match Hashtbl.find_opt conns fd with
              | None -> ()
              | Some c -> (
                  match handle_readable c with
                  | Some reason -> close_conn c reason
                  | None -> ()))
          readable;
        (* All of this round's requests are handled: one fsync commits the
           round's durable writes and releases every parked ack, before
           the write pass so freshly released responses can go out with
           anything already queued. *)
        release_pending ();
        List.iter
          (fun fd ->
            match Hashtbl.find_opt conns fd with
            | None -> ()
            | Some c -> (
                match handle_writable c with
                | Some reason -> close_conn c reason
                | None -> ()))
          writable;
        if config.idle_timeout > 0. then begin
          let t_now = now () in
          let stale =
            Hashtbl.fold
              (fun _ c acc ->
                if t_now -. c.last_active > config.idle_timeout then c :: acc
                else acc)
              conns []
          in
          List.iter (fun c -> close_conn c Timeout_close) stale
        end;
        (match tick with
        | Some f when (not !shutting_down) && now () >= !next_tick ->
            (* A tick failure (e.g. the replication primary vanished) must
               not take the read path down with it. *)
            (try f () with _ -> ()) (* lint: allow no-swallow *);
            next_tick := now () +. tick_every
        | _ -> ())
  done;
  (* Drain deadline passed or every response flushed: whatever remains is
     force-closed in an orderly way. *)
  Hashtbl.fold (fun _ c acc -> c :: acc) conns []
  |> List.iter (fun c -> close_conn c Ok_close);
  Unix.close listen_fd;
  k
