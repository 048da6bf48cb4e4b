(** A fault-isolated, multiplexed ForkBase network server.

    Listens on a TCP socket and serves many concurrent connections from a
    single process with a [select]-based event loop: per-connection
    incremental read buffers reassemble frames across partial reads on
    non-blocking sockets, per-connection write queues resume partial
    writes, idle connections are reaped, and the connection count is
    capped.  Every connection is fault-isolated — a peer that disconnects
    mid-request, sends garbage, or announces an oversized frame loses
    {e its} connection (recorded in the {!counters}) while every other
    client keeps being served.  A {!Wire.Quit} request triggers a graceful
    shutdown: accepting stops and in-flight responses are drained before
    sockets close. *)

val listen : ?backlog:int -> port:int -> unit -> Unix.file_descr
(** Bind and listen on 127.0.0.1:[port]; [port] 0 picks an ephemeral one.
    Also ignores [SIGPIPE] for the process (see {!Wire.ignore_sigpipe}). *)

val bound_port : Unix.file_descr -> int

type counters = {
  mutable accepted : int;  (** connections accepted since start *)
  mutable active : int;  (** connections currently open *)
  mutable closed_ok : int;  (** orderly closes *)
  mutable closed_err : int;
      (** faulted closes: disconnect mid-frame, protocol violation,
          oversized frame, socket error *)
  mutable frames_in : int;  (** complete request frames decoded *)
  mutable frames_out : int;  (** response frames queued *)
  mutable timeouts : int;  (** idle connections reaped *)
  mutable group_commits : int;
      (** batched fsyncs performed by the group-commit path (one per
          event-loop round with parked write acks) *)
  mutable acks_released : int;
      (** write acknowledgements released by group commits;
          [acks_released / group_commits] is the amortization factor *)
}
(** Per-server serving counters, also spliced into every [Stats] response
    answered while serving. *)

type config = {
  max_conns : int;
      (** accepting pauses at this many open connections; further clients
          wait in the listen backlog (default 64) *)
  idle_timeout : float;
      (** seconds without traffic before a connection is reaped;
          [<= 0.] disables (default) *)
  max_frame_bytes : int;
      (** request frames announcing more than this are rejected without
          allocating the announced size
          (default {!Wire.default_max_frame_bytes}) *)
  drain_timeout : float;
      (** grace period for flushing in-flight responses during graceful
          shutdown (default 5s) *)
}

val default_config : config

type journal_hooks = {
  j_seq : unit -> int;  (** current journal sequence *)
  j_bytes : unit -> int;  (** on-disk journal size *)
  j_pull : from_seq:int -> string list;
      (** encoded journal entries after [from_seq], batch-bounded by the
          provider ({!Fbreplica.Replica.journal_hooks}) *)
}
(** Journal access that makes a server a replication source: [Stats]
    answers carry the journal sequence/size, and [Pull_journal] is served
    from [j_pull].  Without hooks both degrade gracefully ([0]s and an
    [Error]). *)

val max_fetch_chunks : int
(** Upper bound on cids per [Fetch_chunks] request — and on chunks per
    [Push_chunks] request — (512); larger requests are answered with an
    [Error] so a response cannot blow the frame limit. *)

type shard_role
(** Makes a server one shard of a partitioned cluster: key-addressed
    client requests ([Put] / [Get] / [Fork] / [Merge] / [Track] /
    [List_branches]) are gated on ownership under the installed
    {!Wire.shard_map} — keys homed elsewhere answer [Redirect] to their
    owner, keys fenced by a mid-rebalance map answer [Retry] — and the
    map-exchange requests ([Get_map] / [Set_map]) are served.  Admin /
    replication requests ([Fetch_chunks], [Push_chunks],
    [Restore_branch], [Export_key], [Pull_journal]) bypass the gate so a
    rebalance driver can move a key while no shard serves it. *)

val shard_role :
  self:int ->
  route:(servlets:int -> string -> int) ->
  persist_map:(Wire.shard_map -> unit) ->
  Wire.shard_map ->
  shard_role
(** [self] is this server's index in the map's [shards] array; [route] is
    the key-to-shard function (injected —
    [Fbcluster.Partition.servlet_of_key] in production — so fbremote does
    not depend on fbcluster); [persist_map] is called after every
    successful [Set_map] install so the map survives a crash/restart. *)

val serve :
  ?checkpoint:(unit -> int * int) ->
  ?journal:journal_hooks ->
  ?redirect:string * int ->
  ?shard:shard_role ->
  ?group_commit:(unit -> unit) ->
  ?tick:(unit -> unit) ->
  ?tick_every:float ->
  ?now:(unit -> float) ->
  ?config:config ->
  Forkbase.Db.t ->
  Unix.file_descr ->
  counters
(** Event loop; returns the final counters after a [Quit]-initiated
    graceful shutdown.  The listening socket is closed on exit.  No peer
    behaviour — disconnects, resets, garbage, oversized frames — raises
    out of [serve]; per-connection faults only close that connection.
    [checkpoint] is supplied when the db is backed by a durable store
    (lib/persist): it runs checkpoint + compaction and returns the
    reclaimed (chunks, bytes); without it a [Checkpoint] request is
    answered with an error.  [journal] makes the server a replication
    source (see {!journal_hooks}).  [redirect] puts it in follower mode:
    write requests ([Put] / [Fork] / [Merge] / [Checkpoint]) are answered
    with [Redirect] naming the primary instead of executing.

    [shard] makes the server one shard of a partitioned cluster (see
    {!shard_role}).

    [group_commit] enables group commit over a durable store opened with
    {!Fbpersist.Persist.set_deferred_sync}: responses to durable writes
    ([Put] / [Fork] / [Merge] / [Push_chunks] / [Restore_branch]) are
    parked, and once per event-loop round
    the hook (typically [fun () -> Persist.sync p]) runs {e once} before
    the whole batch of acknowledgements is released — N concurrent
    writers share one fsync per round instead of paying one each, with
    unchanged per-ack durability.  Progress is visible in the
    [group_commits] / [acks_released] counters.

    [now] is the loop's time source (default {!Clock.monotonic}), driving
    idle timeouts, the drain deadline and the tick schedule.  It must be
    monotone non-decreasing; the default is immune to wall-clock (NTP)
    steps.  Injectable for deterministic timeout tests.

    [tick] is invoked between event rounds, at most every [tick_every]
    seconds (default 0.05) — the hook a follower's replication sync runs
    in, so journal application is serialized with request handling; a
    raising tick is swallowed (the serving side must survive a vanished
    primary). *)

val handle :
  ?checkpoint:(unit -> int * int) ->
  ?journal:journal_hooks ->
  ?redirect:string * int ->
  ?shard:shard_role ->
  Forkbase.Db.t ->
  Wire.request ->
  Wire.response
(** The request dispatcher: one request against [db], exactly as
    {!serve} answers it.  {!Client.local} is this, as an access
    handle. *)

val stats_of_db : Forkbase.Db.t -> Wire.stats
(** Db-level stats with all connection counters zero; {!serve} fills them
    in when answering over the wire. *)

val to_wire_value : Fbtypes.Value.t -> Wire.value
(** The materialization a [Get] response performs (blobs and containers
    read back through the store into plain data).  Code that needs the
    whole API over an embedded store uses {!Client.local}, which runs
    {!handle} and so materializes through this; it is exposed for
    callers that read a [Db] directly but compare results in the wire
    value domain (the benchmark's replay and lost-write checks). *)
