(** One shard of a partitioned ForkBase cluster: a {!Fbremote.Server}
    over its own durable {!Fbpersist} store, serving only the keys the
    partition map homes on it (everything else answers [Redirect]; keys
    fenced mid-rebalance answer [Retry]).  It serves through
    {!Fbreplica.Replica.serve_primary}, the same durable path as
    `forkbase serve` — group commit, compaction trigger and replication
    hooks — so a shard is also a valid primary for {!Fbreplica}
    followers, which is how per-shard read scaling works. *)

val serve :
  dir:string ->
  self:int ->
  map:Shard_map.t ->
  Unix.file_descr ->
  Fbremote.Server.counters
(** Open (or re-open) the shard store in [dir] and serve on [listen_fd]
    as shard [self].  The map actually served under is the newest of
    [map] and the one persisted in [dir] (see {!Shard_map.save}) — a
    killed shard respawned with its original bootstrap map must not
    forget a rebalance it already installed. *)

val spawn :
  ?port:int ->
  dir:string ->
  self:int ->
  map:Shard_map.t ->
  unit ->
  Fbremote.Procs.t
(** {!serve} in a forked child on a parent-bound listener
    ({!Fbremote.Procs.spawn}); [port] defaults to an ephemeral one, or
    pass the old port to model a supervisor restart after
    {!Fbremote.Procs.kill}. *)

val spawn_cluster :
  dirs:string list -> unit -> Fbremote.Procs.t list * Shard_map.t
(** Spawn one shard per store directory: all listeners are bound first
    (ephemeral ports), the version-1 partition map is built from the
    assigned ports, and only then does each child fork with the complete
    map — no bootstrap window in which a shard serves without knowing
    its peers.  The map names every shard at 127.0.0.1. *)
