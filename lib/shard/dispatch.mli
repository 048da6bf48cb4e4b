(** The dispatcher: a partition-map-caching smart client over a sharded
    cluster (§4.4's dispatcher role, realized client-side).

    Every key-addressed operation is routed to the key's home shard under
    the cached map.  A [Redirect] answer is the stale-map signal — the
    dispatcher refreshes (polling every known shard and keeping the
    highest version) and retries; a [Retry] answer means the key is
    fenced mid-rebalance — back off and retry; a vanished shard is ridden
    out by reconnecting with bounded retries, which covers a SIGKILLed
    shard being respawned on its port.  All of it is bounded by a retry
    budget; exhaustion raises {!Unroutable} instead of hanging.

    The dispatcher is also the rebalance driver ({!add_shard}) and the
    two-layer client ({!put_scattered} / {!get_scattered}): cross-shard
    chunk movement is dispatcher-mediated over the ownership-exempt admin
    requests, never shard-to-shard — two single-threaded shard event
    loops calling each other synchronously would deadlock. *)

type t

exception Unroutable of string
(** The routing retry budget ran out: no shard would accept the
    operation (cluster unreachable, or a rebalance fence never lifted). *)

exception Rebalance_failed of string
(** A rebalance step failed halfway (map install rejected, a chunk
    closure unresolvable from any shard).  The fence map may still be
    installed: re-running {!add_shard} after fixing the cause is safe —
    chunk pushes and head restores are idempotent. *)

val connect :
  ?conn_retries:int ->
  ?route_retries:int ->
  ?backoff:float ->
  ?cfg:Fbtree.Tree_config.t ->
  host:string ->
  port:int ->
  unit ->
  t
(** Bootstrap from any one shard: fetch its map, then talk to the whole
    cluster.  [conn_retries] (default 20) bounds per-connection
    [ECONNREFUSED] retries, [route_retries] (default 400) bounds the
    per-operation routing loop, [backoff] (default 5ms) is the initial
    retry sleep (doubled, capped at 200ms).  Raises {!Unroutable} when
    the seed shard cannot be reached at all (retries exhausted or
    unknown host). *)

val of_map :
  ?conn_retries:int ->
  ?route_retries:int ->
  ?backoff:float ->
  ?cfg:Fbtree.Tree_config.t ->
  Shard_map.t ->
  t
(** A dispatcher over an already-known map (e.g. fresh from
    {!Shard.spawn_cluster}) without the bootstrap round trip. *)

val map : t -> Shard_map.t
(** The currently cached partition map. *)

val close : t -> unit

(** {1 Routed operations} *)

val client : t -> Fbremote.Client.t
(** The dispatcher as an access handle: every {!Fbremote.Client} verb
    works on it.  Key-addressed requests ([Put] / [Get] / [Fork] /
    [Merge] / [Track] / [List_branches]) go to the key's home shard
    under the cached map, with [Redirect] answers turned into map
    refreshes, [Retry] answers into backoff, and vanished shards into
    reconnects, all within the routing budget ({!Unroutable} when it
    runs out).  [List_keys] answers the union over every shard, sorted
    and deduplicated.  Every other request is answered with a
    [Wire.Error] ("not routable through the dispatcher"), which the
    typed verbs raise as {!Fbremote.Client.Remote_failure}.  Closing the
    handle is a no-op; {!close} the dispatcher itself. *)

(** The typed verbs over {!client} that the benchmarks call directly
    (everything else: [Client.f (client d)]).  Each raises {!Unroutable} when the
    retry budget is exhausted and {!Fbremote.Client.Remote_failure} for
    genuine server-side errors (unknown branch, merge conflict, ...). *)

val put :
  ?branch:string -> ?context:string -> t -> key:string ->
  Fbremote.Wire.value -> Fbchunk.Cid.t

val get : ?branch:string -> t -> key:string -> Fbremote.Wire.value
val fork : t -> key:string -> from_branch:string -> new_branch:string -> unit

val merge :
  ?resolver:string -> t -> key:string -> target:string -> ref_branch:string ->
  Fbchunk.Cid.t

val stats : t -> Fbremote.Wire.stats list
(** Per-shard stats, in shard order — the CLI's cluster-status view. *)

val quit_all : t -> unit
(** Ask every shard to shut down gracefully, then {!close}. *)

(** {1 Rebalance} *)

val add_shard : t -> host:string -> port:int -> int
(** Grow the cluster by the (already running, e.g. {!Shard.spawn}ed with
    an out-of-range [self]) shard at [host:port], migrating every key
    whose mod-N home changes, with zero lost acknowledged writes —
    concurrent writers only ever see bounded [Redirect]/[Retry] windows
    on the moving keys.  The protocol is fence / copy / lift: install
    map v+1 with the moved keys fenced on every shard (no shard accepts
    a fenced key, so no write can be acknowledged and then clobbered),
    copy each moved key's branches + chunk closure old-owner → new-owner
    through the dispatcher, then install map v+2 with the fence lifted.
    Returns the number of keys moved.
    @raise Rebalance_failed on a half-completed step (safe to re-run). *)

(** {1 Two-layer mode (§4.6)}

    The paper's meta-local / value-partitioned split: the dispatcher
    builds the POS-Tree locally over a buffering store, scatters value
    chunks to their cid-owners ([Partition.node_of_cid]), pushes the meta
    chunk to the key's home shard, and installs the head there.  Chunk
    placement then matches the in-process simulation (lib/cluster,
    [Two_layer]) chunk for chunk — the differential test pins this.
    Reads gather through a read-through cluster store (cache, then
    cid-owner, then anywhere). *)

val put_scattered :
  ?branch:string -> ?context:string -> t -> key:string -> string ->
  Fbchunk.Cid.t
(** Blob put in two-layer placement; returns the new head uid, which
    equals what an embedded [Db.put] of the same content would mint
    (same FObject derivation), so heads are comparable across real and
    simulated clusters. *)

val get_scattered :
  ?branch:string -> t -> key:string -> Fbtypes.Value.t option
(** Read back a two-layer value ([None] when branch/key unknown). *)
