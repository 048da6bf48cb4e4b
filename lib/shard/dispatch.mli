(** The dispatcher: a partition-map-caching smart client over a sharded
    cluster (§4.4's dispatcher role, realized client-side).

    Every key-addressed operation is routed to the key's home shard under
    the cached map.  A [Redirect] answer is the stale-map signal — the
    dispatcher refreshes (polling every known shard and keeping the
    highest version) and retries; a [Retry] answer means the key is
    fenced mid-rebalance — back off and retry; a vanished shard is ridden
    out by reconnecting with bounded retries, which covers a SIGKILLed
    shard being respawned on its port.  All of it is bounded by a retry
    budget; exhaustion raises {!Unroutable} instead of hanging.  A
    shard's {!Fbremote.Client.Protocol_error} drops the cached
    connection (the socket may be stopped mid-frame) and propagates.

    Placement is one-layer: a key's home shard stores the key's branch
    table and its whole chunk closure, so every shard's store is
    self-contained and fsck-clean on its own.  (The paper's two-layer
    split, value chunks partitioned by cid, survives only as the
    in-process [Fbcluster.Cluster] model behind Figure 15.)

    The dispatcher is also the rebalance driver ({!add_shard}):
    cross-shard chunk movement is dispatcher-mediated over the
    ownership-exempt admin requests, never shard-to-shard — two
    single-threaded shard event loops calling each other synchronously
    would deadlock. *)

type t

exception Unroutable of string
(** The routing retry budget ran out: no shard would accept the
    operation (cluster unreachable, or a rebalance fence never lifted). *)

exception Rebalance_failed of string
(** A rebalance step failed halfway (map install rejected, a moved
    key's old owner unreachable or missing part of its chunk closure).
    The fence map may still be installed: re-running {!add_shard} after
    fixing the cause is safe — chunk pushes and head restores are
    idempotent. *)

val connect : host:string -> port:int -> unit -> t
(** Bootstrap from any one shard: fetch its map, then talk to the whole
    cluster.  Each connection retries [ECONNREFUSED] 20 times, and each
    operation's routing loop makes up to 400 attempts, sleeping 5 ms
    before the first retry (doubled, capped at 200 ms).  Raises
    {!Unroutable} when the seed shard cannot be reached at all (retries
    exhausted or unknown host). *)

val of_map : Shard_map.t -> t
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
    through the dispatcher ({!Forkbase.Closure.walk} over the old
    owner's [Fetch_chunks], each answer pushed to the new owner as it
    arrives), then install map v+2 with the fence lifted.
    Returns the number of keys moved.
    @raise Rebalance_failed on a half-completed step (safe to re-run). *)
