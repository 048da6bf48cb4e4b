(** Spawning real durable server processes — primaries and serving
    followers — for the tests, the benches and the soak harness.

    Built on {!Fbremote.Procs}: the parent binds the (ephemeral or fixed)
    port, the forked child opens the durable store and serves it exactly
    as the CLI does: a primary through {!Replica.serve_primary} (journal
    hooks, compaction trigger, group commit — `forkbase serve`), a
    follower through {!Replica.serve} (`forkbase follow`).  A child that
    raises exits 1.

    Killing the child with {!Fbremote.Procs.kill} is a faithful crash:
    the store's recovery path replays the journal on the next open.
    Respawning on {!Fbremote.Procs.port} models a supervisor restart on
    stable storage. *)

val spawn_primary : ?port:int -> dir:string -> unit -> Fbremote.Procs.t
(** Serve the durable store in [dir] from a child process through
    {!Replica.serve_primary}.  [port] defaults to an ephemeral one; pass
    the previous {!Fbremote.Procs.port} to restart a killed primary where
    its clients expect it. *)

val spawn_follower :
  ?port:int -> dir:string -> host:string -> primary_port:int -> unit ->
  Fbremote.Procs.t
(** Serve a read-only catch-up follower of [host:primary_port] from a
    child process, as `forkbase follow` would: reads from its local
    store in [dir], writes answered with [Redirect], the sync loop on
    the server tick. *)
