(** The mixed-workload chaos soak harness — ForkBase's long-running
    confidence test.

    One run stands up a {e real} topology: a primary server in a child
    process (spawned exactly as `forkbase serve` would run, group commit
    on), plus in-process catch-up followers ({!Fbreplica.Replica}), each
    on its own durable store.  A single driver then interleaves three
    applications' traffic over the wire ({!Apps}: Redis-style KV, a
    fork/edit/merge wiki, a conservation-checked ledger) while a
    deterministic chaos schedule ({!Chaos}) — fixed from the seed before
    the run — injects follower store faults, SIGKILLs and restarts the
    primary, forces checkpoint+compaction races, and promotes followers.

    Three invariant families are asserted continuously and at every
    quiesce point:

    - {b fsck-clean stores}: {!Fbcheck.Fsck} over every follower store at
      each full verify, and over a primary's directory whenever its
      process is dead (after kills, before promotion, at shutdown);
    - {b model-consistent application state}: inline read-backs during
      traffic plus full {!Fbcheck.App_model} diffs of the primary (over
      the wire) and the followers ({!Fbremote.Client.local} handles on
      their stores);
    - {b replication convergence}: after each quiesce every follower is
      synced until caught up ([lag = 0]) and its full head map must equal
      the primary's ({!Fbcheck.Convergence}).

    Everything is replayable: the chaos schedule, workload, and fault
    schedules derive from [config.seed] alone, a failing run raises
    {!Soak_failed} carrying the seed and the chaos-event log, and
    {!failure_report} prints the `forkbase soak` command that replays
    it.  {!run_sharded} runs the same driver over a sharded cluster. *)

type config = {
  seed : int64;  (** drives workload, chaos schedule, and fault plans *)
  total_ops : int;  (** driver operations (the schedule's time axis) *)
  followers : int;  (** catch-up followers (>= 1; promotion needs one) *)
  chaos_events : int;  (** >= 4 guarantees all four kinds fire *)
  sync_every : int;  (** follower sync-step cadence, in driver ops *)
  verify_every : int;  (** full quiesce-and-verify cadence, in driver ops *)
  kv_keys : int;
  wiki_pages : int;
  accounts : int;
  theta : float;  (** zipfian skew for all three applications *)
  page_bytes : int;
  value_bytes : int;
  deadline : float option;
      (** wall-clock budget in seconds; the run stops early (and is
          marked {!outcome.timed_out}) once exceeded.  [None] — the short
          profile — never consults the clock, which is what makes it
          bit-for-bit deterministic. *)
  sabotage_at : int option;
      (** test hook: at this operation, corrupt a follower's chunk log
          behind the harness's back — the next fsck {e must} fail,
          proving a real invariant violation produces a failure report *)
  scratch : string option;  (** store directories root; [None] = temp *)
  keep_scratch : bool;  (** keep stores on success (always kept on failure) *)
  log : string -> unit;  (** progress lines; [ignore] for silence *)
}

val short_config : ?seed:int64 -> ?ops:int -> ?log:(string -> unit) -> unit -> config
(** The deterministic profile `dune runtest` runs: small keyspaces, a
    few hundred operations, no clock — same seed, same run, same event
    log. *)

val long_config :
  ?seed:int64 -> ?seconds:float -> ?ops:int -> ?log:(string -> unit) -> unit -> config
(** The wall-clock soak (`forkbase soak --profile long`): bigger
    keyspaces, [ops] scaled up, stopping after [seconds] (default 60). *)

type outcome = {
  ops_done : int;
  events_fired : (string * int) list;
      (** per {!Chaos.kind_name}, how many events actually fired *)
  inline_checks : int;  (** read-backs checked against the oracle *)
  full_verifies : int;  (** quiesce-and-verify-everything passes *)
  stores_fscked : int;  (** fsck reports required clean *)
  convergence_checks : int;  (** follower head maps diffed against primary *)
  model_checks : int;  (** full application-state diffs (primary + followers) *)
  faults_injected : int;  (** follower store faults that actually fired *)
  ops_by_app : (string * int) list;
  timed_out : bool;  (** the {!config.deadline} cut the run short *)
}

type failure = {
  f_seed : int64;
  f_at_op : int;
  f_what : string;  (** which invariant (or step) failed *)
  f_detail : string list;  (** mismatch / violation / divergence lines *)
  f_schedule : string list;  (** the full chaos schedule, rendered *)
  f_fired : string list;  (** events that had fired, in order *)
  f_scratch : string;  (** preserved store directories for post-mortem *)
  f_replay : string;  (** the CLI command that replays this run *)
}

exception Soak_failed of failure

val failure_report : failure -> string
(** The multi-line report: what failed at which operation, the seed, the
    chaos-event log, and the replay command — everything needed to
    reproduce the run. *)

val run : config -> outcome
(** Run the soak.  @raise Soak_failed on any invariant violation. *)

val run_sharded : shards:int -> config -> outcome
(** The same driver over a second topology (`forkbase soak --shards N`):
    the three-application {!Apps} workload, deadline, failure report and
    outcome record of {!run}, with traffic going through a
    {!Fbshard.Dispatch.client} handle over [shards] real shard
    processes.  Only the chaos and the quiesce step differ.  There are
    two chaos events: at [total_ops/3] shard 0 is SIGKILLed and
    respawned on its port, and at [2*total_ops/3] a live fence/copy/lift
    rebalance ({!Fbshard.Dispatch.add_shard}) adds a shard while writes
    continue.  At every quiesce the full application state is diffed
    through the dispatcher handle, and after shutdown every shard store
    must fsck clean.  [followers], [chaos_events], [sync_every] and
    [sabotage_at] are ignored. *)
