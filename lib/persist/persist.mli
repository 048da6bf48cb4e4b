(** Durable ForkBase database.

    Combines the append-only chunk log (§4.4) with a write-ahead journal
    for the per-key branch tables of §4.5 — the only mutable state in the
    system — so a {!Forkbase.Db.t} survives crashes:

    - every mutation is journaled as one atomic entry before the operation
      returns, with the referenced chunks flushed first;
    - {!open_db} replays the journal to rebuild every branch table and
      validates each recovered head against the chunk store;
    - {!checkpoint} snapshots the branch tables into a fresh journal
      (atomic rename), and {!compact} additionally sweeps live chunks into
      a fresh chunk log, reclaiming unreachable versions online. *)

type corruption =
  | Missing_head of {
      key : string;
      branch : string option;  (** [None] for an untagged head *)
      uid : Fbchunk.Cid.t;
    }
  | Bad_journal of { path : string; reason : string }
  | Bad_chunk_log of { path : string; off : int; reason : string }
      (** a length-complete chunk record that fails to decode (bit rot), as
          opposed to a torn tail, which recovery drops silently *)

exception Corrupt_db of corruption

val corruption_to_string : corruption -> string

type t

val open_db :
  ?cfg:Fbtree.Tree_config.t ->
  ?sync_every:int ->
  ?journal_sync_every:int ->
  ?wrap_store:(Fbchunk.Chunk_store.t -> Fbchunk.Chunk_store.t) ->
  ?recovery_check:(Forkbase.Db.t -> unit) ->
  string ->
  t
(** [open_db dir] opens (creating if needed) the durable database in
    [dir]: chunk log [dir/chunks.log] plus branch journal
    [dir/branches.journal].  Torn tails in either file — from a crash
    mid-append — are dropped, recovering the committed prefix.

    [sync_every] is the chunk log's fsync batch (in chunks, default 512;
    [0] = only on close).  [journal_sync_every] is the journal's fsync
    batch in {e operations} (default 1: every operation is durable against
    power loss when it returns; raise it to trade durability lag for
    throughput — entries are still flushed to the OS per operation, so a
    process crash loses nothing either way).

    [wrap_store] wraps the database's view of the chunk store (between the
    connector and the redirectable log store, so online compaction keeps
    working underneath) — the hook the fault-injection layer
    ({!Fbcheck.Failpoint}) uses to schedule faults against a live durable
    db.  [recovery_check] runs after journal replay and head validation,
    before the first new operation can be journaled; pass e.g. a
    {!Fbcheck.Fsck} invocation for an optional deep post-recovery verify
    (raise to refuse the store; the files are closed first).

    @raise Corrupt_db when the journal is malformed or a recovered head
    does not resolve in the chunk store. *)

val db : t -> Forkbase.Db.t
(** The connector backed by this durable store.  Use it exactly like an
    in-memory db; every branch mutation is journaled transparently. *)

val sync : t -> unit
(** Force chunk log then journal to disk (fsync). *)

val set_deferred_sync : t -> bool -> unit
(** Group-commit mode: with deferred sync on, the per-operation
    [journal_sync_every] auto-fsync is suppressed — operations are still
    flushed to the OS per entry (process-crash safe), but power-loss
    durability waits for an explicit {!sync}.  The network server uses
    this to batch many concurrent writers behind one fsync per event-loop
    round, holding their acknowledgements until the shared {!sync}
    returns; per-{e ack} durability is therefore unchanged.  Off by
    default. *)

val unsynced_ops : t -> int
(** Operations journaled since the last fsync — what one {!sync} would
    make power-loss durable. *)

val fsync_dir : string -> unit
(** fsync a directory, making previously performed renames in it durable.
    Called internally after every tmp-over-live rename ({!checkpoint},
    {!compact}); exposed for tests and tooling. *)

val dir_fsync_count : unit -> int
(** Process-wide count of {!fsync_dir} calls (regression hook: every
    rename in the checkpoint/compaction paths must be followed by one). *)

val checkpoint : t -> unit
(** Snapshot all branch tables into a single-entry journal and atomically
    swap it in.  Bounds journal size and recovery replay time. *)

val compact : t -> int * int
(** Online garbage collection: sweep every chunk reachable from a branch
    head into a fresh chunk log, atomically swap the log files, redirect
    the live db, then {!checkpoint}.  Returns reclaimed [(chunks, bytes)]
    — at least the garbage measured by {!Forkbase.Gc.garbage_stats}. *)

val garbage_stats : t -> int * int
(** [(chunks, bytes)] currently unreachable, i.e. what {!compact} would
    reclaim. *)

val journal_size : t -> int
val chunk_log_size : t -> int

(** {1 Replication (lib/replica)}

    The branch journal doubles as a replicable operation log: every
    committed entry carries a monotonically increasing sequence number, a
    primary serves its tail to followers, and a follower applies shipped
    entries to its own durable store — journaling them locally under the
    same sequence numbers, so it is itself crash-recoverable and
    promotable. *)

val journal_seq : t -> int
(** Sequence number of the last committed journal entry ([0] for a fresh
    store).  Recovered from the journal on open; replication lag between
    two stores is the difference of their sequences. *)

val pull_entries :
  t -> from_seq:int -> max_entries:int -> (int * Journal.record list) list
(** Committed journal entries with sequence strictly greater than
    [from_seq], at most [max_entries], in append order.  After a
    checkpoint rotated the journal, a [from_seq] older than the rotation
    yields the checkpoint snapshot entry first — the follower's bootstrap
    path. *)

val apply_replicated : t -> seq:int -> Journal.record list -> unit
(** Apply one replicated journal entry to this store: journal it locally
    under [seq], then replay its records into the branch tables (without
    re-executing the originating operation or re-firing the journal
    hook).  Every chunk the records reference must already be in this
    store's chunk store — the caller backfills missing chunks first
    ({!Fbremote.Wire} [Fetch_chunks]).  Entries at or below
    {!journal_seq} are ignored (duplicate delivery after a reconnect).
    A mutation entry must arrive gaplessly at [journal_seq + 1]
    ([Invalid_argument] otherwise); a checkpoint-snapshot entry may jump
    to any higher sequence — it supersedes everything before it, which is
    exactly how a follower whose position was compacted away
    re-bootstraps. *)

val close : t -> unit
(** Syncs both files and closes them. *)

val crash : t -> unit
(** Abandon the database as a SIGKILL at an operation boundary would: the
    files are released without the close-time fsync, checkpoint, or any
    other graceful-shutdown work.  Every acknowledged operation is already
    flushed, so {!open_db} on the same directory recovers exactly the acked
    state — the deterministic, in-process replacement for the old
    fork+SIGKILL crash harness. *)
