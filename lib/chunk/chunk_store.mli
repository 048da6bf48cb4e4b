(** Content-addressed chunk storage (§4.4).

    The store exposes a key-value interface where the key is a cid and the
    value is the chunk bytes.  Puts of an existing cid are free thanks to
    deduplication.  A store is a record of closures so that higher layers
    (caches, partitioned cluster stores, byte counters) can wrap any
    backend uniformly. *)

type stats = {
  mutable puts : int;  (** put requests received *)
  mutable dedup_hits : int;  (** puts answered without storing *)
  mutable gets : int;
  mutable misses : int;
  mutable chunks : int;  (** distinct chunks held *)
  mutable bytes : int;  (** serialized bytes held *)
}

val fresh_stats : unit -> stats
val pp_stats : Format.formatter -> stats -> unit

type t = {
  put : Chunk.t -> Cid.t;
  get : Cid.t -> Chunk.t option;
  mem : Cid.t -> bool;
  stats : unit -> stats;
}

exception Missing_chunk of Cid.t
exception Corrupt_chunk of Cid.t

exception Injected_fault of string
(** Raised by {!faulty} wrappers on a scheduled fault — never by a real
    backend, so tests can distinguish injected failures from genuine bugs. *)

val get_exn : t -> Cid.t -> Chunk.t
(** @raise Missing_chunk when absent. *)

val mem_store : unit -> t
(** Volatile in-memory store backed by a hash table. *)

val verifying : t -> t
(** Wrap a store so every [get] re-hashes the chunk and raises
    {!Corrupt_chunk} on a cid mismatch — the client-side tamper check. *)

type fault = [ `Pass | `Fail | `Drop | `Corrupt of int ]
(** Verdict for one store operation: execute it, raise {!Injected_fault},
    pretend it happened without doing it (lost write / missing read), or —
    on get — flip one payload byte of the fetched chunk (the byte index is
    the given offset mod the payload size; the tag byte is never touched so
    the damaged chunk still decodes but fails the cid re-hash). *)

val faulty : put:(int -> fault) -> get:(int -> fault) -> t -> t
(** Wrap a store with deterministic fault injection: [put n] / [get n] are
    consulted with the zero-based operation index (separate counters per
    wrapper) before each call, so crash-recovery and bit-rot paths become
    unit-testable.  [`Corrupt _] on a put behaves as [`Pass] — a
    content-addressed put cannot store the wrong bytes for a cid.
    The schedule closures live in {!Fbcheck.Failpoint} (lib/check). *)

val counting :
  t -> read_bytes:int ref -> written_bytes:int ref -> t
(** Wrap a store, accumulating transferred byte counts (used by the cluster
    simulator to model network traffic).  [written_bytes] grows only by
    what the inner store {e newly} stored — a deduplicated put writes
    nothing, matching the §4.4 savings accounting. *)

val with_cache : ?capacity:int -> t -> t
(** Client-side chunk cache (FIFO eviction).  Models the servlet/client
    caches of §4.6 and the wiki experiment of §6.3.1.  A [capacity <= 0]
    returns the inner store unchanged. *)

val redirectable : t -> t * (t -> unit)
(** [redirectable inner] is a store forwarding every call to a swappable
    target, initially [inner], plus the setter that swaps it.  Online
    compaction (lib/persist) uses this to point a live [Db.t] at a freshly
    swept log without rebuilding the database. *)

val replicated : t list -> replicas:int -> route:(Cid.t -> int) -> t
(** Replicated pool (§4.4): a chunk is written to [replicas] consecutive
    members starting at [route cid]; reads fall back to the next replica
    when a member misses or returns corrupted bytes, so the pool tolerates
    up to [replicas - 1] damaged members per chunk. *)
