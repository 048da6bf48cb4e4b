(** Chunk garbage collection.

    Content-addressed chunks are immutable and shared, so nothing can be
    deleted in place; instead, liveness is defined by reachability from
    the branch tables: every tagged and untagged head, its full derivation
    history (versioning keeps history readable), and every POS-Tree chunk
    those versions reference.  Chunks become garbage only when branches
    are removed ([Remove], M14) or untagged heads are merged away.

    [sweep] copies the live set into a fresh store — the natural collection
    strategy for a log-structured layout (write a compacted log, swap).
    Reachability is {!Closure.walk} over the local store. *)

val sweep : Db.t -> into:Fbchunk.Chunk_store.t -> int * int
(** Copy every reachable chunk into [into]; returns
    [(live_chunks, live_bytes)].  The source store is left untouched. *)

val garbage_stats : Db.t -> int * int
(** [(garbage_chunks, garbage_bytes)]: what a sweep would reclaim,
    computed against the source store's totals. *)
