(** Persistent chunk storage: an append-only log file plus an in-memory
    cid → offset index (§4.4).  Immutable chunks make a log-structured
    layout natural and give fast retrieval of consecutively generated
    POS-Tree chunks.

    The file format is a sequence of records, each a varint length followed
    by the serialized chunk.  Opening an existing file replays the log to
    rebuild the index, skipping a trailing torn record if the process died
    mid-append. *)

type t

exception
  Corrupt_log of { file : string; off : int; reason : string }
(** A length-complete record at byte [off] whose body does not decode —
    bit rot, as opposed to a torn tail (which is silently dropped). *)

val open_ : ?sync_every:int -> string -> t
(** [open_ path] creates or re-opens the log at [path].  [sync_every]
    fsyncs after that many appended chunks (default 512; [0] = never).

    Replay tolerates a torn {e tail} (crash mid-append) by truncating it,
    including a tail torn mid-length-header or whose length overruns the
    file; a complete record that fails to decode anywhere else raises
    {!Corrupt_log} naming the file offset. *)

val close : t -> unit
(** Flushes and fsyncs before closing, regardless of [sync_every]: a closed
    log is always durable. *)

val crash : t -> unit
(** Release the file descriptors {e without} the close-time fsync — a
    deterministic stand-in for SIGKILLing the process at an operation
    boundary.  The log on disk is left exactly as the write path flushed
    it; combine with an explicit truncation to model a torn tail. *)

val store : t -> Chunk_store.t
(** The generic store interface backed by this log. *)

val flush : t -> unit
(** Push buffered appends to the OS (survives a process crash). *)

val sync : t -> unit
(** [flush] plus [fsync]: survives power loss. *)

val file_size : t -> int
