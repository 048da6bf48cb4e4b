(** An in-memory multi-versioned key-value store with Redis-style string
    and list types — the wiki baseline of §6.3.  Every stored version is a
    full copy (no deduplication); persisted size is accounted with LZSS
    compression, mirroring Redis's compressed persistence. *)

type t

val create : unit -> t

(** {1 String type} *)

val set : t -> string -> string -> unit
val get : t -> string -> string option

(** {1 List type} (one list per key; used to hold page versions) *)

val rpush : t -> string -> string -> int
(** Append; returns the new list length. *)

val llen : t -> string -> int
val lindex : t -> string -> int -> string option
(** Negative indices count from the end, Redis-style. *)

val lrange : t -> string -> int -> int -> string list

(** {1 Accounting} *)

val memory_bytes : t -> int
(** Raw bytes resident in memory. *)

val persisted_bytes : t -> int
(** Bytes after per-value compression. *)

val read_bytes : t -> int
(** Total payload bytes returned to clients (models network transfer). *)
