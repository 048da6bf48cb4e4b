(** Merkle bucket tree — Hyperledger v0.6's default state structure
    (§6.2.2).

    The number of leaf buckets is fixed at start-up; a key hashes to a
    bucket, and each update re-serializes and re-hashes the whole bucket
    plus the grouping path to the root.  With few buckets and many keys,
    write amplification grows with state size — the failure mode Figure 11
    demonstrates.  ForkBase's Map objects avoid this by growing the tree
    dynamically. *)

type t

val create : num_buckets:int -> unit -> t
val get : t -> string -> string option

val apply : t -> (string * string option) list -> string
(** Batch of writes ([Some v]) and deletes ([None]); returns the new root
    hash after recomputing dirty buckets and their paths. *)

val root_hash : t -> string
val hashed_bytes : t -> int
(** Cumulative bytes fed to the hash function — the write-amplification
    metric plotted in the Figure 11 reproduction. *)

val key_count : t -> int
