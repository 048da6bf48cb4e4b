(** The original Hyperledger v0.6 storage layer (Figure 7a) over any raw
    key-value store: application-level Merkle structure (bucket tree or
    trie), per-block state deltas, and blocks in the KV store.

    Used with the LSM store it is the paper's "Rocksdb" baseline; used with
    ForkBase-as-plain-KV it is "ForkBase-KV". *)

type kv

val lsm_kv : Lsm.Lsm_store.t -> kv
val forkbase_kv : Forkbase.Db.t -> kv

val create : ?merkle:Backend.merkle_choice -> kv -> Backend.t
(** Default Merkle structure: bucket tree with 1024 buckets. *)
