(** A leveled LSM-tree key-value store — the stand-in for RocksDB/LevelDB
    under the baseline Hyperledger implementation (§6.2).

    Writes land in a sorted memtable and are flushed to level-0 SSTables;
    deeper levels are kept non-overlapping by whole-level compaction with a
    configurable size ratio.  Reads probe memtable, then L0 newest-first,
    then one table per deeper level — the multi-level read amplification
    the paper observes for Rocksdb reads (§6.2.1). *)

type config = {
  memtable_bytes : int;  (** flush threshold *)
  level0_tables : int;  (** L0 table count triggering compaction into L1 *)
  level_base_bytes : int;  (** L1 size target *)
  level_ratio : int;  (** size ratio between consecutive levels *)
}

type t

val create : ?config:config -> unit -> t
val put : t -> string -> string -> unit
val delete : t -> string -> unit
val get : t -> string -> string option

val iter_range : t -> lo:string -> hi:string -> (string -> string -> unit) -> unit
(** In-order visit of live keys in [\[lo, hi\]]. *)

val flush : t -> unit
(** Force the memtable into L0. *)

type stats = {
  levels : int;
  bytes : int;
  compactions : int;
  gets : int;
  tables_probed : int;
}

val stats : t -> stats
