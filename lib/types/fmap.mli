(** Map — a chunkable sorted dictionary of key-value pairs stored as a
    POS-Tree with SIndex nodes (§3.4, Table 2).

    Maps back the blockchain state structures of §5.1.3: lookups descend by
    split key, updates rewrite O(log n) chunks, and two versions of a map
    can be diffed in time proportional to their difference. *)

type t

val create :
  Fbchunk.Chunk_store.t -> Fbtree.Tree_config.t -> (string * string) list -> t
(** Input need not be sorted; duplicate keys keep the last binding. *)

val empty : Fbchunk.Chunk_store.t -> Fbtree.Tree_config.t -> t
val of_root : Fbchunk.Chunk_store.t -> Fbtree.Tree_config.t -> Fbchunk.Cid.t -> t
val root : t -> Fbchunk.Cid.t
val cardinal : t -> int
val equal : t -> t -> bool

val find : t -> string -> string option
val mem : t -> string -> bool
val set : t -> string -> string -> t
val set_many : t -> (string * string) list -> t
(** Batched update — one re-chunking pass for a whole commit. *)

val remove : t -> string -> t
val bindings : t -> (string * string) list
val to_seq : t -> (string * string) Seq.t

val to_seq_from : t -> string -> (string * string) Seq.t
(** Bindings with keys >= the given key, in order — a range-scan cursor. *)

val fold : ('a -> string -> string -> 'a) -> 'a -> t -> 'a

val diff :
  t ->
  t ->
  (string * [ `Left of string | `Right of string | `Changed of string * string ])
  list
(** Key-wise difference; identical subtrees are skipped by cid. *)

val chunk_count : t -> int
val iter_chunks : t -> (Fbchunk.Cid.t -> unit) -> unit
val verify : t -> bool
