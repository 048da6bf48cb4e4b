(** Set — a chunkable sorted collection of unique strings (§3.4). *)

type t

val create : Fbchunk.Chunk_store.t -> Fbtree.Tree_config.t -> string list -> t
val empty : Fbchunk.Chunk_store.t -> Fbtree.Tree_config.t -> t
val of_root : Fbchunk.Chunk_store.t -> Fbtree.Tree_config.t -> Fbchunk.Cid.t -> t
val root : t -> Fbchunk.Cid.t
val cardinal : t -> int
val equal : t -> t -> bool
val mem : t -> string -> bool
val add : t -> string -> t
val remove : t -> string -> t
val elements : t -> string list
val to_seq : t -> string Seq.t

val to_seq_from : t -> string -> string Seq.t
(** Members >= the given member, in order. *)

val diff : t -> t -> [ `Left of string | `Right of string ] list
(** Elements only in the first / only in the second set. *)

val iter_chunks : t -> (Fbchunk.Cid.t -> unit) -> unit
val verify : t -> bool
