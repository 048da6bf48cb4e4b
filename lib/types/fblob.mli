(** Blob — a chunkable byte sequence stored as a POS-Tree (§3.4).

    Suited to data that grows large but whose updates touch small portions
    (documents, wiki pages, file contents): consecutive versions share all
    untouched chunks.  All update operations return a new handle; the old
    version remains readable. *)

type t

val create : Fbchunk.Chunk_store.t -> Fbtree.Tree_config.t -> string -> t
val empty : Fbchunk.Chunk_store.t -> Fbtree.Tree_config.t -> t

val rebase : t -> string -> t
(** [rebase t s] is a blob holding [s] — the same tree, root cid and
    chunks as {!create} would build — written copy-on-write against [t]:
    only the leaves around the bytes that differ from [t] are re-chunked
    and hashed; the rest are reused by reference.  Returns [t] unchanged
    when [s] equals its content.  Lives in [t]'s store and configuration. *)

val of_root : Fbchunk.Chunk_store.t -> Fbtree.Tree_config.t -> Fbchunk.Cid.t -> t
val root : t -> Fbchunk.Cid.t
val length : t -> int
val equal : t -> t -> bool

val read : t -> pos:int -> len:int -> string
(** Fetches only the chunks covering the range. *)

val to_string : t -> string

val append : t -> string -> t
val insert : t -> pos:int -> string -> t
val remove : t -> pos:int -> len:int -> t
val overwrite : t -> pos:int -> string -> t
(** In-place update of [String.length] bytes at [pos]. *)

val splice : t -> pos:int -> del:int -> ins:string -> t
(** Re-chunks O(edit + leaf) bytes, whatever the blob's size. *)

val diff_region : t -> t -> ((int * int) * (int * int)) option
(** The differing byte regions [((pos1, len1), (pos2, len2))]; [None] when
    equal.  Shared leaves are skipped by cid and the differing leaves
    compared in place, so the cost is O(changed leaves). *)

val merge_by_ref : base:t -> t -> t -> t option
(** Three-way merge from existing chunks when the two sides changed
    disjoint leaf runs (see {!Fbtree.Pos_tree.Make.merge_by_ref}); the
    same tree {!create} builds from the merged bytes. *)

val chunk_count : t -> int
val height : t -> int
val iter_chunks : t -> (Fbchunk.Cid.t -> unit) -> unit
val verify : t -> bool
