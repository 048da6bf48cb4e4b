(** List — a chunkable sequence of variable-length elements (§3.4).

    Unlike {!Fblob}, the POS-Tree splits only at element boundaries, so an
    element is never spread across chunks and positional access returns
    whole elements. *)

type t

val create : Fbchunk.Chunk_store.t -> Fbtree.Tree_config.t -> string list -> t
val empty : Fbchunk.Chunk_store.t -> Fbtree.Tree_config.t -> t
val of_root : Fbchunk.Chunk_store.t -> Fbtree.Tree_config.t -> Fbchunk.Cid.t -> t
val root : t -> Fbchunk.Cid.t
val length : t -> int
val equal : t -> t -> bool

val get : t -> int -> string
val slice : t -> pos:int -> len:int -> string list
val to_list : t -> string list
val to_seq : t -> string Seq.t

val to_seq_from : t -> pos:int -> string Seq.t
(** Elements from a position onward; leaves fetched lazily. *)

val fold : ('a -> string -> 'a) -> 'a -> t -> 'a

val set : t -> int -> string -> t
val push_back : t -> string -> t
val insert : t -> pos:int -> string list -> t
val remove : t -> pos:int -> len:int -> t
val splice : t -> pos:int -> del:int -> ins:string list -> t
val splice_many : t -> (int * int * string list) list -> t

val diff_region : t -> t -> ((int * int) * (int * int)) option
(** The differing element regions [((pos1, len1), (pos2, len2))]; [None]
    when equal. *)

val merge_by_ref : base:t -> t -> t -> t option
(** Three-way merge from existing chunks when the two sides changed
    disjoint leaf runs (see {!Fbtree.Pos_tree.Make.merge_by_ref}). *)

val chunk_count : t -> int
val iter_chunks : t -> (Fbchunk.Cid.t -> unit) -> unit
val verify : t -> bool
