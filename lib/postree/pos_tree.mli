(** Pattern-Oriented-Split Tree (§4.3) — the index structure at the core of
    ForkBase.  A POS-Tree combines content-based slicing, a Merkle tree and
    a B+-tree:

    - node boundaries are defined by patterns detected in the content, so
      two trees holding the same element sequence have identical chunks and
      identical root cids regardless of how they were built (history
      independence), which makes deduplication and diff cheap;
    - every node is addressed by the cryptographic hash of its content, so
      the root cid authenticates the whole object (Merkle property);
    - index nodes carry split keys and element counts, so lookups by key or
      by position cost O(log n) like a B+-tree.

    Leaf boundaries use a rolling hash over the serialized element stream
    (pattern [P], §4.3.2), index boundaries use the low bits of child cids
    (pattern [P'], §4.3.3).  Both detectors reset at every boundary, so an
    edit re-chunks only until a produced boundary coincides with an old one
    (copy-on-write with O(edit + log n) work). *)

module type ELEM = sig
  type t

  val encode : Buffer.t -> t -> unit
  val decode : Fbutil.Codec.reader -> t

  val key : t -> string
  (** Search key for sorted containers; [""] for positional containers. *)

  val sorted : bool
  (** Whether elements are ordered by {!key}.  Positional containers
      ([false]) let the loader skip decoding leaf payloads entirely. *)

  val leaf_tag : Fbchunk.Chunk.tag
  val index_tag : Fbchunk.Chunk.tag
end

val index_children : Fbchunk.Chunk.t -> Fbchunk.Cid.t list
(** The child cids of an index node ([UIndex] or [SIndex] chunk), in
    order — decoded by the same parser the trees themselves use.
    @raise Fbutil.Codec.Corrupt on a malformed index payload. *)

module Make (E : ELEM) : sig
  type t
  (** Immutable handle: all update operations return a new tree sharing
      unchanged chunks with the old one. *)

  type elem = E.t

  (** {1 Construction and identity} *)

  val empty : Fbchunk.Chunk_store.t -> Tree_config.t -> t
  val of_elements : Fbchunk.Chunk_store.t -> Tree_config.t -> elem Seq.t -> t
  val of_list : Fbchunk.Chunk_store.t -> Tree_config.t -> elem list -> t

  val of_bytes : Fbchunk.Chunk_store.t -> Tree_config.t -> string -> t
  (** Bulk build from a flat byte string where each byte is one element
      (Blob).  Produces exactly the same tree as {!of_elements} over the
      bytes, an order of magnitude faster.  Only valid when every element
      encodes to exactly one payload byte. *)

  val of_root : Fbchunk.Chunk_store.t -> Tree_config.t -> Fbchunk.Cid.t -> t
  (** Load an existing tree.  Index nodes are decoded eagerly (they are the
      tree's skeleton); leaf payloads are fetched on demand.
      @raise Fbchunk.Chunk_store.Missing_chunk if the skeleton is incomplete. *)

  val root : t -> Fbchunk.Cid.t
  (** The root cid — a tamper-evident digest of the whole content. *)

  val length : t -> int
  val height : t -> int
  (** Number of levels (1 = a single leaf). *)

  val equal : t -> t -> bool
  (** Content equality, decided in O(1) by comparing root cids. *)

  (** {1 Reading} *)

  val get : t -> int -> elem
  (** @raise Invalid_argument when out of bounds. *)

  val slice : t -> pos:int -> len:int -> elem list

  val iter_slice : t -> pos:int -> len:int -> (elem -> unit) -> unit
  (** Like {!slice} without materializing the list. *)

  val iter_leaf_payloads :
    t -> pos:int -> len:int -> (string -> off:int -> take:int -> unit) -> unit
  (** Visit the raw leaf payload slices covering elements [pos, pos+len)
      without decoding them.  Only valid when every element encodes to
      exactly one payload byte (the Blob element); Fblob uses this to read
      at memcpy speed. *)

  val to_seq : t -> elem Seq.t

  val seq_from : t -> pos:int -> elem Seq.t
  (** Iterator positioned at an arbitrary element (§3.4: "Iterator
      interfaces are provided to efficiently traverse large objects");
      leaves are fetched lazily as the sequence is consumed. *)

  val seq_from_key : t -> string -> elem Seq.t
  (** Iterator positioned at the first element whose key is >= the given
      key (sorted containers). *)

  val to_list : t -> elem list
  val fold : ('a -> elem -> 'a) -> 'a -> t -> 'a

  (** {1 Positional updates} *)

  val splice : t -> pos:int -> del:int -> ins:elem list -> t
  (** Replace [del] elements starting at [pos] with [ins].
      @raise Invalid_argument when the range is out of bounds. *)

  val splice_many : t -> (int * int * elem list) list -> t
  (** Apply several [(pos, del, ins)] edits (positions in the original
      tree, sorted, non-overlapping) in one re-chunking pass.  Used to
      batch e.g. all writes of a blockchain commit. *)

  val append : t -> elem list -> t

  (** {1 Byte-stream updates (Blob)}

      Like {!of_bytes}, these are only valid when every element encodes to
      exactly one payload byte.  Both produce exactly the tree {!of_bytes}
      builds from the resulting content. *)

  val splice_bytes : t -> pos:int -> del:int -> ins:string -> t
  (** {!splice} on a byte stream: re-chunks from the leaf holding [pos]
      until a cut lands on an old leaf boundary, then reuses the old leaves
      by reference, so the bytes rolled and hashed are O(edit + leaf)
      whatever the tree's size.
      @raise Invalid_argument when the range is out of bounds. *)

  val rebase_bytes : t -> string -> t
  (** [rebase_bytes t s] is [of_bytes] of [s], built copy-on-write against
      [t]: the common prefix and suffix of the old and new bytes are found
      by comparing the old leaf payloads in place, and only the middle is
      spliced.  Returns [t] itself, with no store writes, when [s] equals
      its content; an empty [t] or [s] takes the full build. *)

  (** {1 Sorted access (Map / Set containers)} *)

  val find : t -> string -> elem option
  (** Binary search by {!E.key}; meaningful only if elements are sorted. *)

  val position_of_key : t -> string -> [ `Found of int | `Insert_at of int ]
  val set_sorted : t -> elem -> t
  (** Insert, or replace the element with an equal key. *)

  val set_sorted_many : t -> elem list -> t
  (** Batched {!set_sorted}; input need not be sorted. *)

  val remove_sorted : t -> string -> t
  (** No-op when the key is absent. *)

  (** {1 Structure} *)

  val leaf_cids : t -> Fbchunk.Cid.t array

  val iter_cids : t -> (Fbchunk.Cid.t -> unit) -> unit
  (** Visit the cid of every reachable chunk (leaves and index nodes) —
      the tree's contribution to a garbage-collection mark phase. *)

  val chunk_count : t -> int
  (** Total chunks (leaves + index nodes) reachable from the root. *)

  val verify : t -> bool
  (** Re-hash every reachable chunk against the cid that references it —
      the client-side tamper-evidence check. *)

  val diff_leaves : t -> t -> Fbchunk.Cid.Set.t
  (** Leaf cids present in the first tree but not the second: the physical
      delta an update produced. *)

  val diff_region : t -> t -> ((int * int) * (int * int)) option
  (** Structural diff: [None] when equal, otherwise
      [Some ((pos1, len1), (pos2, len2))].  Leaves equal by cid are
      skipped at both ends; inside the differing leaf span the region is
      trimmed of its common leading, then trailing, elements.  Each
      differing leaf is decoded once, so the cost is O(changed leaves). *)

  val diff_region_bytes : t -> t -> ((int * int) * (int * int)) option
  (** {!diff_region} on a byte stream (one payload byte per element): the
      differing leaf payloads are compared in place, a word at a time. *)

  val merge_by_ref : base:t -> t -> t -> t option
  (** [merge_by_ref ~base l r] is the three-way merge of two positional
      trees when it can be assembled from existing leaves: one side
      unchanged, or the base leaves [l] changes all lie before those [r]
      changes (or, with a gap of at least one leaf, after them).  The
      result is the tree {!of_elements} builds from the merged content,
      the same content a region merge of {!diff_region}'s regions gives;
      only index nodes are written.  [None] when the changed leaf runs
      touch or overlap, or when the first side's change reaches its last
      leaf. *)

  val diff_sorted :
    t -> t -> [ `Left of elem | `Right of elem | `Changed of elem * elem ] list
  (** Key-wise diff of two sorted trees: elements only in the first
      ([`Left]), only in the second ([`Right]), or present in both with
      different content ([`Changed (old, new)]).  Whole identical leaves
      are skipped by cid comparison without being decoded. *)
end
