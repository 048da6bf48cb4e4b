(** Chunk closures: every chunk a set of versions references.

    A version is a DAG of content-addressed chunks (§4.2–4.4): its meta
    chunk names its bases and the root of its value's POS-Tree, index
    nodes name their children, and leaves name nothing.  This module is
    the one place that knows those edges; garbage collection
    ({!Gc}), follower backfill ([Fbreplica.Replica]) and the shard
    rebalancer ([Fbshard.Dispatch]) all walk closures through it.  The
    integrity checker (lib/check's [Fsck]) keeps a parser of its own on
    purpose: it is the verifier. *)

val children : Fbchunk.Chunk.t -> Fbchunk.Cid.t list
(** The cids a chunk references directly: a meta chunk's bases and, for
    a non-primitive value, its value-tree root; an index node's
    children; nothing for a leaf.
    @raise Fbutil.Codec.Corrupt on a malformed meta or index payload. *)

val max_batch : int
(** The most cids {!walk} asks one [fetch] for (512). *)

val walk :
  fetch:(Fbchunk.Cid.t list -> (Fbchunk.Cid.t * Fbchunk.Chunk.t) list) ->
  Fbchunk.Cid.t list ->
  Fbchunk.Cid.t list
(** [walk ~fetch roots] visits the closure of [roots] breadth-first,
    asking [fetch] for batches of at most {!max_batch} cids it has not
    visited yet.  [fetch] answers with [(cid, chunk)] pairs for the cids
    it could resolve, in any order, and may leave some out (a server
    bounding its answer by bytes does); the walk descends through every
    answered chunk exactly once and re-asks for left-out cids while
    answers keep coming.  A cid left out of an answer that resolved
    nothing is given up.  Returns the given-up cids — [[]] when the
    whole closure was produced.  Once [fetch] has answered a cid the
    walk never asks for it again, so side effects on the visited chunks
    (copying, pushing, counting) belong in [fetch]. *)
