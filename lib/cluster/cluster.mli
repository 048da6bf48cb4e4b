(** An in-process model of a ForkBase cluster (§4.1, §4.6): [n] servlets,
    each co-located with a local chunk storage, plus a dispatcher routing
    by key hash.  It exists for the Figure 15 storage-balance comparison;
    the served cluster is [lib/shard] (one-layer placement).

    Partitioning modes reproduce the Figure 15 comparison:
    - [One_layer]: all chunks of a key live on the key's servlet, so hot
      keys unbalance storage;
    - [Two_layer]: non-meta chunks are spread across all storages by cid,
      while meta chunks stay local to the servlet (§4.6). *)

type mode = One_layer | Two_layer

type t

val create : n:int -> mode -> t

val db_for_key : t -> string -> Forkbase.Db.t
(** The servlet responsible for a key, as the dispatcher would route it. *)

val storage_distribution : t -> int array
(** Stored bytes per chunk-storage node. *)

val imbalance : t -> float
(** max/mean of the storage distribution; 1.0 is perfectly balanced. *)
