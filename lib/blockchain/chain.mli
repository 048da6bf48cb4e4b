(** The blockchain platform driver: executes transactions against a storage
    backend, batching writes into blocks (§5.1.1), and records per-
    operation latencies for the Figure 9/10 reproductions. *)

type t

val create : ?block_size:int -> Backend.t -> t
(** [block_size] is the paper's [b] (default 50): a commit is issued every
    [b] transactions. *)

val submit : t -> Transaction.t -> unit
(** Execute one transaction: reads fetch from the backend, writes buffer;
    a full batch triggers a block commit. *)

val run : t -> Transaction.t list -> unit
val flush : t -> unit
(** Commit a partial batch, as Hyperledger's commit timer would. *)

val height : t -> int
val blocks : t -> Block.t list
(** All blocks, oldest first. *)

val verify_chain : t -> bool
(** Recompute every block hash and check the [prev_hash] links. *)

val backend : t -> Backend.t

(** {1 Latency measurements} (seconds) *)

val read_latencies : t -> float array
val write_latencies : t -> float array
val commit_latencies : t -> float array
