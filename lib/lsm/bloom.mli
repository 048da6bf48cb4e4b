(** Bloom filter for SSTable membership tests — the standard LSM trick to
    skip runs that cannot contain a key. *)

type t

val create : expected:int -> t
(** Sized at ~10 bits per expected key (≈1% false positives, 7 hashes). *)

val add : t -> string -> unit
val mem : t -> string -> bool
(** No false negatives; ~1% false positives at the design load. *)

