(** State deltas — Hyperledger v0.6's mechanism for historical states
    (§5.1.1): each block stores the old values it overwrote, so previous
    states can only be reconstructed by replaying delta chains.  This is
    exactly what makes the baseline's scan queries slow (§6.2.3). *)

type entry = { key : string; prev : string option; next : string option }

type t = entry list

val encode : t -> string
val decode : string -> t
