(** The cluster partition map as a first-class artifact: routing helpers
    over {!Fbremote.Wire.shard_map} plus the per-shard on-disk copy that
    lets a killed shard restart with the map it last installed.

    Routing is mod-N over a cryptographic hash of the key
    ({!Fbcluster.Partition.servlet_of_key}), so growing the
    cluster from [n] to [n+1] shards moves roughly [n/(n+1)] of the keys
    (see the movement-bound test in test_cluster) — acceptable at this
    scale and measured, not assumed; a consistent-hash ring would cut it
    to [1/(n+1)] without changing anything in this interface. *)

type t = Fbremote.Wire.shard_map = {
  version : int;
  shards : (string * int) array;
  pending : string list;
}

exception Bad_map of string

val create : version:int -> (string * int) list -> t
(** A map with no pending keys. @raise Bad_map on a negative version. *)

val n : t -> int
(** Number of shards. *)

val owner : t -> string -> int
(** Home shard of a key ({!Fbcluster.Partition.servlet_of_key}).
    @raise Bad_map on an empty map. *)

val addr : t -> int -> string * int
(** [(host, port)] of shard [i]. @raise Bad_map when out of range. *)

val parse_addr : string -> string * int
(** Parse ["HOST:PORT"] with a non-empty host and a port in 1..65535 —
    the one address parser, for the CLI's flags as well as [--map].
    @raise Bad_map on malformed input. *)

val parse_addrs : string -> (string * int) list
(** Parse ["HOST:PORT,HOST:PORT,..."] (the CLI's [--map] syntax).
    @raise Bad_map on malformed input. *)

val to_string : t -> string
(** Human-readable one-liner for status output. *)

val save : dir:string -> t -> unit
(** Atomically and durably write the map into [dir]: tmp file, fsync,
    rename, then {!Fbpersist.Persist.fsync_dir}, so the saved map
    survives power loss. *)

val load : dir:string -> t option
(** The map last saved into [dir], if any.
    @raise Bad_map if the file exists but does not decode. *)
