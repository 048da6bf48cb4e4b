(** Column-oriented relational layout on ForkBase (§5.3): each column is a
    List object, embedded in a Map keyed by column name.  Analytical
    queries over single columns read only that column's chunks — the ~10×
    aggregation advantage of Figure 17b. *)

type t

val import :
  Forkbase.Db.t -> name:string -> Workload.Dataset.record array -> Fbchunk.Cid.t

val load : Forkbase.Db.t -> name:string -> t option

val update_at :
  Forkbase.Db.t ->
  name:string ->
  (int * Workload.Dataset.record) list ->
  Fbchunk.Cid.t
(** Replace the records at the given row positions (ascending). *)

val record_at : t -> int -> Workload.Dataset.record
val length : t -> int
val sum_qty : t -> int
(** Aggregate by folding over the [qty] column only. *)

val column : t -> string -> Fbtypes.Flist.t option
